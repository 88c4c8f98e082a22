"""Reference pair step that derives the guidance velocity on the full grid.

`reference_pair_step` is the pair step that per-line velocity derivation
replaced: every step it differentiates the whole new wave along both axes
(two full-grid complex FFT derivative pairs), carries the result to the
next step in a cache, and reads it at one point's cubic stencil in the
RK4.  The per-line path must reproduce it bit for bit.

`reference_axis_slice` is the conditional potentials' slice with its cell
and weights computed on one-element numpy arrays; `pair._axis_slice`,
which computes them in Python floats, must give its bits.

`serial_run_pair` is the serial lockstep run: each step's wave half, then
its particle halves in order.  `run_pair` must give its series, final
solitons and exits.
"""

from dataclasses import dataclass

import numpy as np

from interp_reference import Snapshot
from solidyn.errors import SolidynError
from solidyn.grids import _cubic_weights
from solidyn.pair import (PairRun, _step_particles, _step_wave,
                          conditional_q, ls2_step)
from solidyn.soliton import SolitonState, nls_step
from solidyn.stepping import NODE_MASK_REL, check_finite, drive
from solidyn.trajectories import FlowHistory, advance_positions


def reference_axis_slice(grid, data, axis, coord):
    """Cubic interpolation of a 2D array along one axis at a scalar coord,
    with the cell and weights taken through one-element arrays."""
    base, frac = grid._fraction_index(np.asarray([coord]), axis)
    weights = _cubic_weights(frac)[:, 0]
    n = grid.points[axis]
    idx = [(int(base[0]) + off) % n for off in (-1, 0, 1, 2)]
    take = (lambda j: data[:, j]) if axis == 1 else (lambda j: data[j, :])
    out = weights[0] * take(idx[0])
    for s in (1, 2, 3):
        out = out + weights[s] * take(idx[s])
    return out


def reference_velocity_fields(pair):
    """Full-grid v_k = Im[conj(Psi) d_k Psi] / max(|Psi|, floor)^2 / w0k."""
    grid = pair.psi.grid
    psi = pair.psi.samples
    a = np.abs(psi)
    peak = float(a.max())
    if peak == 0.0:
        raise SolidynError("zero pair wave")
    floor = NODE_MASK_REL * peak
    rho_safe = np.maximum(a, floor) ** 2
    vel = np.empty((2,) + grid.shape)
    for axis in range(2):
        grad = grid.derivative(psi, axis)
        current = np.imag(np.conj(psi) * grad)
        vel[axis] = current / rho_safe / pair.masses[axis]
    return vel, a


@dataclass
class ReferenceState:
    u1: SolitonState
    u2: SolitonState
    z: np.ndarray
    q_cache: tuple = None
    vel_cache: tuple = None


def reference_pair_step(pair, state, dt):
    t = pair.psi.time_tag
    grid = pair.psi.grid
    new_pair = ls2_step(pair, dt)
    check_finite(new_pair.psi.samples, round(t / max(dt, 1e-300)) + 1)

    if state.vel_cache is not None:
        vel_t, amp_t = state.vel_cache
    else:
        vel_t, amp_t = reference_velocity_fields(pair)
    vel_next, amp_next = reference_velocity_fields(new_pair)
    flow = FlowHistory(grid, None, None)
    flow.append(Snapshot(t, vel_t, amp_t))
    flow.append(Snapshot(t + dt, vel_next, amp_next))
    z_old = state.z
    z_new, _ = advance_positions(flow, np.atleast_2d(z_old), t, t + dt)
    z_new = z_new[0]

    if state.q_cache is not None:
        q1_start, q2_start = state.q_cache
    else:
        q1_start = conditional_q(pair, 1, z_old[1])
        q2_start = conditional_q(pair, 2, z_old[0])
    q1_end = conditional_q(new_pair, 1, z_new[1])
    q2_end = conditional_q(new_pair, 2, z_new[0])

    u1 = nls_step(state.u1, pair.potentials[0], dt,
                  external_q=q1_start, external_q_end=q1_end)
    u2 = nls_step(state.u2, pair.potentials[1], dt,
                  external_q=q2_start, external_q_end=q2_end)
    return new_pair, ReferenceState(u1=u1, u2=u2, z=z_new,
                                    q_cache=(q1_end, q2_end),
                                    vel_cache=(vel_next, amp_next))


def reference_run_pair(pair, u1, u2, z, dt, steps):
    """z, both soliton centers and both final soliton samples of a run."""
    state = ReferenceState(u1=u1, u2=u2, z=np.asarray(z, dtype=float))
    zs = [state.z.copy()]
    c1 = [state.u1.center[0]]
    c2 = [state.u2.center[0]]
    for _ in range(steps):
        centers = state.u1.center, state.u2.center
        pair, state = reference_pair_step(pair, state, dt)
        state.u1.track_center(centers[0])
        state.u2.track_center(centers[1])
        zs.append(state.z.copy())
        c1.append(state.u1.center[0])
        c2.append(state.u2.center[0])
    return (np.asarray(zs), np.asarray(c1), np.asarray(c2),
            state.u1.u.samples, state.u2.u.samples)


def serial_run_pair(pair, states, dt, steps):
    """One `PairRun` per state in `states`, as `run_pair` returns them."""
    def step(s, i):
        pair, states = s
        new_pair = _step_wave(pair, dt, i)
        stepped = [_step_particles(pair, new_pair, state, dt, i)
                   for state in states]
        for new, old in zip(stepped, states):
            new.u1.track_center(old.u1.center)
            new.u2.track_center(old.u2.center)
        return new_pair, stepped

    def sample(s, i):
        pair, states = s
        return {"times": pair.psi.time_tag,
                "z": [state.z for state in states],
                "centers1": [state.u1.center[0] for state in states],
                "centers2": [state.u2.center[0] for state in states]}

    (_, states), series = drive((pair, list(states)), steps, step, sample)
    times, z = series["times"], series["z"]
    c1, c2 = series["centers1"], series["centers2"]
    return [PairRun(times, z[:, j], c1[:, j], c2[:, j], final_state=state)
            for j, state in enumerate(states)]
