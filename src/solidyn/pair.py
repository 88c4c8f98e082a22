"""Two-particle configuration-space pilot wave with per-particle solitons.

The pair wave Psi(t, x1, x2) lives on a 2D periodic grid (one axis per
particle, possibly different masses) and evolves under

    i dPsi/dt = sum_k [ w0k + e V_k(x_k) - (d/dx_k)^2 / (2 w0k) ] Psi

with both particle clocks synchronized to the single time t.  Each particle
k carries its own 1D u-field on the corresponding axis grid, driven by the
conditional quantum potential: the configuration-space amplitude sliced at
the partner's instantaneous position,

    q_k(x) = - (d^2 a / dx_k^2)(x, z_partner) / (2 w0k a(x, z_partner)).

For entangled waves this makes particle 1's dynamics depend on where
particle 2 actually is: the nonlocality of the guidance law, made explicit.
For product waves the partner dependence cancels and everything factorizes
into independent single-particle runs.

`run_pair` steps one wave for every particle start it guides, all in the
calling process; the `entangled_pair` scenario runs its entangled and its
product run at once in two processes (`scenarios._concurrently`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import SolidynError
from .grids import Field, Grid
from .schrodinger import _guidance_velocity, _quantum_potential
from .soliton import SolitonState, nls_step
from .stepping import (NODE_MASK_REL, _half_phase, cached, check_finite,
                       drive, kinetic_multiplier, strang_step)
from .trajectories import FlowHistory, advance_point


@dataclass
class PairWave:
    """Configuration-space wave plus per-particle masses and potentials.

    A wave keeps its peak `amp_peak` and its velocity lines but no full
    `|Psi|` (see `amplitude`), so a run holds its complex waves only."""

    psi: Field                    # 2D samples, axes (x1, x2)
    masses: tuple                 # (w01, w02)
    charge: float
    potentials: tuple             # (Potentials dim-1, Potentials dim-1)

    def __post_init__(self):
        if self.psi.grid.dim != 2:
            raise SolidynError("pair wave needs a 2D configuration grid")
        if any(pot.has_vector for pot in self.potentials):
            raise SolidynError("the pair sector requires A = 0")
        self.axis_grids = _axis_grids(self.psi.grid.points,
                                      self.psi.grid.lengths)

    @property
    def grid(self):
        return self.psi.grid

    @property
    def time_tag(self):
        return self.psi.time_tag

    @property
    def amplitude(self):
        """|Psi|, indexed like the grid array but never built whole: each
        read takes `np.abs` of the samples it reads (a velocity line block,
        a conditional slice's four lines, the point RK4's 4x4 node-check
        block), which gives the full array's bits elementwise."""
        return _Modulus(self.psi.samples)

    @cached_property
    def amp_peak(self):
        """max |Psi|, reduced once per wave from a transient |Psi| (the node
        floors of the velocity lines, the point RK4 and the conditional
        potentials share it)."""
        return float(np.abs(self.psi.samples).max())

    @cached_property
    def velocity(self):
        """Guidance velocity of this wave, one `_VelocityLines` per
        component, derived per grid line on demand and kept with it."""
        if self.amp_peak == 0.0:
            raise SolidynError("zero pair wave")
        floor = NODE_MASK_REL * self.amp_peak
        return tuple(_VelocityLines(self.psi, floor, self.masses[axis], axis)
                     for axis in (0, 1))


class _Modulus:
    """|samples| read through indexing: `modulus[index]` is
    `np.abs(samples[index])`."""

    __slots__ = ("_samples",)

    def __init__(self, samples):
        self._samples = samples

    def __getitem__(self, index):
        return np.abs(self._samples[index])


@lru_cache(maxsize=4)
def _axis_grids(points, lengths):
    """The 1D grid of each axis, shared by every pair wave on one
    configuration grid (each step makes a new wave), so the multipliers
    each grid caches are built once."""
    return tuple(Grid(n, L) for n, L in zip(points, lengths))


def product_pair(samples1, samples2, grid: Grid, masses, charge,
                 potentials) -> PairWave:
    """Psi(x1, x2) = psi1(x1) psi2(x2) on the 2D grid, at time 0."""
    psi2d = np.outer(np.asarray(samples1, dtype=complex),
                     np.asarray(samples2, dtype=complex))
    return PairWave(Field(grid, psi2d), tuple(masses), charge,
                    tuple(potentials))


# 2D split-step factors of ls2_step, of one configuration grid: the runs of
# one scenario share them, and a step on another grid drops them.
_STEP_FACTORS = {}


def ls2_step(pair: PairWave, dt: float) -> PairWave:
    """Strang split step of the two-particle wave (unitary to round-off)."""
    grid = pair.psi.grid
    t = pair.psi.time_tag
    e = pair.charge

    def half_at(tt):
        w1, w2 = (pot.linear_potential(axis_grid, mass, e, tt)
                  for pot, axis_grid, mass in zip(
                      pair.potentials, pair.axis_grids, pair.masses))
        return _half_phase(w1[:, None] + w2[None, :], dt)

    if any(slot[1:] != (grid.points, grid.lengths) for slot in _STEP_FACTORS):
        _STEP_FACTORS.clear()
    if any(pot.time_dependent for pot in pair.potentials):
        half_start, half_end = half_at(t), half_at(t + dt)
    else:
        half_start = half_end = cached(
            _STEP_FACTORS, "half", grid,
            (pair.masses, e, dt, pair.potentials), lambda: half_at(t))
    kin = cached(_STEP_FACTORS, "kinetic", grid, (pair.masses, e, dt),
                 lambda: kinetic_multiplier(grid, pair.masses, e,
                                            (0.0, 0.0), dt))
    out = strang_step(pair.psi.samples, half_start, half_end, kin)
    return PairWave(Field(grid, out, t + dt), pair.masses, pair.charge,
                    pair.potentials)


def pair_velocity_fields(pair: PairWave):
    """Guidance velocity components v_k = Im[d_k Psi / Psi] / w0k on the
    full grid, plus the full-grid amplitude |Psi| (for node masking)."""
    vel = np.empty((2,) + pair.psi.grid.shape)
    for axis, component in enumerate(pair.velocity):
        vel[axis] = component.derive(slice(None))
    return vel, np.abs(pair.psi.samples)


class _VelocityLines:
    """One guidance velocity component of a wave, indexed like its row of
    the (2, *shape) array of `pair_velocity_fields` but derived one grid
    line at a time.

    Component k at (x1, x2) needs only the line through that point along
    axis k, so each stencil gather `Grid.interpolate` makes derives just
    the lines it touches (columns for k = 0, rows for k = 1) as one batch,
    once each, and keeps them.  The node floor is the whole wave's, and a
    line's FFT and elementwise arithmetic give the bits of the full-grid
    ones, so every value equals the full-grid field exactly.
    """

    def __init__(self, psi: Field, floor, mass, axis):
        self.floor = floor
        self._psi = psi
        self._mass = mass
        self._axis = axis
        # the derived lines, one per row; the row of each grid line (-1
        # until derived); the set of derived lines, to pass a kept gather
        shape = psi.grid.shape
        self._slots = np.full(shape[1 - axis], -1)
        self._kept = np.empty((0, shape[axis]))
        self._derived = set()

    def derive(self, lines):
        """The component on the lines along its axis picked by `lines` (an
        index into the other axis), in grid orientation; nothing is kept."""
        at = (slice(None), lines) if self._axis == 0 else (lines, slice(None))
        samples = self._psi.samples[at]
        rho_safe = np.maximum(np.abs(samples), self.floor) ** 2
        return _guidance_velocity(samples, self._psi.grid, self._axis,
                                  rho_safe, self._mass)

    def __getitem__(self, index):
        """The component at a 2D gather index (rows, cols), deriving the
        lines it touches that are not yet kept."""
        rows, cols = index
        lines, across = (cols, rows) if self._axis == 0 else (rows, cols)
        slots = self._slots
        if not self._derived.issuperset(lines.ravel().tolist()):
            new = np.unique(lines[slots[lines] < 0])
            block = self.derive(new)
            kept = self._kept
            slots[new] = np.arange(len(kept), len(kept) + new.size)
            self._kept = np.concatenate(
                [kept, block.T if self._axis == 0 else block])
            self._derived.update(new.tolist())
        return self._kept[slots[lines], across]


def conditional_q(pair: PairWave, which: int, partner_pos: float):
    """Conditional quantum potential for particle `which` (1 or 2).

    Slices |Psi| at the partner's position (cubic interpolation along the
    partner axis), then returns -(second derivative of the slice) /
    (2 w0k slice amplitude) with the node floor, on the own-axis grid.
    Interpolation and differentiation act on different axes, so slicing
    first equals differentiating the full grid first, up to round-off.
    """
    if which not in (1, 2):
        raise SolidynError("which must be 1 or 2")
    grid = pair.psi.grid
    own = which - 1
    other = 1 - own
    if not pair.axis_grids[other].contains_point((partner_pos,)):
        raise SolidynError("partner position outside the box")
    a = pair.amplitude
    floor = NODE_MASK_REL * pair.amp_peak
    a_slice = _axis_slice(grid, a, other, partner_pos)
    if np.all(a_slice < floor):
        raise SolidynError(
            "conditional slice lies entirely below the node floor")
    # the bits of the Laplacian row of the derivatives that madelung_extract
    # takes, and its q kernel, so a product pair's q has the bits of the
    # single-particle q
    d2a_slice = pair.axis_grids[own].real_laplacian(a_slice)
    return _quantum_potential(d2a_slice, np.maximum(a_slice, floor),
                              pair.masses[own])


def _axis_slice(grid: Grid, data, axis, coord):
    """Cubic interpolation of a 2D array along one axis at a scalar coord
    (its weights and cell in Python floats, as a point stencil's)."""
    weights, idx = grid._axis_cell(coord, axis)
    take = (lambda j: data[:, j]) if axis == 1 else (lambda j: data[j, :])
    out = weights[0] * take(idx[0])
    for s in (1, 2, 3):
        out = out + weights[s] * take(idx[s])
    return out


@dataclass
class PairState:
    """Both solitons, the synchronized configuration-space point, and the
    conditional potentials evaluated at the end of the previous step."""

    u1: SolitonState
    u2: SolitonState
    z: np.ndarray
    q_cache: tuple = None

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float).reshape(2)


def pair_step(pair: PairWave, state: PairState, dt: float):
    """Advance wave, synchronized trajectory point, and both solitons.

    Order per step: wave first (`_step_wave`); then the particle half
    (`_step_particles`): the configuration-space RK4 for (z1, z2) over the
    two-record flow history of the bracketing waves (`advance_point`, the
    one-point RK4 of the coupled run and of a walked single start), then
    each particle's conditional quantum potential (at the partner's start
    and end positions) drives its 1D soliton.  `run_pair` runs the same
    two halves, the wave half once for all its states.
    """
    i = round(pair.psi.time_tag / max(dt, 1e-300)) + 1
    new_pair = _step_wave(pair, dt, i)
    return new_pair, _step_particles(pair, new_pair, state, dt, i)


def _step_wave(pair: PairWave, dt: float, i: int) -> PairWave:
    """The wave half of pair step `i`: `ls2_step` and its finiteness
    check."""
    new_pair = ls2_step(pair, dt)
    check_finite(new_pair.psi.samples, i)
    return new_pair


def _step_particles(pair: PairWave, new_pair: PairWave, state: PairState,
                    dt: float, i: int) -> PairState:
    """The particle half of pair step `i`: move `state` from `pair` to
    `new_pair`, the next wave, and check each new soliton.  It only reads
    the two waves."""
    # both waves keep the velocity lines the RK4 stencils derive, so the
    # next step reuses this step's new wave as is
    t = pair.psi.time_tag
    z_old = state.z.tolist()
    z_new, _ = advance_point(FlowHistory.of(pair, new_pair), z_old, t, t + dt)

    if state.q_cache is not None:
        q1_start, q2_start = state.q_cache
    else:
        q1_start = conditional_q(pair, 1, z_old[1])
        q2_start = conditional_q(pair, 2, z_old[0])
    q1_end = conditional_q(new_pair, 1, z_new[1])
    q2_end = conditional_q(new_pair, 2, z_new[0])

    u1 = nls_step(state.u1, pair.potentials[0], dt,
                  external_q=q1_start, external_q_end=q1_end)
    check_finite(u1.u.samples, i)
    u2 = nls_step(state.u2, pair.potentials[1], dt,
                  external_q=q2_start, external_q_end=q2_end)
    check_finite(u2.u.samples, i)
    return PairState(u1=u1, u2=u2, z=z_new, q_cache=(q1_end, q2_end))


@dataclass
class PairRun:
    """The series of one particle start of `run_pair`.  Runs of one call
    share `times`, and their other series are views of one block."""

    times: np.ndarray
    z: np.ndarray                 # (n, 2) synchronized trajectory
    centers1: np.ndarray          # (n,) soliton-1 first moment
    centers2: np.ndarray
    final_state: PairState = None


def run_pair(pair: PairWave, states, dt: float, steps: int) -> list:
    """Drive one wave and every particle start in `states` through `steps`
    pair steps, recording each start's trajectory and tracking series.

    The guidance is one way (the wave never sees the particles), so each
    time step runs the wave half of `pair_step` once, and then each state
    in turn its particle half.  All states read the same `PairWave`s and
    share their memoized peak and velocity lines; each state's series and
    final solitons have the bits of its run alone.  The run stops at the
    first step at which the wave or any state fails: a wave error raises
    at its step, and if several states fail at one step, the first of them
    in `states` raises.  Each soliton's center is taken as its step is
    recorded, against its center of the step before (a stepped
    `SolitonState` has none).  Returns one `PairRun` per state, in order.
    """
    def step(s, i):
        pair, states = s
        new_pair = _step_wave(pair, dt, i)
        return new_pair, [_step_particles(pair, new_pair, state, dt, i)
                          for state in states]

    before = states

    def sample(s, i):
        # each soliton's center, against its center of the step before
        nonlocal before
        pair, states = s
        if i:
            for state, old in zip(states, before):
                state.u1.track_center(old.u1.center)
                state.u2.track_center(old.u2.center)
        before = states
        return {"times": pair.psi.time_tag,
                "z": [state.z for state in states],
                "centers1": [state.u1.center[0] for state in states],
                "centers2": [state.u2.center[0] for state in states]}

    (_, states), series = drive((pair, list(states)), steps, step, sample)
    times, z = series["times"], series["z"]
    c1, c2 = series["centers1"], series["centers2"]
    return [PairRun(times, z[:, j], c1[:, j], c2[:, j], final_state=state)
            for j, state in enumerate(states)]


def pair_tracking_residual(run: PairRun):
    """Per-particle max |xbar_k(t) - z_k(t)| over the run."""
    r1 = float(np.max(np.abs(run.centers1 - run.z[:, 0])))
    r2 = float(np.max(np.abs(run.centers2 - run.z[:, 1])))
    return r1, r2
