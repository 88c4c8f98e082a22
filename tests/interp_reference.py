"""Reference interpolation and RK4 guidance step, written out in full.

`reference_interpolate` is the one-call cubic interpolation that
`Grid.stencil` / `Stencil.apply` replaced: it rebuilds the weights and the
wrapped indices on every call.  `reference_integrate_flow` integrates a
flow history with it, interpolating each snapshot at every RK4 stage.  The
stencil path must reproduce both bit for bit.

A flow history keeps only the last three records appended; the references
read a history filled inside `keep_every_snapshot`, which keeps them all, and
read the records' fields.
"""

import contextlib
import sys
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from solidyn import trajectories
from solidyn.errors import BoundaryExitError, NodeEncounterError, SolidynError
from solidyn.stepping import NODE_PROXIMITY_REL


@contextlib.contextmanager
def keep_every_snapshot():
    """Histories filled inside keep every snapshot (their window is widened
    past any length), so that `flow_steps`, the references below and a walk
    attached after the wave read the whole history."""
    with mock.patch.object(trajectories, "WALK_WINDOW", sys.maxsize):
        yield


@dataclass
class Snapshot:
    """A hand-built flow-history record: the fields a history reads, with
    `amp_peak` reduced from the amplitude (no quantum force by default)."""

    time_tag: float
    velocity: np.ndarray           # (dim, *shape)
    amplitude: np.ndarray
    quantum_force: np.ndarray = None
    amp_peak: float = field(init=False)

    def __post_init__(self):
        self.amp_peak = float(np.max(self.amplitude))


def record_snapshots(history, *names):
    """A dict of lists that receive the named fields of each record (e.g.
    "time_tag", "mass_sq") as the wave appends it to `history`; attach it
    before the wave."""
    lists = {name: [] for name in names}

    def read(record):
        for name in names:
            lists[name].append(getattr(record, name))

    history.readers.append(read)
    return lists


def record_fields(history, name):
    """The named field of each record `history` keeps, oldest first."""
    return [getattr(record, name) for record in history.records]


def reference_weights(frac):
    """Lagrange weights on the stencil {-1, 0, 1, 2}, shape (4, n)."""
    f = frac
    w_m1 = -f * (f - 1.0) * (f - 2.0) / 6.0
    w_0 = (f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0
    w_p1 = -(f + 1.0) * f * (f - 2.0) / 2.0
    w_p2 = (f + 1.0) * f * (f - 1.0) / 6.0
    return np.stack([w_m1, w_0, w_p1, w_p2])


def reference_interpolate(grid, samples, positions):
    """Separable cubic interpolation at off-grid points, built per call."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if positions.shape[1] != grid.dim:
        raise SolidynError("query points have the wrong axis count")
    if not np.all(grid.contains(positions)):
        raise SolidynError("interpolation point outside the box")
    weights = []
    indices = []
    for axis in range(grid.dim):
        s = (positions[:, axis] + 0.5 * grid.lengths[axis]) \
            / grid.spacing[axis]
        base = np.floor(s)
        frac = s - base
        base = base.astype(np.int64)
        weights.append(reference_weights(frac))
        n = grid.points[axis]
        indices.append(np.stack([(base + off) % n for off in (-1, 0, 1, 2)]))
    if grid.dim == 1:
        vals = samples[indices[0]]
        return np.einsum("sn,sn->n", weights[0], vals)
    vals = samples[indices[0][:, None, :], indices[1][None, :, :]]
    partial = np.einsum("tn,stn->sn", weights[1], vals)
    return np.einsum("sn,sn->n", weights[0], partial)


def _interp_snapshot(grid, data, positions):
    if data.ndim == grid.dim:
        return reference_interpolate(grid, data, positions)
    out = np.empty((positions.shape[0], grid.dim), dtype=data.dtype)
    for a in range(grid.dim):
        out[:, a] = reference_interpolate(grid, data[a], positions)
    return out


def reference_blend(history, stack, t, positions):
    """Linear-in-time blend of the two bracketing snapshots at t; `stack`
    holds one field per kept record (see `record_fields`)."""
    i, j = history.bracket(t)
    ti, tj = history.records[i].time_tag, history.records[j].time_tag
    vi = _interp_snapshot(history.grid, stack[i], positions)
    if tj == ti:
        return vi
    theta = (t - ti) / (tj - ti)
    if theta == 0.0:
        return vi
    vj = _interp_snapshot(history.grid, stack[j], positions)
    return (1.0 - theta) * vi + theta * vj


def _velocity(history, t, pts, last_valid):
    inside = history.grid.contains(pts)
    if not np.all(inside):
        raise BoundaryExitError("boundary exit", last_valid)
    return reference_blend(history, record_fields(history, "velocity"), t,
                           pts)


def _check_nodes(history, t, pts, last_valid):
    inside = history.grid.contains(pts)
    if not np.all(inside):
        raise BoundaryExitError("boundary exit", last_valid)
    amp = reference_blend(history, record_fields(history, "amplitude"), t,
                          pts)
    if np.any(amp < history.amp_floor(t)):
        raise NodeEncounterError("node encounter", last_valid)


def reference_rk4_step(history, z, t0, t1, k1=None):
    """One RK4 step; each stage interpolates both snapshots afresh."""
    h = t1 - t0
    if k1 is None:
        k1 = _velocity(history, t0, z, t0)
    k2 = _velocity(history, t0 + 0.5 * h, z + 0.5 * h * k1, t0)
    k3 = _velocity(history, t0 + 0.5 * h, z + 0.5 * h * k2, t0)
    k4 = _velocity(history, t1, z + h * k3, t0)
    z_new = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    _check_nodes(history, t1, z_new, t0)
    return z_new


def reference_integrate_flow(history, z0):
    """(positions, velocities, fq, fem, near) as integrate_flow returns
    them; the Klein-Gordon sector checks are not repeated here."""
    grid = history.grid
    z = np.atleast_2d(np.asarray(z0, dtype=float)).astype(float).copy()
    m = z.shape[0]
    times = record_fields(history, "time_tag")
    amplitudes = record_fields(history, "amplitude")
    forces = [getattr(record, "quantum_force", None)
              for record in history.records]
    n = len(times)
    positions = np.empty((n, m, grid.dim))
    velocities = np.empty((n, m, grid.dim))
    fq = np.zeros((n, m, grid.dim))
    fem = np.zeros((n, m, grid.dim))
    near = np.zeros((n, m), dtype=bool)
    _check_nodes(history, times[0], z, times[0])
    for i in range(n):
        t = times[i]
        positions[i] = z
        velocities[i] = _velocity(history, t, z, t)
        if forces[0] is not None:
            fq[i] = reference_blend(history, forces, t, z)
        fem[i] = history.params.charge \
            * history.potentials.electric_field(t, z)
        i_, j_ = history.bracket(t)
        level = NODE_PROXIMITY_REL * max(history.records[i_].amp_peak,
                                         history.records[j_].amp_peak)
        near[i] = reference_blend(history, amplitudes, t, z) < level
        if i == n - 1:
            break
        z = reference_rk4_step(history, z, t, times[i + 1], k1=velocities[i])
    return positions, velocities, fq, fem, near


def same_bits(a, b):
    """True if two arrays hold the same dtype, shape and bytes (so -0.0 and
    +0.0, or two NaN payloads, count as different)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()
