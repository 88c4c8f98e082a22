"""Guidance-flow trajectory integration while the wave fills its history.

A flow history holds the snapshot records its producing solver built (a
`MadelungBundle`, `KGMadelung` or `PairWave`) and reads their fields:
`time_tag`, `velocity` (dim, *shape), `amplitude`, `amp_peak` and, for
Schrodinger only, `quantum_force`.  Trajectories advance with RK4 whose
stage velocities come from cubic-in-space, linear-in-time interpolation of
the bracketing snapshots; the RK4 step equals the snapshot spacing, which is
what limits accuracy (so higher-order time interpolation buys nothing).

A history keeps only the last three records appended (`WALK_WINDOW`), since
every time derivative along the flow is a centered difference.  So each
reader attaches to a history before the wave fills it and reads every record
as it is appended (a `FlowWalk`, or `InteriorMax`); its `finish()` returns
the result once the wave is done.  Results are bit-reproducible.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryExitError, NodeEncounterError, SolidynError
from .stepping import NODE_MASK_REL, NODE_PROXIMITY_REL

# Snapshots a FlowWalk reads at once: the RK4 step i -> i+1 reads i and
# i+1, and its node check at t_{i+1} brackets i+1 and i+2.
WALK_WINDOW = 3


@dataclass
class TrajectoryRecord:
    """A guidance trajectory with per-step force annotations."""

    times: np.ndarray            # (n,)
    positions: np.ndarray        # (n, dim)
    velocities: np.ndarray       # (n, dim)
    quantum_force: np.ndarray    # (n, dim)
    em_force: np.ndarray         # (n, dim)
    node_proximity: np.ndarray   # (n,) bool


class FlowHistory:
    """The last `WALK_WINDOW` snapshot records that a solver appended.

    `records` holds them, oldest first; `first` is the index of the oldest
    kept, and `bracket` returns positions in `records`.  A record carries
    `time_tag`, `velocity` (dim, *shape), `amplitude`, `amp_peak` (the
    maximum of `amplitude`) and optionally `quantum_force` (dim, *shape); a
    record without one has zero quantum force.  `readers` are called with
    each record after it is appended.
    """

    quantum_potentials = ()   # never filled: guidance does not read q

    def __init__(self, grid, params, potentials):
        self.grid = grid
        self.params = params
        self.potentials = potentials
        self.first = 0
        self.readers = []
        self.records = []

    def append(self, record):
        self.records.append(record)
        if len(self.records) > WALK_WINDOW:
            del self.records[0]
            self.first += 1
        for read in self.readers:
            read(record)

    @property
    def count(self):
        """Snapshots stored so far, dropped ones included."""
        return self.first + len(self.records)

    # read-only views of the kept records' fields, which the benchmark's
    # history size count sums (with `quantum_potentials`)
    @property
    def velocities(self):
        return tuple(r.velocity for r in self.records)

    @property
    def amplitudes(self):
        return tuple(r.amplitude for r in self.records)

    @property
    def quantum_forces(self):
        return tuple(r.quantum_force for r in self.records
                     if getattr(r, "quantum_force", None) is not None)

    # -- interpolation helpers ----------------------------------------
    #
    # Lookups take a `grids.Stencil` of the query points, so one set of
    # cubic weights serves both bracketing snapshots and every component.

    def bracket(self, t):
        """Positions (i, i+1) of the kept records whose times bracket t."""
        records = self.records
        if (t < records[0].time_tag - 1e-12
                or t > records[-1].time_tag + 1e-12):
            raise SolidynError(f"time {t} outside stored history")
        i = bisect.bisect_right(records, t, key=lambda r: r.time_tag) - 1
        i = min(max(i, 0), len(records) - 2)
        return i, i + 1

    def _blend(self, field, t, stencil):
        """field(p), the data of kept record p, at time t and the stencil
        points; field(j) is not called when t falls on record i."""
        i, j = self.bracket(t)
        ti, tj = self.records[i].time_tag, self.records[j].time_tag
        vi = self._interp_snapshot(field(i), stencil)
        if tj == ti:
            return vi
        theta = (t - ti) / (tj - ti)
        if theta == 0.0:
            return vi
        vj = self._interp_snapshot(field(j), stencil)
        return (1.0 - theta) * vi + theta * vj

    def _interp_snapshot(self, data, stencil):
        grid = self.grid
        if data.ndim == grid.dim:             # scalar field
            return grid.interpolate(data, stencil)
        out = np.empty((stencil.positions.shape[0], grid.dim),
                       dtype=data.dtype)
        for a in range(grid.dim):
            out[:, a] = grid.interpolate(data[a], stencil)
        return out

    def velocity_at(self, t, stencil):
        return self._blend(lambda p: self.records[p].velocity, t, stencil)

    def amplitude_at(self, t, stencil):
        return self._blend(lambda p: self.records[p].amplitude, t, stencil)

    def amp_floor(self, t):
        i, j = self.bracket(t)
        return NODE_MASK_REL * max(self.records[i].amp_peak,
                                   self.records[j].amp_peak)

    # -- violation hooks ------------------------------------------------

    def check(self, t, stencil, last_valid):
        """Raise if any stencil point sits in a forbidden region at time t.

        Box exits are raised where the stencil is built, before this check.
        """
        amp = self.amplitude_at(t, stencil)
        floor = self.amp_floor(t)
        if np.any(amp < floor):
            raise NodeEncounterError(
                f"node encounter at t={t:.6g} (trajectory "
                f"{int(np.argmin(amp))})", last_valid)

    def proximity_flags(self, t, stencil):
        i, j = self.bracket(t)
        near = NODE_PROXIMITY_REL * max(self.records[i].amp_peak,
                                        self.records[j].amp_peak)
        return self.amplitude_at(t, stencil) < near


def _enter_box(grid, t, pts, last_valid, where="at"):
    """Stencil of `pts`, after raising BoundaryExitError if any left the box.

    This box test replaces the one in `Grid.stencil`, so it runs once.
    """
    inside = grid.contains(pts)
    if not np.all(inside):
        raise BoundaryExitError(
            f"boundary exit {where} t={t:.6g} (trajectory "
            f"{int(np.argmin(inside))})", last_valid)
    return grid._stencil_in_box(grid._query_points(pts))


def guided_velocity(history, t, pts, last_valid):
    """Velocity lookup with a box-exit check (used by every RK4 stage)."""
    return history.velocity_at(
        t, _enter_box(history.grid, t, pts, last_valid, where="near"))


def advance_positions(history, z, t0, t1, k1=None):
    """One RK4 step of dz/dt = v(t, z) from t0 to t1 over the history.

    `k1` may pass a precomputed stage-1 velocity.  The updated positions are
    validated against the box and the node mask at t1.  Returns them with
    their stencil, which callers reuse for every later lookup at them
    (including the next step's stage 1).
    """
    h = t1 - t0
    if k1 is None:
        k1 = guided_velocity(history, t0, z, t0)
    k2 = guided_velocity(history, t0 + 0.5 * h, z + 0.5 * h * k1, t0)
    k3 = guided_velocity(history, t0 + 0.5 * h, z + 0.5 * h * k2, t0)
    k4 = guided_velocity(history, t1, z + h * k3, t0)
    z_new = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    stencil = _enter_box(history.grid, t1, z_new, t0)
    history.check(t1, stencil, last_valid=t0)
    return z_new, stencil


def advance_point(bundle, bundle_next, z, t0, t1, k1):
    """One RK4 step of a single point between two Madelung snapshots.

    The float twin of `advance_positions` over the two-snapshot
    `FlowHistory` of `bundle` (at t0) and `bundle_next` (at t1): the same
    stencils (`Grid.point_stencil`), time blends and sums in Python floats,
    so it returns the same bits and raises the same aborts, at a small
    fraction of numpy's per-call cost.  `z` and `k1` (the velocity at z and
    t0) are per-axis sequences of floats.  Returns the new position (a
    tuple), its point stencil, and the amplitude there at t1, which the
    node check read.
    """
    grid = bundle.grid
    h = t1 - t0

    def blend(t, stencil, fields, fields_next):
        now = [stencil.apply(f) for f in fields]
        if t1 == t0:
            return now
        theta = (t - t0) / (t1 - t0)
        if theta == 0.0:
            return now
        nxt = [stencil.apply(f) for f in fields_next]
        return [(1.0 - theta) * a + theta * b for a, b in zip(now, nxt)]

    def velocity(t, pts):
        stencil = _enter_point(grid, t, pts, t0, "near")
        return blend(t, stencil, bundle.velocity, bundle_next.velocity)

    k2 = velocity(t0 + 0.5 * h, [c + 0.5 * h * k for c, k in zip(z, k1)])
    k3 = velocity(t0 + 0.5 * h, [c + 0.5 * h * k for c, k in zip(z, k2)])
    k4 = velocity(t1, [c + h * k for c, k in zip(z, k3)])
    z_new = tuple(c + (h / 6.0) * (a + 2.0 * b + 2.0 * d + e)
                  for c, a, b, d, e in zip(z, k1, k2, k3, k4))
    stencil = _enter_point(grid, t1, z_new, t0, "at")
    amp, = blend(t1, stencil, (bundle.amplitude,), (bundle_next.amplitude,))
    if amp < NODE_MASK_REL * max(bundle.amp_peak, bundle_next.amp_peak):
        raise NodeEncounterError(
            f"node encounter at t={t1:.6g} (trajectory 0)", t0)
    return z_new, stencil, amp


def _enter_point(grid, t, point, last_valid, where):
    """`_enter_box` of one point: its point stencil, after the box test."""
    if not grid.contains_point(point):
        raise BoundaryExitError(
            f"boundary exit {where} t={t:.6g} (trajectory 0)", last_valid)
    return grid._point_stencil_in_box(point)


def flow_steps(history, z0):
    """Walk guidance trajectories through a snapshot history by RK4.

    z0 may be a single position or an (m, dim) batch; batches advance in
    lockstep (vectorized stages).  Yields ``(i, t, z, stencil, k1)`` at each
    snapshot before stepping past it: the (m, dim) positions, their stencil
    and the velocity there, which is also the next step's first stage.
    Callers record what they read and must not modify the arrays.  A node
    encounter or box exit raises with the last valid time.  The walk ends
    at the last stored snapshot; a `FlowWalk` asks for each step only once
    the snapshots it reads are stored.
    """
    grid = history.grid
    z = np.atleast_2d(np.asarray(z0, dtype=float)).astype(float).copy()
    i, t = 0, history.records[0].time_tag
    stencil = _enter_box(grid, t, z, t)
    history.check(t, stencil, last_valid=t)
    while True:
        k1 = history.velocity_at(t, stencil)
        yield i, t, z, stencil, k1
        if i + 1 == history.count:
            return
        t_next = history.records[i + 1 - history.first].time_tag
        z, stencil = advance_positions(history, z, t, t_next, k1=k1)
        i, t = i + 1, t_next


class FlowWalk:
    """`flow_steps` over a history while the wave fills it.

    The walk reads the history after each stored snapshot and takes every
    step whose lookups are stored: the step i -> i+1 once snapshot i+2 is,
    so visit i sees snapshots i-1, i and i+1 (see `WALK_WINDOW`).  `finish`
    takes the last step once the history is complete and returns
    `result()`.  visit(i, t, z, stencil, k1) receives each yield of
    `flow_steps`.  A solver error (a trajectory abort) stops the walk, not
    the wave; `finish` raises it.
    """

    def __init__(self, history, z0, visit, result):
        if history.first:
            raise SolidynError("a walk must start at the first snapshot")
        self._steps = flow_steps(history, z0)
        self._visit = visit
        self._result = result
        self._visited = -1       # index of the last snapshot visited
        self._error = None
        history.readers.append(lambda record: self._walk(history.count))
        self._walk(history.count)    # catch up with the snapshots stored

    def _walk(self, stored):
        # the step after snapshot `_visited` needs snapshot _visited + 2
        while self._error is None and self._visited + 3 <= stored:
            try:
                step = next(self._steps)
            except StopIteration:
                return
            except SolidynError as err:
                # kept for `finish`: the wave's own errors still come first,
                # as when the walk ran after the wave
                self._error = err
                return
            self._visited = step[0]
            self._visit(*step)

    def finish(self):
        """Walk to the last stored snapshot, raise the error that stopped
        the walk, if any, and return `result()`."""
        self._walk(math.inf)
        if self._error is not None:
            raise self._error
        return self._result()


class RowBlock:
    """Rows appended one per snapshot into one block, which grows in place
    by a quarter when full (`ndarray.resize`, a `realloc`) and which
    `block()` trims to the rows written: the rows are never held twice."""

    def __init__(self):
        self._block, self._count = None, 0

    def append(self, row):
        row = np.asarray(row)
        if self._block is None:
            self._block = np.empty((16,) + row.shape, row.dtype)
        elif self._count == len(self._block):
            self._resize(self._count + self._count // 4)
        self._block[self._count] = row
        self._count += 1

    def block(self):
        """The (rows, *row shape) block."""
        self._resize(self._count)
        return self._block

    def _resize(self, rows):
        # no view of the block exists before `block()` returns it
        self._block.resize((rows,) + self._block.shape[1:], refcheck=False)


def _recorded_flow(history, z0, result):
    """The `FlowWalk` of `integrate_flow`; `finish()` returns
    result(times, *blocks)."""
    charge = history.params.charge
    columns = [RowBlock() for _ in range(6)]

    def visit(i, t, z, stencil, k1):
        records = history.records
        fq = (history._blend(lambda p: records[p].quantum_force, t, stencil)
              if getattr(records[0], "quantum_force", None) is not None
              else np.zeros_like(z))
        fem = charge * history.potentials.electric_field(t, z)
        near = history.proximity_flags(t, stencil)
        for column, value in zip(columns, (t, z, k1, fq, fem, near)):
            column.append(value)

    return FlowWalk(history, z0, visit,
                    lambda: result(*(column.block() for column in columns)))


def integrate_flow(history, z0):
    """RK4 guidance trajectories from z0 through `history` as the wave
    fills it (see `flow_steps` for z0 and the aborts).

    `finish()` of the returned walk gives the snapshot times, the
    (n_times, m, dim) blocks of positions, velocities, quantum force (zero
    for records without one) and EM force, and the (n_times, m)
    node-proximity flags.
    """
    return _recorded_flow(history, z0, lambda *blocks: blocks)


def trajectory_reader(history, z0):
    """`integrate_flow` from the single start z0; `finish()` gives its
    `TrajectoryRecord`."""
    return _recorded_flow(history, z0, lambda times, *blocks: TrajectoryRecord(
        times, *(block[:, 0] for block in blocks)))


class InteriorMax:
    """The largest `residual(before, record, after)` over the interior
    records, read as the wave fills the history: each interior record with
    its two neighbours.  `finish()` returns it."""

    def __init__(self, history, residual):
        if history.count:
            raise SolidynError(
                "a reader must attach before the first snapshot")
        self._history, self._residual, self._worst = history, residual, 0.0
        history.readers.append(self._read)

    def _read(self, record):
        records = self._history.records
        if len(records) >= 3:
            self._worst = max(self._worst, self._residual(*records[-3:]))

    def finish(self):
        if self._history.count < 3:
            raise SolidynError("need at least 3 snapshots")
        return self._worst
