"""Guidance-flow trajectory integration while the wave fills its history.

A flow history holds the snapshot records its producing solver built (a
`MadelungBundle` or `KGMadelung`) and reads their fields:
`time_tag`, `velocity` (dim, *shape), `amplitude` and `amp_peak`.
Trajectories advance with RK4 whose stage velocities come from
cubic-in-space, linear-in-time interpolation of the bracketing snapshots;
the RK4 step equals the snapshot spacing, which is what limits accuracy (so
higher-order time interpolation buys nothing).

A history keeps only the last three records appended (`WALK_WINDOW`), since
every time derivative along the flow is a centered difference.  So each
reader attaches to a history before the wave fills it and reads every record
as it is appended (a `FlowWalk`, or `InteriorMax`); its `finish()` returns
the result once the wave is done.  `integrate_flow` is the one reader that
records the paths; the residual readers (`newton_bohm_residual`,
`kg_newton_residual`) are walks of their own.  Results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryExitError, NodeEncounterError, SolidynError
from .stepping import NODE_MASK_REL, NODE_PROXIMITY_REL, RowBlock

# Snapshots a FlowWalk reads at once: the RK4 step i -> i+1 reads i and
# i+1, and its node check at t_{i+1} brackets i+1 and i+2.
WALK_WINDOW = 3


@dataclass
class TrajectoryRecord:
    """Guidance trajectories read at the snapshot times."""

    times: np.ndarray            # (n,)
    positions: np.ndarray        # (n, m, dim)
    velocities: np.ndarray       # (n, m, dim)


class FlowHistory:
    """The last `WALK_WINDOW` snapshot records that a solver appended.

    `records` holds them, oldest first; `first` is the index of the oldest
    kept, and `bracket` returns positions in `records`.  A record carries
    `time_tag`, `velocity` (dim, *shape), `amplitude` and `amp_peak` (the
    maximum of `amplitude`); a Schrodinger record also carries
    `quantum_force` (dim, *shape).  `readers` are called with each record
    after it is appended.

    No solver reads `quantum_potentials`, the field views below or
    `proximity_flags`: the benchmark's history size count and its traced
    layer list name them, so they stay until the benchmark drops them.
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

    # read-only views of the kept records' fields (see the class docstring)
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
        # the last record before the newest whose time is at most t, else
        # the first: at most two compares over the three kept records
        i = len(records) - 2
        while i > 0 and records[i].time_tag > t:
            i -= 1
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


def advance_point(bundle, bundle_next, z, t0, t1, k1=None):
    """One RK4 step of a single point between two snapshot records.

    The float twin of `advance_positions` over the two-snapshot
    `FlowHistory` of `bundle` (at t0) and `bundle_next` (at t1): the same
    stencils (`Grid.point_stencil`), time blends and sums in Python floats,
    so it returns the same bits and raises the same aborts, at a small
    fraction of numpy's per-call cost.  The records are the step's two
    `MadelungBundle`s of the coupled run or `PairWave`s of the pair run;
    every lookup goes through `Grid.interpolate`.  `z` and `k1` (the
    velocity at z and t0, looked up here if not given) are per-axis
    sequences of floats.  Returns the new position (a tuple) and its point
    stencil.
    """
    grid = bundle.grid
    h = t1 - t0

    def blend(t, stencil, fields, fields_next):
        now = [grid.interpolate(f, stencil) for f in fields]
        if t1 == t0:
            return now
        theta = (t - t0) / (t1 - t0)
        if theta == 0.0:
            return now
        nxt = [grid.interpolate(f, stencil) for f in fields_next]
        return [(1.0 - theta) * a + theta * b for a, b in zip(now, nxt)]

    def velocity(t, pts):
        stencil = _enter_point(grid, t, pts, t0, "near")
        return blend(t, stencil, bundle.velocity, bundle_next.velocity)

    if k1 is None:
        k1 = velocity(t0, z)
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
    return z_new, stencil


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


def _detach(history, reader):
    """Remove a finished reader from `history.readers`.  The history and an
    attached reader hold each other, so without this a finished run's last
    records would wait for the cyclic collector."""
    if reader in history.readers:
        history.readers.remove(reader)


class FlowWalk:
    """`flow_steps` over a history while the wave fills it.

    The walk reads the history after each stored snapshot and takes every
    step whose lookups are stored: the step i -> i+1 once snapshot i+2 is,
    so visit i sees snapshots i-1, i and i+1 (see `WALK_WINDOW`).  `finish`
    takes the last step once the history is complete and returns
    `result()`.  visit(i, t, z, stencil, k1) receives each yield of
    `flow_steps`.  A solver error (a trajectory abort) stops the walk, not
    the wave; `finish` raises it.  `finish` also detaches the walk from the
    history (see `_detach`).
    """

    def __init__(self, history, z0, visit, result):
        if history.first:
            raise SolidynError("a walk must start at the first snapshot")
        self._steps = flow_steps(history, z0)
        self._visit = visit
        self._result = result
        self._visited = -1       # index of the last snapshot visited
        self._error = None
        self._history = history
        history.readers.append(self._read)
        self._walk(history.count)    # catch up with the snapshots stored

    def _read(self, record):
        self._walk(self._history.count)

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
        _detach(self._history, self._read)
        self._walk(math.inf)
        if self._error is not None:
            raise self._error
        return self._result()


def integrate_flow(history, z0):
    """RK4 guidance trajectories from z0 through `history` as the wave
    fills it (see `flow_steps` for z0 and the aborts); `finish()` of the
    returned walk gives their `TrajectoryRecord`: (n, m, dim) positions and
    velocities at the n snapshot times (m = 1 for a single start)."""
    columns = [RowBlock() for _ in range(3)]

    def visit(i, t, z, stencil, k1):
        for column, value in zip(columns, (t, z, k1)):
            column.append(value)

    return FlowWalk(history, z0, visit, lambda: TrajectoryRecord(
        *(column.block() for column in columns)))


class InteriorMax:
    """The largest `residual(before, record, after)` over the interior
    records, read as the wave fills the history: each interior record with
    its two neighbours.  `finish()` detaches it (see `_detach`) and
    returns it."""

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
        _detach(self._history, self._read)
        if self._history.count < 3:
            raise SolidynError("need at least 3 snapshots")
        return self._worst
