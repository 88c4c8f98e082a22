"""Guidance-flow trajectory integration over immutable snapshot histories.

A flow history holds per-snapshot velocity fields (plus whatever per-snapshot
data the producing solver masks on).  Trajectories advance with RK4 whose
stage velocities come from cubic-in-space, linear-in-time interpolation of
the bracketing snapshots; the RK4 step equals the snapshot spacing, which is
what limits accuracy (so higher-order time interpolation buys nothing).

A history either keeps every snapshot or, with a window, only the last few:
a `FlowWalk` steps its trajectories while the history is filled, so a
window of three snapshots (`WALK_WINDOW`) is all it reads.  A complete
history is not mutated, so ensembles of trajectories may be integrated
concurrently; with a fixed seed and sequential execution results are
bit-reproducible.
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

    @property
    def dim(self):
        return self.positions.shape[1]


class FlowHistory:
    """Snapshot sequence of guidance velocity fields plus node-mask data.

    With `window` None every snapshot is kept; with a window only the last
    `window` snapshots are, and `first` is the index of the oldest one kept.
    Every per-snapshot list (`_SNAPSHOT_LISTS`) holds the kept snapshots,
    and `bracket` returns positions in those lists.  `readers` are called
    with the history after each stored snapshot.
    """

    _SNAPSHOT_LISTS = ("times", "velocities", "amplitudes", "quantum_forces",
                       "amp_peaks")

    def __init__(self, grid, params, potentials, window=None):
        self.grid = grid
        self.params = params
        self.potentials = potentials
        self.window = window
        self.first = 0
        self.readers = []
        self.times = []
        self.velocities = []       # (dim, *shape) per snapshot
        self.amplitudes = []       # |psi| per snapshot
        self.quantum_forces = []   # (dim, *shape) per snapshot (may stay empty)
        # never filled: guidance does not read q (the benchmark's history
        # size count still sums this list)
        self.quantum_potentials = []
        self.amp_peaks = []

    def freeze(self):
        self.times = np.asarray(self.times, dtype=float)
        return self

    def append(self, t, velocity, amplitude, quantum_force=None):
        self._append(t, velocity, amplitude, float(np.max(amplitude)),
                     quantum_force)

    def _append(self, t, velocity, amplitude, amp_peak, quantum_force=None):
        """`append` for a caller that already holds np.max(amplitude)."""
        self.times.append(float(t))
        self.velocities.append(velocity)
        self.amplitudes.append(amplitude)
        if quantum_force is not None:
            self.quantum_forces.append(quantum_force)
        self.amp_peaks.append(amp_peak)
        if self.window is not None and len(self.times) > self.window:
            for name in self._SNAPSHOT_LISTS:
                stack = getattr(self, name)
                if stack:
                    del stack[0]
            self.first += 1
        for read in self.readers:
            read(self)

    @property
    def count(self):
        """Snapshots stored so far, dropped ones included."""
        return self.first + len(self.times)

    # -- interpolation helpers ----------------------------------------
    #
    # Lookups take a `grids.Stencil` of the query points, so one set of
    # cubic weights serves both bracketing snapshots and every component.

    def bracket(self, t):
        """Positions (i, i+1) of the kept snapshots whose times bracket t."""
        times = self.times
        if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
            raise SolidynError(f"time {t} outside stored history")
        i = bisect.bisect_right(times, t) - 1
        i = min(max(i, 0), len(times) - 2)
        return i, i + 1

    def _blend(self, stack, t, stencil):
        i, j = self.bracket(t)
        ti, tj = self.times[i], self.times[j]
        vi = self._interp_snapshot(stack[i], stencil)
        if tj == ti:
            return vi
        theta = (t - ti) / (tj - ti)
        if theta == 0.0:
            return vi
        vj = self._interp_snapshot(stack[j], stencil)
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
        return self._blend(self.velocities, t, stencil)

    def amplitude_at(self, t, stencil):
        return self._blend(self.amplitudes, t, stencil)

    def quantum_force_at(self, t, stencil):
        if not self.quantum_forces:
            raise SolidynError("history was built without quantum-force fields")
        return self._blend(self.quantum_forces, t, stencil)

    def amp_floor(self, t):
        i, j = self.bracket(t)
        return NODE_MASK_REL * max(self.amp_peaks[i], self.amp_peaks[j])

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
        near = NODE_PROXIMITY_REL * max(self.amp_peaks[i], self.amp_peaks[j])
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
    if amp < max(bundle.amp_floor, bundle_next.amp_floor):
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
    i, t = 0, history.times[0]
    stencil = _enter_box(grid, t, z, t)
    history.check(t, stencil, last_valid=t)
    while True:
        k1 = history.velocity_at(t, stencil)
        yield i, t, z, stencil, k1
        if i + 1 == history.count:
            return
        t_next = history.times[i + 1 - history.first]
        z, stencil = advance_positions(history, z, t, t_next, k1=k1)
        i, t = i + 1, t_next


class FlowWalk:
    """`flow_steps` over a history while the wave fills it.

    The walk reads the history after each stored snapshot and takes every
    step whose lookups are stored: the step i -> i+1 once snapshot i+2 is
    (see `WALK_WINDOW`), so over a history with that window it gives the
    bits of `flow_steps` over the whole history.  `finish` takes the last
    step once the history is complete.  visit(i, t, z, stencil, k1)
    receives each yield of `flow_steps`.  A solver error (a trajectory
    abort) stops the walk, not the wave; `finish` raises it.
    """

    def __init__(self, history, z0, visit):
        if history.first:
            raise SolidynError("a walk must start at the first snapshot")
        self._steps = flow_steps(history, z0)
        self._visit = visit
        self._visited = -1       # index of the last snapshot visited
        self._error = None
        history.readers.append(lambda h: self._walk(h.count))

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
        """Walk to the last stored snapshot, then raise the error that
        stopped the walk, if any."""
        self._walk(math.inf)
        if self._error is not None:
            raise self._error


def integrate_flow(history, z0, record_quantum_force=True):
    """RK4-integrate guidance trajectories over a full snapshot history.

    Returns (n_times, m, dim) blocks of positions, velocities, quantum force
    and EM force, and the (n_times, m) node-proximity flags (see
    `flow_steps` for z0 and the aborts).
    """
    grid = history.grid
    n = len(history.times)
    charge = history.params.charge
    record_fq = record_quantum_force and history.quantum_forces
    for i, t, z, stencil, k1 in flow_steps(history, z0):
        if i == 0:
            shape = (n, z.shape[0], grid.dim)
            positions, velocities = np.empty(shape), np.empty(shape)
            fq, fem = np.zeros(shape), np.zeros(shape)
            near = np.zeros(shape[:2], dtype=bool)
        positions[i] = z
        velocities[i] = k1
        if record_fq:
            fq[i] = history.quantum_force_at(t, stencil)
        fem[i] = charge * history.potentials.electric_field(t, z)
        near[i] = history.proximity_flags(t, stencil)
    return positions, velocities, fq, fem, near


def trajectory_from_flow(history, z0):
    """Single-trajectory convenience wrapper returning a TrajectoryRecord."""
    pos, vel, fq, fem, near = integrate_flow(history, z0)
    return TrajectoryRecord(
        times=history.times.copy(),
        positions=pos[:, 0, :],
        velocities=vel[:, 0, :],
        quantum_force=fq[:, 0, :],
        em_force=fem[:, 0, :],
        node_proximity=near[:, 0],
    )
