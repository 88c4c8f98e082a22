"""Guidance-flow trajectory integration over immutable snapshot histories.

A flow history holds per-snapshot velocity fields (plus whatever per-snapshot
data the producing solver masks on).  Trajectories advance with RK4 whose
stage velocities come from cubic-in-space, linear-in-time interpolation of
the bracketing snapshots; the RK4 step equals the snapshot spacing, which is
what limits accuracy (so higher-order time interpolation buys nothing).

Histories are never mutated after construction, so ensembles of trajectories
may be integrated concurrently; with a fixed seed and sequential execution
results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryExitError, NodeEncounterError, SolidynError
from .stepping import NODE_MASK_REL, NODE_PROXIMITY_REL


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
    """Snapshot sequence of guidance velocity fields plus node-mask data."""

    def __init__(self, grid, params, potentials):
        self.grid = grid
        self.params = params
        self.potentials = potentials
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

    # -- interpolation helpers ----------------------------------------
    #
    # Lookups take a `grids.Stencil` of the query points, so one set of
    # cubic weights serves both bracketing snapshots and every component.

    def bracket(self, t):
        """Snapshot index pair (i, i+1) whose times bracket t."""
        times = self.times
        if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
            raise SolidynError(f"time {t} outside stored history")
        i = int(np.searchsorted(times, t, side="right")) - 1
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


def flow_steps(history, z0):
    """Walk guidance trajectories through a full snapshot history by RK4.

    z0 may be a single position or an (m, dim) batch; batches advance in
    lockstep (vectorized stages).  Yields ``(i, t, z, stencil, k1)`` at each
    snapshot before stepping past it: the (m, dim) positions, their stencil
    and the velocity there, which is also the next step's first stage.
    Callers record what they read and must not modify the arrays.  A node
    encounter or box exit raises with the last valid time.
    """
    grid = history.grid
    z = np.atleast_2d(np.asarray(z0, dtype=float)).astype(float).copy()
    times = history.times
    n = len(times)
    stencil = _enter_box(grid, times[0], z, times[0])
    history.check(times[0], stencil, last_valid=times[0])
    for i in range(n):
        t = times[i]
        k1 = history.velocity_at(t, stencil)
        yield i, t, z, stencil, k1
        if i == n - 1:
            return
        z, stencil = advance_positions(history, z, t, times[i + 1], k1=k1)


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
