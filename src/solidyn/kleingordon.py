"""1+1D linear Klein-Gordon pilot wave: leapfrog evolution, variable quantum
mass, relativistic guidance trajectories, and tachyon-sector detection.

The field obeys (natural units, A = 0, static scalar potential V(x))

    (d/dt + ieV)^2 Psi = d^2Psi/dx^2 - w0^2 Psi

advanced by an explicit leapfrog in time with a spectral spatial Laplacian.
As `ls_step` does, `lkg_step` steps fields: from the samples at t - dt and
the `Field` at t it makes the `Field` at t + dt.  The polar split yields a
variable squared mass

    M^2(t, x) = w0^2 + box(a)/a,   box(a) = d^2a/dt^2 - d^2a/dx^2

and a current J = (J0, J1) whose flow velocity J1/J0 guides particles.
Where M^2 <= 0 the would-be motion is space-like (imaginary mass) and where
J0 <= 0 the current points into the past; both sectors are detected and
refused: trajectories abort rather than continue through them.

d^2a/dt^2 uses three stored amplitude levels of the scheme itself, so the
residual diagnostics measure the discrete dynamics actually run, not a
mismatched analytic derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (PastOrientedCurrentError, SolidynError,
                     TachyonicRegionError)
from .grids import Field, Grid, PointStencil
from .potentials import PhysicalParams, Potentials
from .stepping import NODE_MASK_REL, check_finite, drive
from .trajectories import FlowHistory, FlowWalk, integrate_flow

CFL_RATIO = 0.5   # dt <= CFL_RATIO * dx


def discrete_mode_frequency(k: float, omega0: float, dt: float) -> float:
    """Temporal frequency of the leapfrog scheme's own plane-wave mode.

    sin(E dt / 2) = (dt/2) sqrt(k^2 + w0^2); initializing with this E makes
    e^{i(kx - E t)} an exact eigenmode of the discrete update.
    """
    arg = 0.5 * dt * np.sqrt(k**2 + omega0**2)
    if arg >= 1.0:
        raise SolidynError("mode outside the leapfrog stability region")
    return 2.0 / dt * np.arcsin(arg)


def _check_kg(grid, potentials, dt):
    """Refuse a grid past 1D, a dt past the CFL bound and a vector A."""
    if grid.dim != 1:
        raise SolidynError("the Klein-Gordon sector is 1+1D only")
    if dt > CFL_RATIO * grid.spacing[0]:
        raise SolidynError(
            f"dt = {dt} violates the CFL bound dt <= "
            f"{CFL_RATIO} dx = {CFL_RATIO * grid.spacing[0]:.6g}")
    if potentials.has_vector:
        raise SolidynError("the Klein-Gordon sector requires A = 0")


def _previous_level(psi0: Field, dpsi_dt0, params: PhysicalParams,
                    potentials: Potentials, dt: float):
    """Psi(-dt) from Psi(0) and dPsi/dt(0): a second-order Taylor step
    backwards, using the field equation for the second time derivative."""
    grid = psi0.grid
    e = params.charge
    v = potentials.scalar_on_grid(grid, psi0.time_tag)
    dpsi = np.asarray(dpsi_dt0, dtype=complex)
    d2 = (grid.laplacian(psi0.samples) - params.omega0**2 * psi0.samples
          - 2j * e * v * dpsi + (e * v) ** 2 * psi0.samples)
    return psi0.samples - dt * dpsi + 0.5 * dt**2 * d2


def lkg_step(psi_prev, psi: Field, params: PhysicalParams,
             potentials: Potentials, dt: float) -> Field:
    """One leapfrog update from the samples at t - dt and the field at t;
    returns the field at t + dt.

    Central differences in time around t, spectral Laplacian in space; with
    V = 0 the scheme conserves the discrete field energy up to a bounded
    O(dt^2) oscillation with no secular drift.
    """
    grid, t, u = psi.grid, psi.time_tag, psi.samples
    v = params.charge * potentials.scalar_on_grid(grid, t)
    rhs = (grid.laplacian(u) - params.omega0**2 * u
           + v**2 * u + 2.0 * u / dt**2
           - psi_prev * (1.0 / dt**2 - 1j * v / dt))
    return Field(grid, rhs / (1.0 / dt**2 + 1j * v / dt), t + dt)


@dataclass
class KGMadelung:
    """Polar-split fields of a Klein-Gordon snapshot (at the middle of three
    retained time levels), and the mass M, derived from them when first
    read."""

    grid: Grid
    time_tag: float
    amplitude: np.ndarray
    mass_sq: np.ndarray          # w0^2 + box(a)/a, floored amplitude
    current_t: np.ndarray        # J0
    current_x: np.ndarray        # J1
    velocity: np.ndarray         # (1, N): J1/J0 where defined
    tachyon_mask: np.ndarray     # M^2 <= 0
    past_oriented_mask: np.ndarray  # J0 <= 0
    energy: float                # discrete field energy (see _field_energy)
    amp_peak: float              # max(a)

    @cached_property
    def mass(self):
        """M = sqrt(max(M^2, 0)): zero in the tachyonic sector."""
        return np.sqrt(np.maximum(self.mass_sq, 0.0))


def kg_madelung(psi_prev, psi, psi_next, t, dt, grid: Grid,
                params: PhysicalParams, potentials: Potentials) -> KGMadelung:
    """Amplitude, variable mass, current, and sector masks at time t."""
    p = params
    # dPsi/dt and dPsi/dx serve both the current and the field energy
    dpsi_dt = (psi_next - psi_prev) / (2.0 * dt)
    dpsi_dx = grid.derivative(psi, 0)
    energy = _field_energy(dpsi_dt, dpsi_dx, psi, grid, p.omega0)
    a_prev = np.abs(psi_prev)
    a = np.abs(psi)
    a_next = np.abs(psi_next)
    peak = float(a.max())
    if peak == 0.0:
        raise SolidynError("zero field has no Madelung decomposition")
    floor = NODE_MASK_REL * peak
    a_safe = np.maximum(a, floor)
    box_a = (a_next - 2.0 * a + a_prev) / dt**2 - grid.laplacian(a)
    mass_sq = p.omega0**2 + box_a / a_safe
    v_pot = potentials.scalar_on_grid(grid, t)
    j0 = (-np.imag(np.conj(psi) * dpsi_dt)
          - p.charge * v_pot * a**2) / p.omega0
    j1 = np.imag(np.conj(psi) * dpsi_dx) / p.omega0
    node = a < floor
    tachyon = mass_sq <= 0.0
    past = j0 <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        velocity = np.where(np.abs(j0) > 0, j1 / j0, 0.0)
    bad = node | tachyon | past
    if bad.all():
        raise SolidynError("every sample is masked; no guidance flow exists")
    return KGMadelung(grid=grid, time_tag=t, amplitude=a, mass_sq=mass_sq,
                      current_t=j0, current_x=j1, velocity=velocity[None],
                      tachyon_mask=tachyon, past_oriented_mask=past,
                      energy=energy, amp_peak=peak)


class KGHistory(FlowHistory):
    """The last three `KGMadelung` records appended; its check also reads
    their `tachyon_mask` and `past_oriented_mask`."""

    def _nearest_cells(self, stencil):
        """The nearest sample of each point of a `Stencil` or `PointStencil`."""
        x = (stencil.position[0] if isinstance(stencil, PointStencil)
             else stencil.positions[:, 0])
        idx = np.rint(self.grid._cell_coordinate(x, 0)).astype(int)
        return idx % self.grid.points[0]

    def check(self, t, stencil, last_valid):
        super().check(t, stencil, last_valid)
        i, j = self.bracket(t)
        cells = self._nearest_cells(stencil)
        for record in (self.records[i], self.records[j]):
            if record.tachyon_mask[cells].any():
                raise TachyonicRegionError(
                    f"tachyonic region (M^2 <= 0) at t={t:.6g}", last_valid)
            if record.past_oriented_mask[cells].any():
                raise PastOrientedCurrentError(
                    f"past-oriented current (J0 <= 0) at t={t:.6g}",
                    last_valid)
        speed = np.abs(self.velocity_at(t, stencil))
        if (speed >= 1.0).any():
            raise TachyonicRegionError(
                f"tachyonic region (|v| >= 1) at t={t:.6g}", last_valid)


@dataclass
class KGRun:
    history: KGHistory
    final_psi: Field
    energies: np.ndarray    # discrete field energy at snapshot times


def evolve_kg(psi0: Field, dpsi_dt0, params: PhysicalParams,
              potentials: Potentials, dt: float, steps: int,
              psi_prev=None, *, history: KGHistory) -> KGRun:
    """Evolve the Klein-Gordon wave, caching guidance snapshots at every
    step time 0, dt, ..., steps*dt.

    Initial data: Psi(0) plus either dPsi/dt(0), from which a Taylor step
    backwards makes Psi(-dt), or that previous level itself (`psi_prev`,
    for exact discrete modes).  The grid, step and potentials are checked
    first (1+1D, CFL, A = 0).  Each snapshot's `KGMadelung` goes to
    `history`, which keeps the last three: attach its readers
    (`kg_bohm_trajectory`, or a test oracle's walk) before this call.
    """
    grid = psi0.grid
    _check_kg(grid, potentials, dt)
    if psi_prev is None:
        psi_prev = _previous_level(psi0, dpsi_dt0, params, potentials, dt)

    # a drive state holds the three levels kg_madelung splits at T - dt:
    # the samples at T - 2 dt and T - dt and the field at T
    def step(s, i):
        _, prev, psi = s
        new = lkg_step(prev, psi, params, potentials, dt)
        check_finite(new.samples, i - 1)
        return prev, psi.samples, new

    def sample(s, i):
        if i == 0:
            return None     # the first snapshot needs the first update
        before, middle, psi = s
        bundle = kg_madelung(before, middle, psi.samples,
                             psi.time_tag - dt, dt, grid, params, potentials)
        history.append(bundle)
        return {"energies": bundle.energy}

    start = (None, np.asarray(psi_prev, dtype=complex), psi0)
    (_, middle, psi), series = drive(start, steps + 1, step, sample)
    final = Field(grid, middle, psi.time_tag - dt)
    return KGRun(history=history, final_psi=final, **series)


def _field_energy(dpsi_dt, dpsi_dx, psi, grid, omega0):
    """Centered-difference field energy |dPsi/dt|^2 + |dPsi/dx|^2 + w0^2|Psi|^2
    (dPsi/dt centered over the two neighbouring levels)."""
    density = (np.abs(dpsi_dt) ** 2 + np.abs(dpsi_dx) ** 2
               + omega0**2 * np.abs(psi) ** 2)
    return float(grid.integrate(density))


def kg_bohm_trajectory(z0, history: KGHistory) -> FlowWalk:
    """`integrate_flow` of the Klein-Gordon guidance dz/dt = J1/J0 from z0
    through the history as the wave fills it; `finish()` returns its
    TrajectoryRecord, with (n, m, dim) positions and velocities.  Aborts on
    tachyonic regions (M^2 <= 0 or |v| >= 1), past-oriented current, node
    encounters, and box exits (see `KGHistory.check`)."""
    return integrate_flow(history, z0)
