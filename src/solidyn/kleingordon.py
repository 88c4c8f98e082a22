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

import numpy as np

from .errors import (PastOrientedCurrentError, SolidynError,
                     TachyonicRegionError)
from .grids import Field, Grid, PointStencil
from .potentials import PhysicalParams, Potentials
from .stepping import NODE_MASK_REL, RowBlock, check_finite, drive
from .trajectories import FlowHistory, FlowWalk, InteriorMax, integrate_flow

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
    retained time levels)."""

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
        n = self.grid.points[0]
        idx = np.rint((x + 0.5 * self.grid.lengths[0])
                      / self.grid.spacing[0]).astype(int)
        return idx % n

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
              psi_prev=None, history=None) -> KGRun:
    """Evolve the Klein-Gordon wave, caching guidance snapshots at every
    step time 0, dt, ..., steps*dt.

    Initial data: Psi(0) plus either dPsi/dt(0), from which a Taylor step
    backwards makes Psi(-dt), or that previous level itself (`psi_prev`,
    for exact discrete modes).  The grid, step and potentials are checked
    first (1+1D, CFL, A = 0).  Each snapshot's `KGMadelung` goes to
    `history` (a new KGHistory by default), which keeps the last three:
    attach its readers (`kg_bohm_trajectory`, ...) before this call.
    """
    grid = psi0.grid
    _check_kg(grid, potentials, dt)
    if psi_prev is None:
        psi_prev = _previous_level(psi0, dpsi_dt0, params, potentials, dt)
    if history is None:
        history = KGHistory(grid, params, potentials)

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


def current_conservation_residual(history: KGHistory) -> InteriorMax:
    """Max |dJ0/dt + dJ1/dx| over interior snapshots (centered in time),
    read as the wave fills the history; `finish()` returns it."""
    def at_middle(before, bundle, after):
        dj0 = ((after.current_t - before.current_t)
               / (after.time_tag - before.time_tag))
        dj1 = history.grid.derivative(bundle.current_x, 0)
        return float(np.max(np.abs(dj0 + dj1)))

    return InteriorMax(history, at_middle)


def kg_newton_residual(z0, history: KGHistory) -> FlowWalk:
    """Residual of d/dtau(M u^mu) = d^mu M + e F^{mu nu} u_nu along the
    guidance path from the single start z0, read as the wave fills the
    history.

    Proper time comes from dtau = sqrt(1 - v^2) dt; M, dM/dt (centered
    over snapshots i-1 and i+1, one-sided at the ends) and dM/dx
    (spectral) are interpolated at each path point as the walk visits it;
    M and dM/dx are made once per record, as it is appended.
    `finish()` returns interior times, the (n, 2) residual series, and its
    RMS relative to the dominant term scale.
    """
    grid = history.grid
    charge = history.params.charge
    if history.count:
        raise SolidynError("a reader must attach before the first snapshot")
    if np.size(z0) != grid.dim:
        raise SolidynError("kg_newton_residual takes a single start")
    path = [RowBlock() for _ in range(6)]   # t, v, E, M, dM/dt, dM/dx
    # (record, M, dM/dx) of each kept record, made as it is appended, so
    # that masses[p] goes with kept record p
    masses = []
    # the history's record list, not the history: a reader that the
    # history holds keeps no reference back to it
    records = history.records

    def keep_mass(record):
        mass = np.sqrt(np.maximum(record.mass_sq, 0.0))
        masses.append((record, mass, grid.derivative(mass, 0)))
        del masses[:-len(records)]

    def dmass_dt(p):
        lo, hi = max(p - 1, 0), min(p + 1, len(masses) - 1)
        return ((masses[hi][1] - masses[lo][1])
                / (masses[hi][0].time_tag - masses[lo][0].time_tag))

    def at_path(field, t, stencil):
        return history._blend(lambda p: (field(p),), t, stencil)[0]

    def visit(i, t, z, stencil, k1):
        msq = at_path(lambda p: masses[p][0].mass_sq, t, stencil)
        values = (t, k1[0, 0],
                  charge * history.potentials.electric_field(t, z)[0, 0],
                  np.sqrt(np.maximum(msq, 0.0)),
                  at_path(dmass_dt, t, stencil),
                  at_path(lambda p: masses[p][2], t, stencil))
        for column, value in zip(path, values):
            column.append(value)

    def finish():
        t, v, efield, mass_path, dmass_dt_path, dmass_dx_path = (
            column.block() for column in path)
        if len(t) < 5:
            raise SolidynError("need at least 5 trajectory points")
        if np.any(np.abs(v) >= 1.0):
            raise SolidynError("path contains luminal segments")
        gamma = 1.0 / np.sqrt(1.0 - v**2)
        dtau_steps = 0.5 * (np.sqrt(1 - v[1:] ** 2)
                            + np.sqrt(1 - v[:-1] ** 2)) * np.diff(t)
        tau = np.concatenate([[0.0], np.cumsum(dtau_steps)])
        dp0 = np.gradient(mass_path * gamma, tau)
        dp1 = np.gradient(mass_path * gamma * v, tau)
        rhs0 = dmass_dt_path + efield * gamma * v
        rhs1 = -dmass_dx_path + efield * gamma
        interior = slice(2, -2)
        res = np.stack([(dp0 - rhs0)[interior], (dp1 - rhs1)[interior]],
                       axis=1)
        scale = max(float(np.max(np.abs(rhs0[interior]))),
                    float(np.max(np.abs(rhs1[interior]))),
                    float(np.max(np.abs(dp0[interior]))),
                    float(np.max(np.abs(dp1[interior]))), 1e-300)
        rel = float(np.sqrt(np.mean(res**2)) / scale)
        return t[interior], res, rel

    history.readers.append(keep_mass)    # before the walk reads the masses
    return FlowWalk(history, z0, visit, finish)
