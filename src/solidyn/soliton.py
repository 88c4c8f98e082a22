"""Nonlinear u-field with logarithmic nonlinearity: Gaussons and coupling.

The field obeys an NLS-type equation whose nonlinear term comes from

    N_log(rho) = -b [1 + ln(rho / f0^2)],   U_log(rho) = -b rho ln(rho / f0^2),

the only nonlinearity for which U - rho N = b rho pointwise, which makes the
static energy exactly b * integral(rho).  Its localized stationary solution
is the Gausson, a Gaussian profile of inverse squared width b.

Two coupling modes:

  classical  i du/dt = (w0 + eV) u + N_log(|u|^2)/(2 w0) u - (grad - ieA)^2 u/(2 w0)
  dbb        adds a pointwise external potential q(t, x) supplied by the
             linear pilot wave, which steers the soliton center along the
             guidance trajectory.

Coupling is strictly one way: the pilot wave never sees the u-field.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field as _dc_field, replace

import numpy as np

from .errors import BoundaryMassError, SolidynError
from .grids import Field, Grid
from .potentials import PhysicalParams, Potentials
from .schrodinger import MadelungBundle, ls_step, madelung_extract
from .stepping import (BOUNDARY_MASS_LIMIT, NODE_MASK_REL, check_finite,
                       drive, strang_step)
from .trajectories import TrajectoryRecord, advance_point

RHO_FLOOR_REL = 1e-30      # vacuum floor for the logarithm, relative to f0^2
SCALE_SEPARATION = 20.0    # recommended sqrt(b) * sigma_psi lower bound


def log_nonlinearity(rho, b, f0):
    """N_log(rho) with a vacuum floor; the floor only touches regions of
    negligible density, where the phase it produces is physically empty."""
    floor = RHO_FLOOR_REL * f0**2
    return -b * (1.0 + np.log(np.maximum(rho, floor) / f0**2))


def log_potential_density(rho, b, f0):
    """U_log(rho); satisfies U - rho N = b rho pointwise."""
    floor = RHO_FLOOR_REL * f0**2
    return -b * rho * np.log(np.maximum(rho, floor) / f0**2)


def energy_nls(u: Field, params: PhysicalParams, potentials: Potentials,
               b: float, f0: float):
    """Total energy E_t (NLS Hamiltonian) and static energy E_s = b C."""
    grid = u.grid
    p = params
    rho = u.density()
    avec = p.charge * potentials.vector(u.time_tag)
    kinetic = np.zeros(grid.shape)
    grad = grid.gradient(u.samples)
    for a in range(grid.dim):
        cov = grad[a] - 1j * avec[a] * u.samples
        kinetic += np.abs(cov) ** 2
    w = p.omega0 + p.charge * potentials.scalar_on_grid(grid, u.time_tag)
    density = (kinetic / (2.0 * p.omega0) + w * rho
               + log_potential_density(rho, b, f0) / (2.0 * p.omega0))
    e_total = float(grid.integrate(density))
    e_static = float(b * grid.integrate(rho))
    return e_total, e_static


@dataclass(frozen=True)
class GaussonParams:
    """Gausson shape and kinematics: inverse squared width b, reference
    amplitude f0, initial center and velocity."""

    b: float
    f0: float
    center: tuple = (0.0,)
    velocity: tuple = (0.0,)

    def __post_init__(self):
        if self.b <= 0 or self.f0 <= 0:
            raise SolidynError("b and f0 must be positive")


def gausson_init(gp: GaussonParams, grid: Grid, omega0: float) -> Field:
    """Construct a (possibly boosted) Gausson on the grid.

    The amplitude carries the dimension correction f0 * exp((d-1)/2): with it
    the profile solves lap F = N_log(F^2) F exactly in d dimensions, not just
    in 1D.  The phase w0 v . (x - center) boosts the soliton to velocity v
    without touching |u|.
    """
    d = grid.dim
    center = np.asarray(gp.center, dtype=float).reshape(d)
    velocity = np.asarray(gp.velocity, dtype=float).reshape(d)
    min_width = 10.0 / np.sqrt(gp.b)
    for L in grid.lengths:
        if L < min_width:
            raise SolidynError(
                f"box length {L} below {min_width:.3g} = 10/sqrt(b); the "
                "Gausson would wrap around the periodic seam")
    meshes = grid.meshes()
    r2 = 0.0
    phase = 0.0
    for a in range(d):
        delta = meshes[a] - center[a]
        r2 = r2 + delta**2
        phase = phase + omega0 * velocity[a] * delta
    peak = gp.f0 * np.exp(0.5 * (d - 1))
    return Field(grid, peak * np.exp(-0.5 * gp.b * r2) * np.exp(1j * phase))


@dataclass
class SolitonState:
    """Evolving u-field plus its nonlinearity, coupling mode, and tracked
    center (kept wrap-aware so seam crossings stay continuous).

    Without a `center`, the center is computed by `soliton_center`,
    re-referenced to `previous_center` if given.  `density` (|u|^2) and
    `norm` (its integral) are computed once per u, when the state is
    built; the center, the next step's nonlinearity and the run series all
    read them.
    """

    u: Field
    params: PhysicalParams
    b: float
    f0: float
    coupling_mode: str = "classical"   # or "dbb"
    center: np.ndarray = None
    previous_center: InitVar[np.ndarray] = None
    density: np.ndarray = _dc_field(init=False, repr=False, compare=False)
    norm: float = _dc_field(init=False, repr=False, compare=False)

    def __post_init__(self, previous_center):
        if self.coupling_mode not in ("classical", "dbb"):
            raise SolidynError(f"unknown coupling mode {self.coupling_mode!r}")
        self.density = self.u.density()
        if self.center is None:
            self.center, self.norm = soliton_center(
                self.u, previous_center, density=self.density)
        else:
            self.center = np.asarray(self.center, dtype=float)
            self.norm = float(self.u.grid.integrate(self.density))


def soliton_center(u: Field, previous=None, density=None):
    """First moment xbar of |u|^2 and the norm C, wrap-aware.

    Coordinates are re-referenced to the previous center (mapped into the
    half-open window of width L around it), so a soliton crossing the
    periodic seam keeps a continuous track.  `density` may pass |u|^2 when
    the caller already holds it.
    """
    grid = u.grid
    rho = u.density() if density is None else density
    c = float(grid.integrate(rho))
    if c <= 0.0:
        raise SolidynError("u-field has zero norm; no center defined")
    if previous is None:
        peak = np.unravel_index(int(np.argmax(rho)), grid.shape)
        previous = np.array([grid.axes[a][peak[a]] for a in range(grid.dim)])
    previous = np.asarray(previous, dtype=float)
    xbar = np.empty(grid.dim)
    for a in range(grid.dim):
        xbar[a] = previous[a] + grid.integrate(
            rho * _wrapped_offsets(grid, a, previous[a])) / c
    return xbar, c


def _wrapped_offsets(grid: Grid, axis, center):
    """Offsets x - center of the coordinates of one axis, mapped into
    [-L/2, L/2): np.mod(x - center + L/2, L) - L/2, with the same bits,
    shaped to broadcast against the grid.

    The axis ascends from -L/2 and ends below L/2, so r = (x - center) +
    L/2 ascends too, and lies at or above 0 for center < 0 and below L
    for center >= 0 (rounding is monotone).  So one searchsorted finds
    the samples to wrap, on one side: r - L for r in [L, 2L) is exact
    (Sterbenz), and r + L for r in [-L, 0) is what np.mod computes (a
    -0.0 that np.mod would make +0.0 gives the same offset -L/2).  An r
    outside [-L, 2L), as from a center more than about L away, goes
    through np.mod.
    """
    box = grid.lengths[axis]
    r = grid.axes[axis] - center
    r += 0.5 * box
    if center < 0 and r[-1] < 2.0 * box:
        r[r.searchsorted(box):] -= box
    elif center >= 0 and -box <= r[0]:
        r[:r.searchsorted(0.0)] += box
    else:
        r = np.mod(r, box)
    r -= 0.5 * box
    if grid.dim == 1:
        return r
    shape = [1, 1]
    shape[axis] = r.size
    return r.reshape(shape)


def second_central_moments(u: Field, center):
    """Per-axis variance of |u|^2 about `center` (wrap-aware)."""
    grid = u.grid
    rho = u.density()
    c = grid.integrate(rho)
    out = np.empty(grid.dim)
    for a in range(grid.dim):
        delta = _wrapped_offsets(grid, a, center[a])
        out[a] = grid.integrate(rho * delta**2) / c
    return out


def nls_step(state: SolitonState, potentials: Potentials, dt: float,
             external_q=None, external_q_end=None) -> SolitonState:
    """One Strang split step of the nonlinear field.

    Phase sub-steps use w0 + eV + [q] + N_log(|u|^2)/(2 w0); they leave the
    modulus untouched, so the norm is conserved to round-off.  In dbb mode
    `external_q` (and optionally `external_q_end` for the second half step)
    must supply the pilot quantum potential on the same grid.
    """
    if (state.coupling_mode == "dbb") != (external_q is not None):
        raise SolidynError("external_q must be supplied exactly in dbb mode")
    u, grid = state.u, state.u.grid
    p = state.params
    t = u.time_tag
    e = p.charge
    two_w0 = 2.0 * p.omega0
    if external_q_end is None:
        external_q_end = external_q

    w_start = potentials.linear_potential(grid, p.omega0, e, t)
    if external_q is not None:
        w_start = w_start + external_q
    w_start = w_start + log_nonlinearity(state.density, state.b,
                                         state.f0) / two_w0

    base_end = potentials.linear_potential(grid, p.omega0, e, t + dt)
    if external_q_end is not None:
        base_end = base_end + external_q_end

    def half_end(mid):
        rho = np.abs(mid) ** 2
        w_end = base_end + log_nonlinearity(rho, state.b, state.f0) / two_w0
        return np.exp(-0.5j * dt * w_end)

    kin = potentials.kinetic_phase(grid, p.omega0, e, dt, t + 0.5 * dt)
    out = strang_step(u.samples, np.exp(-0.5j * dt * w_start), half_end, kin)
    return replace(state, u=Field(grid, out, t + dt), center=None,
                   previous_center=state.center)


def phase_harmony_residual(state: SolitonState, madelung: MadelungBundle,
                           z, radius: float, potentials: Potentials = None) -> float:
    """Mismatch between the soliton's local wavevector and the pilot phase
    gradient at the guidance point z.

    Density-weighted RMS over the ball |x - z| < radius of
    |Im[grad u / u](x) - w0 v_psi(z) - eA|, normalized by w0 |v_psi(z)| + sqrt(b).
    """
    grid = state.u.grid
    z = np.asarray(z, dtype=float).reshape(grid.dim)
    for a in range(grid.dim):
        half = 0.5 * grid.lengths[a]
        if z[a] - radius < -half or z[a] + radius > half:
            raise SolidynError("phase-harmony window clipped by the boundary")
    p = state.params
    u = state.u.samples
    rho = state.density
    floor = (NODE_MASK_REL * np.sqrt(float(rho.max()))) ** 2
    grad = grid.gradient(u)
    rho_safe = np.maximum(rho, floor)

    v_z = np.array(_point_vector(grid, grid.point_stencil(z),
                                 madelung.velocity))
    if potentials is not None:
        avec = p.charge * potentials.vector(state.u.time_tag)
    else:
        avec = np.zeros(grid.dim)

    meshes = grid.meshes()
    dist2 = 0.0
    for a in range(grid.dim):
        dist2 = dist2 + (meshes[a] - z[a]) ** 2
    window = dist2 < radius**2
    weights = rho[window]
    total = float(np.sum(weights))
    if total <= 0.0:
        raise SolidynError("empty phase-harmony window")

    mismatch2 = 0.0
    for a in range(grid.dim):
        kappa = np.imag(np.conj(u) * grad[a]) / rho_safe
        target = p.omega0 * v_z[a] + avec[a]
        mismatch2 = mismatch2 + (kappa[window] - target) ** 2
    rms = np.sqrt(np.sum(weights * mismatch2) / total)
    return float(rms / (p.omega0 * np.linalg.norm(v_z) + np.sqrt(state.b)))


@dataclass
class SolitonRun:
    """Series recorded along a soliton evolution (classical or coupled):
    a row per step from the initial state, and per stored step in
    `snapshot_times` and `energy`; each stored field went to `store`."""

    times: np.ndarray = None
    centers: np.ndarray = None        # (n, dim) wrap-aware xbar
    norms: np.ndarray = None          # (n,) C = integral |u|^2
    mean_em_force: np.ndarray = None  # (n, dim) integral(rho e E) / C
    fq_at_center: np.ndarray = None   # (n, dim); zeros in classical mode
    boundary_mass: np.ndarray = None
    snapshot_times: np.ndarray = None
    final_state: SolitonState = None
    energy: np.ndarray = None         # E_t at stored steps (classical)
    # coupled runs only:
    reference: TrajectoryRecord = None
    harmony_times: np.ndarray = None
    harmony: np.ndarray = None


def _grid_positions(grid):
    meshes = grid.meshes()
    return np.stack([m.reshape(-1) for m in meshes], axis=1)


def run_classical(state: SolitonState, potentials: Potentials, dt: float,
                  steps: int, store_every: int = 1,
                  abort_on_boundary_mass: bool = False,
                  store=None) -> SolitonRun:
    """Evolve a classical-mode soliton, recording center and norm series.

    Every `store_every`-th step, the initial state included, records its
    time and energy E_t (`energy_nls`) and hands its field to `store(u)`.
    """
    if state.coupling_mode != "classical":
        raise SolidynError("run_classical needs a classical-mode state")
    grid = state.u.grid
    pos = _grid_positions(grid)

    def step(state, i):
        state = nls_step(state, potentials, dt)
        check_finite(state.u.samples, i)
        return state

    def sample(state, i):
        frac = grid.boundary_mass_fraction(state.density)
        if abort_on_boundary_mass and i and frac > BOUNDARY_MASS_LIMIT:
            raise BoundaryMassError(
                f"boundary mass fraction {frac:.3e} exceeded "
                f"{BOUNDARY_MASS_LIMIT} at step {i}")
        t = state.u.time_tag
        row = {"times": t, "centers": state.center, "norms": state.norm,
               "boundary_mass": frac,
               "mean_em_force": _density_mean_force(state, potentials, pos)}
        if i % store_every == 0:
            if store is not None:
                store(state.u)
            row["snapshot_times"] = t
            row["energy"] = energy_nls(state.u, state.params, potentials,
                                       state.b, state.f0)[0]
        return row

    state, series = drive(state, steps, step, sample)
    return SolitonRun(
        fq_at_center=np.zeros((len(series["times"]), grid.dim)),
        final_state=state, **series)


def _density_mean_force(state: SolitonState, potentials: Potentials,
                        grid_positions):
    """integral(|u|^2 e E(t, x)) / C: the density-averaged Lorentz force."""
    grid = state.u.grid
    e = state.params.charge
    if potentials.zero_field:
        # the general path sums rho * (-0.0), which numpy sums to +0.0
        return e * np.zeros(grid.dim)
    efield = potentials._field_on_grid(grid, state.u.time_tag,
                                       grid_positions)
    out = np.empty(grid.dim)
    for a in range(grid.dim):
        out[a] = grid.integrate(state.density
                                * efield[:, a].reshape(grid.shape)) \
            / state.norm
    return e * out


def run_coupled(psi0: Field, state: SolitonState, pilot_params: PhysicalParams,
                potentials: Potentials, dt: float, steps: int,
                store_every: int = 0, harmony_every: int = 0,
                store=None) -> SolitonRun:
    """Co-evolve pilot wave and dbb-coupled soliton in lockstep.

    Per step: advance the pilot wave, extract its quantum potential at both
    ends of the step, advance the u-field with that external potential, and
    advance the reference guidance trajectory (same start as the soliton)
    against the same two Madelung snapshots.  The coupling is one way: the
    pilot wave never sees u.

    The reference point steps by `trajectories.advance_point`, whose
    point stencil serves every later lookup at the point.  The initial
    state and every `store_every`-th step (none for 0) record their time
    and hand their fields to `store(u, psi)`.
    """
    if state.coupling_mode != "dbb":
        raise SolidynError("run_coupled needs a dbb-mode state")
    grid = psi0.grid
    if grid != state.u.grid:
        raise SolidynError("pilot wave and soliton must share one grid")
    bundle = madelung_extract(psi0, pilot_params, potentials)
    _warn_scale_separation(psi0, state.b)

    z = tuple(float(c) for c in state.center)
    z_stencil = grid.point_stencil(z)
    if grid.interpolate(bundle.amplitude, z_stencil) \
            < NODE_MASK_REL * bundle.amp_peak:
        raise SolidynError("soliton center starts on the pilot node mask")

    pos = _grid_positions(grid)

    def step(s, i):
        psi, bundle, state, z, k1 = s
        t = psi.time_tag
        psi_next = ls_step(psi, pilot_params, potentials, dt)
        check_finite(psi_next.samples, i)
        bundle_next = madelung_extract(psi_next, pilot_params, potentials)
        z, z_stencil = advance_point(bundle, bundle_next, z, t, t + dt, k1)
        state = nls_step(state, potentials, dt,
                         external_q=bundle.quantum_potential,
                         external_q_end=bundle_next.quantum_potential)
        check_finite(state.u.samples, i)
        return (psi_next, bundle_next, state, z,
                _point_vector(grid, z_stencil, bundle_next.velocity))

    def sample(s, i):
        psi, bundle, state, z, k1 = s
        t = psi.time_tag
        stored = i == 0 or (store_every and i % store_every == 0)
        if stored and store is not None:
            store(state.u, psi)
        harmony = i > 0 and harmony_every and i % harmony_every == 0
        return {
            "times": t, "centers": state.center, "norms": state.norm,
            "boundary_mass": grid.boundary_mass_fraction(state.density),
            "mean_em_force": _density_mean_force(state, potentials, pos),
            "fq_at_center": _point_vector(
                grid, grid.point_stencil(state.center), bundle.quantum_force),
            # the reference trajectory
            "positions": z, "velocities": k1,
            "snapshot_times": t if stored else None,
            "harmony_times": t if harmony else None,
            "harmony": phase_harmony_residual(
                state, bundle, state.center, 4.0 / np.sqrt(state.b),
                potentials) if harmony else None,
        }

    start = (psi0, bundle, state, z,
             _point_vector(grid, z_stencil, bundle.velocity))
    (_, _, state, *_), series = drive(start, steps, step, sample)
    reference = TrajectoryRecord(series["times"],      # one start: m = 1
                                 series.pop("positions")[:, None],
                                 series.pop("velocities")[:, None])
    return SolitonRun(final_state=state, reference=reference, **series)


def _point_vector(grid, stencil, components):
    """Per-axis components (dim, *grid shape) at a point stencil, as floats."""
    return [grid.interpolate(c, stencil) for c in components]


def _warn_scale_separation(psi0: Field, b: float):
    grid = psi0.grid
    rho = psi0.density()
    total = grid.integrate(rho)
    meshes = grid.meshes()
    var = 0.0
    for a in range(grid.dim):
        mean = grid.integrate(rho * meshes[a]) / total
        var += grid.integrate(rho * (meshes[a] - mean) ** 2) / total
    sigma = np.sqrt(var / grid.dim)
    if np.sqrt(b) < SCALE_SEPARATION / sigma:
        warnings.warn(
            f"soliton width 1/sqrt(b) = {1/np.sqrt(b):.3g} is not well "
            f"separated from the pilot scale sigma = {sigma:.3g} "
            f"(want sqrt(b) >= {SCALE_SEPARATION}/sigma)", stacklevel=2)


def classical_trajectory(times, z0, v0, params: PhysicalParams,
                         potentials: Potentials):
    """Second-order reference path w0 z'' = e E (quantum force omitted).

    RK4 on the (position, velocity) pair over the same time stamps as a
    guidance trajectory; used as the discriminating comparison for coupled
    tracking runs.
    """
    z = np.asarray(z0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    e_over_m = params.charge / params.omega0

    if potentials.zero_field:
        # E is the same signed zero at every time and place: evaluate once
        constant = e_over_m * potentials.electric_field(0.0, z[None, :])[0]

        def accel(t, pos):
            return constant
    else:
        def accel(t, pos):
            return e_over_m * potentials.electric_field(t, pos[None, :])[0]

    out = np.empty((len(times), z.size))
    out[0] = z
    for i in range(len(times) - 1):
        t, h = times[i], times[i + 1] - times[i]
        k1z, k1v = v, accel(t, z)
        k2z, k2v = v + 0.5 * h * k1v, accel(t + 0.5 * h, z + 0.5 * h * k1z)
        k3z, k3v = v + 0.5 * h * k2v, accel(t + 0.5 * h, z + 0.5 * h * k2z)
        k4z, k4v = v + h * k3v, accel(t + h, z + h * k3z)
        z = z + (h / 6.0) * (k1z + 2 * k2z + 2 * k3z + k4z)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        out[i + 1] = z
    return out
