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

Coupling is strictly one way: the pilot wave never sees the u-field, so
`run_coupled` steps the pilot wave, and the guidance point it is checked
against, ahead in a child process, which ships q and the point per step.
`run_classical` steps the u-field itself ahead the same way and ships
|u|^2 and its sum; the center, norm, boundary mass, mean force and energy
are taken in the calling process (`stepping.drive` with `ship`).  A
stepped `SolitonState` carries no center: each run takes it where it
records, re-referenced to the one before.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field as _dc_field

import numpy as np

from .errors import BoundaryMassError, SolidynError
from .grids import Field, Grid
from .potentials import PhysicalParams, Potentials
from .schrodinger import MadelungBundle, ls_step, madelung_extract
from .stepping import (BOUNDARY_MASS_LIMIT, NODE_MASK_REL, _half_phase,
                       check_finite, drive, strang_step)
from .trajectories import (FlowHistory, TrajectoryRecord, _rk4, _values_at,
                           advance_point)

RHO_FLOOR_REL = 1e-30      # vacuum floor for the logarithm, relative to f0^2
SCALE_SEPARATION = 20.0    # recommended sqrt(b) * sigma_psi lower bound


def log_nonlinearity(rho, b, f0, out=None):
    """N_log(rho) with a vacuum floor; the floor only touches regions of
    negligible density, where the phase it produces is physically empty.

    The result has the bits of -b (1 + ln(max(rho, floor) / f0^2)), built
    in place in `out` if given (which may be `rho`)."""
    f0_sq = f0**2
    n = np.maximum(rho, RHO_FLOOR_REL * f0_sq, out=out)
    n /= f0_sq
    n = np.log(n, out=out)
    n += 1.0
    n *= -b
    return n


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
    w = potentials.linear_potential(grid, p.omega0, p.charge, u.time_tag)
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

    @property
    def min_box_length(self):
        """Shortest periodic box side that holds the Gausson, 10/sqrt(b):
        in a shorter one its tail wraps around the seam."""
        return 10.0 / np.sqrt(self.b)


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
    min_width = gp.min_box_length
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
    """Evolving u-field plus its nonlinearity, coupling mode and center.

    `density` (|u|^2), its sum and `norm` (its integral) are computed once
    per u, when the state is built; the next step's nonlinearity, the
    center, the boundary mass and the run series all read them.  A state
    built by hand takes its center from `soliton_center` unless given one.
    A stepped state (`nls_step`) has none: the center is no part of the
    step chain, and a run takes it where it records (`track_center`),
    re-referenced to the center before, so seam crossings stay continuous.
    """

    u: Field
    params: PhysicalParams
    b: float
    f0: float
    coupling_mode: str = "classical"   # or "dbb"
    center: np.ndarray = None
    stepped: InitVar[bool] = False
    density: np.ndarray = _dc_field(init=False, repr=False, compare=False)
    norm: float = _dc_field(init=False, repr=False, compare=False)
    _density_sum: float = _dc_field(init=False, repr=False, compare=False)

    def __post_init__(self, stepped):
        if self.coupling_mode not in ("classical", "dbb"):
            raise SolidynError(f"unknown coupling mode {self.coupling_mode!r}")
        self.density = self.u.density()
        self._density_sum = float(self.density.sum())
        self.norm = float(self._density_sum * self.u.grid.cell_volume)
        if self.center is not None:
            self.center = np.asarray(self.center, dtype=float)
        elif not stepped:
            self.track_center(None)

    def track_center(self, previous):
        """Take the center re-referenced to the center `previous` (about
        the peak for None), keep it as `center` and return it."""
        self.center = soliton_center(self.u.grid, self.density, previous,
                                     self._density_sum)[0]
        return self.center


def soliton_center(grid: Grid, density, previous=None, total=None):
    """First moment xbar of the density |u|^2 on `grid`, and the norm C,
    wrap-aware.

    Coordinates are re-referenced to the previous center (mapped into the
    half-open window of width L around it), so a soliton crossing the
    periodic seam keeps a continuous track; without one, to the density's
    peak.  `total` may pass the density's `ndarray.sum`, when the caller
    already holds it.
    """
    rho = density
    if total is None:
        total = rho.sum()
    c = float(total * grid.cell_volume)
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

    Both half phases run through one real and one complex buffer per
    call: W is built in place by `log_nonlinearity`, `/ (2 w0)` and `+
    base`, and `stepping._half_phase` turns it into exp(-i dt W / 2).
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
    buffer = np.empty(grid.shape)
    phase = np.empty(grid.shape, dtype=complex)

    def half_phase(rho, t, q):
        """exp(-i dt W(t) / 2) of the density `rho` (which may be
        `buffer`), built in `buffer` and `phase`."""
        base = potentials.linear_potential(grid, p.omega0, e, t)
        if q is not None:
            base = base + q
        w = log_nonlinearity(rho, state.b, state.f0, out=buffer)
        w /= two_w0
        w += base
        return _half_phase(w, dt, phase)

    def half_end(mid):
        rho = np.abs(mid, out=buffer)
        return half_phase(np.square(rho, out=rho), t + dt, external_q_end)

    kin = potentials.kinetic_phase(grid, p.omega0, e, dt, t + 0.5 * dt)
    out = strang_step(u.samples, half_phase(state.density, t, external_q),
                      half_end, kin)
    return SolitonState(Field(grid, out, t + dt), p, state.b, state.f0,
                        state.coupling_mode, stepped=True)


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

    v_z = np.array(_values_at(grid, grid.point_stencil(z), madelung.velocity))
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
    `snapshot_times` and `energy`; each stored field went to `store`.

    Both runs record `times`, `centers` and `norms`.  `run_classical` also
    records the rows of `mean_em_force`, `boundary_mass`, `snapshot_times`
    and `energy`, which the diagnostics read; `run_coupled` leaves them
    None and records the reference path and the harmony series instead."""

    times: np.ndarray = None
    centers: np.ndarray = None        # (n, dim) wrap-aware xbar
    norms: np.ndarray = None          # (n,) C = integral |u|^2
    mean_em_force: np.ndarray = None  # (n, dim) integral(rho e E) / C
    fq_at_center: np.ndarray = None   # (n, dim) F_Q; no run records it
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

    The field chain (`nls_step` and its finiteness check) runs ahead in
    the child process of `stepping.run_ahead` (`drive` with `ship`).  Each
    step it ships the time, |u|^2 and its sum, and u only at the stored
    steps and the last.  This process takes the wrap-aware center, the
    norm, the boundary mass (and its abort), the mean force, the energy
    and the stored fields from them, in step order, as in one process.
    """
    if state.coupling_mode != "classical":
        raise SolidynError("run_classical needs a classical-mode state")
    grid = state.u.grid
    pos = _grid_positions(grid)
    center = state.center

    def stored(i):
        return i % store_every == 0

    def step(state, i):
        state = nls_step(state, potentials, dt)
        check_finite(state.u.samples, i)
        return state

    def ship(state, i):
        return (state.u.time_tag, state.density, state._density_sum,
                state.u if stored(i) or i == steps else None)

    def sample(item, i):
        nonlocal center
        t, density, total, u = item
        if i:
            center = soliton_center(grid, density, center, total)[0]
        norm = float(total * grid.cell_volume)
        frac = grid.boundary_mass_fraction(density, total)
        if abort_on_boundary_mass and i and frac > BOUNDARY_MASS_LIMIT:
            raise BoundaryMassError(
                f"boundary mass fraction {frac:.3e} exceeded "
                f"{BOUNDARY_MASS_LIMIT} at step {i}")
        row = {"times": t, "centers": center, "norms": norm,
               "boundary_mass": frac,
               "mean_em_force": _density_mean_force(
                   grid, t, density, norm, state.params.charge, potentials,
                   pos)}
        if stored(i):
            if store is not None:
                store(u)
            row["snapshot_times"] = t
            row["energy"] = energy_nls(u, state.params, potentials,
                                       state.b, state.f0)[0]
        return row

    (*_, u), series = drive(state, steps, step, sample, ship, (grid,))
    final = SolitonState(u, state.params, state.b, state.f0, center=center)
    return SolitonRun(final_state=final, **series)


def _density_mean_force(grid: Grid, t, density, norm, charge,
                        potentials: Potentials, grid_positions):
    """integral(|u|^2 e E(t, x)) / C of the density |u|^2, of norm C, at
    time t: the density-averaged Lorentz force."""
    if potentials.zero_field:
        # the general path sums rho * (-0.0), which numpy sums to +0.0
        return charge * np.zeros(grid.dim)
    efield = potentials._field_on_grid(grid, t, grid_positions)
    out = np.empty(grid.dim)
    for a in range(grid.dim):
        out[a] = grid.integrate(density * efield[:, a].reshape(grid.shape)) \
            / norm
    return charge * out


def run_coupled(psi0: Field, state: SolitonState, pilot_params: PhysicalParams,
                potentials: Potentials, dt: float, steps: int,
                store_every: int = 0, harmony_every: int = 0,
                store=None) -> SolitonRun:
    """Co-evolve pilot wave and dbb-coupled soliton in lockstep.

    Per step: advance the pilot wave, extract its quantum potential at both
    ends of the step, advance the u-field with that external potential, and
    advance the reference guidance trajectory (same start as the soliton)
    against the same two Madelung snapshots.  The coupling is one way: the
    pilot wave never sees u, and the reference point reads the pilot
    alone.  So the pilot's chain (`ls_step`, its finiteness check,
    `madelung_extract` and the reference point's step) runs ahead in the
    child process of `stepping.run_ahead` (`drive` with `ship`).  Each step
    it ships the time, q and the point's position and velocity; the
    `MadelungBundle` only at the harmony steps, whose residual reads its
    velocity, and the wave only at the steps `store` writes.  This process
    does the soliton step as it records each item, with the center, the
    harmony residual and the series.  A pilot error or a reference abort
    raises at its step, before that step's soliton step, as in one
    process.

    The reference point steps by `trajectories.advance_point` over the
    two-record `FlowHistory.of` the step's bundles, with the blends and
    node check of every walk; its point stencil serves every later lookup
    at the point.  The initial state and every `store_every`-th step (none
    for 0) hand their fields to `store(u, psi)`.  The run records the
    times, centers and norms, the reference path, and the phase-harmony
    residual every `harmony_every`-th step (none for 0); it derives no
    quantum force.
    """
    if state.coupling_mode != "dbb":
        raise SolidynError("run_coupled needs a dbb-mode state")
    grid = psi0.grid
    if grid != state.u.grid:
        raise SolidynError("pilot wave and soliton must share one grid")
    start_bundle = madelung_extract(psi0, pilot_params, potentials)
    _warn_scale_separation(psi0, state.b)

    z = tuple(float(c) for c in state.center)
    z_stencil = grid.point_stencil(z)
    if grid.interpolate(start_bundle.amplitude, z_stencil) \
            < NODE_MASK_REL * start_bundle.amp_peak:
        raise SolidynError("soliton center starts on the pilot node mask")
    start_k1 = _values_at(grid, z_stencil, start_bundle.velocity)

    def stored(i):
        return store is not None and (
            i == 0 or (store_every and i % store_every == 0))

    def harmonic(i):
        return i > 0 and harmony_every and i % harmony_every == 0

    def pilot_step(pilot, i):
        psi, bundle, point, k1 = pilot
        psi = ls_step(psi, pilot_params, potentials, dt)
        check_finite(psi.samples, i)
        bundle_next = madelung_extract(psi, pilot_params, potentials)
        t = bundle.time_tag
        point, stencil = advance_point(
            FlowHistory.of(bundle, bundle_next), point, t, t + dt, k1)
        return (psi, bundle_next, point,
                _values_at(grid, stencil, bundle_next.velocity))

    def ship(pilot, i):
        psi, bundle, point, k1 = pilot
        return (bundle.time_tag, bundle.quantum_potential, point, k1,
                bundle if harmonic(i) else None, psi if stored(i) else None)

    q = None            # the pilot's q at the start of the next step

    def sample(item, i):
        # the soliton's step i, under the pilot's q at both of its ends,
        # and then the row of step i
        nonlocal state, q
        t, q_next, point, k1, bundle, psi = item
        if i:
            center = state.center
            state = nls_step(state, potentials, dt, external_q=q,
                             external_q_end=q_next)
            check_finite(state.u.samples, i)
            state.track_center(center)
        q = q_next
        if stored(i):
            store(state.u, psi)
        harmony = harmonic(i)
        return {
            "times": t, "centers": state.center, "norms": state.norm,
            # the reference trajectory
            "positions": point, "velocities": k1,
            "harmony_times": t if harmony else None,
            "harmony": phase_harmony_residual(
                state, bundle, state.center, 4.0 / np.sqrt(state.b),
                potentials) if harmony else None,
        }

    _, series = drive((psi0, start_bundle, z, start_k1), steps, pilot_step,
                      sample, ship, (grid,))
    reference = TrajectoryRecord(series["times"],      # one start: m = 1
                                 series.pop("positions")[:, None],
                                 series.pop("velocities")[:, None])
    return SolitonRun(final_state=state, reference=reference, **series)


def _warn_scale_separation(psi0: Field, b: float):
    _, _, variances = psi0.grid._moments(psi0.density())
    sigma = np.sqrt(sum(variances) / psi0.grid.dim)
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
    tracking runs.  The stages run on Python floats through the point
    RK4 of the guidance walk (`trajectories._rk4`, on z and v side by
    side), so the bits are those of stepping numpy arrays; E comes from
    `Potentials.electric_field` at the one stage point.
    """
    times = np.asarray(times, dtype=float).tolist()
    z = np.asarray(z0, dtype=float).tolist()
    dim = len(z)
    e_over_m = params.charge / params.omega0

    def field(t, pos):
        return [e_over_m * f
                for f in potentials.electric_field(t, [pos])[0].tolist()]

    if potentials.zero_field:
        # E is the same signed zero at every time and place: evaluate once
        constant = field(0.0, z)

        def accel(t, pos):
            return constant
    else:
        accel = field

    def rate(t, y):
        return [*y[dim:], *accel(t, y[:dim])]

    y = (*z, *np.asarray(v0, dtype=float).tolist())
    out = [z]
    for i in range(len(times) - 1):
        t, h = times[i], times[i + 1] - times[i]
        y = _rk4(rate, y, t, h, t + h)
        out.append(y[:dim])
    return np.array(out)
