"""Linear Schrodinger pilot wave: split-step evolution, Madelung fields,
and guidance trajectories.

The wave obeys (natural units, rest-mass term kept)

    i dPsi/dt = (omega0 + e V) Psi - (grad - i e A)^2 Psi / (2 omega0)

with A spatially uniform (Coulomb gauge, B = 0).  The Madelung split
Psi = a exp(iS) produces the hydrodynamic velocity v = (grad S - eA)/omega0,
the quantum potential q = -lap(a) / (2 omega0 a), and the quantum force
F_Q = -grad q; particles follow dz/dt = v(t, z).

The velocity is always computed from Im[Psi* grad Psi] / |Psi|^2, never from
an unwrapped phase, so branch cuts cannot corrupt it.  Near wave nodes the
quantum potential is singular: samples below NODE_MASK_REL times the peak
amplitude are masked, and trajectories abort rather than integrate garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolidynError
from .grids import Field, Grid
from .potentials import PhysicalParams, Potentials
from .stepping import NODE_MASK_REL, check_finite, drive, strang_step
from .trajectories import FlowHistory, flow_steps, trajectory_from_flow


@dataclass
class MadelungBundle:
    """Hydrodynamic fields extracted from a wavefunction snapshot."""

    grid: Grid
    time_tag: float
    amplitude: np.ndarray          # a = |Psi|
    velocity: np.ndarray           # (dim, *shape)
    quantum_potential: np.ndarray  # q = -lap(a)/(2 omega0 a), floored
    quantum_force: np.ndarray      # -grad q, (dim, *shape)
    node_mask: np.ndarray          # a < NODE_MASK_REL * max(a)
    amp_floor: float               # NODE_MASK_REL * amp_peak
    amp_peak: float                # max(a)


def ls_step(psi: Field, params: PhysicalParams, potentials: Potentials,
            dt: float) -> Field:
    """Advance the wave by one Strang split step (unitary to round-off).

    Half potential phase at t, exact kinetic step with the shifted
    wavenumber (k - eA(t + dt/2)), half potential phase at t + dt.
    """
    grid, t = psi.grid, psi.time_tag
    w0, e = params.omega0, params.charge
    out = strang_step(psi.samples,
                      potentials.half_phase(grid, w0, e, dt, t),
                      potentials.half_phase(grid, w0, e, dt, t + dt),
                      potentials.kinetic_phase(grid, w0, e, dt,
                                               t + 0.5 * dt))
    return Field(grid, out, t + dt)


def madelung_extract(psi: Field, params: PhysicalParams,
                     potentials: Potentials) -> MadelungBundle:
    """Amplitude, guidance velocity, quantum potential/force, node mask."""
    grid = psi.grid
    a = np.abs(psi.samples)
    peak = float(np.max(a))
    if peak == 0.0:
        raise SolidynError("cannot extract Madelung fields from a zero wave")
    floor = NODE_MASK_REL * peak
    a_safe = np.maximum(a, floor)
    rho_safe = a_safe ** 2
    grad_psi = grid.gradient(psi.samples)
    current = np.imag(np.conj(psi.samples)[None, ...] * grad_psi)
    avec = params.charge * potentials.vector(psi.time_tag)
    velocity = np.empty_like(current)
    for axis in range(grid.dim):
        velocity[axis] = (current[axis] / rho_safe - avec[axis]) / params.omega0
    # grad a and lap a share one forward FFT of a per axis
    pairs = [grid.derivative_pair(a, axis) for axis in range(grid.dim)]
    grad_a = np.stack([first for first, _ in pairs])
    lap_a = pairs[0][1]
    for _, second in pairs[1:]:
        lap_a = lap_a + second
    q = -lap_a / (2.0 * params.omega0 * a_safe)
    # F_Q = -grad q via the quotient rule: only smooth fields pass through
    # the FFT, so the amplitude-floor clamp cannot ring across the box
    grad_lap = grid.gradient(lap_a)
    fq = (grad_lap / a_safe - lap_a * grad_a / rho_safe) \
        / (2.0 * params.omega0)
    return MadelungBundle(
        grid=grid,
        time_tag=psi.time_tag,
        amplitude=a,
        velocity=velocity,
        quantum_potential=q,
        quantum_force=fq,
        node_mask=a < floor,
        amp_floor=floor,
        amp_peak=peak,
    )


@dataclass
class SchrodingerRun:
    """Evolution output: snapshot history for trajectories plus run series."""

    history: FlowHistory
    final_psi: Field
    norms: np.ndarray
    boundary_mass: np.ndarray
    densities: list               # a^2 per stored snapshot


def evolve_schrodinger(psi0: Field, params: PhysicalParams,
                       potentials: Potentials, dt: float, steps: int,
                       store_every: int = 1) -> SchrodingerRun:
    """Evolve and cache Madelung snapshots every `store_every` steps.

    The cached velocity / quantum-force fields are what guidance trajectories
    interpolate, so the snapshot cadence bounds trajectory accuracy.
    """
    history = FlowHistory(psi0.grid, params, potentials)
    grid = psi0.grid

    def step(psi, i):
        psi = ls_step(psi, params, potentials, dt)
        check_finite(psi.samples, i)
        return psi

    def sample(psi, i):
        if i % store_every:
            return None
        bundle = madelung_extract(psi, params, potentials)
        history.append(psi.time_tag, bundle.velocity, bundle.amplitude,
                       bundle.quantum_force)
        return {"norms": psi.norm(),
                "boundary_mass": grid.boundary_mass_fraction(psi.density())}

    psi, series = drive(psi0, steps, step, sample)
    history.freeze()
    return SchrodingerRun(history=history, final_psi=psi,
                          densities=[a ** 2 for a in history.amplitudes],
                          **series)


def integrate_bohm(z0, history: FlowHistory):
    """Guidance trajectory dz/dt = v(t, z) over the cached snapshot history.

    Aborts with a node-encounter error if the path reaches the masked
    region, or a boundary-exit error if it leaves the box.
    """
    return trajectory_from_flow(history, z0)


def integrate_bohm_ensemble(z0s, history: FlowHistory):
    """Vectorized trajectories from a batch of starts; returns (n_t, m, dim).

    Only the positions are kept, so memory is one (n_t, m, dim) block.
    """
    for i, _, z, _, _ in flow_steps(history, z0s):
        if i == 0:
            positions = np.empty((len(history.times),) + z.shape)
        positions[i] = z
    return positions


def newton_bohm_residual(traj, params: PhysicalParams):
    """Residual of the second-order law omega0 z''(t) = F_Q + F_em.

    z'' comes from centered differences of the recorded positions, the
    forces from the per-step annotations.  Returns the interior times, the
    residual series, and its RMS relative to the dominant force scale.
    """
    times = traj.times
    if len(times) < 5:
        raise SolidynError("need at least 5 trajectory points")
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt):
        raise SolidynError("newton_bohm_residual expects uniform sampling")
    z = traj.positions
    acc = (z[2:] - 2.0 * z[1:-1] + z[:-2]) / dt**2
    force = traj.quantum_force[1:-1] + traj.em_force[1:-1]
    residual = params.omega0 * acc - force
    scale = max(float(np.max(np.abs(force))),
                float(params.omega0 * np.max(np.abs(acc))), 1e-300)
    rel_rms = float(np.sqrt(np.mean(residual**2)) / scale)
    return times[1:-1], residual, rel_rms


def continuity_residual(run: SchrodingerRun):
    """Max-norm violation of d(a^2)/dt + div(a^2 v) = 0 across the history.

    The time derivative is a centered difference over stored snapshots; the
    divergence is spectral; only unmasked interior samples count.
    """
    hist = run.history
    times = hist.times
    if len(times) < 3:
        raise SolidynError("need at least 3 snapshots")
    worst = 0.0
    for i in range(1, len(times) - 1):
        dt2 = times[i + 1] - times[i - 1]
        drho = (run.densities[i + 1] - run.densities[i - 1]) / dt2
        flux = hist.velocities[i] * run.densities[i][None, ...]
        div = hist.grid.divergence(flux)
        mask = hist.amplitudes[i] >= NODE_MASK_REL * hist.amp_peaks[i]
        resid = np.abs(drho + div)[mask]
        if resid.size:
            worst = max(worst, float(np.max(resid)))
    return worst
