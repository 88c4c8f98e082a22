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
from .stepping import (NODE_MASK_REL, RowBlock, check_finite, drive,
                       strang_step)
from .trajectories import FlowHistory, FlowWalk, InteriorMax


@dataclass
class MadelungBundle:
    """Hydrodynamic fields extracted from a wavefunction snapshot."""

    grid: Grid
    time_tag: float
    amplitude: np.ndarray          # a = |Psi|
    velocity: np.ndarray           # (dim, *shape)
    quantum_potential: np.ndarray  # q = -lap(a)/(2 omega0 a), floored
    quantum_force: np.ndarray      # -grad q, (dim, *shape)
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
    """Amplitude, guidance velocity, quantum potential/force, and the peak
    amplitude (a sample below NODE_MASK_REL times it counts as a node)."""
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
    # grad a, lap a and grad lap a from one real spectrum of a
    derivs = grid.real_derivatives(a)
    grad_a, lap_a, grad_lap = (derivs[:grid.dim], derivs[grid.dim],
                               derivs[grid.dim + 1:])
    q = -lap_a / (2.0 * params.omega0 * a_safe)
    # F_Q = -grad q via the quotient rule: only smooth fields pass through
    # the FFT, so the amplitude-floor clamp cannot ring across the box
    fq = (grad_lap / a_safe - lap_a * grad_a / rho_safe) \
        / (2.0 * params.omega0)
    return MadelungBundle(
        grid=grid,
        time_tag=psi.time_tag,
        amplitude=a,
        velocity=velocity,
        quantum_potential=q,
        quantum_force=fq,
        amp_peak=peak,
    )


@dataclass
class SchrodingerRun:
    """Evolution output: the flow history (last three snapshots) and series.
    Only the benchmark's history size count reads `history` and `densities`
    (readers attach before the wave), so they stay until it drops them."""

    history: FlowHistory
    final_psi: Field
    norms: np.ndarray
    densities: list               # a^2 per kept snapshot


def evolve_schrodinger(psi0: Field, params: PhysicalParams,
                       potentials: Potentials, dt: float, steps: int,
                       store_every: int = 1,
                       history: FlowHistory = None) -> SchrodingerRun:
    """Evolve and cache Madelung snapshots every `store_every` steps.

    The cached velocity fields are what guidance trajectories interpolate,
    so the snapshot cadence bounds trajectory accuracy.  Each snapshot's
    `MadelungBundle` goes to `history` (a new FlowHistory by default),
    which keeps the last three: attach its readers (`integrate_flow`,
    `newton_bohm_residual`, `continuity_residual`) before this call.
    """
    if history is None:
        history = FlowHistory(psi0.grid, params, potentials)

    def step(psi, i):
        psi = ls_step(psi, params, potentials, dt)
        check_finite(psi.samples, i)
        return psi

    def sample(psi, i):
        if i % store_every:
            return None
        history.append(madelung_extract(psi, params, potentials))
        return {"norms": psi.norm()}

    psi, series = drive(psi0, steps, step, sample)
    return SchrodingerRun(history=history, final_psi=psi,
                          densities=[a ** 2 for a in history.amplitudes],
                          **series)


def newton_bohm_residual(z0, history: FlowHistory) -> FlowWalk:
    """Residual of omega0 z''(t) = F_Q + F_em along the guidance path from
    the single start z0, read as the wave fills the history.

    Each visit blends F_Q from the records and evaluates F_em = e E at the
    path point; z'' comes from centered differences of the positions.
    `finish()` returns the interior times, the residual series, and its
    RMS relative to the dominant force scale.
    """
    params = history.params
    path = [RowBlock() for _ in range(4)]   # t, z, F_Q, F_em

    def visit(i, t, z, stencil, k1):
        records = history.records
        fq = history._blend(lambda p: records[p].quantum_force, t, stencil)
        fem = params.charge * history.potentials.electric_field(t, z)
        for column, value in zip(path, (t, z[0], fq[0], fem[0])):
            column.append(value)

    def finish():
        times, z, fq, fem = (column.block() for column in path)
        if len(times) < 5:
            raise SolidynError("need at least 5 trajectory points")
        dt = times[1] - times[0]
        if not np.allclose(np.diff(times), dt):
            raise SolidynError("newton_bohm_residual expects uniform sampling")
        acc = (z[2:] - 2.0 * z[1:-1] + z[:-2]) / dt**2
        force = fq[1:-1] + fem[1:-1]
        residual = params.omega0 * acc - force
        scale = max(float(np.max(np.abs(force))),
                    float(params.omega0 * np.max(np.abs(acc))), 1e-300)
        rel_rms = float(np.sqrt(np.mean(residual**2)) / scale)
        return times[1:-1], residual, rel_rms

    return FlowWalk(history, z0, visit, finish)


def continuity_residual(history: FlowHistory) -> InteriorMax:
    """Max-norm violation of d(a^2)/dt + div(a^2 v) = 0 over the interior
    snapshots, read as the wave fills the history; `finish()` returns it.

    The time derivative is a centered difference over the neighbouring
    snapshots; the divergence is spectral; only unmasked samples count.
    """
    def at_middle(before, bundle, after):
        drho = ((after.amplitude ** 2 - before.amplitude ** 2)
                / (after.time_tag - before.time_tag))
        div = history.grid.divergence(
            bundle.velocity * (bundle.amplitude ** 2)[None, ...])
        mask = bundle.amplitude >= NODE_MASK_REL * bundle.amp_peak
        resid = np.abs(drho + div)[mask]
        return float(np.max(resid)) if resid.size else 0.0

    return InteriorMax(history, at_middle)
