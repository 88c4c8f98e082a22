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

`evolve_schrodinger` steps the wave and extracts its Madelung fields ahead
in a child process (`stepping.drive` with `ship`); the flow history and
its readers take each snapshot's bundle in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SolidynError
from .grids import Field, Grid
from .potentials import PhysicalParams, Potentials
from .stepping import NODE_MASK_REL, check_finite, drive, strang_step
from .trajectories import FlowHistory


@dataclass
class MadelungBundle:
    """Hydrodynamic fields extracted from a wavefunction snapshot, and the
    quantum force, derived from them when first read."""

    grid: Grid
    time_tag: float
    amplitude: np.ndarray          # a = |Psi|
    velocity: np.ndarray           # (dim, *shape)
    quantum_potential: np.ndarray  # q = -lap(a)/(2 omega0 a), floored
    amp_peak: float                # max(a)
    omega0: float

    @cached_property
    def quantum_force(self):
        """F_Q = -grad q, (dim, *shape), by the quotient rule on one real
        spectrum of a (`Grid.real_derivatives`): only smooth fields pass
        through the FFT, so the amplitude-floor clamp cannot ring across
        the box.  F_Q is written into the rows of that stack in the
        operation order of (grad_lap / a_safe - lap_a * grad_a / a_safe**2)
        / (2 w0), with a_safe floored as in `madelung_extract`."""
        grid, a = self.grid, self.amplitude
        a_safe = np.maximum(a, NODE_MASK_REL * self.amp_peak)
        derivs = grid.real_derivatives(a)
        grad_a, lap_a, fq = (derivs[:grid.dim], derivs[grid.dim],
                             derivs[grid.dim + 1:])
        fq /= a_safe
        grad_a *= lap_a
        grad_a /= a_safe ** 2
        fq -= grad_a
        fq /= 2.0 * self.omega0
        return fq


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
    """Amplitude, guidance velocity, quantum potential and the peak
    amplitude (a sample below NODE_MASK_REL times it counts as a node);
    the quantum force is derived only when read.

    The velocity rows come from `_guidance_velocity` and q from
    `_quantum_potential`, the kernels the pair sector runs on its lines
    and slices.  q takes lap a from `Grid.real_laplacian`, one real FFT
    pair of a, with the bits of row `dim` of `Grid.real_derivatives`.
    """
    grid = psi.grid
    samples = psi.samples
    a = np.abs(samples)
    peak = float(a.max())
    if peak == 0.0:
        raise SolidynError("cannot extract Madelung fields from a zero wave")
    a_safe = np.maximum(a, NODE_MASK_REL * peak)
    rho_safe = a_safe ** 2
    avec = params.charge * potentials.vector(psi.time_tag)
    velocity = np.empty((grid.dim,) + grid.shape)
    for axis in range(grid.dim):
        _guidance_velocity(samples, grid, axis, rho_safe, params.omega0,
                           avec[axis], out=velocity[axis])
    return MadelungBundle(
        grid=grid,
        time_tag=psi.time_tag,
        amplitude=a,
        velocity=velocity,
        quantum_potential=_quantum_potential(grid.real_laplacian(a), a_safe,
                                             params.omega0),
        amp_peak=peak,
        omega0=params.omega0,
    )


def _guidance_velocity(samples, grid, axis, rho_safe, mass, shift=0.0,
                       out=None):
    """Guidance velocity (Im[conj(Psi) d_axis Psi] / rho_safe - shift) /
    mass of `samples` (on the whole of `grid`, or on its lines along
    `axis`), with the floored density `rho_safe`.

    The current is written over the derivative as np.multiply(conj(Psi),
    dPsi): conj(Psi) stays the first operand, because numpy's SIMD complex
    product fuses one product of the imaginary part, chosen by operand
    order (`dPsi * conj(Psi)` gives other bits on an AVX-512 host).
    """
    current = grid.derivative(samples, axis)
    np.multiply(np.conj(samples), current, out=current)
    v = np.divide(current.imag, rho_safe, out=out)
    v -= shift
    v /= mass
    return v


def _quantum_potential(lap_a, a_safe, mass):
    """q = -lap_a / (2 mass a_safe), written over `lap_a` (`a_safe` is
    scaled in place)."""
    a_safe *= 2.0 * mass
    q = np.divide(lap_a, a_safe, out=lap_a)
    return np.negative(q, out=q)


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
                       store_every: int = 1, *,
                       history: FlowHistory) -> SchrodingerRun:
    """Evolve and cache Madelung snapshots every `store_every` steps.

    The cached velocity fields are what guidance trajectories interpolate,
    so the snapshot cadence bounds trajectory accuracy.  Each snapshot's
    `MadelungBundle` goes to `history`, which keeps the last three: attach
    its readers (`integrate_flow`, a test oracle's walk) before this call.

    The wave chain (`ls_step`, its finiteness check, and
    `madelung_extract` with the norm at each snapshot) runs ahead in the
    child process of `stepping.run_ahead` (`drive` with `ship`), which
    ships the snapshots' bundles and norms, and the wave at the last step.
    The history and its readers take each bundle in this process, in step
    order, as in one process.
    """
    def step(psi, i):
        psi = ls_step(psi, params, potentials, dt)
        check_finite(psi.samples, i)
        return psi

    def ship(psi, i):
        snapshot = None if i % store_every else (
            madelung_extract(psi, params, potentials), psi.norm())
        return snapshot, psi if i == steps else None

    def sample(item, i):
        snapshot, _ = item
        if snapshot is None:
            return None
        bundle, norm = snapshot
        history.append(bundle)
        return {"norms": norm}

    (_, psi), series = drive(psi0, steps, step, sample, ship, (psi0.grid,))
    return SchrodingerRun(history=history, final_psi=psi,
                          densities=[a ** 2 for a in history.amplitudes],
                          **series)
