"""Conservation, energy, Ehrenfest, and equivariance reporting.

These are pure post-processing passes over immutable run records: they never
advance a solver, so reports may be generated concurrently and repeatedly.

Conventions: the wave norm is C = integral |u|^2 and the conserved charge is
P_t = 2 omega0 C.  The energy E_t is the classical-mode NLS Hamiltonian

    E_t = integral[ |(grad - ieA)u|^2 / (2 w0) + (w0 + eV) |u|^2
                    + U_log(|u|^2) / (2 w0) ],

and the reported energy ratio is E_t / C (energy per unit norm), which for a
localized soliton equals b/(2 w0) minus the phase rotation rate at its
center.  E_s = b C is the static energy, an exact pointwise identity for the
logarithmic family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolidynError
from .grids import Field
from .potentials import PhysicalParams, Potentials
from .soliton import (SolitonRun, log_nonlinearity, log_potential_density)
from .stepping import BOUNDARY_MASS_LIMIT, NODE_MASK_REL


def norm_pt(u: Field, omega0: float) -> float:
    """Conserved charge P_t = 2 omega0 integral |u|^2."""
    return 2.0 * omega0 * u.norm()


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


def static_energy_identity_deviation(u: Field, b: float, f0: float) -> float:
    """Relative deviation of integral[U - N rho] from b integral rho.

    Exact algebra for the logarithmic family; anything beyond round-off
    means the nonlinearity implementation is broken.
    """
    rho = u.density()
    grid = u.grid
    via_pointwise = grid.integrate(
        log_potential_density(rho, b, f0) - rho * log_nonlinearity(rho, b, f0))
    direct = b * grid.integrate(rho)
    return float(abs(via_pointwise - direct) / abs(direct))


def cancellation_integrals(u: Field, b: float, f0: float):
    """Density-weighted means of grad N_log and grad(lap f / f).

    Both vanish for localized profiles (they reduce to surface terms); the
    returned pairs are (signed integral, integral of |integrand|) per axis so
    callers can form the cancellation quality ratio.
    """
    grid = u.grid
    f = np.abs(u.samples)
    rho = f**2
    floor = NODE_MASK_REL * f.max()
    grad_n = grid.gradient(log_nonlinearity(rho, b, f0))
    ratio = grid.laplacian(f) / np.maximum(f, floor)
    grad_r = grid.gradient(ratio)
    out = []
    for comps in (grad_n, grad_r):
        vals = np.array([grid.integrate(rho * comps[a])
                         for a in range(grid.dim)])
        scales = np.array([grid.integrate(rho * np.abs(comps[a]))
                           for a in range(grid.dim)])
        out.append((vals, scales))
    return out[0], out[1]


@dataclass
class ConservationReport:
    times: np.ndarray
    norm: np.ndarray            # P_t = 2 w0 C
    energy: np.ndarray          # E_t
    static_energy: np.ndarray   # E_s = b C
    energy_ratio: np.ndarray    # E_t / C
    boundary_mass: np.ndarray
    norm_drift: float           # max |P_t - P_0| / P_0
    energy_drift: float         # max |E_t - E_0| / |E_0|
    boundary_flagged: bool      # any boundary mass above the watchdog limit


def conservation_report(run: SolitonRun) -> ConservationReport:
    """Energy/norm series over a run's stored snapshots."""
    p = run.params
    norms, energies, statics, ratios = [], [], [], []
    for u in run.u_snapshots:
        e_t, e_s = energy_nls(u, p, run.potentials, run.b, run.f0)
        c = u.norm()
        norms.append(2.0 * p.omega0 * c)
        energies.append(e_t)
        statics.append(e_s)
        ratios.append(e_t / c)
    norms = np.asarray(norms)
    energies = np.asarray(energies)
    edge = np.interp(run.snapshot_times, run.times, run.boundary_mass)
    return ConservationReport(
        times=run.snapshot_times,
        norm=norms,
        energy=energies,
        static_energy=np.asarray(statics),
        energy_ratio=np.asarray(ratios),
        boundary_mass=edge,
        norm_drift=float(np.max(np.abs(norms - norms[0])) / norms[0]),
        energy_drift=float(np.max(np.abs(energies - energies[0]))
                           / abs(energies[0])),
        boundary_flagged=bool(np.max(run.boundary_mass) > BOUNDARY_MASS_LIMIT),
    )


@dataclass
class EhrenfestReport:
    times: np.ndarray            # interior sample times
    center: np.ndarray           # xbar at interior times
    acceleration: np.ndarray     # centered second difference of xbar
    mean_em_force: np.ndarray    # integral(rho e E)/C at interior times
    quantum_force: np.ndarray    # F_Q(xbar) (zeros in classical mode)
    residual: np.ndarray         # w0 x'' - <F_em>/C - [F_Q]
    residual_rel_rms: float
    grad_n_cancellation: tuple   # (values, |integrand| scales) per axis
    grad_ratio_cancellation: tuple


def ehrenfest_report(run: SolitonRun, include_quantum_force=None) -> EhrenfestReport:
    """Center-of-density dynamics check against the mean-force law.

    In classical mode the law is w0 d2(xbar)/dt2 = <F_em>/C; in dbb mode the
    quantum force at the center joins the right-hand side.  Also evaluates
    the two mean-value cancellations that justify dropping the nonlinear and
    internal-curvature forces for localized profiles.
    """
    if len(run.times) < 7:
        raise SolidynError("need at least 7 samples for second differences")
    if include_quantum_force is None:
        include_quantum_force = run.mode == "dbb"
    dt = run.times[1] - run.times[0]
    if not np.allclose(np.diff(run.times), dt):
        raise SolidynError("ehrenfest_report expects uniform sampling")
    x = run.centers
    acc = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / dt**2
    em = run.mean_em_force[1:-1]
    fq = run.fq_at_center[1:-1] if include_quantum_force \
        else np.zeros_like(em)
    residual = run.params.omega0 * acc - em - fq
    scale = max(float(np.max(np.abs(em + fq))),
                float(run.params.omega0 * np.max(np.abs(acc))), 1e-300)
    rel = float(np.sqrt(np.mean(residual**2)) / scale)
    grad_n, grad_ratio = cancellation_integrals(
        run.u_snapshots[-1], run.b, run.f0)
    return EhrenfestReport(
        times=run.times[1:-1], center=x[1:-1], acceleration=acc,
        mean_em_force=em, quantum_force=fq, residual=residual,
        residual_rel_rms=rel, grad_n_cancellation=grad_n,
        grad_ratio_cancellation=grad_ratio)


@dataclass
class EquivarianceReport:
    bins: int
    times: np.ndarray
    distances: np.ndarray       # L1 in [0, 2] per requested time

    @property
    def final_distance(self):
        return float(self.distances[-1])


def _overlap_matrix(axis_coords, spacing, edges):
    """Fractional overlap of each grid cell [x_j, x_j + dx) with each bin."""
    starts = axis_coords
    ends = axis_coords + spacing
    lo = np.maximum(edges[:-1, None], starts[None, :])
    hi = np.minimum(edges[1:, None], ends[None, :])
    return np.clip(hi - lo, 0.0, None) / spacing


def binned_density(grid, rho, edges):
    """Bin masses of the piecewise-constant-per-cell probability law.

    Matches exactly what jitter-within-cell sampling draws from, so the
    comparison against sample histograms carries no binning quantization.
    """
    masses = rho * grid.cell_volume
    w0 = _overlap_matrix(grid.axes[0], grid.spacing[0], edges[0])
    if grid.dim == 1:
        return w0 @ masses
    w1 = _overlap_matrix(grid.axes[1], grid.spacing[1], edges[1])
    return w0 @ masses @ w1.T


def equivariance_distance(densities, density_grid, times, block,
                          indices=None, bins=64) -> EquivarianceReport:
    """L1 distance between trajectory-ensemble histograms and |Psi|^2.

    `densities` are |Psi|^2 arrays at the history times, `block` is the
    (n_times, m, dim) trajectory position block from the same history.
    Bins are uniform over the density's mean +/- 4 sigma box at each time.
    """
    if indices is None:
        indices = [0, len(times) - 1]
    grid = density_grid
    m = block.shape[1]
    out_t, out_d = [], []
    for idx in indices:
        rho = densities[idx]
        total = grid.integrate(rho)
        meshes = grid.meshes()
        edges = []
        for a in range(grid.dim):
            mean = grid.integrate(rho * meshes[a]) / total
            sigma = np.sqrt(grid.integrate(rho * (meshes[a] - mean) ** 2)
                            / total)
            edges.append(np.linspace(mean - 4 * sigma, mean + 4 * sigma,
                                     bins + 1))
        p = binned_density(grid, rho, edges) / total
        q, _ = np.histogramdd(block[idx], bins=edges)
        q /= m
        out_t.append(times[idx])
        out_d.append(float(np.sum(np.abs(p - q))))
    return EquivarianceReport(bins=bins,
                              times=np.asarray(out_t),
                              distances=np.asarray(out_d))
