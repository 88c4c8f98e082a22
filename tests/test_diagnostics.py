"""Tests for conservation, energy, Ehrenfest, and equivariance reports."""

import dataclasses
import warnings

import numpy as np
import pytest

from interp_reference import record_snapshots
from solidyn.diagnostics import (
    cancellation_integrals,
    conservation_report,
    ehrenfest_report,
    equivariance_distance,
    static_energy_identity_deviation,
)
from solidyn.errors import SolidynError
from solidyn.grids import Field, Grid
from solidyn.potentials import PhysicalParams, Potentials
from solidyn.schrodinger import evolve_schrodinger, madelung_extract
from solidyn.soliton import (GaussonParams, SolitonState, energy_nls,
                             gausson_init, run_classical, run_coupled,
                             soliton_center)
from solidyn.trajectories import FlowHistory, integrate_flow

PARAMS = PhysicalParams(omega0=1.0, charge=1.0)


# ---------------------------------------------------------------------------
# energy_nls
# ---------------------------------------------------------------------------

def test_static_energy_identity():
    g = Grid(256, 20.0)
    u = gausson_init(GaussonParams(1.0, 1.0, center=(0.7,)), g, 1.0)
    assert static_energy_identity_deviation(u, 1.0, 1.0) < 1e-12


def test_energy_conserved_resting_gausson():
    g = Grid(256, 20.0)
    state = SolitonState(gausson_init(GaussonParams(1.0, 1.0), g, 1.0),
                         PARAMS, 1.0, 1.0)
    run = run_classical(state, Potentials.free(), 1e-3, 10_000,
                        store_every=500)
    report = conservation_report(run)
    assert report.energy_drift < 1e-8
    assert report.norm_drift < 1e-10
    assert not report.boundary_flagged


def test_energy_ratio_matches_phase_rotation():
    # for the resting Gausson the peak phase rotates at -(E_t/C - b/(2 w0))
    g = Grid(256, 20.0)
    state = SolitonState(gausson_init(GaussonParams(1.0, 1.0), g, 1.0),
                         PARAMS, 1.0, 1.0)
    stored = []
    run = run_classical(state, Potentials.free(), 1e-3, 200, store_every=200,
                        store=stored.append)
    report = conservation_report(run)
    mid = g.points[0] // 2
    phase0 = np.angle(stored[0].samples[mid])
    phase1 = np.angle(stored[1].samples[mid])
    rate = np.angle(np.exp(1j * (phase1 - phase0))) / (run.snapshot_times[1]
                                                       - run.snapshot_times[0])
    predicted = -(report.energy_ratio[0] - 1.0 / 2.0)
    assert rate == pytest.approx(predicted, rel=0.01)


def test_energy_expected_value_resting_gausson():
    # E_t/C for the unit Gausson is w0 + b/(2 w0)
    g = Grid(256, 20.0)
    u = gausson_init(GaussonParams(1.0, 1.0), g, 1.0)
    e_t, e_s = energy_nls(u, PARAMS, Potentials.free(), 1.0, 1.0)
    c = u.norm()
    assert e_t / c == pytest.approx(1.5, abs=1e-10)
    assert e_s == pytest.approx(c, rel=1e-12)


# ---------------------------------------------------------------------------
# ehrenfest_report
# ---------------------------------------------------------------------------

def test_ehrenfest_free_resting():
    g = Grid(256, 20.0)
    state = SolitonState(gausson_init(GaussonParams(1.0, 1.0), g, 1.0),
                         PARAMS, 1.0, 1.0)
    run = run_classical(state, Potentials.free(), 1e-3, 100)
    report = ehrenfest_report(run)
    assert np.max(np.abs(report.residual)) < 1e-8
    vals, scales = report.grad_n_cancellation
    assert np.all(np.abs(vals) < 1e-8 * scales)
    vals, scales = report.grad_ratio_cancellation
    assert np.all(np.abs(vals) < 1e-8 * scales)


def test_ehrenfest_uniform_field():
    g = Grid(256, 20.0)
    state = SolitonState(gausson_init(GaussonParams(1.0, 1.0), g, 1.0),
                         PARAMS, 1.0, 1.0)
    run = run_classical(state, Potentials.uniform_field(0.1), 1e-3, 2000)
    report = ehrenfest_report(run)
    # w0 x'' = e E to 0.1%
    dev = np.abs(report.acceleration[:, 0] - 0.1)
    assert np.max(dev) / 0.1 < 1e-3
    assert report.residual_rel_rms < 1e-3


def test_ehrenfest_needs_enough_samples():
    g = Grid(256, 20.0)
    state = SolitonState(gausson_init(GaussonParams(1.0, 1.0), g, 1.0),
                         PARAMS, 1.0, 1.0)
    run = run_classical(state, Potentials.free(), 1e-3, 3)
    with pytest.raises(Exception):
        ehrenfest_report(run)


def test_ehrenfest_names_the_force_series_a_coupled_run_lacks():
    # run_coupled records neither force series
    g = Grid(256, 20.0)
    x = g.axes[0]
    psi = Field(g, np.exp(-(x**2) / 4).astype(complex))
    u0 = gausson_init(GaussonParams(100.0, 1.0, center=(-0.6745,)), g, 1.0)
    state = SolitonState(u0, PARAMS, 100.0, 1.0, coupling_mode="dbb")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = run_coupled(psi, state, PARAMS, Potentials.free(), dt=1e-3,
                          steps=10)
    with pytest.raises(SolidynError,
                       match="mean_em_force and fq_at_center series"):
        ehrenfest_report(run)
    with pytest.raises(SolidynError, match=r"the mean_em_force series"):
        ehrenfest_report(run, include_quantum_force=False)


# ---------------------------------------------------------------------------
# equivariance_distance
# ---------------------------------------------------------------------------

def first_and_last_report(psi, pots, starts, **evolve):
    """equivariance_distance at the first and last snapshot of a run, with
    the ensemble from `starts` integrated while the wave runs."""
    history = FlowHistory(psi.grid, PARAMS, pots)
    stored = record_snapshots(history, "time_tag", "amplitude")
    ensemble = integrate_flow(history, starts)
    evolve_schrodinger(psi, PARAMS, pots, history=history, **evolve)
    densities = [a ** 2 for a in stored["amplitude"]]
    return equivariance_distance(densities, psi.grid, stored["time_tag"],
                                 ensemble.finish().positions,
                                 indices=[0, len(densities) - 1], bins=64)


def test_equivariance_stationary_state():
    g = Grid(512, 30.0)
    spring = 0.25
    x = g.axes[0]
    psi = Field(g, np.exp(-0.5 * np.sqrt(spring) * x**2).astype(complex))
    starts = g.sample_density(psi.density(), 600, seed=21)
    report = first_and_last_report(psi, Potentials.harmonic(spring), starts,
                                   dt=2e-3, steps=500)
    assert abs(report.distances[-1] - report.distances[0]) < 0.05
    assert np.all(report.distances <= 2.0)


def test_equivariance_free_gaussian():
    g = Grid(512, 30.0)
    x = g.axes[0]
    psi = Field(g, np.exp(-(x**2) / 4).astype(complex))
    starts = g.sample_density(psi.density(), 1000, seed=3)
    report = first_and_last_report(psi, Potentials.free(), starts, dt=2e-3,
                                   steps=1000)
    assert report.final_distance < 0.08


def test_equivariance_coherent_state_period():
    # over one trap period the packet returns, and so does the distance
    g = Grid(512, 30.0)
    spring = 1.0
    x = g.axes[0]
    psi = Field(g, np.exp(-0.5 * (x - 1.0) ** 2).astype(complex))
    dt = 2e-3
    steps = int(round(2 * np.pi / dt))
    starts = g.sample_density(psi.density(), 600, seed=9)
    report = first_and_last_report(psi, Potentials.harmonic(spring), starts,
                                   dt=dt, steps=steps)
    assert abs(report.distances[-1] - report.distances[0]) < 0.05


def test_cancellation_integrals_high_b():
    g = Grid(1024, 20.0)
    u = gausson_init(GaussonParams(100.0, 1.0, center=(1.3,)), g, 1.0)
    (vals_n, scales_n), (vals_r, scales_r) = cancellation_integrals(u, 100.0,
                                                                    1.0)
    assert np.all(np.abs(vals_n) < 1e-8 * scales_n)
    assert np.all(np.abs(vals_r) < 1e-8 * scales_r)


@pytest.mark.slow
def test_ehrenfest_dbb_discriminator():
    # coupled interference run: with F_Q the mean-force balance closes;
    # dropping F_Q leaves most of the force unaccounted for.  The run does
    # not record the force series, so the store hook samples F_Q at each
    # step's center (found as the run finds it), and the mean Lorentz force
    # of the free potential is zero
    g = Grid(1024, 30.0)
    x = g.axes[0]
    psi = Field(g, (np.exp(-((x - 3) ** 2) / 8) + np.exp(-((x + 3) ** 2) / 8))
                .astype(complex))
    u0 = gausson_init(GaussonParams(100.0, 1.0, center=(-3.0,)), g, 1.0)
    state = SolitonState(u0, PARAMS, 100.0, 1.0, coupling_mode="dbb")
    centers, fq = [], []

    def store(u, psi):
        rho = u.density()
        center, _ = soliton_center(g, rho, centers[-1] if centers else None,
                                   rho.sum())
        centers.append(center)
        force = madelung_extract(psi, PARAMS, Potentials.free()).quantum_force
        fq.append([g.interpolate(f, g.point_stencil(center)) for f in force])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = run_coupled(psi, state, PARAMS, Potentials.free(), dt=1e-3,
                          steps=4000, store_every=1, store=store)
    run = dataclasses.replace(run, fq_at_center=np.array(fq),
                              mean_em_force=np.zeros((len(fq), 1)))
    with_fq = ehrenfest_report(run, include_quantum_force=True)
    without_fq = ehrenfest_report(run, include_quantum_force=False)
    assert with_fq.residual_rel_rms < 0.05
    assert without_fq.residual_rel_rms > 0.5

