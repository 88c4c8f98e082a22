"""Tests for the logarithmic-nonlinearity soliton: Gaussons, stepping,
center tracking, phase harmony, and the coupled pilot-wave run."""

import os
import warnings

import numpy as np
import pytest

from oracle_reference import second_central_moments
from solidyn.errors import BoundaryExitError, SolidynError
from solidyn.grids import Field, Grid
from solidyn.potentials import PhysicalParams, Potentials
from solidyn.schrodinger import madelung_extract
from solidyn.soliton import (
    GaussonParams,
    SolitonState,
    classical_trajectory,
    gausson_init,
    log_nonlinearity,
    log_potential_density,
    nls_step,
    phase_harmony_residual,
    run_classical,
    run_coupled,
    soliton_center,
)

PARAMS = PhysicalParams(omega0=1.0, charge=1.0)


# ---------------------------------------------------------------------------
# log_nonlinearity
# ---------------------------------------------------------------------------

def test_log_nonlinearity_reference_values():
    assert log_nonlinearity(1.0, b=1.0, f0=1.0) == pytest.approx(-1.0)
    assert log_nonlinearity(np.e, b=1.0, f0=1.0) == pytest.approx(-2.0)
    assert log_nonlinearity(4.0, b=2.0, f0=2.0) == pytest.approx(-2.0)


def test_log_nonlinearity_matches_gausson_curvature():
    # for rho = f0^2 e^{-b r^2}: N_log = -b (1 - b r^2) = lap F / F in 1D
    r = np.linspace(-3.0, 3.0, 301)
    b, f0 = 1.3, 0.8
    rho = f0**2 * np.exp(-b * r**2)
    expected = -b * (1.0 - b * r**2)
    assert np.max(np.abs(log_nonlinearity(rho, b, f0) - expected)) < 1e-12


def test_log_nonlinearity_floor_absorbs_vacuum():
    val = log_nonlinearity(0.0, b=1.0, f0=1.0)
    assert np.isfinite(val)


def test_log_potential_identity():
    # U - rho N = b rho holds pointwise for any density
    rho = np.array([0.0, 1e-12, 0.3, 1.0, 7.5])
    b, f0 = 2.2, 1.4
    lhs = log_potential_density(rho, b, f0) - rho * log_nonlinearity(rho, b, f0)
    assert np.max(np.abs(lhs - b * rho)) < 1e-12


# ---------------------------------------------------------------------------
# gausson_init
# ---------------------------------------------------------------------------

def test_gausson_1d_solves_profile_equation():
    g = Grid(256, 20.0)
    u = gausson_init(GaussonParams(b=1.0, f0=1.0), g, omega0=1.0)
    F = u.samples.real
    assert np.max(np.abs(u.samples.imag)) == 0.0
    resid = g.laplacian(F) - log_nonlinearity(F**2, 1.0, 1.0) * F
    assert np.max(np.abs(resid)) < 1e-10


def test_gausson_2d_amplitude_correction():
    g = Grid((128, 128), (20.0, 20.0))
    u = gausson_init(GaussonParams(b=1.0, f0=1.0, center=(0.0, 0.0),
                                   velocity=(0.0, 0.0)), g, omega0=1.0)
    F = u.samples.real
    assert F.max() == pytest.approx(np.exp(0.5), rel=1e-12)
    resid = g.laplacian(F) - log_nonlinearity(F**2, 1.0, 1.0) * F
    assert np.max(np.abs(resid)) < 1e-10


def test_gausson_boost_is_pure_phase():
    g = Grid(256, 20.0)
    resting = gausson_init(GaussonParams(1.0, 1.0), g, 1.0)
    boosted = gausson_init(GaussonParams(1.0, 1.0, velocity=(0.5,)), g, 1.0)
    assert np.max(np.abs(np.abs(boosted.samples) - np.abs(resting.samples))) \
        < 1e-15
    grad = g.gradient(boosted.samples)[0]
    rho = np.abs(boosted.samples) ** 2
    kappa = np.imag(np.conj(boosted.samples) * grad) / np.maximum(rho, 1e-30)
    bulk = np.abs(boosted.samples) > 1e-4
    assert np.max(np.abs(kappa[bulk] - 0.5)) < 1e-8


def test_gausson_rejects_small_box():
    g = Grid(64, 5.0)
    with pytest.raises(SolidynError):
        gausson_init(GaussonParams(b=1.0, f0=1.0), g, 1.0)


@pytest.mark.parametrize("omega0", (0.0, -1.0))
def test_physical_params_rejects_a_non_positive_mass(omega0):
    # a solver failure, as GaussonParams raises for b and f0
    with pytest.raises(SolidynError, match="^omega0 must be positive$"):
        PhysicalParams(omega0)


# ---------------------------------------------------------------------------
# nls_step
# ---------------------------------------------------------------------------

def test_nls_resting_gausson_stationary():
    g = Grid(256, 20.0)
    u0 = gausson_init(GaussonParams(1.0, 1.0), g, 1.0)
    state = SolitonState(u0, PARAMS, 1.0, 1.0)
    F = np.abs(u0.samples)
    norm_f = np.sqrt(g.integrate(F**2))
    for _ in range(1000):
        state = nls_step(state, Potentials.free(), 1e-3)
    dev = np.sqrt(g.integrate((np.abs(state.u.samples) - F) ** 2)) / norm_f
    assert dev < 1e-6


def test_nls_uniform_field_parabola():
    g = Grid(256, 20.0)
    state = SolitonState(gausson_init(GaussonParams(1.0, 1.0), g, 1.0),
                         PARAMS, 1.0, 1.0)
    run = run_classical(state, Potentials.uniform_field(0.1), 1e-3, 5000,
                        store_every=5000)
    expected = 0.05 * run.times**2   # e E / (2 w0) = 0.05
    err = np.max(np.abs(run.centers[:, 0] - expected))
    assert err / expected[-1] < 1e-3


def test_nls_dbb_zero_q_bit_identical_to_classical():
    g = Grid(256, 20.0)
    u0 = gausson_init(GaussonParams(1.0, 1.0, center=(0.4,)), g, 1.0)
    classical = SolitonState(u0, PARAMS, 1.0, 1.0, coupling_mode="classical")
    dbb = SolitonState(u0, PARAMS, 1.0, 1.0, coupling_mode="dbb")
    zero_q = np.zeros(g.shape)
    pot = Potentials.harmonic(0.3)
    for _ in range(50):
        centers = classical.center, dbb.center
        classical = nls_step(classical, pot, 1e-3)
        dbb = nls_step(dbb, pot, 1e-3, external_q=zero_q)
        classical.track_center(centers[0])
        dbb.track_center(centers[1])
    assert np.array_equal(classical.u.samples, dbb.u.samples)
    assert np.array_equal(classical.center, dbb.center)


def test_nls_step_mode_validation():
    g = Grid(256, 20.0)
    state = SolitonState(gausson_init(GaussonParams(1.0, 1.0), g, 1.0),
                         PARAMS, 1.0, 1.0)
    with pytest.raises(SolidynError):
        nls_step(state, Potentials.free(), 1e-3, external_q=np.zeros(g.shape))


def test_nls_norm_conservation():
    g = Grid(256, 20.0)
    state = SolitonState(gausson_init(GaussonParams(1.0, 1.0), g, 1.0),
                         PARAMS, 1.0, 1.0)
    run = run_classical(state, Potentials.harmonic(0.25), 1e-3, 2000,
                        store_every=2000)
    drift = np.max(np.abs(run.norms - run.norms[0])) / run.norms[0]
    assert drift < 1e-10


# ---------------------------------------------------------------------------
# soliton_center
# ---------------------------------------------------------------------------

def test_center_symmetric_at_origin():
    g = Grid(256, 20.0)
    u = gausson_init(GaussonParams(1.0, 1.0), g, 1.0)
    rho = u.density()
    xbar, c = soliton_center(g, rho, None, rho.sum())
    assert abs(xbar[0]) < 1e-12
    assert c == pytest.approx(np.sqrt(np.pi), abs=1e-10)


def test_center_displaced():
    g = Grid(256, 20.0)
    u = gausson_init(GaussonParams(1.0, 1.0, center=(1.3,)), g, 1.0)
    rho = u.density()
    xbar, _ = soliton_center(g, rho, None, rho.sum())
    assert abs(xbar[0] - 1.3) < 1e-10


def test_center_boosted_free_flight():
    g = Grid(512, 30.0)
    u0 = gausson_init(GaussonParams(1.0, 1.0, velocity=(0.5,)), g, 1.0)
    state = SolitonState(u0, PARAMS, 1.0, 1.0)
    for _ in range(2000):
        center = state.center
        state = nls_step(state, Potentials.free(), 1e-3)
        state.track_center(center)
    assert abs(state.center[0] - 1.0) < 1e-4


def test_center_tracks_across_periodic_seam():
    # soliton crossing x = +L/2 keeps a continuous (unwrapped) track
    g = Grid(256, 20.0)
    u0 = gausson_init(GaussonParams(4.0, 1.0, center=(9.0,), velocity=(1.0,)),
                      g, 1.0)
    state = SolitonState(u0, PARAMS, 4.0, 1.0)
    for _ in range(3000):
        center = state.center
        state = nls_step(state, Potentials.free(), 1e-3)
        state.track_center(center)
    assert state.center[0] == pytest.approx(12.0, abs=5e-3)


# ---------------------------------------------------------------------------
# phase_harmony_residual
# ---------------------------------------------------------------------------

def test_phase_harmony_resting_flat():
    g = Grid(256, 20.0)
    psi = Field(g, np.ones(256, dtype=complex))
    bundle = madelung_extract(psi, PARAMS, Potentials.free())
    state = SolitonState(gausson_init(GaussonParams(1.0, 1.0), g, 1.0),
                         PARAMS, 1.0, 1.0)
    r = phase_harmony_residual(state, bundle, [0.0], radius=4.0,
                               potentials=Potentials.free())
    assert r < 1e-8


def test_phase_harmony_boosted_matched():
    g = Grid(256, 20.0)
    k = 2 * np.pi * 2 / 20.0
    psi = Field(g, np.exp(1j * k * g.axes[0]))
    bundle = madelung_extract(psi, PARAMS, Potentials.free())
    state = SolitonState(
        gausson_init(GaussonParams(1.0, 1.0, velocity=(k,)), g, 1.0),
        PARAMS, 1.0, 1.0)
    r = phase_harmony_residual(state, bundle, [0.0], radius=4.0,
                               potentials=Potentials.free())
    assert r < 1e-6


def test_phase_harmony_window_clipping():
    g = Grid(256, 20.0)
    psi = Field(g, np.ones(256, dtype=complex))
    bundle = madelung_extract(psi, PARAMS, Potentials.free())
    state = SolitonState(gausson_init(GaussonParams(1.0, 1.0), g, 1.0),
                         PARAMS, 1.0, 1.0)
    with pytest.raises(SolidynError):
        phase_harmony_residual(state, bundle, [9.0], radius=4.0,
                               potentials=Potentials.free())


# ---------------------------------------------------------------------------
# run_coupled
# ---------------------------------------------------------------------------

def test_coupled_plane_wave_rides_free():
    g = Grid(1024, 20.0)
    k = 2 * np.pi * 2 / 20.0
    psi = Field(g, np.exp(1j * k * g.axes[0]))
    u0 = gausson_init(GaussonParams(100.0, 1.0, center=(-1.0,),
                                    velocity=(k,)), g, 1.0)
    state = SolitonState(u0, PARAMS, 100.0, 1.0, coupling_mode="dbb")
    run = run_coupled(psi, state, PARAMS, Potentials.free(), dt=1e-3,
                      steps=1000)
    gap = np.abs(run.centers[:, 0] - run.reference.positions[:, 0, 0])
    assert gap.max() < 1e-6
    assert run.centers[-1, 0] == pytest.approx(-1.0 + k, abs=1e-5)


@pytest.mark.slow
def test_coupled_free_gaussian_tracks_guidance():
    g = Grid(1024, 20.0)
    x = g.axes[0]
    psi = Field(g, np.exp(-(x**2) / 4).astype(complex))
    u0 = gausson_init(GaussonParams(100.0, 1.0, center=(-0.6745,)), g, 1.0)
    state = SolitonState(u0, PARAMS, 100.0, 1.0, coupling_mode="dbb")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # sqrt(b) sits below 20/sigma here
        run = run_coupled(psi, state, PARAMS, Potentials.free(), dt=1e-3,
                          steps=4000)
    gap = np.abs(run.centers[:, 0] - run.reference.positions[:, 0, 0])
    assert gap.max() < 3 * g.spacing[0]
    # underformability proxy: width stays put while the pilot packet spreads
    m0 = second_central_moments(u0, run.centers[0])
    m_end = second_central_moments(run.final_state.u, run.centers[-1])
    assert abs(m_end[0] - m0[0]) / m0[0] < 0.01
    # without the quantum force the reference is a straight line and fails
    classical = classical_trajectory(run.times, run.centers[0],
                                     run.reference.velocities[0, 0],
                                     PARAMS, Potentials.free())
    assert np.max(np.abs(run.centers[:, 0] - classical[:, 0])) \
        > 3 * g.spacing[0]


def test_coupled_scale_separation_warning():
    g = Grid(512, 20.0)
    x = g.axes[0]
    psi = Field(g, np.exp(-(x**2) / 4).astype(complex))
    u0 = gausson_init(GaussonParams(25.0, 1.0), g, 1.0)
    state = SolitonState(u0, PARAMS, 25.0, 1.0, coupling_mode="dbb")
    with pytest.warns(UserWarning):
        run_coupled(psi, state, PARAMS, Potentials.free(), dt=1e-3, steps=2)


def test_coupled_reference_boundary_exit_last_valid():
    # a plane-wave pilot carries the reference point z = 8 + 1.2566 t out of
    # the box on the step from t = 1.59; the run aborts with that time
    g = Grid(256, 20.0)
    k = 2 * np.pi * 4 / 20.0
    psi = Field(g, np.exp(1j * k * g.axes[0]))
    u0 = gausson_init(GaussonParams(100.0, 1.0, center=(8.0,),
                                    velocity=(k,)), g, 1.0)
    state = SolitonState(u0, PARAMS, 100.0, 1.0, coupling_mode="dbb")
    with pytest.raises(BoundaryExitError, match="boundary exit near") as err:
        run_coupled(psi, state, PARAMS, Potentials.free(), dt=1e-2,
                    steps=200)
    last_valid = 0.0
    for _ in range(159):          # the pilot's time tag, step by step
        last_valid += 1e-2
    assert err.value.last_valid_time == last_valid


def test_state_keeps_the_density_and_norm_of_its_field():
    g = Grid(256, 20.0)
    u0 = gausson_init(GaussonParams(4.0, 1.0, center=(1.0,),
                                    velocity=(0.5,)), g, 1.0)
    state = SolitonState(u0, PARAMS, 4.0, 1.0)
    prev = state
    for _ in range(3):
        state = nls_step(state, Potentials.harmonic(0.2), 1e-2)
        assert state.density.tobytes() == state.u.density().tobytes()
        assert state.norm == state.u.norm()
        # a stepped state has no center until a run takes it
        assert state.center is None
        rho = state.u.density()
        center, norm = soliton_center(g, rho, prev.center, rho.sum())
        assert state.track_center(prev.center) is state.center
        assert center.tobytes() == state.center.tobytes()
        assert norm == state.norm
        prev = state
    # a given center is kept as given
    kept = SolitonState(state.u, PARAMS, 4.0, 1.0, center=[0.25])
    assert kept.center.tolist() == [0.25] and kept.norm == state.norm


def test_run_coupled_builds_one_flow_history_per_step(monkeypatch):
    # the reference point moves by the one-point RK4 over a history of the
    # step's own two Madelung bundles, built once and read by no one else;
    # the run builds no other flow history.  The spies count calls in this
    # process, so the pilot runs here too (no fork: see `run_ahead`)
    from solidyn import soliton as soliton_module, trajectories

    monkeypatch.delattr(os, "fork")

    built, bundles = [], []
    init, extract = (trajectories.FlowHistory.__init__,
                     soliton_module.madelung_extract)

    def spy_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def spy_extract(*args, **kwargs):
        bundles.append(extract(*args, **kwargs))
        return bundles[-1]

    monkeypatch.setattr(trajectories.FlowHistory, "__init__", spy_init)
    monkeypatch.setattr(soliton_module, "madelung_extract", spy_extract)
    g = Grid(256, 20.0)
    x = g.axes[0]
    psi = Field(g, np.exp(-(x**2) / 4).astype(complex))
    u0 = gausson_init(GaussonParams(100.0, 1.0, center=(-0.6745,)), g, 1.0)
    state = SolitonState(u0, PARAMS, 100.0, 1.0, coupling_mode="dbb")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = run_coupled(psi, state, PARAMS, Potentials.free(), dt=1e-3,
                          steps=20)
    assert run.reference.positions.shape == (21, 1, 1)
    assert len(bundles) == 21 and len(built) == 20
    for k, history in enumerate(built):
        assert len(history.records) == 2
        assert history.records[0] is bundles[k]
        assert history.records[1] is bundles[k + 1]
        assert not history.readers
