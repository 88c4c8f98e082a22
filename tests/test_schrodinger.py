"""Tests for the linear pilot-wave solver, Madelung fields, and trajectories."""

import sys
from pathlib import Path

import numpy as np
import pytest

from interp_reference import Snapshot, keep_every_snapshot
from oracle_reference import continuity_residual, newton_bohm_residual
from solidyn.grids import Field, Grid
from solidyn.potentials import PhysicalParams, Potentials
from solidyn.schrodinger import evolve_schrodinger, ls_step, madelung_extract
from solidyn.stepping import NODE_MASK_REL
from solidyn.trajectories import FlowHistory, integrate_flow

PARAMS = PhysicalParams(omega0=1.0, charge=1.0)


def streamed(attach, psi, pots, **evolve):
    """The `finish()` result of the reader that `attach(history)` attaches
    to a new history before `evolve_schrodinger(psi, ...)` fills it."""
    history = FlowHistory(psi.grid, PARAMS, pots)
    reader = attach(history)
    evolve_schrodinger(psi, PARAMS, pots, history=history, **evolve)
    return reader.finish()


def trajectory(z0, psi, pots, **evolve):
    return streamed(lambda h: integrate_flow(h, z0), psi, pots, **evolve)


def ensemble(starts, psi, pots, **evolve):
    return trajectory(starts, psi, pots, **evolve).positions


def newton(z0, psi, pots, **evolve):
    return streamed(lambda h: newton_bohm_residual(z0, h), psi, pots,
                    **evolve)


def gaussian_packet(grid, sigma=1.0, center=0.0, k=0.0):
    x = grid.axes[0]
    return Field(grid, np.exp(-((x - center) ** 2) / (4 * sigma**2))
                 .astype(complex) * np.exp(1j * k * x))


def density_width(grid, psi):
    rho = np.abs(psi.samples) ** 2
    total = grid.integrate(rho)
    x = grid.axes[0]
    mean = grid.integrate(rho * x) / total
    return np.sqrt(grid.integrate(rho * (x - mean) ** 2) / total)


# ---------------------------------------------------------------------------
# ls_step
# ---------------------------------------------------------------------------

def test_ls_step_plane_wave_phase():
    g = Grid(128, 20.0)
    k = 2 * np.pi * 4 / 20.0
    psi = Field(g, np.exp(1j * k * g.axes[0]))
    dt = 1e-2
    out = ls_step(psi, PARAMS, Potentials.free(), dt)
    expected = psi.samples * np.exp(-1j * (1.0 + k**2 / 2.0) * dt)
    assert np.max(np.abs(out.samples - expected)) < 1e-12
    assert out.time_tag == pytest.approx(dt)


def test_ls_step_free_gaussian_width():
    g = Grid(512, 40.0)
    psi = gaussian_packet(g, sigma=1.0)
    dt = 1e-2
    for _ in range(200):
        psi = ls_step(psi, PARAMS, Potentials.free(), dt)
    expected = np.sqrt(1.0 + 2.0**2 / 4.0)  # sigma(t) at t=2, omega0=sigma0=1
    assert density_width(g, psi) == pytest.approx(expected, abs=1e-6)


def test_ls_step_coherent_state_period():
    # trap k=1 (omega0=1): classical period 2*pi
    g = Grid(256, 20.0)
    spring = 1.0
    pot = Potentials.harmonic(spring)
    x = g.axes[0]
    psi = Field(g, np.exp(-0.5 * (x - 1.0) ** 2).astype(complex))
    dt = 1e-3
    steps = int(4 * np.pi / dt)
    centers = []
    rho = psi.density()
    centers.append(g.integrate(rho * x) / g.integrate(rho))
    for _ in range(steps):
        psi = ls_step(psi, PARAMS, pot, dt)
        rho = psi.density()
        centers.append(g.integrate(rho * x) / g.integrate(rho))
    centers = np.asarray(centers)
    times = dt * np.arange(len(centers))
    # period from downward zero crossings, linearly interpolated
    crossings = []
    for i in range(len(centers) - 1):
        if centers[i] > 0 >= centers[i + 1]:
            frac = centers[i] / (centers[i] - centers[i + 1])
            crossings.append(times[i] + frac * dt)
    period = crossings[1] - crossings[0]
    assert abs(period - 2 * np.pi) / (2 * np.pi) < 1e-3


def test_ls_step_unitarity():
    g = Grid(256, 30.0)
    psi = gaussian_packet(g, sigma=1.0)
    run = evolve_schrodinger(psi, PARAMS, Potentials.free(), dt=1e-3,
                             steps=2000, store_every=100,
                             history=FlowHistory(g, PARAMS, Potentials.free()))
    drift = np.max(np.abs(run.norms - run.norms[0])) / run.norms[0]
    assert drift < 1e-12


# ---------------------------------------------------------------------------
# madelung_extract
# ---------------------------------------------------------------------------

def test_madelung_plane_wave():
    g = Grid(128, 20.0)
    k = 2 * np.pi * 3 / 20.0
    psi = Field(g, np.exp(1j * k * g.axes[0]))
    bundle = madelung_extract(psi, PARAMS, Potentials.free())
    assert np.max(np.abs(bundle.velocity[0] - k)) < 1e-10
    assert np.max(np.abs(bundle.quantum_potential)) < 1e-10
    assert np.all(bundle.amplitude >= NODE_MASK_REL * bundle.amp_peak)


def test_madelung_harmonic_ground_state():
    # exact eigenstate: v = 0 and q + V constant on the bulk
    g = Grid(256, 20.0)
    spring = 0.25
    capital_omega = np.sqrt(spring / PARAMS.omega0)
    x = g.axes[0]
    psi = Field(g, np.exp(-0.5 * PARAMS.omega0 * capital_omega * x**2)
                .astype(complex))
    bundle = madelung_extract(psi, PARAMS, Potentials.harmonic(spring))
    v = 0.5 * spring * x**2
    # restrict to amplitude > 1e-6 peak: below that, round-off in the
    # spectral Laplacian divided by a tiny amplitude dominates
    bulk = bundle.amplitude > 1e-6 * bundle.amplitude.max()
    total = (bundle.quantum_potential + v)[bulk]
    # velocity round-off scales like fft noise / amplitude, so the bound is
    # loose on the bulk and tight in the core
    core = bundle.amplitude > 1e-2 * bundle.amplitude.max()
    assert np.max(np.abs(bundle.velocity[0][bulk])) < 1e-6
    assert np.max(np.abs(bundle.velocity[0][core])) < 1e-9
    assert np.max(np.abs(total - capital_omega / 2.0)) < 1e-6


def test_madelung_gaussian_quantum_potential():
    g = Grid(256, 20.0)
    sigma = 1.0
    x = g.axes[0]
    psi = Field(g, np.exp(-(x**2) / (4 * sigma**2)).astype(complex))
    bundle = madelung_extract(psi, PARAMS, Potentials.free())
    expected = 1.0 / (4 * sigma**2) - x**2 / (8 * sigma**4)
    bulk = bundle.amplitude > 1e-4 * bundle.amplitude.max()
    assert np.max(np.abs(bundle.quantum_potential[bulk] - expected[bulk])) < 1e-8


def test_madelung_rejects_zero_wave():
    g = Grid(32, 4.0)
    with pytest.raises(Exception):
        madelung_extract(Field(g, np.zeros(32, dtype=complex)), PARAMS,
                         Potentials.free())


# ---------------------------------------------------------------------------
# integrate_flow
# ---------------------------------------------------------------------------

def test_bohm_plane_wave_straight_line():
    g = Grid(128, 20.0)
    k = 2 * np.pi * 2 / 20.0
    psi = Field(g, np.exp(1j * k * g.axes[0]))
    traj = trajectory([0.5], psi, Potentials.free(), dt=1e-2, steps=200)
    expected = 0.5 + k * traj.times
    assert np.max(np.abs(traj.positions[:, 0, 0] - expected)) < 1e-9


def test_bohm_stationary_state():
    g = Grid(256, 20.0)
    spring = 0.25
    capital_omega = np.sqrt(spring)
    x = g.axes[0]
    psi = Field(g, np.exp(-0.5 * capital_omega * x**2).astype(complex))
    traj = trajectory([0.8], psi, Potentials.harmonic(spring), dt=1e-3,
                      steps=500)
    assert np.max(np.abs(traj.positions[:, 0, 0] - 0.8)) < 1e-6


def test_bohm_no_crossing_two_gaussian():
    # double-slit analog: the flow is single valued, so 1D trajectories keep
    # their ordering and never cross the symmetry axis
    g = Grid(512, 30.0)
    x = g.axes[0]
    psi = Field(g, (np.exp(-((x - 3) ** 2) / 4) + np.exp(-((x + 3) ** 2) / 4))
                .astype(complex))
    starts = np.linspace(0.5, 4.5, 9).reshape(-1, 1)
    block = ensemble(starts, psi, Potentials.free(), dt=2e-3, steps=1500)
    assert np.all(block[:, :, 0] > 0.0)
    assert np.all(np.diff(block[:, :, 0], axis=1) > 0.0)


# ---------------------------------------------------------------------------
# newton_bohm_residual
# ---------------------------------------------------------------------------

def test_newton_residual_plane_wave():
    g = Grid(128, 20.0)
    k = 2 * np.pi * 2 / 20.0
    psi = Field(g, np.exp(1j * k * g.axes[0]))
    _, residual, _ = newton([0.0], psi, Potentials.free(), dt=1e-2,
                            steps=100)
    assert np.max(np.abs(residual)) < 1e-8


def test_newton_residual_free_gaussian():
    g = Grid(512, 30.0)
    psi = gaussian_packet(g, sigma=1.0)
    _, _, rel = newton([0.6745], psi, Potentials.free(), dt=1e-3,
                       steps=2000)               # quartile of |psi0|^2
    assert rel < 0.02


def test_newton_residual_coherent_state():
    # coherent state: F_Q = 0 along the flow, so omega0 z'' = -k z
    g = Grid(256, 20.0)
    spring = 1.0
    x = g.axes[0]
    psi = Field(g, np.exp(-0.5 * (x - 1.0) ** 2).astype(complex))
    traj = trajectory([1.0], psi, Potentials.harmonic(spring), dt=1e-3,
                      steps=3000)
    times = traj.times
    dt = times[1] - times[0]
    z = traj.positions[:, 0, 0]
    acc = (z[2:] - 2 * z[1:-1] + z[:-2]) / dt**2
    expected = -spring * z[1:-1]
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(acc - expected)) / scale < 0.01


# ---------------------------------------------------------------------------
# continuity_residual
# ---------------------------------------------------------------------------

def test_continuity_plane_wave():
    g = Grid(128, 20.0)
    k = 2 * np.pi * 2 / 20.0
    psi = Field(g, np.exp(1j * k * g.axes[0]))
    assert streamed(continuity_residual, psi, Potentials.free(), dt=1e-3,
                    steps=20) < 1e-10


def test_continuity_stationary_state():
    g = Grid(256, 20.0)
    spring = 0.25
    x = g.axes[0]
    psi = Field(g, np.exp(-0.5 * np.sqrt(spring) * x**2).astype(complex))
    assert streamed(continuity_residual, psi, Potentials.harmonic(spring),
                    dt=1e-4, steps=40) < 1e-8


def test_continuity_free_gaussian_refinement():
    g = Grid(256, 30.0)
    psi = gaussian_packet(g, sigma=1.0)
    r_coarse = streamed(continuity_residual, psi, Potentials.free(),
                        dt=1e-3, steps=64, store_every=4)
    r_fine = streamed(continuity_residual, psi, Potentials.free(), dt=1e-3,
                      steps=64, store_every=2)
    # centered-in-time differencing is second order in the snapshot spacing
    assert 3.0 < r_coarse / r_fine < 5.5
    rho_max = np.max(np.abs(psi.samples) ** 2)
    assert r_fine < 1e-4 * rho_max / (2e-3)


def test_benchmark_history_size_reads_a_stored_run():
    """The benchmark's `schrodinger.history_mb` (perfbench/traced.py) sums
    the arrays a run keeps; it must still find every one of them."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from traced import HistoryBytes
    finally:
        sys.path.pop(0)
    g = Grid(64, 20.0)
    run = evolve_schrodinger(gaussian_packet(g), PARAMS, Potentials.free(),
                             dt=1e-3, steps=6, store_every=2,
                             history=FlowHistory(g, PARAMS, Potentials.free()))
    history = run.history
    size = HistoryBytes()
    size(run)
    named = (*history.velocities, *history.amplitudes,
             *history.quantum_forces, *history.quantum_potentials,
             *run.densities)
    assert size.total == sum(a.nbytes for a in named)
    # the three kept snapshots of velocity, |Psi|, quantum force and density
    assert size.total == 3 * 4 * 64 * 8


# ---------------------------------------------------------------------------
# equivariance-adjacent sanity: stratified Born sampling stays ordered
# ---------------------------------------------------------------------------

def test_ensemble_order_preserved_free_gaussian():
    g = Grid(256, 30.0)
    psi = gaussian_packet(g, sigma=1.0)
    starts = np.sort(g.sample_density(np.abs(psi.samples) ** 2, 64, seed=5),
                     axis=0)
    block = ensemble(starts, psi, Potentials.free(), dt=2e-3, steps=500)
    assert np.all(np.diff(block[0, :, 0]) > 0)
    assert np.all(np.diff(block[-1, :, 0]) > 0)


def test_quantum_force_is_negative_gradient_of_potential():
    # F_Q = -dq/dx: for a = e^{-x^2/(4 s^2)} the analytic force is
    # x/(4 w0 s^4).  (A literal spectral gradient of q would ring off q's
    # quadratic growth at the periodic seam; the quotient-rule evaluation
    # realizes the same derivative without that artifact.)
    g = Grid(256, 20.0)
    x = g.axes[0]
    sigma_sq = 0.5   # deep tails: the box edge sits below double precision
    psi = Field(g, np.exp(-(x**2) / (4 * sigma_sq)).astype(complex))
    bundle = madelung_extract(psi, PARAMS, Potentials.free())
    expected = x / (4 * sigma_sq**2)
    bulk = bundle.amplitude > 1e-4 * bundle.amplitude.max()
    assert np.max(np.abs(bundle.quantum_force[0][bulk] - expected[bulk])) \
        < 1e-8


def test_integrate_bohm_boundary_exit():
    from solidyn.errors import BoundaryExitError

    g = Grid(128, 20.0)
    k = 2 * np.pi * 4 / 20.0  # v = k/w0 ~ 1.26
    psi = Field(g, np.exp(1j * k * g.axes[0]))
    with pytest.raises(BoundaryExitError, match="boundary exit") as err:
        trajectory([8.5], psi, Potentials.free(), dt=1e-2, steps=300)
    assert err.value.last_valid_time >= 0.0


def hand_built(snapshots, z0):
    """integrate_flow from z0 attached to a history, which the hand-built
    snapshot records then fill; its `finish()` result."""
    g = Grid(256, 20.0)
    hist = FlowHistory(g, PARAMS, Potentials.free())
    path = integrate_flow(hist, z0)
    for snapshot in snapshots:
        hist.append(snapshot)
    return path.finish()


def test_integrate_bohm_node_encounter():
    from solidyn.errors import NodeEncounterError

    # synthetic flow: uniform drift toward an amplitude dead zone
    g = Grid(256, 20.0)
    x = g.axes[0]
    amp = np.where(np.abs(x - 5.0) < 0.5, 1e-12, 1.0)
    vel = np.ones((1, 256))
    snapshots = [Snapshot(t, vel, amp) for t in np.linspace(0.0, 6.0, 61)]
    with pytest.raises(NodeEncounterError, match="node encounter") as err:
        hand_built(snapshots, [0.0])
    assert 0.0 < err.value.last_valid_time < 6.0


def uniform_drift_snapshots(v=1.0):
    """Uniform drift at speed v through a featureless amplitude, t in [0, 1]."""
    return [Snapshot(t, np.full((1, 256), v), np.ones(256))
            for t in np.linspace(0.0, 1.0, 11)]


def test_boundary_exit_mid_stage_keeps_error_class():
    from solidyn.errors import BoundaryExitError
    from solidyn.trajectories import advance_positions

    with keep_every_snapshot():
        hist = FlowHistory(Grid(256, 20.0), PARAMS, Potentials.free())
        for snapshot in uniform_drift_snapshots():
            hist.append(snapshot)
    # from z = 9.96 the second RK4 stage point (9.96 + 0.05) is outside the
    # box: the stage's box check must raise, not the stencil built after it
    with pytest.raises(BoundaryExitError, match="boundary exit near") as err:
        advance_positions(hist, np.array([[9.96]]), 0.1, 0.2)
    assert err.value.last_valid_time == 0.1


def test_boundary_exit_mid_run_last_valid():
    from solidyn.errors import BoundaryExitError

    # the step from t = 0.5 (z ~ 9.93) leaves the box at its fourth stage
    with pytest.raises(BoundaryExitError, match="boundary exit near") as err:
        hand_built(uniform_drift_snapshots(), [9.43])
    assert err.value.last_valid_time == 0.5


def test_integrate_bohm_boundary_exit_last_valid():
    from solidyn.errors import BoundaryExitError

    g = Grid(128, 20.0)
    k = 2 * np.pi * 4 / 20.0
    psi = Field(g, np.exp(1j * k * g.axes[0]))
    times = []

    def attach(history):
        history.readers.append(lambda record: times.append(record.time_tag))
        return integrate_flow(history, [8.5])

    with pytest.raises(BoundaryExitError) as err:
        streamed(attach, psi, Potentials.free(), dt=1e-2, steps=300)
    assert err.value.last_valid_time == times[119]


def test_integrate_bohm_node_encounter_last_valid():
    from solidyn.errors import NodeEncounterError

    g = Grid(256, 20.0)
    x = g.axes[0]
    amp = np.where(np.abs(x - 5.0) < 0.5, 1e-12, 1.0)
    times = np.linspace(0.0, 6.0, 61)
    # z = t reaches the dead zone (x > 4.5) on the step that ends at t = 4.6
    with pytest.raises(NodeEncounterError, match="at t=4.6") as err:
        hand_built([Snapshot(t, np.ones((1, 256)), amp) for t in times],
                   [0.0])
    assert err.value.last_valid_time == times[45]


def _real_spectrum_reference(g, a):
    """grad a, lap a and grad lap a written out from one rfftn of a, each
    inverted on its own: multipliers i k_b and -i k_b |k|^2 with the
    Nyquist bin of axis b zeroed, and -|k|^2."""
    k = []
    for axis, n in enumerate(g.points):
        kb = 2.0 * np.pi * np.fft.fftfreq(n, d=g.spacing[axis])
        if axis == g.dim - 1:
            kb = kb[: n // 2 + 1]
        shape = [1] * g.dim
        shape[axis] = kb.size
        k.append(kb.reshape(shape))
    minus_k2 = -sum(kb**2 for kb in k)
    spectrum = np.fft.rfftn(a)

    def inverse(mult):
        return np.fft.irfftn(np.broadcast_to(mult, minus_k2.shape) * spectrum,
                             s=g.shape, axes=range(g.dim))

    grad, grad_lap = [], []
    for axis, kb in enumerate(k):
        kb = kb.copy()
        if g.points[axis] % 2 == 0:
            kb.flat[g.points[axis] // 2] = 0.0
        grad.append(inverse(1j * kb))
        grad_lap.append(inverse(1j * (kb * minus_k2)))
    return np.stack(grad), inverse(minus_k2 + 0j), np.stack(grad_lap)


@pytest.mark.parametrize("shape, lengths", [((256,), (20.0,)),
                                            ((255,), (20.0,)),
                                            ((32, 48), (8.0, 10.0))])
def test_madelung_extract_takes_one_real_spectrum_of_a(shape, lengths,
                                                       monkeypatch):
    # a = |Psi| goes through exactly one real FFT (`rfft` on a 1D grid,
    # `rfftn` on a 2D one) and no complex FFT; q and
    # F_Q have the bits of a written-out real-spectrum reference, and
    # equal the complex gradient/Laplacian composition to round-off
    g = Grid(shape, lengths)
    rng = np.random.default_rng(8)
    psi = Field(g, np.exp(-sum(m**2 for m in g.meshes()) / 4.0)
                * np.exp(1j * rng.standard_normal(shape) * 0.1), 0.3)
    pots = Potentials.vector_ramp(0.2, dim=g.dim)
    a = np.abs(psi.samples)
    floor = 1e-8 * np.max(a)
    a_safe = np.maximum(a, floor)
    grad_a, lap_a, grad_lap = _real_spectrum_reference(g, a)
    fq = (grad_lap / a_safe - lap_a * grad_a / a_safe**2) / 2.0
    complex_lap = g.laplacian(a)
    complex_fq = (g.gradient(complex_lap) / a_safe
                  - complex_lap * g.gradient(a) / a_safe**2) / 2.0

    calls = {"fft": [], "rfft": [], "rfftn": []}
    for name in calls:
        def counting(x, *args, _name=name, _real=getattr(np.fft, name),
                     **kwargs):
            calls[_name].append(x)
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    bundle = madelung_extract(psi, PARAMS, pots)
    monkeypatch.undo()
    assert bundle.quantum_force.tobytes() == fq.tobytes()
    assert bundle.quantum_potential.tobytes() \
        == (-lap_a / (2.0 * a_safe)).tobytes()
    # round-off: an order-m derivative is good to about eps k_max^m max a,
    # and q and F_Q divide those errors by a and a^2
    k_max = max(np.max(np.abs(k)) for k in g.wavenumbers)
    err = [100 * np.finfo(float).eps * k_max**m * np.max(a) for m in (1, 2, 3)]
    grad_scale = np.max(np.abs(g.gradient(a)))
    assert np.all(np.abs(bundle.quantum_potential
                         + complex_lap / (2.0 * a_safe))
                  <= err[1] / (2.0 * a_safe))
    assert np.all(np.abs(bundle.quantum_force - complex_fq)
                  <= (err[2] / a_safe + (err[1] * grad_scale + err[0]
                      * np.max(np.abs(complex_lap))) / a_safe**2) / 2.0)
    assert bundle.amp_peak == np.max(a)
    assert NODE_MASK_REL * bundle.amp_peak == floor
    real = calls["rfft"] + calls["rfftn"]
    assert len(real) == 1 and real[0] is bundle.amplitude
    # the complex FFTs are those of psi's gradient, one per axis
    assert len(calls["fft"]) == g.dim
    assert all(x is psi.samples for x in calls["fft"])
