"""Acceptance suite: the quantitative gates this package must pass.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Defaults throughout: natural units hbar = c = 1 and omega0 = 1,
b = 1, f0 = 1 unless a criterion states otherwise.
"""

import time

import numpy as np
import pytest

from interp_reference import record_snapshots
from solidyn.diagnostics import (cancellation_integrals, conservation_report,
                                 ehrenfest_report, equivariance_distance,
                                 static_energy_identity_deviation)
from solidyn.errors import TachyonicRegionError
from solidyn.grids import Field, Grid
from solidyn.kleingordon import (KGHistory, discrete_mode_frequency,
                                 evolve_kg, kg_bohm_trajectory)
from solidyn.potentials import PhysicalParams, Potentials
from solidyn.scenarios import parse_config_dict, run_scenario
from solidyn.schrodinger import evolve_schrodinger, newton_bohm_residual
from solidyn.soliton import (GaussonParams, SolitonState,
                             classical_trajectory, gausson_init, nls_step,
                             run_classical, run_coupled)
from solidyn.trajectories import FlowHistory, integrate_flow

PARAMS = PhysicalParams(omega0=1.0, charge=1.0)


def report(number, name, ok, detail):
    print(f"criterion {number:>2}  {name}: {'PASS' if ok else 'FAIL'} "
          f"({detail})")
    return ok


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gausson_t10():
    """Resting Gausson, N=256, L=20, dt=1e-3, T=10; per-step profile and
    norm series plus single-threaded wall time."""
    grid = Grid(256, 20.0)
    u0 = gausson_init(GaussonParams(1.0, 1.0), grid, 1.0)
    state = SolitonState(u0, PARAMS, 1.0, 1.0)
    profile = np.abs(u0.samples)
    profile_l2 = np.sqrt(grid.integrate(profile**2))
    pot = Potentials.free()
    norm0 = u0.norm()
    max_dev = 0.0
    max_norm_drift = 0.0
    snapshots = [state.u]
    started = time.perf_counter()
    for i in range(10_000):
        state = nls_step(state, pot, 1e-3)
        dev = np.sqrt(grid.integrate((np.abs(state.u.samples) - profile) ** 2))
        max_dev = max(max_dev, dev / profile_l2)
        max_norm_drift = max(max_norm_drift,
                             abs(state.u.norm() - norm0) / norm0)
        if (i + 1) % 2000 == 0:
            snapshots.append(state.u)
    elapsed = time.perf_counter() - started
    return {"grid": grid, "max_dev": max_dev, "norm_drift": max_norm_drift,
            "elapsed": elapsed, "snapshots": snapshots}


@pytest.fixture(scope="module")
def double_slit():
    """Criterion-6 configuration: two Gaussians sigma=2 separated by 8,
    Gausson width 1/sqrt(b)=0.1, N=2048, evolved through fringe formation."""
    grid = Grid(2048, 40.0)
    x = grid.axes[0]
    sigma, half_sep, b = 2.0, 4.0, 100.0
    psi0 = Field(grid, (np.exp(-((x - half_sep) ** 2) / (4 * sigma**2))
                        + np.exp(-((x + half_sep) ** 2) / (4 * sigma**2)))
                 .astype(complex))
    u0 = gausson_init(GaussonParams(b, 1.0, center=(-half_sep,)), grid, 1.0)
    state = SolitonState(u0, PARAMS, b, 1.0, coupling_mode="dbb")
    return grid, run_coupled(psi0, state, PARAMS, Potentials.free(),
                             dt=1e-3, steps=8000)


@pytest.fixture(scope="module")
def trap_run():
    grid = Grid(256, 20.0)
    spring = 0.25
    u0 = gausson_init(GaussonParams(1.0, 1.0, center=(1.0,)), grid, 1.0)
    state = SolitonState(u0, PARAMS, 1.0, 1.0)
    steps = int(round(17.0 / 2e-3))
    return run_classical(state, Potentials.harmonic(spring), 2e-3, steps,
                         store_every=steps)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_gausson_stationarity(gausson_t10):
    dev = gausson_t10["max_dev"]
    elapsed = gausson_t10["elapsed"]
    ok = dev < 1e-6 and elapsed < 10.0
    assert report(1, "gausson stationarity", ok,
                  f"max L2 dev {dev:.3e} < 1e-6, runtime {elapsed:.2f}s < 10s")


@pytest.mark.slow      # the double-slit fixture: 8000 coupled steps
def test_criterion_02_norm_conservation(gausson_t10, double_slit, trap_run):
    drifts = {
        "free 1e4 steps": gausson_t10["norm_drift"],
        "dbb tracking": float(np.max(np.abs(
            double_slit[1].norms - double_slit[1].norms[0]))
            / double_slit[1].norms[0]),
        "harmonic trap": float(np.max(np.abs(trap_run.norms
                                             - trap_run.norms[0]))
                               / trap_run.norms[0]),
    }
    worst = max(drifts.values())
    ok = worst < 1e-10
    assert report(2, "norm conservation", ok,
                  f"worst drift {worst:.3e} < 1e-10 across "
                  f"{len(drifts)} scenarios")


def test_criterion_03_static_energy_identity(gausson_t10):
    dev = max(static_energy_identity_deviation(u, 1.0, 1.0)
              for u in gausson_t10["snapshots"])
    ok = dev < 1e-12
    assert report(3, "static-energy identity", ok, f"deviation {dev:.3e}")


def test_criterion_04_classical_ehrenfest(trap_run):
    # uniform field E = 0.1 over T = 5: parabolic center
    grid = Grid(256, 20.0)
    u0 = gausson_init(GaussonParams(1.0, 1.0), grid, 1.0)
    state = SolitonState(u0, PARAMS, 1.0, 1.0)
    run = run_classical(state, Potentials.uniform_field(0.1), 1e-3, 5000,
                        store_every=5000, abort_on_boundary_mass=True)
    expected = 0.5 * 0.1 * run.times**2
    rel = float(np.max(np.abs(run.centers[:, 0] - expected))
                / expected[-1])
    # harmonic trap k = 0.25: period 2 pi sqrt(w0/k) = 4 pi
    crossings = []
    c = trap_run.centers[:, 0]
    for i in range(len(c) - 1):
        if c[i] > 0 >= c[i + 1]:
            frac = c[i] / (c[i] - c[i + 1])
            crossings.append(trap_run.times[i]
                             + frac * (trap_run.times[i + 1]
                                       - trap_run.times[i]))
    period_err = abs((crossings[1] - crossings[0]) - 4 * np.pi) / (4 * np.pi)
    ok = rel < 1e-3 and period_err < 5e-3
    assert report(4, "classical ehrenfest", ok,
                  f"parabola rel {rel:.3e} < 1e-3, "
                  f"period rel {period_err:.3e} < 5e-3")


def test_criterion_05_mean_force_cancellations(gausson_t10):
    worst = 0.0
    for u in gausson_t10["snapshots"]:
        (vals_n, scales_n), (vals_r, scales_r) = cancellation_integrals(
            u, 1.0, 1.0)
        worst = max(worst,
                    float(np.max(np.abs(vals_n) / scales_n)),
                    float(np.max(np.abs(vals_r) / scales_r)))
    ok = worst < 1e-8
    assert report(5, "mean-force cancellations", ok,
                  f"worst ratio {worst:.3e} < 1e-8")


@pytest.mark.slow      # shares the double-slit fixture
def test_criterion_06_dbb_tracking(double_slit):
    grid, run = double_slit
    dx = grid.spacing[0]
    gap = float(np.max(np.abs(run.centers[:, 0]
                              - run.reference.positions[:, 0, 0])))
    classical = classical_trajectory(run.times, run.centers[0],
                                     run.reference.velocities[0, 0], PARAMS,
                                     Potentials.free())
    classical_gap = float(np.max(np.abs(run.centers[:, 0]
                                        - classical[:, 0])))
    ok = gap < 3 * dx and classical_gap > 3 * dx
    assert report(6, "dbb soliton tracking", ok,
                  f"|xbar-z| {gap:.3e} < 3dx={3*dx:.3e}; "
                  f"no-F_Q reference {classical_gap:.3e} > 3dx")


@pytest.mark.slow
def test_criterion_07_newton_bohm_residual():
    grid = Grid(512, 30.0)
    x = grid.axes[0]
    psi = Field(grid, np.exp(-x**2 / 4).astype(complex))
    rels = {}
    for dt, steps in ((1e-3, 2000), (5e-4, 4000)):
        history = FlowHistory(grid, PARAMS, Potentials.free())
        newton = newton_bohm_residual([0.6745], history)
        evolve_schrodinger(psi, PARAMS, Potentials.free(), dt=dt,
                           steps=steps, history=history)
        _, _, rels[dt] = newton.finish()
    ratio = rels[1e-3] / rels[5e-4]
    ok = rels[1e-3] < 0.02 and ratio >= 2.0
    assert report(7, "newton-bohm residual", ok,
                  f"rel RMS {rels[1e-3]:.3e} < 2%, refinement ratio "
                  f"{ratio:.2f} >= 2 (order >= 1)")


def test_criterion_08_equivariance():
    grid = Grid(512, 30.0)
    x = grid.axes[0]
    psi = Field(grid, np.exp(-x**2 / 4).astype(complex))
    history = FlowHistory(grid, PARAMS, Potentials.free())
    stored = record_snapshots(history, "time_tag", "amplitude")
    starts = grid.sample_density(psi.density(), 2000, seed=42)
    ensemble = integrate_flow(history, starts)
    evolve_schrodinger(psi, PARAMS, Potentials.free(), dt=1e-3, steps=2000,
                       history=history)
    block = ensemble.finish().positions
    densities = [a ** 2 for a in stored["amplitude"]]
    rep = equivariance_distance(densities, grid, stored["time_tag"],
                                block, indices=[0, 2000], bins=64)
    dist = rep.final_distance
    ok = dist < 0.05
    assert report(8, "born-rule equivariance", ok,
                  f"L1 {dist:.4f} < 0.05 (2000 trajectories, 64 bins, T=2)")


def test_criterion_09_kg_plane_wave():
    k, dt = 0.5, 2.5e-3
    length = 2 * np.pi * 4 / k
    grid = Grid(256, length)
    freq = discrete_mode_frequency(k, 1.0, dt)
    x = grid.axes[0]
    psi0 = Field(grid, np.exp(1j * k * x))
    prev = np.exp(1j * (k * x + freq * dt))
    history = KGHistory(grid, PARAMS, Potentials.free())
    stored = record_snapshots(history, "mass_sq")
    path = kg_bohm_trajectory([0.0], history)
    evolve_kg(psi0, None, PARAMS, Potentials.free(), dt=dt, steps=400,
              psi_prev=prev, history=history)
    mass_dev = float(np.max(np.abs(
        np.sqrt(np.maximum(np.asarray(stored["mass_sq"]), 0.0)) - 1.0)))
    traj = path.finish()
    slope = float(np.polyfit(traj.times, traj.positions[:, 0, 0], 1)[0])
    slope_dev = abs(slope - k / np.sqrt(k**2 + 1.0))
    ok = mass_dev < 1e-8 and slope_dev < 1e-6
    assert report(9, "kg plane wave", ok,
                  f"|M - w0| {mass_dev:.3e} < 1e-8, slope dev "
                  f"{slope_dev:.3e} < 1e-6")


def test_criterion_10_kg_nonrelativistic_limit():
    gaps = {}
    for k in (0.05, 0.1, 0.2):
        sigma = 0.8 / k
        n = 1 << int(np.ceil(np.log2(32 * sigma / 0.25)))
        grid = Grid(n, 32 * sigma)
        x = grid.axes[0]
        psi0 = Field(grid, (np.exp(-x**2 / (4 * sigma**2))
                            * np.exp(1j * k * x)).astype(complex))
        dt, steps = 0.05, 100
        kg = KGHistory(grid, PARAMS, Potentials.free())
        sch = FlowHistory(grid, PARAMS, Potentials.free())
        kg_path = kg_bohm_trajectory([0.5 * sigma], kg)
        s_path = integrate_flow(sch, [0.5 * sigma])
        evolve_kg(psi0, -1j * psi0.samples, PARAMS, Potentials.free(),
                  dt=dt, steps=steps, history=kg)
        evolve_schrodinger(psi0, PARAMS, Potentials.free(), dt=dt,
                           steps=steps, history=sch)
        tr_kg = kg_path.finish()
        tr_s = s_path.finish()
        m = min(len(tr_kg.times), len(tr_s.times))
        gaps[k] = float(np.max(np.abs(tr_kg.positions[:m, 0, 0]
                                      - tr_s.positions[:m, 0, 0]))) / sigma
    ratio_hi = gaps[0.2] / gaps[0.1]
    ratio_lo = gaps[0.1] / gaps[0.05]
    ok = gaps[0.1] < 0.01 and ratio_hi >= 3.5 and ratio_lo >= 3.5
    assert report(10, "kg non-relativistic limit", ok,
                  f"gap/width {gaps[0.1]:.4%} < 1% at k=0.1; scaling ratios "
                  f"{ratio_lo:.1f}, {ratio_hi:.1f} >= 3.5 (at least k^2)")


def test_criterion_11_tachyon_detection():
    grid = Grid(512, 8 * np.pi)
    k, dt = 0.5, 5e-3
    freq = discrete_mode_frequency(k, 1.0, dt)
    x = grid.axes[0]
    envelope = np.exp(-x**2 / (4 * (0.25 * grid.lengths[0]) ** 2))
    psi0 = Field(grid, (envelope * (np.exp(1j * k * x)
                                    + 0.8 * np.exp(-1j * k * x)))
                 .astype(complex))
    prev = envelope * (np.exp(1j * (k * x + freq * dt))
                       + 0.8 * np.exp(1j * (-k * x + freq * dt)))
    history = KGHistory(grid, PARAMS, Potentials.free())
    stored = record_snapshots(history, "tachyon_mask")
    path = kg_bohm_trajectory([1.5], history)
    evolve_kg(psi0, None, PARAMS, Potentials.free(), dt=dt, steps=4000,
              psi_prev=prev, history=history)
    cells = int(sum(m.sum() for m in stored["tachyon_mask"]))
    aborted = False
    message = ""
    try:
        path.finish()
    except TachyonicRegionError as err:
        aborted = True
        message = str(err)
    ok = cells > 0 and aborted and "tachyonic region" in message
    assert report(11, "tachyon detection", ok,
                  f"{cells} masked cells, trajectory aborted: {aborted}")


@pytest.mark.slow
def test_criterion_12_entangled_pair_nonlocality(tmp_path, product_pair_run):
    cfg = parse_config_dict({
        "scenario": "entangled_pair",
        "physics": {"b": 25.0},
        "output": {"directory": str(tmp_path / "pair")},
    })
    code = run_scenario(cfg, quiet=True)
    summary = (tmp_path / "pair" / "summary.txt").read_text()

    # bit-identity: product pair run (uniform partner on a grid node, rest
    # energy gauged away) against the plain single-particle coupled run
    # (the shared run of `conftest.product_pair_run`)
    single, run, _ = product_pair_run
    bit_identical = (
        np.array_equal(run.z[:, 0], single.reference.positions[:, 0, 0])
        and np.array_equal(run.centers1, single.centers[:, 0])
        and np.array_equal(run.final_state.u1.u.samples,
                           single.final_state.u.samples))

    ok = code == 0 and bit_identical
    detail = ("entangled shift > 10dx and product shift < dx/10 "
              f"(scenario exit {code}); bit-identity {bit_identical}")
    print(summary.strip())
    assert report(12, "entangled-pair nonlocality", ok, detail)


def test_criterion_13_determinism(tmp_path):
    base = {
        "scenario": "free_gausson",
        "run": {"t_final": 2.0},
    }
    outputs = []
    for label in ("a", "b"):
        cfg = parse_config_dict({**base,
                                 "output": {"directory":
                                            str(tmp_path / label)}})
        assert run_scenario(cfg, quiet=True) == 0
        outputs.append({
            name: (tmp_path / label / name).read_bytes()
            for name in ("center.csv", "conservation.csv", "summary.txt")})
    same = all(outputs[0][n] == outputs[1][n] for n in outputs[0])

    kg = {"scenario": "kg_plane_wave"}
    kg_bytes = []
    for label in ("ka", "kb"):
        cfg = parse_config_dict({**kg,
                                 "output": {"directory":
                                            str(tmp_path / label)}})
        assert run_scenario(cfg, quiet=True) == 0
        kg_bytes.append((tmp_path / label / "trajectory.csv").read_bytes())
    same = same and kg_bytes[0] == kg_bytes[1]
    assert report(13, "determinism", same,
                  "byte-identical CSVs on re-run (two scenario kinds)")
