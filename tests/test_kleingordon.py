"""Tests for the 1+1D Klein-Gordon pilot-wave sector."""

import numpy as np
import pytest

from interp_reference import record_snapshots
from oracle_reference import current_conservation_residual, kg_newton_residual
from solidyn.errors import SolidynError, TachyonicRegionError
from solidyn.grids import Field, Grid
from solidyn.kleingordon import (
    KGHistory,
    KGMadelung,
    discrete_mode_frequency,
    evolve_kg,
    kg_bohm_trajectory,
    kg_madelung,
    lkg_step,
)
from solidyn.potentials import PhysicalParams, Potentials
from solidyn.schrodinger import evolve_schrodinger
from solidyn.trajectories import FlowHistory, integrate_flow

PARAMS = PhysicalParams(omega0=1.0, charge=1.0)


def plane_wave_run(k, dt, steps, n=256, boxes=2, attach=None):
    """Exact discrete eigenmode of the leapfrog at wavenumber k; with
    `attach`, also what attach(history) returned before the run (a reader,
    or recorded snapshots)."""
    length = boxes * 2 * np.pi / k * 2   # grid-resonant k
    g = Grid(n, length)
    k_exact = 2 * np.pi * boxes * 2 / length
    assert abs(k_exact - k) < 1e-12
    freq = discrete_mode_frequency(k, 1.0, dt)
    x = g.axes[0]
    psi0 = Field(g, np.exp(1j * k * x))
    prev = np.exp(1j * (k * x + freq * dt))
    history = KGHistory(g, PARAMS, Potentials.free())
    attached = attach(history) if attach else None
    run = evolve_kg(psi0, None, PARAMS, Potentials.free(), dt=dt,
                    steps=steps, psi_prev=prev, history=history)
    return (g, run, attached) if attach else (g, run)


# ---------------------------------------------------------------------------
# lkg_step / evolve_kg
# ---------------------------------------------------------------------------

def test_kg_cfl_enforced():
    g = Grid(256, 20.0)
    psi = Field(g, np.exp(-g.axes[0] ** 2).astype(complex))
    with pytest.raises(SolidynError):
        evolve_kg(psi, -1j * psi.samples, PARAMS, Potentials.free(),
                  dt=g.spacing[0], steps=1,
                  history=KGHistory(g, PARAMS, Potentials.free()))


def test_evolve_kg_names_each_refusal():
    # a 2D grid, a step past the CFL bound and a vector potential, each
    # refused before any step with its full message
    g2 = Grid((32, 32), (10.0, 10.0))
    psi2 = Field(g2, np.ones((32, 32), dtype=complex))
    with pytest.raises(SolidynError,
                       match="^the Klein-Gordon sector is 1\\+1D only$"):
        evolve_kg(psi2, np.zeros((32, 32), dtype=complex), PARAMS,
                  Potentials.free(2), dt=0.01, steps=1,
                  history=KGHistory(g2, PARAMS, Potentials.free(2)))
    g = Grid(128, 20.0)
    psi = Field(g, np.exp(-g.axes[0] ** 2).astype(complex))
    with pytest.raises(SolidynError, match=(
            "^dt = 0\\.1 violates the CFL bound dt <= "
            "0\\.5 dx = 0\\.078125$")):
        evolve_kg(psi, -1j * psi.samples, PARAMS, Potentials.free(),
                  dt=0.1, steps=1,
                  history=KGHistory(g, PARAMS, Potentials.free()))
    with pytest.raises(SolidynError,
                       match="^the Klein-Gordon sector requires A = 0$"):
        evolve_kg(psi, -1j * psi.samples, PARAMS,
                  Potentials.vector_ramp(0.5), dt=0.05, steps=1,
                  history=KGHistory(g, PARAMS, Potentials.vector_ramp(0.5)))


def test_kg_sector_refuses_a_vector_potential():
    # the leapfrog and kg_madelung never read A, and vector_ramp has
    # A(0) = -0.0, so a check of A(0) let it through and the run ignored it
    g = Grid(128, 50.0)
    psi = Field(g, np.exp(-g.axes[0] ** 2 / 16.0).astype(complex))
    with pytest.raises(SolidynError,
                       match="^the Klein-Gordon sector requires A = 0$"):
        evolve_kg(psi, -1j * psi.samples, PARAMS,
                  Potentials.vector_ramp(0.5), dt=0.05, steps=40,
                  history=KGHistory(g, PARAMS, Potentials.vector_ramp(0.5)))


def test_kg_plane_wave_dispersion():
    # phase advance of the discrete mode matches its dispersion relation
    dt = 0.01
    g, run = plane_wave_run(0.5, dt, 200)
    freq = discrete_mode_frequency(0.5, 1.0, dt)
    e_cont = np.sqrt(0.5**2 + 1.0)
    assert abs(freq - e_cont) < 1e-4  # leapfrog is O(dt^2) in frequency
    psi_t = run.final_psi
    phase = np.angle(psi_t.samples[0] / np.exp(1j * 0.5 * g.axes[0][0]))
    expected = -freq * psi_t.time_tag
    diff = np.angle(np.exp(1j * (phase - expected)))
    assert abs(diff) < 1e-6


def test_kg_zero_field_stays_zero():
    g = Grid(128, 20.0)
    psi = Field(g, np.zeros(128, dtype=complex))
    assert np.all(lkg_step(np.zeros(128, dtype=complex), psi, PARAMS,
                           Potentials.free(), 0.01).samples == 0)


def test_kg_nonrelativistic_field_limit():
    # broad slow packet: leapfrog field matches the Schrodinger field to 1%
    sigma, k = 8.0, 0.1
    g = Grid(1024, 256.0)
    x = g.axes[0]
    psi0 = Field(g, (np.exp(-x**2 / (4 * sigma**2))
                     * np.exp(1j * k * x)).astype(complex))
    dt, steps = 0.05, 100
    kg = evolve_kg(psi0, -1j * psi0.samples, PARAMS, Potentials.free(),
                   dt=dt, steps=steps,
                   history=KGHistory(g, PARAMS, Potentials.free()))
    sch = evolve_schrodinger(psi0, PARAMS, Potentials.free(), dt=dt,
                             steps=steps,
                             history=FlowHistory(g, PARAMS, Potentials.free()))
    diff = kg.final_psi.samples - sch.final_psi.samples
    rel = np.sqrt(g.integrate(np.abs(diff) ** 2)
                  / g.integrate(np.abs(sch.final_psi.samples) ** 2))
    assert rel < 0.01


def test_kg_energy_no_secular_drift():
    dt = 0.02
    g, run = plane_wave_run(0.5, dt, 2000)
    drift = np.abs(run.energies - run.energies[0]) / run.energies[0]
    assert np.max(drift) < 1e-6
    # no trend: the late-time mean stays within the early oscillation band
    early = np.max(drift[: len(drift) // 10])
    late = np.mean(drift[-len(drift) // 10:])
    assert late < early + 1e-8


def test_kg_energy_and_current_share_one_derivative(monkeypatch):
    # energies and J1 against the loop written out with its own dPsi/dx for
    # each, while a spy counts the first derivatives taken of the field
    sigma, k, dt, steps = 6.0, 0.4, 0.05, 40
    g = Grid(256, 96.0)
    x = g.axes[0]
    pot = Potentials.harmonic(1e-3)
    psi0 = Field(g, (np.exp(-x**2 / (4 * sigma**2))
                     * np.exp(1j * k * x)).astype(complex))
    # an explicit previous level, the same one handed to evolve_kg below
    psi_prev = psi0.samples * np.exp(1j * np.sqrt(k**2 + 1.0) * dt)
    prev, level, energies, j1 = psi_prev, psi0, [], []
    for _ in range(steps + 1):
        new = lkg_step(prev, level, PARAMS, pot, dt)
        psi, psi_next = level.samples, new.samples
        level = new
        dpsi_dt = (psi_next - prev) / (2.0 * dt)
        density = (np.abs(dpsi_dt) ** 2 + np.abs(g.derivative(psi, 0)) ** 2
                   + PARAMS.omega0**2 * np.abs(psi) ** 2)
        energies.append(float(g.integrate(density)))
        j1.append(np.imag(np.conj(psi) * g.derivative(psi, 0))
                  / PARAMS.omega0)
        prev = psi

    inputs = []
    derivative = Grid.derivative

    def spy(self, samples, axis):
        inputs.append(samples)
        return derivative(self, samples, axis)

    monkeypatch.setattr(Grid, "derivative", spy)
    history = KGHistory(g, PARAMS, pot)
    stored = record_snapshots(history, "current_x")
    run = evolve_kg(psi0, None, PARAMS, pot, dt, steps, psi_prev=psi_prev,
                    history=history)
    assert np.array_equal(run.energies, np.asarray(energies))
    assert all(np.array_equal(a, b) for a, b in zip(stored["current_x"], j1))
    assert len(stored["current_x"]) == steps + 1
    # one derivative per step, each of that step's field level
    assert len(inputs) == steps + 1
    assert len({id(a) for a in inputs}) == steps + 1


def test_kg_current_conservation():
    sigma, k = 8.0, 0.1
    g = Grid(1024, 256.0)
    x = g.axes[0]
    psi0 = Field(g, (np.exp(-x**2 / (4 * sigma**2))
                     * np.exp(1j * k * x)).astype(complex))
    history = KGHistory(g, PARAMS, Potentials.free())
    stored = record_snapshots(history, "current_t", "time_tag")
    residual = current_conservation_residual(history)
    evolve_kg(psi0, -1j * psi0.samples, PARAMS, Potentials.free(),
              dt=0.05, steps=60, history=history)
    resid = residual.finish()
    j0_max = float(np.max(stored["current_t"][0]))
    dt_snap = stored["time_tag"][1] - stored["time_tag"][0]
    assert resid < 1e-4 * j0_max / dt_snap


# ---------------------------------------------------------------------------
# kg_madelung
# ---------------------------------------------------------------------------

def test_kg_madelung_plane_wave():
    dt = 2.5e-3
    g, _, h = plane_wave_run(0.5, dt, 50, attach=lambda history:
                             record_snapshots(history, "mass_sq", "time_tag",
                                              "velocity", "tachyon_mask",
                                              "past_oriented_mask"))
    e_cont = np.sqrt(1.25)
    assert np.max(np.abs(np.asarray(h["mass_sq"]) - 1.0)) < 1e-8
    mid = len(h["time_tag"]) // 2
    velocity = h["velocity"][mid][0]
    assert np.max(np.abs(velocity - 0.5 / e_cont)) < 1e-5
    assert not h["tachyon_mask"][mid].any()
    assert not h["past_oriented_mask"][mid].any()


def test_kg_madelung_standing_wave():
    # cos(kx) e^{-iEt}: box(a)/a = +k^2 on the lobe interiors, no tachyons
    g = Grid(256, 8 * np.pi)
    k = 0.5
    e = np.sqrt(k**2 + 1.0)
    dt = 1e-3
    x = g.axes[0]

    def psi_at(t):
        return np.cos(k * x) * np.exp(-1j * e * t)

    bundle = kg_madelung(psi_at(-dt), psi_at(0.0), psi_at(dt), 0.0, dt, g,
                         PARAMS, Potentials.free())
    # |cos| has derivative kinks at the nodes, so the spectral Laplacian
    # rings; deep lobe interiors still recover w0^2 + k^2 to a few percent
    interior = np.abs(np.cos(k * x)) > 0.9
    dev = np.abs(bundle.mass_sq[interior] - (1.0 + k**2))
    assert np.max(dev) < 0.05
    assert not bundle.tachyon_mask[interior].any()


def test_kg_madelung_engineered_tachyon_region():
    # unequal-amplitude counter-propagating plane waves: box(a)/a drops
    # below -w0^2 near the deep beat minima
    g = Grid(512, 8 * np.pi)
    k = 0.5
    e = np.sqrt(k**2 + 1.0)
    a1, a2 = 1.0, 0.8
    dt = 1e-3
    x = g.axes[0]

    def psi_at(t):
        return (a1 * np.exp(1j * (k * x - e * t))
                + a2 * np.exp(1j * (-k * x - e * t)))

    bundle = kg_madelung(psi_at(-dt), psi_at(0.0), psi_at(dt), 0.0, dt, g,
                         PARAMS, Potentials.free())
    theta = 2 * k * x
    amp_sq = a1**2 + a2**2 + 2 * a1 * a2 * np.cos(theta)
    d = 2 * a1 * a2
    box_over_a = (2 * k) ** 2 * (d * np.cos(theta) / (2 * amp_sq)
                                 + d**2 * np.sin(theta) ** 2 / (4 * amp_sq**2))
    expected = 1.0 + box_over_a
    clean = amp_sq > 0.05
    assert np.max(np.abs(bundle.mass_sq[clean] - expected[clean])) < 1e-3
    assert bundle.tachyon_mask.any()
    assert np.array_equal(bundle.tachyon_mask[clean], expected[clean] <= 0.0)
    # current stays future oriented even where the mass turns imaginary
    assert not bundle.past_oriented_mask.any()


# ---------------------------------------------------------------------------
# kg_bohm_trajectory
# ---------------------------------------------------------------------------

def streamed(attach, psi0, dpsi0, pots, **evolve):
    """The `finish()` result of the reader that `attach(history)` attaches
    to a new KGHistory before `evolve_kg(psi0, dpsi0, ...)` fills it."""
    history = KGHistory(psi0.grid, PARAMS, pots)
    reader = attach(history)
    evolve_kg(psi0, dpsi0, PARAMS, pots, history=history, **evolve)
    return reader.finish()


def test_kg_trajectory_plane_wave_slope():
    dt = 2.5e-3
    g, _, path = plane_wave_run(0.5, dt, 400, attach=lambda h:
                                kg_bohm_trajectory([0.0], h))
    traj = path.finish()
    slope = np.polyfit(traj.times, traj.positions[:, 0, 0], 1)[0]
    assert abs(slope - 0.5 / np.sqrt(1.25)) < 1e-6
    assert np.max(np.abs(traj.velocities)) < 1.0


def test_kg_trajectory_matches_schrodinger_for_slow_packet():
    sigma, k = 8.0, 0.1
    g = Grid(1024, 256.0)
    x = g.axes[0]
    psi0 = Field(g, (np.exp(-x**2 / (4 * sigma**2))
                     * np.exp(1j * k * x)).astype(complex))
    dt, steps = 0.05, 100
    tr_kg = streamed(lambda h: kg_bohm_trajectory([0.5 * sigma], h), psi0,
                     -1j * psi0.samples, Potentials.free(), dt=dt,
                     steps=steps)
    sch = FlowHistory(g, PARAMS, Potentials.free())
    path = integrate_flow(sch, [0.5 * sigma])
    evolve_schrodinger(psi0, PARAMS, Potentials.free(), dt=dt, steps=steps,
                       history=sch)
    tr_s = path.finish()
    n = min(len(tr_kg.times), len(tr_s.times))
    gap = np.max(np.abs(tr_kg.positions[:n, 0, 0]
                        - tr_s.positions[:n, 0, 0]))
    assert gap < 0.01 * sigma


def test_kg_trajectory_aborts_in_tachyon_sector():
    # counter-propagating beat: flow accelerates toward the deep minima and
    # must refuse to continue into the imaginary-mass zone
    g = Grid(512, 8 * np.pi)
    k = 0.5
    dt = 5e-3
    freq = discrete_mode_frequency(k, 1.0, dt)
    x = g.axes[0]
    psi0 = Field(g, (np.exp(1j * k * x) + 0.8 * np.exp(-1j * k * x))
                 .astype(complex))
    prev = (np.exp(1j * (k * x + freq * dt))
            + 0.8 * np.exp(1j * (-k * x + freq * dt)))
    history = KGHistory(g, PARAMS, Potentials.free())
    stored = record_snapshots(history, "tachyon_mask")
    path = kg_bohm_trajectory([1.5], history)
    evolve_kg(psi0, None, PARAMS, Potentials.free(), dt=dt, steps=4000,
              psi_prev=prev, history=history)
    assert stored["tachyon_mask"][0].any()
    # start in a bright zone; the static beat sweeps the path into the dip
    with pytest.raises(TachyonicRegionError, match="tachyonic region"):
        path.finish()


# ---------------------------------------------------------------------------
# kg_newton_residual
# ---------------------------------------------------------------------------

def test_kg_newton_plane_wave():
    dt = 2.5e-3
    g, _, newton = plane_wave_run(0.5, dt, 200, attach=lambda h:
                                  kg_newton_residual([0.0], h))
    _, res, rel = newton.finish()
    assert np.max(np.abs(res)) < 1e-6


def test_kg_newton_free_packet():
    sigma, k = 8.0, 0.1
    g = Grid(1024, 256.0)
    x = g.axes[0]
    psi0 = Field(g, (np.exp(-x**2 / (4 * sigma**2))
                     * np.exp(1j * k * x)).astype(complex))
    _, _, rel = streamed(lambda h: kg_newton_residual([0.5 * sigma], h),
                         psi0, -1j * psi0.samples, Potentials.free(),
                         dt=0.05, steps=100)
    assert rel < 0.05


def test_kg_newton_needs_five_path_points():
    # three steps give a four-point path: too short for the interior
    # residual, which must say so rather than reduce an empty array
    g, _, newton = plane_wave_run(0.5, 2.5e-3, 3, attach=lambda h:
                                  kg_newton_residual([0.0], h))
    with pytest.raises(SolidynError,
                       match="^need at least 5 trajectory points$"):
        newton.finish()


def test_kg_newton_uniform_ramp_classical_limit():
    # slow packet in a weak uniform field: recover z'' = eE/w0
    sigma = 8.0
    e_field = 0.02
    g = Grid(1024, 256.0)
    x = g.axes[0]
    psi0 = Field(g, np.exp(-x**2 / (4 * sigma**2)).astype(complex))
    pot = Potentials.uniform_field(e_field)
    dt, steps = 0.05, 160
    # phase-rotate with the local energy w0 + eV so the slow branch dominates
    dpsi0 = -1j * (1.0 + pot.scalar_on_grid(g, 0.0)) * psi0.samples
    traj = streamed(lambda h: kg_bohm_trajectory([0.0], h), psi0, dpsi0, pot,
                    dt=dt, steps=steps)
    coeffs = np.polyfit(traj.times, traj.positions[:, 0, 0], 2)
    accel = 2.0 * coeffs[0]
    expected = e_field  # e E / w0
    assert abs(accel - expected) / expected < 0.02


def test_kg_mass_deviation_scales_quadratically_in_k():
    # packets with fixed relative momentum spread: M/w0 - 1 shrinks as k^2
    devs = {}
    for k in (0.1, 0.2):
        sigma = 0.8 / k
        n = 1 << int(np.ceil(np.log2(32 * sigma / 0.25)))
        g = Grid(n, 32 * sigma)
        x = g.axes[0]
        psi0 = Field(g, (np.exp(-x**2 / (4 * sigma**2))
                         * np.exp(1j * k * x)).astype(complex))
        history = KGHistory(g, PARAMS, Potentials.free())
        stored = record_snapshots(history, "time_tag", "amplitude",
                                  "mass_sq")
        evolve_kg(psi0, -1j * psi0.samples, PARAMS, Potentials.free(),
                  dt=0.05, steps=40, history=history)
        mid = len(stored["time_tag"]) // 2
        amp = stored["amplitude"][mid]
        core = amp > 0.5 * amp.max()
        mass = np.sqrt(np.maximum(stored["mass_sq"][mid], 0.0))
        devs[k] = float(np.max(np.abs(mass[core] - 1.0)))
    assert devs[0.2] / devs[0.1] > 3.0


def speed_path(speeds):
    """kg_bohm_trajectory from 0 through a uniform flow: one snapshot per
    speed (t = 0, 0.1, ...), unit amplitude, positive M^2 and J0, so |v|
    alone decides; its `finish()` result."""
    g = Grid(64, 20.0)
    ones = np.ones(g.shape)
    snapshots = [KGMadelung(
        grid=g, time_tag=0.1 * n, amplitude=ones, mass_sq=ones,
        current_t=ones, current_x=speed * ones, velocity=speed * ones[None],
        tachyon_mask=ones < 0,
        past_oriented_mask=ones < 0, energy=0.0, amp_peak=1.0)
        for n, speed in enumerate(speeds)]
    history = KGHistory(g, PARAMS, Potentials.free())
    path = kg_bohm_trajectory([0.0], history)
    for snapshot in snapshots:
        history.append(snapshot)
    return path.finish()


@pytest.mark.parametrize("speeds, t_abort, last_valid", [
    ((1.5, 1.5), "0", 0.0),             # at the start point
    ((0.5, 0.5, 1.0), "0.2", 0.1),      # at an RK4 endpoint
])
def test_guidance_refuses_a_luminal_speed(speeds, t_abort, last_valid):
    # the discrete M^2 > 0 does not imply |J1| < J0, so the speed test of
    # KGHistory.check is the one that refuses this flow
    with pytest.raises(TachyonicRegionError,
                       match=rf"^tachyonic region \(\|v\| >= 1\) at "
                             rf"t={t_abort}$") as info:
        speed_path(speeds)
    assert info.value.last_valid_time == last_valid


def test_guidance_below_light_speed_runs_through():
    traj = speed_path((0.5, 0.9, 0.99))
    assert np.all(np.abs(traj.velocities) < 1.0)
    assert traj.times[-1] == pytest.approx(0.2)
