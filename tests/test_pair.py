"""Tests for the two-particle configuration-space wave and coupled solitons."""

import gc
import threading
from functools import cached_property

import numpy as np
import pytest

from solidyn.diagnostics import equivariance_distance
from solidyn.errors import BoundaryExitError, NonFiniteFieldError, \
    SolidynError
from solidyn import pair as pair_module
from solidyn import trajectories
from solidyn.grids import Field, Grid
from solidyn.pair import (
    PairState,
    PairWave,
    _axis_slice,
    conditional_q,
    ls2_step,
    pair_continuity_residual,
    pair_step,
    pair_tracking_residual,
    pair_velocity_fields,
    product_pair,
    run_pair,
    symmetrized_pair,
)
from solidyn.potentials import PhysicalParams, Potentials
from solidyn.schrodinger import madelung_extract
from solidyn.soliton import GaussonParams, SolitonState, gausson_init, \
    nls_step, run_coupled
from solidyn.stepping import NODE_MASK_REL
from solidyn.trajectories import FlowHistory, integrate_flow

from interp_reference import Snapshot
from pair_reference import (reference_run_pair, reference_velocity_fields,
                            serial_run_pair)

PARAMS = PhysicalParams(omega0=1.0, charge=1.0)
FREE = (Potentials.free(1), Potentials.free(1))


def grid_pair(n=128, box=24.0):
    return Grid((n, n), (box, box)), Grid(n, box)


def packet(g1, center=0.0, k=0.0, sigma=1.0):
    x = g1.axes[0]
    return (np.exp(-((x - center) ** 2) / (4 * sigma**2))
            * np.exp(1j * k * x)).astype(complex)


def soliton(g1, center, b=25.0, velocity=0.0):
    u = gausson_init(GaussonParams(b, 1.0, center=(center,),
                                   velocity=(velocity,)), g1, 1.0)
    return SolitonState(u, PARAMS, b, 1.0, coupling_mode="dbb")


def schmidt_ratio(psi2d):
    s = np.linalg.svd(psi2d, compute_uv=False)
    return s[1] / s[0]


# ---------------------------------------------------------------------------
# ls2_step
# ---------------------------------------------------------------------------

def test_ls2_product_stays_product():
    g2, g1 = grid_pair()
    pair = product_pair(packet(g1, -2.0), packet(g1, 2.0), g2, (1.0, 1.0),
                        1.0, FREE)
    assert schmidt_ratio(pair.psi.samples) < 1e-12
    for _ in range(200):
        pair = ls2_step(pair, 2e-3)
    assert schmidt_ratio(pair.psi.samples) < 1e-8


def test_step_factors_keep_one_configuration_grid():
    # a step on a new grid drops the factors of the grid before it, so a
    # process that steps many grids holds one grid's 2D factors
    for n, box in ((16, 24.0), (32, 24.0), (32, 20.0)):
        g2, g1 = grid_pair(n, box)
        pair = product_pair(packet(g1, -1.0), packet(g1, 1.0), g2,
                            (1.0, 1.0), 1.0, FREE)
        for _ in range(2):
            pair = ls2_step(pair, 2e-3)
    assert sorted(slot[0] for slot in pair_module._STEP_FACTORS) \
        == ["half", "kinetic"]
    assert {slot[1:] for slot in pair_module._STEP_FACTORS} \
        == {((32, 32), (20.0, 20.0))}


@pytest.fixture(scope="module")
def entangled_free_run():
    """500 free steps of one entangled wave, shared by two tests: its norm
    at both ends, and a Bohm ensemble walked through its first 250 steps
    (the walk streams the snapshots, with |Psi|^2 kept at both ends)."""
    g2, g1 = grid_pair()
    pair = symmetrized_pair(packet(g1, -2.0, k=1.0), packet(g1, 2.0, k=-1.0),
                            g2, (1.0, 1.0), 1.0, FREE)
    norm0 = pair.norm()
    history = FlowHistory(g2, PARAMS, Potentials.free(2))
    densities = {}
    for i in range(501):
        if i <= 250:
            vel, amp = pair_velocity_fields(pair)
            if i == 0:
                flow = integrate_flow(
                    history, g2.sample_density(amp**2, 2000, seed=11))
            if i in (0, 250):
                densities[i] = amp**2
            history.append(Snapshot(pair.psi.time_tag, vel, amp))
        if i < 500:
            pair = ls2_step(pair, 2e-3)
    return {"grid": g2, "norms": (norm0, pair.norm()),
            "densities": densities, "flow": flow.finish()}


def test_ls2_norm_conserved_entangled(entangled_free_run):
    n0, n_end = entangled_free_run["norms"]
    assert abs(n_end - n0) / n0 < 1e-12


def test_ls2_trap_on_one_leaves_partner_marginal():
    # product with a uniform partner: a trap acting on particle 1 only
    # cannot move particle 2's reduced density
    g2, g1 = grid_pair()
    pots = (Potentials.harmonic(1.0), Potentials.free(1))
    pair = product_pair(packet(g1, 1.0), np.ones(g1.points[0], complex),
                        g2, (1.0, 1.0), 1.0, pots)
    rho2_initial = np.sum(pair.psi.density(), axis=0)
    for _ in range(300):
        pair = ls2_step(pair, 2e-3)
    rho2_final = np.sum(pair.psi.density(), axis=0)
    assert np.max(np.abs(rho2_final - rho2_initial)) / rho2_initial.max() \
        < 1e-10


def test_ls2_different_masses_dispersion():
    # particle 2 twice as heavy spreads slower
    g2, g1 = grid_pair()
    pair = product_pair(packet(g1), packet(g1), g2, (1.0, 2.0), 1.0, FREE)
    for _ in range(500):
        pair = ls2_step(pair, 2e-3)
    rho = pair.psi.density()
    x = g1.axes[0]
    rho1 = np.sum(rho, axis=1)
    rho2 = np.sum(rho, axis=0)
    var1 = np.sum(rho1 * x**2) / np.sum(rho1)
    var2 = np.sum(rho2 * x**2) / np.sum(rho2)
    assert var1 > var2


# ---------------------------------------------------------------------------
# conditional_q
# ---------------------------------------------------------------------------

def test_conditional_q_product_partner_independent():
    g2, g1 = grid_pair()
    pair = product_pair(packet(g1, -1.0), packet(g1, 1.5), g2, (1.0, 1.0),
                        1.0, FREE)
    qa = conditional_q(pair, 1, 1.5)
    qb = conditional_q(pair, 1, 0.2)
    lit = np.abs(packet(g1, -1.0)) > 1e-4
    assert np.max(np.abs(qa[lit] - qb[lit])) < 1e-8


def test_conditional_q_plane_wave_is_zero():
    g2, g1 = grid_pair()
    k = 2 * np.pi * 4 / g1.lengths[0]
    pair = product_pair(np.exp(1j * k * g1.axes[0]), packet(g1, 0.5), g2,
                        (1.0, 1.0), 1.0, FREE)
    q1 = conditional_q(pair, 1, 0.5)
    assert np.max(np.abs(q1)) < 1e-8


def test_conditional_q_matches_single_particle_potential():
    # uniform partner: the conditional potential is the 1D Madelung q
    g2, g1 = grid_pair()
    psi1 = packet(g1, 0.7)
    pair = product_pair(psi1, np.ones(g1.points[0], complex), g2, (1.0, 1.0),
                        1.0, FREE)
    q_cond = conditional_q(pair, 1, float(g2.axes[1][40]))
    bundle = madelung_extract(Field(g1, psi1), PARAMS, Potentials.free(1))
    assert np.array_equal(q_cond, bundle.quantum_potential)


def test_conditional_q_slice_first_matches_full_grid_derivative():
    # the former formula: full 2D second derivative, then slice both arrays
    g2, g1 = grid_pair()
    pair = symmetrized_pair(packet(g1, -2.0, k=0.5),
                            packet(g1, 2.0, k=-0.7, sigma=1.3), g2,
                            (1.0, 1.7), 1.0, FREE)
    a = np.abs(pair.psi.samples)
    floor = NODE_MASK_REL * a.max()
    for which in (1, 2):
        own, other = which - 1, 2 - which
        d2a = g2.second_derivative(a, own)
        for z in (-2.37, 0.1234, 1.9, 3.31):       # off the grid nodes
            a_slice = _axis_slice(g2, a, other, z)
            a_safe = np.maximum(a_slice, floor)
            old = -_axis_slice(g2, d2a, other, z) / (
                2.0 * pair.masses[own] * a_safe)
            new = conditional_q(pair, which, z)
            # the curvature -q a agrees to round-off along the whole line;
            # q itself wherever the slice is lit (round-off over a tail
            # amplitude near the node floor is not)
            assert np.max(np.abs((new - old) * a_safe)) \
                <= 1e-12 * np.max(np.abs(old * a_safe))
            lit = a_slice > 1e-2 * a_slice.max()
            assert np.max(np.abs(new - old)[lit]) \
                <= 1e-12 * np.max(np.abs(old[lit]))


@pytest.mark.parametrize("n, box", [(256, 24.0), (64, 16.0),
                                     (512, 16 * np.pi), (100, 24.0),
                                     (14, 7.0)])
def test_conditional_q_has_the_bits_of_the_laplacian_row(n, box):
    # q takes the Laplacian alone, with the bits of row 1 of
    # `real_derivatives` (which madelung_extract reads), on power-of-two
    # spacings and on other spacings; criterion 12 rests on these bits
    g2, g1 = grid_pair(n, box)
    pair = symmetrized_pair(packet(g1, -2.0, k=0.5),
                            packet(g1, 2.0, k=-0.7, sigma=1.3), g2,
                            (1.0, 1.7), 1.0, FREE)
    floor = NODE_MASK_REL * pair.amp_peak
    for which in (1, 2):
        own, other = which - 1, 2 - which
        for z in (-2.37, 0.0, 1.9):
            a_slice = _axis_slice(g2, pair.amplitude, other, z)
            want = -g1.real_derivatives(a_slice)[1] / (
                2.0 * pair.masses[own] * np.maximum(a_slice, floor))
            assert conditional_q(pair, which, z).tobytes() == want.tobytes()


def test_conditional_q_entangled_depends_on_partner():
    g2, g1 = grid_pair()
    pair = symmetrized_pair(packet(g1, -2.0), packet(g1, 2.0), g2,
                            (1.0, 1.0), 1.0, FREE)
    qa = conditional_q(pair, 1, -2.0)
    qb = conditional_q(pair, 1, 2.0)
    # compare where the relevant slices are lit
    amp = np.abs(pair.psi.samples)
    lit = (np.abs(packet(g1, -2.0)) + np.abs(packet(g1, 2.0))) > 1e-3
    assert np.max(np.abs(qa[lit] - qb[lit])) > 0.1


def test_conditional_q_rejects_dead_slice():
    g2, g1 = grid_pair()
    pair = product_pair(packet(g1, 0.0, sigma=0.5),
                        packet(g1, 0.0, sigma=0.5), g2, (1.0, 1.0), 1.0, FREE)
    with pytest.raises(SolidynError):
        conditional_q(pair, 1, 11.0)


# ---------------------------------------------------------------------------
# pair_step: separability and bit-identity
# ---------------------------------------------------------------------------

def test_pair_product_bit_identical_to_single_run(product_pair_run):
    # uniform partner pinned on a grid node, with the partner's rest energy
    # absorbed into a flat (pure-gauge) potential: every float op along
    # the particle-1 path coincides with the 1D coupled run (the shared
    # run of `conftest.product_pair_run`)
    single, run, z2_node = product_pair_run
    assert np.array_equal(run.z[:, 1], np.full(301, z2_node))
    assert np.array_equal(run.z[:, 0], single.reference.positions[:, 0, 0])
    assert np.array_equal(run.centers1, single.centers[:, 0])
    assert np.array_equal(run.final_state.u1.u.samples,
                          single.final_state.u.samples)


def test_pair_product_separability_generic_packets():
    # generic product packets factorize to interpolation/round-off accuracy
    g2, g1 = grid_pair(n=128, box=20.0)
    psi1 = packet(g1, -1.0)
    pair = product_pair(psi1, packet(g1, 2.0), g2, (1.0, 1.0), 1.0, FREE)
    u1 = soliton(g1, -1.0)
    u2 = soliton(g1, 2.0)
    # start the synchronized point exactly where the single run starts: at
    # the soliton's computed first moment
    state = PairState(u1=u1, u2=u2, z=[u1.center[0], u2.center[0]])
    run, = run_pair(pair, [state], dt=2e-3, steps=400)

    with pytest.warns(UserWarning, match="not well separated"):
        single = run_coupled(
            Field(g1, psi1.copy()), soliton(g1, -1.0), PARAMS,
            Potentials.free(1), dt=2e-3, steps=400)
    z_single = single.reference.positions[:, 0, 0]
    assert np.max(np.abs(run.z[:, 0] - z_single)) < 1e-8
    assert np.max(np.abs(run.centers1 - single.centers[:, 0])) < 1e-8


def test_pair_continuity_residual():
    g2, g1 = grid_pair()
    pair = symmetrized_pair(packet(g1, -2.0, k=0.5), packet(g1, 2.0, k=-0.5),
                            g2, (1.0, 1.0), 1.0, FREE)
    dt = 1e-3
    snaps = [pair]
    for _ in range(2):
        pair = ls2_step(pair, dt)
        snaps.append(pair)
    resid = pair_continuity_residual(snaps, dt)
    rho_max = float(np.max(snaps[1].psi.density()))
    assert resid < 1e-4 * rho_max / dt


# ---------------------------------------------------------------------------
# nonlocality and tracking
# ---------------------------------------------------------------------------

def momentum_correlated_wave(g2, g1, k=1.5):
    """(L(x1)L(x2) + R(x1)R(x2))/sqrt(2): partner position selects the
    branch, so particle 1's velocity flips sign with z2."""
    left = packet(g1, -2.0, k=-k)
    right = packet(g1, 2.0, k=+k)
    psi2d = (np.outer(left, left) + np.outer(right, right)) / np.sqrt(2)
    return PairWave(Field(g2, psi2d), (1.0, 1.0), 1.0, FREE)


def resting_states(g1, starts):
    """Solitons at rest at each start (z1, z2), with the point there."""
    return [PairState(u1=soliton(g1, z1), u2=soliton(g1, z2), z=[z1, z2])
            for z1, z2 in starts]


@pytest.mark.slow
def test_pair_nonlocality_witness():
    g2, g1 = grid_pair()
    dx = g2.spacing[0]

    # both partner starts ride one wave
    starts = [(-2.0, -2.0), (-2.0, 3.0)]
    run_a, run_b = run_pair(momentum_correlated_wave(g2, g1),
                            resting_states(g1, starts), dt=2e-3, steps=400)
    assert np.max(np.abs(run_a.z[:, 0] - run_b.z[:, 0])) > 10 * dx

    psi1 = packet(g1, -2.0)
    psi2 = (packet(g1, -2.0) + packet(g1, 3.0)) / np.sqrt(2)
    prod_a, prod_b = run_pair(
        product_pair(psi1, psi2, g2, (1.0, 1.0), 1.0, FREE),
        resting_states(g1, starts), dt=2e-3, steps=400)
    assert np.max(np.abs(prod_a.z[:, 0] - prod_b.z[:, 0])) < dx / 10


def test_pair_tracking_product_free():
    g2, g1 = grid_pair()
    pair = product_pair(packet(g1, -2.0), packet(g1, 2.0), g2, (1.0, 1.0),
                        1.0, FREE)
    state = PairState(u1=soliton(g1, -2.0), u2=soliton(g1, 2.0),
                      z=[-2.0, 2.0])
    run, = run_pair(pair, [state], dt=2e-3, steps=600)
    r1, r2 = pair_tracking_residual(run)
    assert r1 < 3 * g2.spacing[0]
    assert r2 < 3 * g2.spacing[1]


def test_pair_tracking_entangled():
    g2, g1 = grid_pair()
    wave = momentum_correlated_wave(g2, g1)
    vel, _ = pair_velocity_fields(wave)
    z0 = np.array([[-2.0, -2.0]])
    v0 = [g2.interpolate(vel[a], z0)[0] for a in range(2)]
    state = PairState(u1=soliton(g1, -2.0, velocity=v0[0]),
                      u2=soliton(g1, -2.0, velocity=v0[1]),
                      z=[-2.0, -2.0])
    run, = run_pair(wave, [state], dt=2e-3, steps=500)
    r1, r2 = pair_tracking_residual(run)
    assert r1 < 5 * g2.spacing[0]
    assert r2 < 5 * g2.spacing[1]


def test_pair_zero_coupling_straight_lines():
    # with the conditional potential forced off, the solitons ignore the
    # wave entirely and fly ballistically
    g2, g1 = grid_pair()
    wave = momentum_correlated_wave(g2, g1)
    zero_q = np.zeros(g1.shape)
    u1 = soliton(g1, -2.0, b=9.0, velocity=0.5)
    u2 = soliton(g1, 2.0, b=9.0, velocity=-0.25)
    dt = 2e-3
    for _ in range(500):
        centers = u1.center, u2.center
        wave = ls2_step(wave, dt)
        u1 = nls_step(u1, FREE[0], dt, external_q=zero_q)
        u2 = nls_step(u2, FREE[1], dt, external_q=zero_q)
        u1.track_center(centers[0])
        u2.track_center(centers[1])
    assert u1.center[0] == pytest.approx(-2.0 + 0.5 * 1.0, abs=1e-4)
    assert u2.center[0] == pytest.approx(2.0 - 0.25 * 1.0, abs=1e-4)


def test_pair_equivariance_2d(entangled_free_run):
    flow = entangled_free_run["flow"]
    report = equivariance_distance(entangled_free_run["densities"],
                                   entangled_free_run["grid"], flow.times,
                                   flow.positions, indices=[0, 250], bins=8)
    assert np.all(report.distances < 0.07)


# ---------------------------------------------------------------------------
# per-line guidance velocity: bit-identity and work against the full grid
# ---------------------------------------------------------------------------

MASSES = (1.0, 1.7)


def unequal_mass_wave(g2, g1, k=2.0):
    """Momentum-correlated wave with masses (1.0, 1.7): z moves about 13
    cells along x1 and 7 along x2 in 300 steps of 2e-3."""
    left = packet(g1, -2.0, k=-k)
    right = packet(g1, 2.0, k=+k, sigma=1.3)
    psi2d = (np.outer(left, left) + np.outer(right, right)) / np.sqrt(2)
    return PairWave(Field(g2, psi2d), MASSES, 1.0, FREE)


def unequal_mass_solitons(g1, z):
    return soliton(g1, z[0], velocity=-2.0), soliton(g1, z[1], velocity=-1.2)


Z_START = (-1.97, -2.03)        # off the grid nodes
Z_NEAR = (-2.31, -1.62)         # a second start, a few cells away


def test_line_velocity_equals_full_grid_fields():
    g2, g1 = grid_pair(n=100)   # not a power of two
    wave = unequal_mass_wave(g2, g1)
    ref, amp = reference_velocity_fields(wave)
    vel, amp_new = pair_velocity_fields(wave)
    assert np.array_equal(vel, ref) and np.array_equal(amp_new, amp)
    rng = np.random.default_rng(5)
    for _ in range(50):
        rows = rng.integers(0, 100, size=(4, 1, 3))
        cols = rng.integers(0, 100, size=(1, 4, 3))
        for axis in range(2):
            assert np.array_equal(wave.velocity[axis][rows, cols],
                                  ref[axis][rows, cols])


@pytest.mark.slow
def test_run_pair_bit_identical_to_full_grid_reference():
    g2, g1 = grid_pair(n=256)
    dt, steps = 2e-3, 300
    ref_z, ref_c1, ref_c2, ref_u1, ref_u2 = reference_run_pair(
        unequal_mass_wave(g2, g1), *unequal_mass_solitons(g1, Z_START),
        Z_START, dt, steps)
    u1, u2 = unequal_mass_solitons(g1, Z_START)
    run, = run_pair(unequal_mass_wave(g2, g1),
                    [PairState(u1=u1, u2=u2, z=Z_START)], dt, steps)
    cells = np.abs(ref_z[-1] - ref_z[0]) / g2.spacing[0]
    assert cells[0] > 5 and cells[1] > 5        # z crosses several cells
    assert np.array_equal(run.z, ref_z)
    assert np.array_equal(run.centers1, ref_c1)
    assert np.array_equal(run.centers2, ref_c2)
    assert np.array_equal(run.final_state.u1.u.samples, ref_u1)
    assert np.array_equal(run.final_state.u2.u.samples, ref_u2)


def _line_index(wave, block, axis, col):
    """Grid line of `wave` along `axis` whose samples fill line `col` of a
    derivative input block, or None."""
    psi = wave.psi.samples
    if axis == 0:
        hit = np.nonzero((psi == block[:, [col]]).all(axis=0))[0]
    else:
        hit = np.nonzero((psi == block[[col], :]).all(axis=1))[0]
    return int(hit[0]) if hit.size else None


def _check_lines_derived_once(monkeypatch, advance, bound):
    """Run `advance(wave)` from the unequal-mass 256^2 wave and check every
    derivative it takes: each block holds lines of its step's old or new
    wave, no block is a full grid, no line of a wave is derived twice, and
    no step derives more than `bound` lines.  Returns the wave steps."""
    g2, g1 = grid_pair(n=256)
    n = g2.points[0]
    waves = [unequal_mass_wave(g2, g1)]         # wave k of the run at [k]
    current = [None]                            # the step whose particles run
    per_step = {}                               # lines derived in each step
    derived = set()
    derivative, wave_step = Grid.derivative, pair_module.ls2_step
    particles = pair_module._step_particles

    def step_spy(pair, dt):
        waves.append(wave_step(pair, dt))
        return waves[-1]

    def particles_spy(pair, new_pair, state, dt, i):
        current[0] = i
        per_step.setdefault(i, 0)
        return particles(pair, new_pair, state, dt, i)

    def spy(self, samples, axis):
        count = samples.shape[1 - axis]
        assert count < n, "a pair step derived a full grid"
        step = current[0]
        per_step[step] += count
        for col in range(count):
            # the block's line belongs to the old or the new wave
            for index in (step - 1, step):
                line = _line_index(waves[index], samples, axis, col)
                if line is not None:
                    break
            assert line is not None
            assert (index, axis, line) not in derived, \
                f"line {line} of wave {index} derived twice"
            derived.add((index, axis, line))
        return derivative(self, samples, axis)

    with monkeypatch.context() as m:
        m.setattr(Grid, "derivative", spy)
        m.setattr(pair_module, "ls2_step", step_spy)
        m.setattr(pair_module, "_step_particles", particles_spy)
        advance(waves[0])
    assert max(per_step.values()) <= bound
    assert sorted(per_step) == list(range(1, len(waves)))
    return len(waves) - 1


def test_pair_step_derives_only_stencil_lines_once(monkeypatch):
    g1 = grid_pair(n=256)[1]
    dt, steps = 2e-3, 120

    def stepwise(wave):
        u1, u2 = unequal_mass_solitons(g1, Z_START)
        state = PairState(u1=u1, u2=u2, z=Z_START)
        for _ in range(steps):
            wave, state = pair_step(wave, state, dt)

    assert _check_lines_derived_once(monkeypatch, stepwise, 16) == steps

    # two starts on one wave in lockstep: each reads the lines the other
    # derived, and still no line of a wave is derived twice
    def lockstep(wave):
        run_pair(wave, [PairState(*unequal_mass_solitons(g1, z), z=z)
                        for z in (Z_START, Z_NEAR)], dt, steps)

    assert _check_lines_derived_once(monkeypatch, lockstep, 2 * 16) == steps


def test_nan_off_the_stencil_lines_still_aborts_step_one():
    g2, g1 = grid_pair(n=256)
    wave = unequal_mass_wave(g2, g1)
    wave.psi.samples[200, 30] = np.nan   # far from z = (-1.97, -2.03)
    u1, u2 = unequal_mass_solitons(g1, Z_START)
    with pytest.raises(NonFiniteFieldError, match="after step 1"):
        pair_step(wave, PairState(u1=u1, u2=u2, z=Z_START), 2e-3)


def test_rk4_stage_box_exit_matches_reference():
    # particle 1 runs at v = 5 into the box edge at x1 = 12
    g2, g1 = grid_pair(n=256)

    def wave():
        return product_pair(packet(g1, 11.0, k=5.0), packet(g1, 0.0), g2,
                            MASSES, 1.0, FREE)

    z0 = (11.9, 0.02)
    u1, u2 = soliton(g1, 11.0), soliton(g1, 0.0)
    with pytest.raises(BoundaryExitError, match="boundary exit near") as ref:
        reference_run_pair(wave(), u1, u2, z0, 2e-3, 40)
    with pytest.raises(BoundaryExitError, match="boundary exit near") as err:
        run_pair(wave(), [PairState(u1=u1, u2=u2, z=z0)], 2e-3, 40)
    assert str(err.value) == str(ref.value)
    assert err.value.last_valid_time == ref.value.last_valid_time > 0.0


def test_pair_sector_refuses_a_vector_potential():
    # ls2_step's kinetic multiplier and the velocity lines take A = 0, so a
    # pair wave with an A on either axis would run as the free pair
    g2, g1 = grid_pair(32)
    ramp = Potentials.vector_ramp(0.5, 1)
    for pots in ((ramp, ramp), (FREE[0], ramp)):
        with pytest.raises(SolidynError,
                           match="^the pair sector requires A = 0$"):
            product_pair(packet(g1, -1.0), packet(g1, 1.0), g2, (1.0, 1.0),
                         1.0, pots)


def test_pair_norm_from_cached_amplitude():
    g2, g1 = grid_pair()
    wave = unequal_mass_wave(g2, g1)
    for _ in range(3):
        assert wave.norm() == wave.psi.norm()
        wave = ls2_step(wave, 2e-3)


def test_finished_pair_run_keeps_no_pair_wave():
    # a run's result holds its series and final solitons only, so a
    # scenario's earlier runs hold no 2D wave while a later one runs
    g2, g1 = grid_pair(32)
    pair = product_pair(packet(g1, -1.0), packet(g1, 1.0), g2, (1.0, 1.0),
                        1.0, FREE)
    state = PairState(u1=soliton(g1, -1.0), u2=soliton(g1, 1.0),
                      z=[-1.0, 1.0])
    run, = run_pair(pair, [state], dt=2e-3, steps=3)
    del pair, state
    gc.collect()
    assert not [o for o in gc.get_objects()
                if isinstance(o, PairWave) and o.psi.grid is g2]
    assert run.z.shape == (4, 2)


def test_wave_peak_reduced_once_serves_every_floor(monkeypatch):
    g2, g1 = grid_pair()
    wave = unequal_mass_wave(g2, g1)
    u1, u2 = unequal_mass_solitons(g1, Z_START)
    handed = []
    advance = pair_module.advance_point

    def spy(history, *args, **kwargs):
        handed.append(history.records)
        return advance(history, *args, **kwargs)

    monkeypatch.setattr(pair_module, "advance_point", spy)
    new_wave, _ = pair_step(wave, PairState(u1=u1, u2=u2, z=Z_START), 2e-3)
    for w in (wave, new_wave):
        peak = np.max(np.abs(w.psi.samples))
        assert w.amp_peak == peak and "amp_peak" in w.__dict__
        assert all(v.floor == NODE_MASK_REL * peak for v in w.velocity)
    # the point RK4 is handed the step's two waves, with their peaks
    assert len(handed) == 1
    assert handed[0][0] is wave and handed[0][1] is new_wave
    assert [w.amp_peak for w in handed[0]] == [
        np.max(np.abs(w.psi.samples)) for w in (wave, new_wave)]
    # the conditional potentials' floor is the full-grid reduction too
    z2 = float(Z_START[1])
    a_slice = _axis_slice(g2, wave.amplitude, 1, z2)
    floor = NODE_MASK_REL * np.max(np.abs(wave.psi.samples))
    want = -g1.real_derivatives(a_slice)[1] \
        / (2.0 * MASSES[0] * np.maximum(a_slice, floor))
    assert np.array_equal(conditional_q(wave, 1, z2), want)


def test_pair_step_builds_one_flow_history_per_step(monkeypatch):
    # each particle half moves its configuration point by the one-point
    # RK4 over a history of the step's own two waves, built once and read
    # by no one else; the run builds no other flow history
    g2, g1 = grid_pair()
    wave = unequal_mass_wave(g2, g1)
    u1, u2 = unequal_mass_solitons(g1, Z_START)
    built, halves = [], []
    init, particles = (trajectories.FlowHistory.__init__,
                       pair_module._step_particles)

    def spy_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def spy_particles(pair, new_pair, *args):
        halves.append((pair, new_pair))
        return particles(pair, new_pair, *args)

    monkeypatch.setattr(trajectories.FlowHistory, "__init__", spy_init)
    monkeypatch.setattr(pair_module, "_step_particles", spy_particles)
    new_wave, state = pair_step(wave, PairState(u1=u1, u2=u2, z=Z_START),
                                2e-3)
    assert new_wave.time_tag == 2e-3 and state.z.shape == (2,)
    assert halves[0][0] is wave and halves[0][1] is new_wave
    # and a lockstep run of two starts over three steps
    runs = run_pair(momentum_correlated_wave(g2, g1),
                    resting_states(g1, LOCKSTEP_STARTS[:2]), 2e-3, 3)
    assert [run.z.shape for run in runs] == [(4, 2), (4, 2)]
    assert len(halves) == 1 + 6 and len(built) == len(halves)
    for history, (pair, new_pair) in zip(built, halves):
        assert len(history.records) == 2
        assert history.records[0] is pair and history.records[1] is new_pair
        assert not history.readers


# ---------------------------------------------------------------------------
# lockstep runs: several particle starts on one wave
# ---------------------------------------------------------------------------

LOCKSTEP_STARTS = ((-2.0, -2.0), (-1.97, 3.03), (-2.0, -2.0))  # last repeats


@pytest.mark.parametrize("entangled", [False, True])
def test_lockstep_run_has_the_bits_of_each_start_alone(entangled):
    g2, g1 = grid_pair()

    def wave():
        if entangled:
            return momentum_correlated_wave(g2, g1)
        partner = (packet(g1, -2.0) + packet(g1, 3.0)) / np.sqrt(2)
        return product_pair(packet(g1, -2.0), partner, g2, (1.0, 1.0), 1.0,
                            FREE)

    dt, steps = 2e-3, 60
    runs = run_pair(wave(), resting_states(g1, LOCKSTEP_STARTS), dt, steps)
    assert len(runs) == len(LOCKSTEP_STARTS)
    for start, run in zip(LOCKSTEP_STARTS, runs):
        alone, = run_pair(wave(), resting_states(g1, [start]), dt, steps)
        assert np.array_equal(run.times, alone.times)
        assert np.array_equal(run.z, alone.z)
        assert np.array_equal(run.centers1, alone.centers1)
        assert np.array_equal(run.centers2, alone.centers2)
        assert np.array_equal(run.final_state.u1.u.samples,
                              alone.final_state.u1.u.samples)
        assert np.array_equal(run.final_state.u2.u.samples,
                              alone.final_state.u2.u.samples)
    # the starts moved apart, so the comparison is not of one path
    assert np.max(np.abs(runs[0].z[:, 0] - runs[1].z[:, 0])) > 0.0


def test_lockstep_run_steps_and_reduces_each_wave_once(monkeypatch):
    g2, g1 = grid_pair(n=64)
    steps = 5
    stepped, reduced = [], []
    wave_step = pair_module.ls2_step
    amp_peak = PairWave.__dict__["amp_peak"].func

    def step_spy(pair, dt):
        stepped.append(pair)
        return wave_step(pair, dt)

    def amp_peak_spy(wave):
        reduced.append(wave)
        return amp_peak(wave)

    spy = cached_property(amp_peak_spy)
    spy.__set_name__(PairWave, "amp_peak")
    monkeypatch.setattr(PairWave, "amp_peak", spy)
    monkeypatch.setattr(pair_module, "ls2_step", step_spy)
    for count in (1, 2, 3):
        stepped.clear()
        reduced.clear()
        run_pair(momentum_correlated_wave(g2, g1),
                 resting_states(g1, LOCKSTEP_STARTS[:count]), 2e-3, steps)
        assert len(stepped) == steps
        # every wave of the run (the first and one per step), each once
        assert len(reduced) == steps + 1
        assert len({id(w) for w in reduced}) == steps + 1


def test_lockstep_abort_is_that_of_the_first_failing_start():
    # the box exit of `test_rk4_stage_box_exit_matches_reference`: particle
    # 1 runs at v = 5 into the box edge at x1 = 12
    g2, g1 = grid_pair(n=256)

    def wave():
        return product_pair(packet(g1, 11.0, k=5.0), packet(g1, 0.0), g2,
                            MASSES, 1.0, FREE)

    def state(z):
        return PairState(u1=soliton(g1, 11.0), u2=soliton(g1, 0.0), z=z)

    def abort(starts):
        with pytest.raises(SolidynError) as err:
            run_pair(wave(), [state(z) for z in starts], 2e-3, 40)
        return err.value

    exit_start, later_exit, safe = (11.9, 0.02), (11.7, 0.02), (10.0, 0.02)
    alone = abort([exit_start])
    assert isinstance(alone, BoundaryExitError)
    later = abort([later_exit])
    assert later.last_valid_time > alone.last_valid_time
    # a safe first start, or one that would fail later, does not change
    # the abort of the start that fails first
    for first in (safe, later_exit):
        err = abort([first, exit_start])
        assert type(err) is type(alone)
        assert str(err) == str(alone)
        assert err.last_valid_time == alone.last_valid_time


def test_lockstep_abort_at_one_step_raises_the_first_start(monkeypatch):
    g2, g1 = grid_pair(n=32)
    dt = 2e-3
    advance = pair_module.advance_point

    def failing(history, z, t0, t1, **kwargs):
        if t1 > 2.5 * dt:
            # names the start by its partner coordinate, rounded
            raise BoundaryExitError(f"start z2={round(z[1])}", t0)
        return advance(history, z, t0, t1, **kwargs)

    monkeypatch.setattr(pair_module, "advance_point", failing)
    starts = ((-2.0, -2.0), (-1.97, 3.03))
    for order in (starts, starts[::-1]):
        with pytest.raises(BoundaryExitError) as err:
            run_pair(momentum_correlated_wave(g2, g1),
                     resting_states(g1, order), dt, 10)
        assert str(err.value) == f"start z2={round(order[0][1])}"
        assert err.value.last_valid_time == pytest.approx(2 * dt)


# ---------------------------------------------------------------------------
# the lockstep run: the serial run's bits and exits
# ---------------------------------------------------------------------------

# a slowly ramped linear potential on particle 2's axis, sampled anew at
# every step
RAMP = Potentials(1, scalar=lambda t, c: 0.05 * t * c[0],
                  scalar_gradient=lambda t, c: (0.05 * t + 0.0 * c[0],))


def lookahead_wave(g2, g1, entangled):
    if entangled:
        return momentum_correlated_wave(g2, g1)
    partner = (packet(g1, -2.0) + packet(g1, 3.0)) / np.sqrt(2)
    return product_pair(packet(g1, -2.0), partner, g2, (1.0, 1.0), 1.0,
                        (FREE[0], RAMP))


def assert_same_runs(got, want):
    assert len(got) == len(want)
    for run, ref in zip(got, want):
        for name in ("times", "z", "centers1", "centers2"):
            a, b = getattr(run, name), getattr(ref, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        for u in ("u1", "u2"):
            a = getattr(run.final_state, u).u.samples
            b = getattr(ref.final_state, u).u.samples
            assert a.tobytes() == b.tobytes(), u


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("entangled", [False, True])
def test_run_pair_has_the_bits_of_the_serial_run(entangled, count):
    g2, g1 = grid_pair()
    starts = LOCKSTEP_STARTS[:count]
    for steps in (0, 1, 2, 50):
        want = serial_run_pair(lookahead_wave(g2, g1, entangled),
                               resting_states(g1, starts), 2e-3, steps)
        before = threading.active_count()
        got = run_pair(lookahead_wave(g2, g1, entangled),
                       resting_states(g1, starts), 2e-3, steps)
        assert threading.active_count() == before
        assert_same_runs(got, want)
        assert len(got[0].times) == steps + 1


def test_a_wave_error_raises_at_its_step_after_the_earlier_halves(
        monkeypatch):
    # wave k is non-finite: the run raises at step k, once every particle
    # half of steps 1 .. k - 1 has run and none of step k
    g2, g1 = grid_pair(n=32)
    dt, k = 2e-3, 4
    starts = LOCKSTEP_STARTS[:2]
    wave_step, particles = pair_module.ls2_step, pair_module._step_particles
    halves = []

    def poisoned(pair, dt, **kwargs):
        new = wave_step(pair, dt, **kwargs)
        if round(new.time_tag / dt) == k:
            new.psi.samples[3, 5] = np.nan
        return new

    def particles_spy(pair, new_pair, state, dt, i):
        halves.append(i)
        return particles(pair, new_pair, state, dt, i)

    monkeypatch.setattr(pair_module, "ls2_step", poisoned)
    monkeypatch.setattr(pair_module, "_step_particles", particles_spy)
    before = threading.active_count()
    with pytest.raises(NonFiniteFieldError,
                       match=f"^non-finite field after step {k}$"):
        run_pair(momentum_correlated_wave(g2, g1), resting_states(g1, starts),
                 dt, 10)
    assert threading.active_count() == before
    assert halves == [i for i in range(1, k) for _ in starts]


def test_a_particle_abort_wins_over_the_wave_in_flight(monkeypatch):
    # a particle half aborts at step k, and wave k + 1 would be non-finite:
    # the particle abort raises, and wave k + 1 is never stepped
    g2, g1 = grid_pair(n=32)
    dt, k = 2e-3, 3
    wave_step, advance = pair_module.ls2_step, pair_module.advance_point

    def poisoned(pair, dt, **kwargs):
        new = wave_step(pair, dt, **kwargs)
        if round(new.time_tag / dt) == k + 1:
            new.psi.samples[3, 5] = np.nan
        return new

    def failing(history, z, t0, t1, **kwargs):
        if t1 > (k - 0.5) * dt:
            raise BoundaryExitError("particle abort", t0)
        return advance(history, z, t0, t1, **kwargs)

    monkeypatch.setattr(pair_module, "ls2_step", poisoned)
    monkeypatch.setattr(pair_module, "advance_point", failing)
    before = threading.active_count()
    with pytest.raises(BoundaryExitError, match="^particle abort$") as err:
        run_pair(momentum_correlated_wave(g2, g1),
                 resting_states(g1, LOCKSTEP_STARTS[:2]), dt, 10)
    assert threading.active_count() == before
    assert err.value.last_valid_time == pytest.approx((k - 1) * dt)
