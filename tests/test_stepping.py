"""Split-step factor caches against a reference Strang step that rebuilds
every phase factor and the kinetic multiplier at every step; the memory of
one Strang step; the time loop `drive`; and the step index and message with
which each wave run aborts."""

import tracemalloc

import numpy as np
import pytest

from solidyn import pair, soliton
from solidyn.errors import BoundaryMassError, NonFiniteFieldError
from solidyn.grids import Field, Grid
from solidyn.kleingordon import KGHistory, evolve_kg
from solidyn.pair import PairState, PairWave, ls2_step, product_pair, run_pair
from solidyn.potentials import PhysicalParams, Potentials
from solidyn.schrodinger import evolve_schrodinger, ls_step
from solidyn.soliton import (GaussonParams, SolitonState, gausson_init,
                             log_nonlinearity, nls_step, run_classical,
                             run_coupled)
from solidyn.stepping import RowBlock, drive, strang_step
from solidyn.trajectories import FlowHistory

STEPS = 50
DT = 5e-3
SPRING = 0.3
E_FIELD = 0.4
PARAMS = PhysicalParams(omega0=1.3, charge=-0.7)
B, F0 = 4.0, 1.0


def harmonic_v(t, coords):
    return 0.5 * SPRING * coords[0] ** 2


def breathing_v(t, coords):
    # genuinely time-dependent: a cached sample would freeze it at t = 0
    return 0.3 * np.cos(2.0 * t) * coords[0] ** 2 + 0.1 * t * coords[0]


def ramp_a(t):
    return -E_FIELD * t * np.ones(1)


def zero_a(t):
    return np.zeros(1)


def reference_kinetic(grid, masses, charge, avec, dt):
    total = 0.0
    for axis in range(grid.dim):
        k = grid._k_along(axis)
        total = total + (k - charge * avec[axis]) ** 2 / (2.0 * masses[axis])
    return np.exp(-1j * dt * total)


def reference_strang(samples, dt, w_start, w_end, kin):
    out = np.exp(-0.5j * dt * w_start) * samples
    out = np.fft.ifftn(np.fft.fftn(out) * kin)
    if callable(w_end):
        w_end = w_end(out)
    return out * np.exp(-0.5j * dt * w_end)


def line():
    grid = Grid(128, 20.0)
    x = grid.axes[0]
    return grid, (np.exp(-(x - 1.0) ** 2 / 2.0)
                  * np.exp(0.8j * x)).astype(complex)


def potentials_for(kind):
    """(Potentials under test, reference V(t, coords), reference A(t))."""
    if kind == "harmonic":
        return Potentials.harmonic(SPRING), harmonic_v, zero_a
    if kind == "vector_ramp":
        return (Potentials.vector_ramp(E_FIELD),
                lambda t, c: np.zeros_like(c[0]), ramp_a)
    if kind == "raw_callable":
        return Potentials(1, scalar=breathing_v), breathing_v, zero_a
    raise ValueError(kind)


KINDS = ("harmonic", "vector_ramp", "raw_callable")


@pytest.mark.parametrize("kind", KINDS)
def test_ls_step_matches_reference(kind):
    grid, samples = line()
    pot, v, a = potentials_for(kind)
    w0, e = PARAMS.omega0, PARAMS.charge
    psi, ref, t = Field(grid, samples), samples, 0.0
    for i in range(STEPS):
        # alternating dt: a factor cached for one dt must not serve the other
        dt = DT * (1 + i % 2)
        psi = ls_step(psi, PARAMS, pot, dt)
        kin = reference_kinetic(grid, (w0,), e, a(t + 0.5 * dt), dt)
        ref = reference_strang(ref, dt, w0 + e * v(t, grid.axes),
                               w0 + e * v(t + dt, grid.axes), kin)
        t = t + dt
    assert np.array_equal(psi.samples, ref)


@pytest.mark.parametrize("mode", ("classical", "dbb"))
@pytest.mark.parametrize("kind", KINDS)
def test_nls_step_matches_reference(kind, mode):
    grid, _ = line()
    pot, v, a = potentials_for(kind)
    w0, e = PARAMS.omega0, PARAMS.charge
    u = gausson_init(GaussonParams(B, F0, center=(0.5,), velocity=(0.4,)),
                     grid, w0)
    state = SolitonState(u, PARAMS, B, F0, coupling_mode=mode)
    x = grid.axes[0]
    ref, t = u.samples, 0.0
    for i in range(STEPS):
        q_start = q_end = None
        if mode == "dbb":
            q_start = 0.05 * np.sin(x + i * DT)
            q_end = 0.05 * np.sin(x + (i + 1) * DT)
        state = nls_step(state, pot, DT, external_q=q_start,
                         external_q_end=q_end)

        w_start = w0 + e * v(t, grid.axes)
        base_end = w0 + e * v(t + DT, grid.axes)
        if mode == "dbb":
            w_start = w_start + q_start
            base_end = base_end + q_end
        w_start = w_start + log_nonlinearity(np.abs(ref) ** 2, B, F0) / (
            2.0 * w0)

        def w_end(mid, base_end=base_end):
            return base_end + log_nonlinearity(np.abs(mid) ** 2, B, F0) / (
                2.0 * w0)

        kin = reference_kinetic(grid, (w0,), e, a(t + 0.5 * DT), DT)
        ref = reference_strang(ref, DT, w_start, w_end, kin)
        t = t + DT
    assert np.array_equal(state.u.samples, ref)


@pytest.mark.parametrize("kind", ("harmonic", "raw_callable"))
def test_ls2_step_matches_reference(kind):
    g2 = Grid((64, 64), (20.0, 20.0))
    g1 = Grid(64, 20.0)
    x = g1.axes[0]
    psi1 = (np.exp(-(x + 1.0) ** 2 / 2.0) * np.exp(0.5j * x)).astype(complex)
    psi2 = np.exp(-(x - 2.0) ** 2 / 3.0).astype(complex)
    entangled = np.outer(psi1, psi2) + np.outer(psi2, psi1)
    masses, e = (1.0, 2.5), 0.6
    pot, v, _ = potentials_for(kind)
    pair = PairWave(Field(g2, entangled), masses, e,
                    (pot, Potentials.harmonic(SPRING)))

    def w_at(tt):
        w1 = masses[0] + e * v(tt, g1.axes)
        w2 = masses[1] + e * harmonic_v(tt, g1.axes)
        return w1[:, None] + w2[None, :]

    kin = reference_kinetic(g2, masses, e, (0.0, 0.0), DT)
    ref, t = entangled, 0.0
    for _ in range(STEPS):
        pair = ls2_step(pair, DT)
        ref = reference_strang(ref, DT, w_at(t), w_at(t + DT), kin)
        t = t + DT
    assert np.array_equal(pair.psi.samples, ref)


def test_strang_step_holds_one_grid_array():
    # the transforms run in place on the one output array; allocating
    # transforms peak at three grid arrays
    rng = np.random.default_rng(3)
    shape = (256, 256)
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    strang_step(samples, phase, phase, phase)    # numpy's FFT set-up
    tracemalloc.start()
    try:
        strang_step(samples, phase, phase, phase)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * samples.nbytes


def test_static_scalar_on_grid_is_read_only():
    grid, _ = line()
    v = Potentials.harmonic(SPRING).scalar_on_grid(grid, 0.0)
    assert not v.flags.writeable
    with pytest.raises(ValueError):
        v += 1.0


def test_raw_callable_scalar_is_sampled_at_each_time():
    grid, _ = line()
    pot = Potentials(1, scalar=breathing_v)
    assert pot.time_dependent
    first = pot.scalar_on_grid(grid, 0.0)
    later = pot.scalar_on_grid(grid, 1.0)
    assert np.array_equal(later, breathing_v(1.0, grid.axes))
    assert not np.array_equal(first, later)


# ---------------------------------------------------------------------------
# drive
# ---------------------------------------------------------------------------

def test_drive_samples_the_start_then_steps_and_samples():
    calls = []

    def step(state, i):
        calls.append(("step", state, i))
        return state + 1

    def sample(state, i):
        calls.append(("sample", state, i))
        if i == 2:
            return None
        return {"x": float(state), "odd": state if state % 2 else None,
                "never": None}

    final, series = drive(10, 3, step, sample)
    assert final == 13
    assert calls == [("sample", 10, 0), ("step", 10, 1), ("sample", 11, 1),
                     ("step", 11, 2), ("sample", 12, 2), ("step", 12, 3),
                     ("sample", 13, 3)]
    assert series["x"].dtype == np.float64
    assert series["x"].tolist() == [10.0, 11.0, 13.0]
    assert series["odd"].tolist() == [11, 13]
    assert series["never"].shape == (0,)


def test_drive_without_steps_samples_the_start_once():
    final, series = drive("s", 0, None, lambda state, i: {"i": i})
    assert final == "s"
    assert series["i"].tolist() == [0]


ROW_SEQUENCES = {
    "floats": [0.5 * i - 7.25 for i in range(100)] + [-0.0, 5e-324, 1e300],
    "numpy floats": [np.float64(i) / 3.0 for i in range(40)],
    "ints": list(range(-20, 20)) + [2**62 + 1],
    "bools": [i % 3 == 0 for i in range(40)],
    "0-d arrays": [np.array(i / 7.0) for i in range(40)],
    "1-d rows": [np.array([i, -i / 3.0]) for i in range(40)],
    # widened partway, through the fast path and after a resize
    "ints then floats": list(range(30)) + [2**62 + 1]
    + [i / 9.0 for i in range(30)],
    "bools then floats": [True, False] * 10 + [i / 9.0 for i in range(30)],
    "floats then complex": [i / 9.0 for i in range(30)] + [1.5 + 2j]
    + [i / 7.0 for i in range(10)],
    "float32 then floats": [np.float32(i) / 3 for i in range(20)]
    + [i / 9.0 for i in range(20)],
    "0-d then floats": [np.array(0.25)] + [i / 9.0 for i in range(30)],
}


@pytest.mark.parametrize("rows", ROW_SEQUENCES.values(), ids=ROW_SEQUENCES)
def test_row_block_has_the_bits_of_np_asarray(rows):
    block = RowBlock()
    for row in rows:
        block.append(row)
    got, want = block.block(), np.asarray(rows)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# loop guards of the wave runs: the step index and message of each abort
# ---------------------------------------------------------------------------

GUARD_PARAMS = PhysicalParams(omega0=1.0, charge=1.0)
GUARD_DT = 1e-3
T_BAD = 0.0175      # between step 17 (t = 0.017) and step 18 (t = 0.018)
GUARD_B = 16.0


def poisoned_v(t, coords):
    """A trap that turns NaN everywhere after T_BAD."""
    return np.nan * coords[0] if t > T_BAD else 0.1 * coords[0] ** 2


def guard_pilot():
    grid = Grid(128, 20.0)
    x = grid.axes[0]
    return Field(grid, np.exp(-x**2 / 4.0).astype(complex))


def guard_soliton(mode, center=0.0):
    grid = Grid(128, 20.0)
    u0 = gausson_init(GaussonParams(GUARD_B, F0, center=(center,)), grid,
                      GUARD_PARAMS.omega0)
    return SolitonState(u0, GUARD_PARAMS, GUARD_B, F0, coupling_mode=mode)


@pytest.mark.parametrize("store_every", (1, 7))
def test_evolve_schrodinger_names_the_non_finite_step(store_every):
    # the check runs before the snapshot's Madelung extraction, which
    # would fail on the NaN field with another message
    psi0, pots = guard_pilot(), Potentials(1, scalar=poisoned_v)
    with pytest.raises(NonFiniteFieldError,
                       match=r"^non-finite field after step 18$"):
        evolve_schrodinger(psi0, GUARD_PARAMS, pots, GUARD_DT, 40,
                           store_every=store_every,
                           history=FlowHistory(psi0.grid, GUARD_PARAMS, pots))


def test_run_classical_names_the_non_finite_step():
    with pytest.raises(NonFiniteFieldError,
                       match=r"^non-finite field after step 18$"):
        run_classical(guard_soliton("classical"),
                      Potentials(1, scalar=poisoned_v), GUARD_DT, 40,
                      store_every=7)


@pytest.mark.filterwarnings("ignore:soliton width")
def test_run_coupled_checks_the_pilot_before_extracting_it():
    # the shared V poisons both waves; the pilot's check comes first, and
    # before madelung_extract, whose own check names "derivative input"
    with pytest.raises(NonFiniteFieldError,
                       match=r"^non-finite field after step 18$"):
        run_coupled(guard_pilot(), guard_soliton("dbb"), GUARD_PARAMS,
                    Potentials(1, scalar=poisoned_v), GUARD_DT, 40,
                    store_every=7, harmony_every=5)


@pytest.mark.filterwarnings("ignore:soliton width")
def test_run_coupled_names_the_non_finite_soliton_step(monkeypatch):
    real = soliton.nls_step

    def poisoned(state, *args, **kwargs):
        out = real(state, *args, **kwargs)
        if out.u.time_tag > T_BAD:
            out.u.samples[3] = np.nan
        return out

    monkeypatch.setattr(soliton, "nls_step", poisoned)
    with pytest.raises(NonFiniteFieldError,
                       match=r"^non-finite field after step 18$"):
        run_coupled(guard_pilot(), guard_soliton("dbb"), GUARD_PARAMS,
                    Potentials.free(), GUARD_DT, 40, store_every=7,
                    harmony_every=5)


@pytest.mark.parametrize("which", (1, 2))
def test_run_pair_names_the_non_finite_soliton_step(monkeypatch, which):
    # the wave stays finite; soliton `which` turns NaN after T_BAD
    real, calls = pair.nls_step, []

    def poisoned(state, *args, **kwargs):
        out = real(state, *args, **kwargs)
        calls.append(out)
        if out.u.time_tag > T_BAD and len(calls) % 2 == which % 2:
            out.u.samples[3] = np.nan
        return out

    grid = Grid(128, 20.0)
    x = grid.axes[0]
    packet = np.exp(-x**2 / 4.0).astype(complex)
    wave = product_pair(packet, packet, Grid((128, 128), (20.0, 20.0)),
                        (1.0, 1.0), 1.0, (Potentials.free(),) * 2)
    state = PairState(u1=guard_soliton("dbb", -0.5),
                      u2=guard_soliton("dbb", 0.5), z=(-0.5, 0.5))
    monkeypatch.setattr(pair, "nls_step", poisoned)
    with pytest.raises(NonFiniteFieldError,
                       match=r"^non-finite field after step 18$"):
        run_pair(wave, [state], GUARD_DT, 40)


def test_run_classical_boundary_watchdog_names_its_step():
    with pytest.raises(BoundaryMassError) as info:
        run_classical(guard_soliton("classical", center=5.0),
                      Potentials.uniform_field(40.0), GUARD_DT, 400,
                      abort_on_boundary_mass=True)
    assert str(info.value) == ("boundary mass fraction 1.064e-08 exceeded "
                               "1e-08 at step 224")


def test_run_classical_boundary_watchdog_spares_the_initial_state():
    # the start already has mass at the seam; only stepped states count
    state = guard_soliton("classical", center=9.0)
    assert state.u.grid.boundary_mass_fraction(
        state.density, state.density.sum()) > 1e-8
    with pytest.raises(BoundaryMassError, match=r"at step 1$"):
        run_classical(state, Potentials.free(), GUARD_DT, 3,
                      abort_on_boundary_mass=True)


@pytest.mark.filterwarnings("ignore:invalid value")
def test_evolve_kg_counts_its_steps_from_zero():
    grid = Grid(128, 16 * np.pi)
    x = grid.axes[0]
    psi0 = Field(grid, np.exp(-x**2 / 16.0).astype(complex))
    pots = Potentials(1, scalar=poisoned_v)
    # leapfrog update n samples V at t = n dt: 0.02 is the first past T_BAD
    with pytest.raises(NonFiniteFieldError,
                       match=r"^non-finite field after step 4$"):
        evolve_kg(psi0, -1j * psi0.samples, GUARD_PARAMS, pots, 0.005, 10,
                  history=KGHistory(grid, GUARD_PARAMS, pots))
