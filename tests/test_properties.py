"""Property tests of config validation, sampling and the split steps (needs
Hypothesis).

- Any mapping given to `parse_config_dict` yields a `ScenarioConfig` or a
  `ConfigError`, never another exception.
- A float-valued key, or a [grid] entry, written as a YAML 1.1 exponent
  string ('4e1') parses as the float it spells.
- `Grid.sample_density` is deterministic for a fixed seed and draws inside
  the box.
- `ls_step`, `nls_step` and `ls2_step` keep the norm to round-off, and
  `ls_step(dt)` followed by `ls_step(-dt)` returns psi to round-off.
- `ls_step` and `nls_step` converge at their design order 2, observed at
  dt, dt/2 and dt/4 against a fine reference, on smooth 1D cases with a
  time-dependent V and A(t).
- `drive`'s columns have the bits, dtype and shape of `np.asarray` of the
  sampled values, for floats, ints, bools, a mix of ints and floats,
  tuples and arrays, with sparse and all-None columns.
- `strang_step` gives the bits of the allocating reference step in
  `strang_reference.py` on 1D and 2D inputs, with a constant or a callable
  end phase, and leaves its input unchanged.
- `soliton_center` and `second_central_moments` give the bits of offsets
  wrapped by np.mod, for a previous center anywhere, edges included.
- The zero-field shortcuts (`Potentials.zero_field`) of `electric_field`
  and of the soliton runs write the bytes of the general path.
- The E of the named constructors is evaluated once per grid and gives the
  per-step bits of the soliton's mean force; a raw scalar gradient or
  vector rate is evaluated at every step.
- With V = 0 `lkg_step` keeps its discrete charge Im<psi^{n-1}, psi^n> to
  round-off over 1000 steps.
- A parsed config asks for a whole number of steps in [1, MAX_STEPS].
- The CLI exit code follows from how a scenario runner ends: 1 with a
  manifest naming the error for any `SolidynError` it raises (a
  `ConfigError` included, since the parser alone checks a config), 3 when
  it returns a failed check and 0 when it returns a passed one, never a
  traceback.
- Criterion 12 over drawn grids, packets, starts, partner nodes, steps
  and particle-1 potentials: particle 1 of a product pair with a uniform
  partner on a grid node keeps the bits of the 1D coupled run, wherever
  the lookup at that node is exact (one node where it is not is pinned).
- A constant shift of the potential, V -> V + c, moves the pilot's
  guidance velocity, q and a guided single-start path by no more than a
  bound derived from round-off: the shift is a global phase.
- A constant vector potential A -> A + c with Psi -> exp(i e c x) Psi,
  e c a grid wavenumber, moves the guidance velocity, q and one
  `ls_step` (up to the gauge factor) by no more than a bound derived from
  round-off: the guidance law is gauge covariant.
- A boost Psi -> exp(i k x) Psi of a free band-limited wave, k a grid
  wavenumber, shifts the guidance velocity by k / w0 and translates the
  density by k t / w0, compared after steps that move it by whole cells,
  within a bound derived from round-off: the free wave is Galilean
  covariant.
- Two in-process runs of a small valid config of any kind, with the same
  seed, end with the same exit code and write the same bytes to every
  output file.
"""

import contextlib
import copy
import dataclasses
import io
import shutil
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml

pytest.importorskip("hypothesis")

from hypothesis import (assume, given, settings,  # noqa: E402
                        strategies as st)

from solidyn import cli, errors  # noqa: E402
from solidyn.errors import ConfigError  # noqa: E402
from solidyn.grids import Field, Grid  # noqa: E402
from solidyn.kleingordon import CFL_RATIO, lkg_step  # noqa: E402
from solidyn.pair import _STEP_FACTORS, ls2_step, product_pair  # noqa: E402
from solidyn.potentials import PhysicalParams, Potentials  # noqa: E402
from solidyn.scenarios import (KINDS, MAX_STEPS,  # noqa: E402
                               ScenarioConfig, parse_config_dict)
from solidyn.schrodinger import (evolve_schrodinger, ls_step,  # noqa: E402
                                 madelung_extract)
from solidyn.soliton import (GaussonParams, SolitonState,  # noqa: E402
                             _density_mean_force, _grid_positions,
                             classical_trajectory, gausson_init, nls_step,
                             soliton_center)
from solidyn.stepping import NODE_MASK_REL, drive, strang_step  # noqa: E402
from solidyn.trajectories import FlowHistory, integrate_flow  # noqa: E402
from conftest import single_and_product_runs  # noqa: E402
from oracle_reference import (second_central_moments,  # noqa: E402
                              symmetrized_pair)
from strang_reference import reference_strang_step  # noqa: E402

# ---------------------------------------------------------------------------
# parse_config_dict
# ---------------------------------------------------------------------------

SECTION_KEYS = {
    "physics": ["omega0", "charge", "b", "f0"],
    "grid": ["points", "length"],
    "potential": ["kind", "e_field", "spring"],
    "initial": sorted({key for spec in KINDS.values()
                       for key in spec.initial}),
    "run": ["dt", "t_final", "snapshot_every"],
    "output": ["directory"],
}

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-10**400, 10**400), st.floats(),
    st.floats(1e-300, 1e300), st.text(max_size=6),
    st.sampled_from(["none", "harmonic", "uniform_e", "single", "counter",
                     "product", "momentum_correlated", "2e-3", "nan",
                     "1e999", "-1"]))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
odd_keys = st.one_of(st.text(max_size=6), st.integers(), st.booleans(),
                     st.none(), st.floats())
# numeric entries, integers beyond the float range included
numbers = st.one_of(st.integers(-10**400, 10**400), st.floats(),
                    st.lists(st.integers(-10**400, 10**400) | st.floats(),
                             max_size=3))


def section(name):
    known = st.fixed_dictionaries({}, optional={
        key: numbers | values for key in SECTION_KEYS[name]})
    extra = st.dictionaries(odd_keys, values, max_size=1)
    return st.tuples(known, extra).map(
        lambda parts: {**parts[1], **parts[0]}) | values


def mostly(usual, other):
    """`usual` for most draws (pick 0-8 of 0-9), else `other`."""
    return st.integers(0, 9).flatmap(
        lambda pick: other if pick == 9 else usual)


# a known scenario kind and a valid seed most of the time, so that
# validation gets past the first keys; sometimes any value, or no scenario
configs = st.tuples(
    st.fixed_dictionaries(
        {"scenario": mostly(st.sampled_from(list(KINDS)), values)},
        optional={"seed": mostly(st.integers(0, 2**64), values),
                  **{name: section(name) for name in SECTION_KEYS}}),
    st.dictionaries(odd_keys, values, max_size=2),
    mostly(st.just(True), st.just(False)),
).map(lambda parts: {key: value
                     for key, value in {**parts[1], **parts[0]}.items()
                     if parts[2] or key != "scenario"})


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(configs)
def test_parse_config_dict_yields_config_or_config_error(raw):
    try:
        cfg = parse_config_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)
    assert 1 <= cfg.steps <= MAX_STEPS


# the keys of every kind that take a float ([grid].points cuts it to an
# int); [initial] adds the kind's own
FLOAT_KEYS = [("physics", key) for key in ("omega0", "charge", "b", "f0")] \
    + [("potential", "e_field"), ("potential", "spring"), ("run", "dt"),
       ("run", "t_final"), ("grid", "points"), ("grid", "length")]


@st.composite
def exponent_keys(draw):
    """A kind, one of its float-valued keys, and a number for it, written
    as the exponent string (such as '4e1') that YAML 1.1 reads as a string
    and as the float it spells; for [grid], sometimes a list of them, one
    per axis."""
    kind = draw(st.sampled_from(list(KINDS)))
    spec = KINDS[kind]
    keys = FLOAT_KEYS + [("initial", key)
                         for key, default in spec.initial.items()
                         if default is None or type(default) is float]
    section, key = draw(st.sampled_from(keys))
    text = f"{draw(st.integers(-999, 999))}e{draw(st.integers(-4, 4))}"
    number = float(text)
    if section == "grid":
        axes = len(spec.grid[0]) if spec.grid else 1
        if axes > 1 or draw(st.booleans()):
            text, number = [text] * axes, [number] * axes
    return kind, section, key, text, number


def parse_as_yaml(config):
    """`parse_config_dict` of `config` written out and read back as YAML,
    or the text of the ConfigError it raises."""
    try:
        return parse_config_dict(yaml.safe_load(yaml.safe_dump(config)))
    except ConfigError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(exponent_keys())
def test_exponent_strings_parse_as_their_floats(case):
    kind, section, key, text, number = case
    as_text = {"scenario": kind, section: {key: text}}
    assert yaml.safe_load(yaml.safe_dump(as_text))[section][key] == text
    assert parse_as_yaml(as_text) == parse_as_yaml(
        {"scenario": kind, section: {key: number}})


# ---------------------------------------------------------------------------
# sample_density
# ---------------------------------------------------------------------------

@st.composite
def grids(draw):
    dim = draw(st.sampled_from([1, 2]))
    points = tuple(draw(st.integers(2, 40)) for _ in range(dim))
    lengths = tuple(draw(st.floats(0.1, 100.0)) for _ in range(dim))
    return Grid(points, lengths)


@settings(max_examples=200, deadline=None)
@given(grids(), st.integers(0, 2**32 - 1), st.integers(1, 300),
       st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_sample_density_deterministic_for_a_seed(grid, field_seed, count,
                                                 seed, zero_frac):
    rng = np.random.default_rng(field_seed)
    density = rng.random(grid.shape)
    density[rng.random(grid.shape) < zero_frac] = 0.0
    density.flat[rng.integers(density.size)] = 1.0     # never all zero
    first = grid.sample_density(density, count, seed)
    again = grid.sample_density(density.copy(), count, seed)
    assert first.shape == (count, grid.dim)
    assert first.tobytes() == again.tobytes()
    assert np.all(grid.contains(first))


# ---------------------------------------------------------------------------
# split steps keep the norm
# ---------------------------------------------------------------------------

POTENTIALS = {
    "free": lambda: Potentials.free(),
    "harmonic": lambda: Potentials.harmonic(0.3),
    "uniform_e": lambda: Potentials.uniform_field(0.2),
}


@st.composite
def waves(draw):
    n = draw(st.sampled_from([16, 48, 64, 100, 256]))
    grid = Grid(n, draw(st.floats(2.0, 60.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = grid.axes[0]
    width = draw(st.floats(0.05, 0.5)) * grid.lengths[0]
    envelope = np.exp(-x**2 / (4 * width**2))
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    mix = draw(st.floats(0.0, 1.0))
    return Field(grid, (1.0 - mix) * envelope.astype(complex) + mix * noise)


def norm_drift(before, after):
    return abs(after.norm() - before.norm()) / before.norm()


@settings(max_examples=100, deadline=None)
@given(waves(), st.sampled_from(sorted(POTENTIALS)),
       st.floats(1e-4, 0.1), st.floats(0.2, 3.0), st.integers(1, 20))
def test_ls_step_keeps_norm(psi, potential, dt, omega0, steps):
    params = PhysicalParams(omega0=omega0, charge=1.0)
    pots = POTENTIALS[potential]()
    out = psi
    for _ in range(steps):
        out = ls_step(out, params, pots, dt)
    assert norm_drift(psi, out) < 1e-12 * steps


@settings(max_examples=100, deadline=None)
@given(waves(), st.sampled_from(sorted(POTENTIALS)),
       st.floats(1e-4, 0.05), st.floats(0.1, 100.0), st.floats(0.2, 5.0),
       st.integers(1, 20))
def test_nls_step_keeps_norm(u, potential, dt, b, f0, steps):
    params = PhysicalParams(omega0=1.0, charge=1.0)
    pots = POTENTIALS[potential]()
    state = SolitonState(u, params, b, f0)
    for _ in range(steps):
        state = nls_step(state, pots, dt)
    assert norm_drift(u, state.u) < 1e-12 * steps


@st.composite
def pair_waves(draw):
    """A product or an entangled pair wave on a small square 2D grid, each
    axis with a free or a harmonic potential."""
    n = draw(st.sampled_from([8, 16, 24, 32, 48]))
    box = draw(st.floats(2.0, 40.0))
    grid = Grid((n, n), (box, box))
    line = Grid(n, box)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = line.axes[0]

    def packet():
        width = draw(st.floats(0.05, 0.5)) * box
        center = draw(st.floats(-0.25, 0.25)) * box
        envelope = np.exp(-(x - center) ** 2 / (4 * width**2)
                          + 1j * draw(st.floats(-3.0, 3.0)) * x)
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        mix = draw(st.floats(0.0, 1.0))
        return (1.0 - mix) * envelope + mix * noise

    build = draw(st.sampled_from([product_pair, symmetrized_pair]))
    masses = (draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0)))
    axis_potentials = tuple(
        draw(st.sampled_from([Potentials.free(1), Potentials.harmonic(0.3)]))
        for _ in range(2))
    return build(packet(), packet(), grid, masses, 1.0, axis_potentials)


@settings(max_examples=100, deadline=None)
@given(pair_waves(), st.floats(1e-4, 0.1), st.integers(1, 20))
def test_ls2_step_keeps_norm(pair, dt, steps):
    out = pair
    for _ in range(steps):
        out = ls2_step(out, dt)
    assert norm_drift(pair.psi, out.psi) < 1e-12 * steps


# one kind of value per column: every row of a column has one shape
ROW_VALUES = {
    "float": lambda width: st.floats(),
    "int": lambda width: st.integers(-2**63, 2**63 - 1),
    "bool": lambda width: st.booleans(),
    "int_or_float": lambda width: st.integers(-2**53, 2**53) | st.floats(),
    "tuple": lambda width: st.tuples(*[st.floats()] * width),
    "array": lambda width: st.lists(st.floats(), min_size=width,
                                    max_size=width).map(np.array),
}


@st.composite
def drive_samples(draw):
    """The samples of a run of 0-40 steps: per step None or a dict naming
    every column, with None for a quantity not recorded at that step;
    one column is never recorded."""
    steps = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from(sorted(ROW_VALUES)), min_size=1,
                          max_size=4))
    values = {f"{kind}{n}": ROW_VALUES[kind](draw(st.integers(1, 3)))
              for n, kind in enumerate(kinds)}
    sparse = {name: draw(st.floats(0.0, 1.0)) for name in values}

    def row():
        return {"never": None, **{
            name: None if draw(st.floats(0.0, 1.0)) < sparse[name]
            else draw(value) for name, value in values.items()}}

    return [draw(st.none() | st.builds(row)) for _ in range(steps + 1)]


@settings(max_examples=200, deadline=None)
@given(drive_samples())
def test_drive_columns_are_np_asarray_of_the_sampled_values(samples):
    steps = len(samples) - 1
    final, series = drive(0, steps, lambda state, i: state + 1,
                          lambda state, i: samples[i])
    assert final == steps
    names = {name for row in samples if row for name in row}
    assert set(series) == names
    for name in names:
        want = np.asarray([row[name] for row in samples
                           if row and row[name] is not None])
        got = series[name]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    if names:
        assert series["never"].shape == (0,)


@st.composite
def strang_inputs(draw):
    """Complex samples with unit-modulus start, end and kinetic phases."""
    shape = draw(st.sampled_from([(14,), (16,), (48,), (100,), (255,),
                                  (256,), (512,), (2048,), (8, 8), (16, 12),
                                  (15, 9), (32, 32)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def phase():
        return np.exp(1j * rng.uniform(-np.pi, np.pi, shape))

    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return samples, phase(), phase(), phase()


@settings(max_examples=100, deadline=None)
@given(strang_inputs(), st.booleans(), st.floats(1e-4, 0.1))
def test_strang_step_gives_the_reference_bits_and_keeps_its_input(
        inputs, nonlinear, dt):
    # a 1D step runs fft/ifft, a 2D one fftn/ifftn; both give the bits of
    # the allocating fftn/ifftn reference
    samples, half_start, half_end, kinetic = inputs
    if nonlinear:     # a phase read from the post-kinetic samples
        def half_end(out):
            return np.exp(-0.5j * dt * np.log(np.abs(out) ** 2 + 1e-30))
    before = samples.copy()
    want = reference_strang_step(samples, half_start, half_end, kinetic)
    got = strang_step(samples, half_start, half_end, kinetic)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert samples.tobytes() == before.tobytes()


@settings(max_examples=100, deadline=None)
@given(waves(), st.sampled_from(sorted(POTENTIALS) + ["vector_ramp"]),
       st.floats(1e-4, 0.1), st.floats(0.2, 3.0), st.floats(-10.0, 10.0))
def test_ls_step_is_time_reversible(psi, potential, dt, omega0, t0):
    # the Strang step is symmetric: stepping back by -dt undoes it
    params = PhysicalParams(omega0=omega0, charge=1.0)
    pots = (Potentials.vector_ramp(0.3) if potential == "vector_ramp"
            else POTENTIALS[potential]())
    psi = Field(psi.grid, psi.samples, t0)
    back = ls_step(ls_step(psi, params, pots, dt), params, pots, -dt)
    scale = np.max(np.abs(psi.samples))
    assert np.max(np.abs(back.samples - psi.samples)) < 1e-12 * scale
    assert back.time_tag == pytest.approx(t0, abs=1e-12)


# ---------------------------------------------------------------------------
# the wrap-aware center and spread keep the bits of np.mod
# ---------------------------------------------------------------------------

def wrapped_reference(u, rho, center):
    """The center and the per-axis variance about `center`, with every
    offset wrapped by np.mod over the full coordinate meshes."""
    grid = u.grid
    c = float(grid.integrate(rho))
    xbar, spread = np.empty(grid.dim), np.empty(grid.dim)
    for a, mesh in enumerate(grid.meshes()):
        box = grid.lengths[a]
        delta = np.mod(mesh - center[a] + 0.5 * box, box) - 0.5 * box
        xbar[a] = center[a] + grid.integrate(rho * delta) / c
        spread[a] = grid.integrate(rho * delta**2) / grid.integrate(rho)
    return xbar, c, spread


def previous_centers(length):
    """Points inside the box, outside it, beyond +-L, and the edges: +-0.0,
    +-L/2, +-L and their neighbouring floats."""
    edges = [0.0, 0.5 * length, length, 2.0 * length]
    edges += [np.nextafter(e, np.inf) for e in edges] \
        + [np.nextafter(e, -np.inf) for e in edges]
    return st.one_of(
        st.sampled_from(edges).flatmap(lambda e: st.sampled_from([e, -e])),
        st.floats(-0.5 * length, 0.5 * length),
        st.floats(-1.5 * length, 1.5 * length),
        st.floats(-1e3 * length, 1e3 * length))


@st.composite
def center_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    points = tuple(draw(st.integers(1, 70)) for _ in range(dim))
    lengths = tuple(draw(st.floats(0.01, 1e4)) for _ in range(dim))
    grid = Grid(points, lengths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.standard_normal(grid.shape) + 0j
    samples.flat[0] = 1.0                               # never all zero
    previous = np.array([draw(previous_centers(L)) for L in lengths])
    return Field(grid, samples), previous


@settings(max_examples=400, deadline=None)
@given(center_cases())
def test_soliton_center_keeps_the_bits_of_np_mod(case):
    u, previous = case
    rho = u.density()
    xbar, c = soliton_center(u.grid, rho, previous, rho.sum())
    want_xbar, want_c, want_spread = wrapped_reference(u, rho, previous)
    assert xbar.tobytes() == want_xbar.tobytes() and c == want_c
    spread = second_central_moments(u, previous)
    assert spread.tobytes() == want_spread.tobytes()


# ---------------------------------------------------------------------------
# zero-field shortcuts keep the general path's bytes
# ---------------------------------------------------------------------------

def general_zero(dim):
    """A potential whose E is zero but that takes the general path (a
    scalar gradient is given, so `zero_field` is False)."""
    return Potentials(dim, scalar_gradient=lambda t, coords: (0.0,) * dim)


def state_mean_force(state, potentials, grid_positions):
    """`_density_mean_force` of the density of `state` at its time."""
    return _density_mean_force(state.u.grid, state.u.time_tag, state.density,
                               state.norm, state.params.charge, potentials,
                               grid_positions)


charges = st.floats(0.0, 5.0).flatmap(
    lambda e: st.sampled_from([e, -e]))


@st.composite
def soliton_fields(draw):
    dim = draw(st.sampled_from([1, 2]))
    points = tuple(draw(st.sampled_from([8, 16, 33, 64])) for _ in range(dim))
    grid = Grid(points, tuple(draw(st.floats(2.0, 40.0)) for _ in range(dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.standard_normal(grid.shape) \
        + 1j * rng.standard_normal(grid.shape)
    samples[rng.random(grid.shape) < draw(st.floats(0.0, 0.9))] = 0.0
    samples.flat[0] = 1.0                               # never all zero
    return Field(grid, samples, draw(st.floats(-10.0, 10.0)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.floats(-1e3, 1e3),
       st.integers(0, 2**32 - 1))
def test_zero_field_electric_field_keeps_the_general_bits(dim, n, t, seed):
    positions = np.random.default_rng(seed).uniform(-10.0, 10.0, (n, dim))
    free = Potentials.free(dim)

    def refuse(*args):
        raise AssertionError("a zero field calls no component function")

    free._scalar_gradient = free._vector_rate = refuse
    got = free.electric_field(t, positions)
    want = general_zero(dim).electric_field(t, positions)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(soliton_fields(), charges)
def test_zero_field_mean_force_keeps_the_general_bits(u, charge):
    dim = u.grid.dim
    state = SolitonState(u, PhysicalParams(1.0, charge), 1.0, 1.0)
    pos = _grid_positions(u.grid)
    assert Potentials.free(dim).zero_field
    assert not general_zero(dim).zero_field
    got = state_mean_force(state, Potentials.free(dim), pos)
    want = state_mean_force(state, general_zero(dim), pos)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), charges, st.floats(0.2, 3.0),
       st.integers(0, 2**32 - 1), st.integers(1, 30))
def test_zero_field_classical_trajectory_keeps_the_general_bits(
        dim, charge, omega0, seed, n):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(1e-3, 0.1, n)) - rng.uniform(-5.0, 5.0)
    # signed-zero starts show the sign of a zero acceleration
    z0, v0 = (rng.standard_normal(dim) * rng.choice([0.0, 1.0], dim)
              for _ in range(2))
    params = PhysicalParams(omega0, charge)
    got = classical_trajectory(times, z0, v0, params, Potentials.free(dim))
    want = classical_trajectory(times, z0, v0, params, general_zero(dim))
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# a static E is evaluated once per grid and keeps the per-step bits
# ---------------------------------------------------------------------------

def per_step_mean_force(state, potentials, grid_positions):
    """`_density_mean_force` with E evaluated at the state's time, as each
    step evaluated it before E on the grid was memoized."""
    grid = state.u.grid
    efield = potentials.electric_field(state.u.time_tag, grid_positions)
    out = np.empty(grid.dim)
    for a in range(grid.dim):
        out[a] = grid.integrate(state.density
                                * efield[:, a].reshape(grid.shape)) \
            / state.norm
    return state.params.charge * out


STATIC_FIELDS = {
    "uniform_field": lambda dim: Potentials.uniform_field(0.7, dim),
    "harmonic": lambda dim: Potentials.harmonic(0.3, dim),
    "vector_ramp": lambda dim: Potentials.vector_ramp(0.4, dim),
}


def mean_forces(u, potentials, params, times, force=state_mean_force):
    """The bytes of force(state, potentials, grid positions) for the
    soliton field u at each time."""
    pos = _grid_positions(u.grid)
    return [force(SolitonState(Field(u.grid, u.samples, t), params, 1.0, 1.0),
                  potentials, pos).tobytes() for t in times]


@settings(max_examples=100, deadline=None)
@given(soliton_fields(), charges, st.sampled_from(sorted(STATIC_FIELDS)),
       st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
def test_static_field_is_evaluated_once_with_the_per_step_bits(
        u, charge, kind, times):
    dim = u.grid.dim
    pots = STATIC_FIELDS[kind](dim)
    calls = []
    field = pots.electric_field
    pots.electric_field = lambda t, pos: calls.append(t) or field(t, pos)
    params = PhysicalParams(1.0, charge)
    got = mean_forces(u, pots, params, times)
    assert len(calls) == 1
    assert got == mean_forces(u, STATIC_FIELDS[kind](dim), params, times,
                              per_step_mean_force)


@settings(max_examples=100, deadline=None)
@given(soliton_fields(), st.lists(st.floats(-10.0, 10.0), min_size=2,
                                  max_size=4, unique=True))
def test_raw_field_callables_are_evaluated_at_each_step(u, times):
    # a raw scalar gradient or vector rate may read t, so its E is not
    # memoized: a memo would repeat the first time's force
    dim = u.grid.dim
    params = PhysicalParams(1.0, 1.0)
    for pots in (
            Potentials(dim, scalar_gradient=lambda t, coords: tuple(
                (1.0 + t) * c for c in coords)),
            Potentials(dim, vector_rate=lambda t: np.full(dim, 0.1 * t))):
        assert mean_forces(u, pots, params, times) == mean_forces(
            u, pots, params, times, per_step_mean_force)


# ---------------------------------------------------------------------------
# the Strang steps converge at second order
# ---------------------------------------------------------------------------

# Every case runs to ORDER_T in ORDER_STEPS, 2 and 4 times as many steps,
# against a reference of 64 times as many.  Over 300 drawn cases of the
# ranges below, both steps read observed orders in [1.99, 2.01].
ORDER_T = 0.5
ORDER_STEPS = 4


@st.composite
def strang_cases(draw):
    """A smooth 1D case: a grid, a periodic V that oscillates in time (a
    raw callable) beside the A(t) = -E t of `Potentials.vector_ramp`, a
    mass and a packet centre.  With a static V, taking the second half
    phase at t would not show."""
    n = draw(st.sampled_from([48, 64]))
    length = draw(st.floats(14.0, 20.0))
    strength, frequency = draw(st.floats(0.5, 2.0)), draw(st.floats(1.0, 4.0))
    shift = draw(st.floats(0.0, 2 * np.pi))

    def scalar(t, coords):
        return (strength * np.cos(2 * np.pi * coords[0] / length + shift)
                * np.cos(frequency * t))

    ramp = Potentials.vector_ramp(draw(st.floats(0.3, 1.0))
                                  * draw(st.sampled_from([-1.0, 1.0])))
    pots = Potentials(1, scalar=scalar, vector=ramp.vector)
    params = PhysicalParams(omega0=draw(st.floats(0.8, 2.0)), charge=1.0)
    return Grid(n, length), pots, params, draw(st.floats(-1.0, 1.0))


def observed_orders(run):
    """log2 of the ratios of the errors at dt, dt/2 and dt/4, each the L2
    distance of `run(steps)`, the samples at ORDER_T, from the run at
    dt/64."""
    reference = run(64 * ORDER_STEPS)
    errors = [np.linalg.norm(run(m * ORDER_STEPS) - reference)
              for m in (1, 2, 4)]
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


@settings(max_examples=10, deadline=None)
@given(strang_cases(), st.floats(0.6, 1.2), st.floats(-1.0, 1.0))
def test_ls_step_converges_at_second_order(case, sigma, wavenumber):
    # the second half phase at t, or the kinetic A at t, drops it to 1
    grid, pots, params, centre = case
    x = grid.axes[0]
    psi0 = Field(grid, np.exp(-(x - centre) ** 2 / (4 * sigma**2)
                              + 1j * wavenumber * x))

    def run(steps):
        psi = psi0
        for _ in range(steps):
            psi = ls_step(psi, params, pots, ORDER_T / steps)
        return psi.samples

    orders = observed_orders(run)
    assert all(1.9 <= p <= 2.1 for p in orders), orders


@settings(max_examples=10, deadline=None)
@given(strang_cases(), st.floats(1.5, 3.0), st.floats(-0.5, 0.5))
def test_nls_step_converges_at_second_order(case, b, velocity):
    grid, pots, params, centre = case
    u0 = gausson_init(GaussonParams(b, 1.0, center=(centre,),
                                    velocity=(velocity,)),
                      grid, params.omega0)

    def run(steps):
        state = SolitonState(u0, params, b, 1.0)
        for _ in range(steps):
            state = nls_step(state, pots, ORDER_T / steps)
        return state.u.samples

    orders = observed_orders(run)
    assert all(1.9 <= p <= 2.1 for p in orders), orders


# ---------------------------------------------------------------------------
# the leapfrog keeps its discrete charge
# ---------------------------------------------------------------------------

# Round-off floor of the discrete charge's drift, in ulps of
# ||psi^{n-1}|| ||psi^n||: over 1000 steps from the lower corner of the
# ranges below (n = 16 ... 128, kmax = 0 or 1, 200 seeds) the drift read at
# most 20.1 such ulps.
CHARGE_ROUNDOFF_ULPS = 64


def discrete_charge_drift(n, length, omega0, dt_share, seed, kmax):
    """The largest change of Im<psi^{n-1}, psi^n> over 1000 free leapfrog
    steps, 1e-12 of the initial charge, and the round-off floor."""
    grid = Grid(n, length)
    energy = np.sqrt(grid.wavenumbers[0] ** 2 + omega0**2)
    # inside the CFL bound, and stable for every mode round-off may fill
    dt = dt_share * min(CFL_RATIO * grid.spacing[0], 1.8 / np.max(energy))
    rng = np.random.default_rng(seed)
    # band-limited random positive-frequency levels psi(-dt) and psi(0):
    # the charge is about sin(E dt) ||psi||^2, which a small E dt makes
    # small against the round-off of the inner product, ||psi||^2 ulps
    band = np.abs(np.fft.fftfreq(n, 1.0 / n)) <= kmax
    coeffs = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * band
    prev = np.fft.ifft(coeffs * np.exp(1j * energy * dt))
    psi = Field(grid, np.fft.ifft(coeffs))
    params, free = PhysicalParams(omega0, 1.0), Potentials.free()
    charge0 = np.vdot(prev, psi.samples).imag
    floor = (CHARGE_ROUNDOFF_ULPS * np.finfo(float).eps
             * np.linalg.norm(prev) * np.linalg.norm(psi.samples))
    worst = 0.0
    for _ in range(1000):
        prev, psi = psi.samples, lkg_step(prev, psi, params, free, dt)
        worst = max(worst, abs(np.vdot(prev, psi.samples).imag - charge0))
    return worst, 1e-12 * abs(charge0), floor


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([16, 32, 64, 128]), st.floats(4.0, 60.0),
       st.floats(0.5, 3.0), st.floats(0.25, 1.0), st.integers(0, 2**32 - 1),
       st.data())
def test_lkg_step_keeps_its_discrete_charge(n, length, omega0, dt_share,
                                            seed, data):
    # with V = 0 the leapfrog conserves Im<psi^{n-1}, psi^n> exactly in
    # exact arithmetic, so over 1000 steps it changes by round-off only.
    # A harmonic V breaks this conservation law, so this test uses V = 0
    # only.
    kmax = data.draw(st.integers(0, n // 2 - 1))
    worst, relative, floor = discrete_charge_drift(n, length, omega0,
                                                   dt_share, seed, kmax)
    assert worst <= max(relative, floor)


def test_lkg_step_keeps_a_small_discrete_charge_to_round_off():
    # a single slow mode with a small step: the charge (-2.83e-5) is
    # 2e-3 of ||psi^{n-1}|| ||psi^n||, so 1e-12 of it (2.83e-17) sits
    # below the drift's round-off (3.12e-17, 9.7 ulps of that product)
    worst, relative, floor = discrete_charge_drift(128, 4.0, 0.5, 0.25, 2, 0)
    assert relative < worst <= floor


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------

ERROR_CLASSES = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.SolidynError)),
    key=lambda cls: cls.__name__)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ERROR_CLASSES) | st.booleans(),
       st.text("abcXYZ 019_-.", min_size=1, max_size=20))
def test_cli_exit_code_follows_from_the_error_class(outcome, message):
    def runner(cfg, snapshot):
        yield from ()
        if isinstance(outcome, bool):
            return [("stub", float(outcome), 0.5, ">")], ()
        if issubclass(outcome, errors.TrajectoryAbortError):
            raise outcome(message, 0.5)
        raise outcome(message)

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        config = Path(tmp) / "run.yaml"
        config.write_text(f"scenario: free_gausson\n"
                          f"output:\n  directory: {out}\n")
        echo = io.StringIO()
        spec = dataclasses.replace(KINDS["free_gausson"], runner=runner)
        with mock.patch.dict(KINDS, {"free_gausson": spec}), \
                contextlib.redirect_stdout(echo), \
                contextlib.redirect_stderr(echo):
            code = cli.main(["run", str(config)])
        manifest = out / "manifest.txt"
        if outcome is True:
            assert code == 0
        elif outcome is False:
            assert code == 3
        else:
            assert code == 1
            assert f"error: {message}\n" in manifest.read_text()
        assert manifest.exists() == (code == 1)
        assert "Traceback" not in echo.getvalue()


# ---------------------------------------------------------------------------
# criterion 12: a product pair's particle 1 has the bits of the 1D run
# ---------------------------------------------------------------------------

PARTICLE_1_POTENTIALS = {
    "free": lambda strength: Potentials.free(1),
    "harmonic": lambda strength: Potentials.harmonic(abs(strength)),
    "uniform_e": Potentials.uniform_field,
}


def node_lookup_is_exact(grid, node):
    """Whether the point stencil at node `node` of a 1D grid reads that
    sample alone: weights (0, 1, 0, 0) on it."""
    weights, indices = grid._axis_cell(float(grid.axes[0][node]), 0)
    return indices[1] == node and tuple(weights) == (0.0, 1.0, 0.0, 0.0)


def assert_particle_1_has_the_single_bits(single, run):
    assert np.array_equal(run.z[:, 0], single.reference.positions[:, 0, 0])
    assert np.array_equal(run.centers1, single.centers[:, 0])
    assert np.array_equal(run.final_state.u1.u.samples,
                          single.final_state.u.samples)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([32, 64, 128]), st.floats(1.0, 100.0),
       st.floats(1.0, 4.0), st.floats(0.05, 0.15), st.floats(-0.1, 0.1),
       st.floats(-1.0, 1.0), st.data(), st.floats(1e-4, 5e-3),
       st.integers(1, 30), st.sampled_from(sorted(PARTICLE_1_POTENTIALS)),
       st.floats(-2.0, 2.0))
def test_a_product_pair_moves_particle_1_with_the_single_run_bits(
        n, b, box_share, width_share, center_share, start_share, data, dt,
        steps, kind, strength):
    # the conftest construction of criterion 12 over drawn grids, packets,
    # starts, partner nodes, steps and particle-1 potentials
    length = 10.0 / np.sqrt(b) * box_share       # at least 10/sqrt(b)
    sigma, center = width_share * length, center_share * length
    node = data.draw(st.integers(0, n - 1))
    # the partner's conditional slice is exact only where the lookup at
    # its node is (Grid(64, 23.7), node 1, breaks the identity: see the
    # pinned case below); item 6 of the ROADMAP makes every node exact
    assume(node_lookup_is_exact(Grid(n, length), node))
    x = Grid(n, length).axes[0]
    psi1 = np.exp(-((x - center) ** 2) / (4 * sigma**2)).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # the scale-separation warning
        single, run, _ = single_and_product_runs(
            n, length, b, psi1, center + start_share * sigma, node, dt,
            steps, PARTICLE_1_POTENTIALS[kind](strength))
    # `ls2_step` keeps its factors per configuration grid, and each draw
    # makes a new one: without this a shrinking run grows by hundreds of MB
    _STEP_FACTORS.clear()
    assert_particle_1_has_the_single_bits(single, run)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="node 1 of Grid(64, 23.7) interpolates off its "
                   "own sample, so the partner's slice is not exact")
def test_a_product_pair_on_an_inexact_partner_node_keeps_the_bits():
    x = Grid(64, 23.7).axes[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        single, run, _ = single_and_product_runs(
            64, 23.7, 25.0, np.exp(-x**2 / 4).astype(complex), -0.5, 1,
            1e-3, 10, Potentials.free(1))
    assert_particle_1_has_the_single_bits(single, run)


# ---------------------------------------------------------------------------
# a constant shift of the potential changes the pilot by a global phase
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
LAGRANGE_SUM = 1.25     # largest sum of |weights| of the 4-point cubic
LAGRANGE_SLOPE = 7 / 3  # largest sum of |d weight / ds| over the cell

SCALARS = {
    "free": np.zeros_like,
    "harmonic": lambda x: 0.15 * x**2,
    "ramp": lambda x: -0.2 * x,
}


def pilot_and_path(psi0, params, scalar, dt, steps, z0):
    """Every Madelung bundle of `steps` pilot steps under the raw scalar
    potential `scalar(t, coords)`, and the guidance path from z0."""
    pots = Potentials(1, scalar=scalar)
    history = FlowHistory(psi0.grid, params, pots)
    bundles = []
    history.readers.append(bundles.append)
    path = integrate_flow(history, [z0])
    evolve_schrodinger(psi0, params, pots, dt, steps, history=history)
    return bundles, path.finish().positions[:, 0, 0]


def shift_bounds(psi0, omega0, w_max, dt, steps, one, other):
    """Round-off bounds on |v_c - v| and |q_c - q| at each grid point, for
    the bundles `one` and `other` of two runs whose potentials differ by a
    constant (unit charge, A = 0, N a power of two).

    In exact arithmetic the shifted wave is the unshifted one times
    exp(-i c t): the half phases differ by the factor exp(-i c dt / 2) and
    every other operation is linear.  So the fields differ by round-off
    alone.  With u = eps / 2, per step and relative to ||psi||_2:
    - each half phase cos + i sin of -(dt / 2) W, W = w0 + V (+ c),
      |W| <= w_max: W and the angle carry 6u |theta| <= 2 eps dt w_max,
      cos and sin 1 ulp each, the product with psi 2 eps; twice per step;
    - each of the forward and inverse FFT, radix 2 over log2 N levels,
      (log2 N) (mu + gamma_4 (sqrt 2 + mu)) <= 4 eps log2 N (Higham,
      Accuracy and Stability, Thm 24.2), and eps for the 1/N scaling;
    - the product with the kinetic factor 2 eps.  That factor is the same
      array in both runs, so its own rounding cancels.
    The steps are unitary, so the errors add: each run's psi lies within
    steps * eps (12 + 4 dt w_max + 8 log2 N) ||psi0||_2 of its exact
    value, and the two within B, twice that, up to the global phase.
    A sample moves by at most its l2 norm, and the spectral derivative
    and Laplacian of a difference grow its l2 norm by at most kmax and
    kmax^2; each run's transform pair of the fields themselves adds
    (8 log2 N + 4) eps of their norm (F).  Then, pointwise:
    - |Delta a| <= B + 2 eps a, and the floored a_s moves by that plus
      NODE_MASK_REL of the peak's move;
    - the current Im(conj(psi) dpsi), with |dpsi| <= kmax ||psi0||_2,
      moves by B kmax ||psi0|| + (a + B) E + 4 eps a kmax ||psi0||, with
      E = kmax B + 2 F kmax ||psi0||; v = J / (w0 a_s^2) moves by that
      over w0 a_s^2, plus |v| |Delta a_s^2| / a_s^2, plus 4 eps |v|;
    - q = -lap a / (2 w0 a_s) moves by kmax^2 (B + 2 eps ||a||) + 2 F
      kmax^2 ||a|| over 2 w0 a_s, plus |q| |Delta a_s| / a_s, plus
      4 eps |q|.
    a_s is the smaller of the two runs' floored amplitudes, and |v|, |q|
    the larger of their values.  Returns the two bounds per snapshot.
    """
    n = psi0.grid.points[0]
    log_n = np.log2(n)
    kmax = float(np.max(np.abs(psi0.grid.wavenumbers[0])))
    norm0 = float(np.linalg.norm(psi0.samples))
    b = 2 * steps * EPS * (12 + 4 * dt * w_max + 8 * log_n) * norm0
    f = (8 * log_n + 4) * EPS
    e = kmax * b + 2 * f * kmax * norm0
    bounds = []
    for x, y in zip(one, other):
        a = np.maximum(x.amplitude, y.amplitude)
        peak = max(x.amp_peak, y.amp_peak)
        a_s = np.minimum(np.maximum(x.amplitude, NODE_MASK_REL * x.amp_peak),
                         np.maximum(y.amplitude, NODE_MASK_REL * y.amp_peak))
        d_a_s = b + 2 * EPS * a + NODE_MASK_REL * (b + 2 * EPS * peak)
        d_rho = 2 * a_s * d_a_s + d_a_s**2 + 2 * EPS * a_s**2
        v = np.maximum(np.abs(x.velocity[0]), np.abs(y.velocity[0]))
        d_j = b * kmax * norm0 + (a + b) * e + 4 * EPS * a * kmax * norm0
        d_v = (d_j / (omega0 * a_s**2) + v * d_rho / a_s**2 + 4 * EPS * v)
        q = np.maximum(np.abs(x.quantum_potential),
                       np.abs(y.quantum_potential))
        norm_a = float(np.linalg.norm(a))
        d_lap = kmax**2 * (b + 2 * EPS * norm_a) + 2 * f * kmax**2 * norm_a
        d_q = d_lap / (2 * omega0 * a_s) + q * d_a_s / a_s + 4 * EPS * q
        bounds.append((d_v, d_q))
    return bounds


def path_bound(grid, dt, one, other, v_bounds, path):
    """Round-off bound on the distance of two guidance paths from one
    start, stepped by RK4 over velocity fields within `v_bounds` of each
    other (one bound per snapshot).

    Over the step from snapshot m, the stage points lie within R of the
    path points, R = 2 dx (the stencil) + h 1.25 max|v| over the nodes
    within R: a cubic lookup is at most 1.25 (`LAGRANGE_SUM`) times its
    largest node value, and the time blend is convex.  On those nodes the
    lookups of the two runs differ by at most 1.25 dv + 16 eps max|v| (the
    lookups' own round-off).  The weights' slopes sum to zero, so they
    may weigh each v less the mid-range value: the interpolated velocity
    has a slope of at most L = 7/3 (`LAGRANGE_SLOPE`) (max v - min v) /
    (2 dx).  An RK4 step is Lipschitz with constant exp(h L), and a
    velocity moved by d moves it by at most h d exp(h L); each run's step
    adds 12 eps (|z| + h max|v|) of its own sums.  So the distance e_m
    grows as
    e_{m+1} = exp(h L) (e_m + h (1.25 dv + 16 eps max|v|))
              + 24 eps (|z_m| + h max|v|).
    """
    x, dx = grid.axes[0], grid.spacing[0]
    out = [0.0]
    for m in range(len(path) - 1):
        lo, hi = min(path[m], path[m + 1]), max(path[m], path[m + 1])
        reach, old = 2 * dx, -1.0
        while reach > old:              # grows to its fixed point
            old = reach
            near = (x >= lo - reach - dx) & (x <= hi + reach + dx)
            fields = [r.velocity[0][near] for r in
                      (one[m], one[m + 1], other[m], other[m + 1])]
            v_max = max(float(np.max(np.abs(f))) for f in fields)
            reach = max(old, 2 * dx + LAGRANGE_SUM * dt * v_max)
        spread = max(float(np.max(f) - np.min(f)) for f in fields)
        growth = np.exp(dt * LAGRANGE_SLOPE * spread / (2 * dx))
        d_v = max(float(np.max(v_bounds[k][near])) for k in (m, m + 1))
        out.append(growth * (out[-1] + dt * (LAGRANGE_SUM * d_v
                                             + 16 * EPS * v_max))
                   + 24 * EPS * (abs(path[m]) + dt * v_max))
    return np.array(out)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([32, 64, 128]), st.floats(12.0, 40.0),
       st.floats(0.08, 0.2), st.floats(-0.1, 0.1), st.floats(-1.0, 1.0),
       st.floats(0.5, 3.0), st.sampled_from(sorted(SCALARS)),
       st.floats(-100.0, 100.0), st.floats(1e-3, 0.05), st.integers(1, 20),
       st.floats(-0.5, 0.5))
def test_a_constant_potential_shift_moves_no_guidance_quantity(
        n, length, width_share, center_share, k0, omega0, kind, shift, dt,
        steps, start_share):
    # V -> V + c multiplies the pilot by exp(-i c t) alone, so the
    # guidance velocity, q and the guided path agree to round-off
    # (`shift_bounds`, `path_bound`)
    grid = Grid(n, length)
    x = grid.axes[0]
    sigma, center = width_share * length, center_share * length
    psi0 = Field(grid, np.exp(-(x - center) ** 2 / (4 * sigma**2)
                              + 1j * k0 * x))
    params = PhysicalParams(omega0=omega0, charge=1.0)
    scalar = SCALARS[kind]
    z0 = center + start_share * sigma
    one, path = pilot_and_path(psi0, params, lambda t, c: scalar(c[0]),
                               dt, steps, z0)
    other, shifted_path = pilot_and_path(
        psi0, params, lambda t, c: scalar(c[0]) + shift, dt, steps, z0)
    w_max = omega0 + float(np.max(np.abs(scalar(x)))) + abs(shift)
    bounds = shift_bounds(psi0, omega0, w_max, dt, steps, one, other)
    for x_bundle, y_bundle, (d_v, d_q) in zip(one, other, bounds):
        assert np.all(np.abs(y_bundle.velocity[0] - x_bundle.velocity[0])
                      <= d_v)
        assert np.all(np.abs(y_bundle.quantum_potential
                             - x_bundle.quantum_potential) <= d_q)
    reach = path_bound(grid, dt, one, other, [d_v for d_v, _ in bounds],
                       path)
    assert np.all(np.abs(shifted_path - path) <= reach)


# ---------------------------------------------------------------------------
# a constant A -> A + c with Psi -> exp(i e c x) Psi is a gauge transform
# ---------------------------------------------------------------------------

def gauge_bounds(grid, omega0, e_a, e_c, dt, one, other, s_one, s_other):
    """Round-off bounds on |v' - v| and |q' - q| at each grid point, for
    the Madelung bundles `one` and `other` of the band-limited waves
    `s_one` (vector potential A, e A = e_a) and `s_other` (its spectrum
    rolled by m bins, with A + c, e c = e_c the grid's wavenumber of bin m,
    unit charge, N a power of two), and on max |psi' - G psi| after one
    `ls_step` of each, G_n = exp(2 pi i m n / N).

    In exact arithmetic the rolled wave is G psi, G = exp(i e c (x + L/2)),
    and the covariant derivative (d - i e A) of G psi is G times that of
    psi: the current gains e c |psi|^2, which the e A' of the velocity
    takes away, |psi| and so q are unchanged, and a Strang step maps G psi
    to G times the step of psi (the half phases are pointwise, and the
    kinetic factor of bin j + m under A + c is that of bin j under A, no
    band crossing the Nyquist bin).  So the fields differ by round-off
    alone.  With P = ||psi||_2, L = log2 N and kmax the grid's largest
    |k| (Higham, Accuracy and Stability, Thm 24.2, as in `shift_bounds`):
    - each wave is an inverse FFT of exact coefficients, within (4 L + 1)
      eps P of its exact value, so the two within B = 2 (4 L + 1) eps P
      of G times each other, in l2 and so at every sample;
    - |Delta a| <= B + 2 eps a; a stays above 0.5, far above the node
      mask, so the floored a_s is a;
    - q = -lap a / (2 w0 a): the Laplacian of the difference is at most
      kmax^2 (B + 2 eps ||a||), and each run's real transform pair adds
      F kmax^2 ||a||, F = (8 L + 4) eps; then as in `shift_bounds`;
    - the derivative of G psi is G (d psi + i e c psi), at most
      D = (kmax + |e c|) P; the two runs' derivatives differ from that
      relation by E = (kmax + |e c|) B + 2 F kmax P, so the currents J
      differ from J + e c rho by B D + (a + B) E + 4 eps a D (the complex
      products); J / rho_s then by that over rho_s, plus W |Delta rho| /
      rho_s and 2 eps W, with W the larger |J / rho_s| (w0 |v| + |e A|
      of each run, 16 eps over) and Delta rho = 2 a Delta a + Delta a^2
      + 2 eps a^2;
    - the shift e A' - e A is e c to 5 eps |e c| (the computed wavenumber)
      plus eps (|e A| + |e c|) (the sum A + c); the subtraction, the
      division by w0 and the two runs' sums add eps (4 W + 3 |e A| +
      8 |e c|) / w0 + 2 eps |v|;
    - a step: both runs build the same half phases, so only their
      products differ (2 eps each, with the half phases' own modulus,
      12 eps over both runs), each run's transform pair adds 2 (4 L + 1)
      eps, the kinetic products 4 eps; the kinetic factors, angles dt
      (k - e A)^2 / (2 w0) with |k - e A| <= K = kmax + |e A| + |e c|,
      each carry eps (2 + 6 dt K^2 / w0), and the exact factors differ
      by the 5 eps |e c| of the computed wavenumber, 5 eps dt K^2 / w0.
      The step is unitary, so psi' - G psi stays within B + eps P (24 +
      16 L + 17 dt K^2 / w0); G computed from its angle 2 pi m n / N
      moves by eps (2 pi |m| + 3) |psi|.
    Returns the velocity bound, the q bound and the step bound.
    """
    n = grid.points[0]
    log_n = np.log2(n)
    kmax = float(np.max(np.abs(grid.wavenumbers[0])))
    norm = max(float(np.linalg.norm(s)) for s in (s_one, s_other))
    b = 2 * (4 * log_n + 1) * EPS * norm
    f = (8 * log_n + 4) * EPS
    a = np.maximum(one.amplitude, other.amplitude)
    a_s = np.minimum(one.amplitude, other.amplitude)
    d_a = b + 2 * EPS * a
    q = np.maximum(np.abs(one.quantum_potential),
                   np.abs(other.quantum_potential))
    norm_a = float(np.linalg.norm(a))
    d_lap = kmax**2 * (b + 2 * EPS * norm_a) + 2 * f * kmax**2 * norm_a
    d_q = d_lap / (2 * omega0 * a_s) + q * d_a / a_s + 4 * EPS * q
    d_max = (kmax + abs(e_c)) * norm
    e = (kmax + abs(e_c)) * b + 2 * f * kmax * norm
    d_j = b * d_max + (a + b) * e + 4 * EPS * a * d_max
    v = np.maximum(np.abs(one.velocity[0]), np.abs(other.velocity[0]))
    w = (omega0 * v + abs(e_a) + abs(e_c)) * (1 + 16 * EPS)
    d_rho = 2 * a * d_a + d_a**2 + 2 * EPS * a**2
    d_v = ((d_j + w * d_rho) / (omega0 * a_s**2)
           + EPS * (6 * w + 3 * abs(e_a) + 8 * abs(e_c)) / omega0
           + 2 * EPS * v)
    k_all = kmax + abs(e_a) + abs(e_c)
    d_step = b + EPS * norm * (24 + 16 * log_n + 17 * dt * k_all**2 / omega0)
    return d_v, d_q, d_step


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([64, 128]), st.floats(10.0, 40.0),
       st.integers(1, 6), st.integers(-4, 4).filter(bool),
       st.floats(-2.0, 2.0), st.floats(0.5, 3.0),
       st.floats(-1.0, 1.0), st.floats(1e-3, 0.05),
       st.integers(0, 2**32 - 1))
def test_a_gauge_transform_moves_no_guidance_quantity(
        n, length, band, m, a0, omega0, v0, dt, seed):
    # A -> A + c with Psi -> exp(i e c x) Psi, e c the wavenumber of bin m:
    # the guidance velocity, q and one ls_step agree to round-off
    # (`gauge_bounds`); a wave of the bins |j| <= band around a constant
    # keeps |Psi| in [0.5, 2.5], and its roll by m crosses no Nyquist bin.
    # V = v0 cos(2 pi x / L) is periodic, so its half phases move the
    # spectrum by a few bins only (Bessel weights of dt |v0| / 2): a
    # potential with a kink at the seam would fill the bins a roll wraps
    grid = Grid(n, length)
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(n, dtype=complex)
    coeffs[0] = 1.5 * n
    bins = np.r_[1:band + 1, -band:0]
    modes = rng.standard_normal(bins.size) + 1j * rng.standard_normal(
        bins.size)
    coeffs[bins] = modes / np.sum(np.abs(modes)) * n
    e_c = float(grid.wavenumbers[0][m])
    params = PhysicalParams(omega0=omega0, charge=1.0)
    runs = []
    for roll, vector in ((0, a0), (m, a0 + e_c)):
        psi = Field(grid, np.fft.ifft(np.roll(coeffs, roll)))
        pots = Potentials(1, scalar=lambda t, c: v0 * np.cos(
                              2 * np.pi * c[0] / length),
                          vector=lambda t, vector=vector: np.array([vector]))
        runs.append((psi.samples, madelung_extract(psi, params, pots),
                     ls_step(psi, params, pots, dt).samples))
    (s_one, one, step_one), (s_other, other, step_other) = runs
    d_v, d_q, d_step = gauge_bounds(grid, omega0, a0, e_c, dt, one, other,
                                    s_one, s_other)
    assert np.all(np.abs(other.velocity[0] - one.velocity[0]) <= d_v)
    assert np.all(np.abs(other.quantum_potential - one.quantum_potential)
                  <= d_q)
    gauge = np.exp(2j * np.pi * m * np.arange(n) / n)
    assert np.all(np.abs(step_other - gauge * step_one)
                  <= d_step + EPS * (2 * np.pi * abs(m) + 3)
                  * np.abs(step_one))


# ---------------------------------------------------------------------------
# a boost Psi -> exp(i k x) Psi of a free wave is a Galilean transform
# ---------------------------------------------------------------------------

def boost_bounds(grid, omega0, k, dt, steps, drift, one, other, cells):
    """Round-off bounds on |rho' - T rho| and |v' - T v - k / w0| at each
    grid point, for the Madelung bundles `one` (a free band-limited wave,
    the `gauge_bounds` wave with A = 0) and `other` (its spectrum rolled by
    m bins, k the grid's wavenumber of bin m) after `steps` `ls_step`s of
    dt = drift dx w0 / |k|, where T rolls a field by `cells`, steps *
    drift cells in the direction of k (unit charge, V = 0, N a power of
    two).

    In exact arithmetic bin j + m of the boosted wave gains, over a time
    t, the phase of bin j times exp(-i t (2 k_j k + k^2) / (2 w0)): a
    global phase and a translation by k t / w0, here a whole number of
    cells.  So the boosted wave is G T psi up to a global phase, G =
    exp(i k (x + L/2)) the boost, and the fields differ by round-off alone.
    With P = ||psi||_2, L = log2 N and K the grid's largest |k|, as in
    `gauge_bounds` (Higham, Accuracy and Stability, Thm 24.2):
    - each wave starts as an inverse FFT of exact coefficients, within
      (4 L + 1) eps P of its exact value;
    - a step adds eps P (16 + 8 L + dt w0 + 8 dt K^2 / w0): the half
      phases, angle dt w0 / 2 (eps (2 + dt w0 / 2) each, 3 eps each
      product), the transform pair (8 L + 1), the kinetic factor, angle
      dt k^2 / (2 w0) with k within 3 eps (its angle within 8 eps, cos and
      sin 1 ulp each), and its product (3 eps); the steps are unitary, so
      these add;
    - dt is within 5 eps of drift dx w0 / |k|, so the exact translation
      is off by at most pi drift 5 eps per step in each bin's phase;
    so the two waves lie within B = 2 (their error) + that of G T psi.
    Then as in `gauge_bounds`, with e A = 0 and e c = k: |Delta a| <= B +
    2 eps a, the derivatives differ from D(G T psi) = G T (D psi + i k
    psi) by E = (K + |k|) B + 2 F K P, F = (8 L + 5) eps, the currents
    from J + k rho by B D + (a + B) E + 4 eps a D, D = (K + |k|) P, and
    J / rho_s by that over rho_s plus W |Delta rho| / rho_s, W = w0 |v| +
    |k| (16 eps over); the divisions, k / w0 and the two subtractions add
    eps (4 W + 8 |k|) / w0 + 2 eps |v|.
    Returns the density bound and the velocity bound.
    """
    n = grid.points[0]
    log_n = np.log2(n)
    kmax = float(np.max(np.abs(grid.wavenumbers[0])))
    norm = max(float(np.linalg.norm(r.amplitude)) for r in (one, other))
    per_step = 16 + 8 * log_n + dt * omega0 + 8 * dt * kmax**2 / omega0
    run = EPS * norm * (4 * log_n + 1 + steps * per_step)
    b = 2 * run + 5 * np.pi * drift * steps * EPS * norm
    f = (8 * log_n + 5) * EPS
    amp = np.roll(one.amplitude, cells)
    a = np.maximum(amp, other.amplitude)
    a_s = np.minimum(amp, other.amplitude)
    d_a = b + 2 * EPS * a
    d_rho = 2 * a * d_a + 2 * EPS * a**2
    d_max = (kmax + abs(k)) * norm
    e = (kmax + abs(k)) * b + 2 * f * kmax * norm
    d_j = b * d_max + (a + b) * e + 4 * EPS * a * d_max
    v = np.maximum(np.abs(np.roll(one.velocity[0], cells)),
                   np.abs(other.velocity[0]))
    w = (omega0 * v + abs(k)) * (1 + 16 * EPS)
    d_v = ((d_j + w * d_rho) / (omega0 * a_s**2)
           + EPS * (4 * w + 8 * abs(k)) / omega0 + 2 * EPS * v)
    return d_rho, d_v


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([64, 128]), st.floats(10.0, 40.0),
       st.integers(1, 6), st.integers(-4, 4).filter(bool),
       st.integers(1, 3), st.integers(1, 4), st.floats(0.5, 3.0),
       st.integers(0, 2**32 - 1))
def test_a_boost_of_a_free_wave_is_a_galilean_transform(
        n, length, band, m, drift, steps, omega0, seed):
    # Psi -> exp(i k x) Psi, k the wavenumber of bin m, shifts the guidance
    # velocity by k / w0 and moves the density with it by k t / w0: after
    # each step of dt = drift dx w0 / |k|, by `drift` cells, so both runs
    # are compared sample by sample, within `boost_bounds`.  The wave of
    # `test_a_gauge_transform_moves_no_guidance_quantity` keeps |Psi| in
    # [0.5, 2.5], and its roll by m crosses no Nyquist bin.  A guided path
    # is covariant only up to the O(dt^2) error of the snapshot blend: its
    # RK4 stages blend v_i and v_{i+1} at points k h / (2 w0) apart
    grid = Grid(n, length)
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(n, dtype=complex)
    coeffs[0] = 1.5 * n
    bins = np.r_[1:band + 1, -band:0]
    modes = rng.standard_normal(bins.size) + 1j * rng.standard_normal(
        bins.size)
    coeffs[bins] = modes / np.sum(np.abs(modes)) * n
    k = float(grid.wavenumbers[0][m])
    dt = drift * grid.spacing[0] * omega0 / abs(k)
    params = PhysicalParams(omega0=omega0, charge=1.0)
    pots = Potentials.free()
    runs = []
    for roll in (0, m):
        psi = Field(grid, np.fft.ifft(np.roll(coeffs, roll)))
        bundles = [madelung_extract(psi, params, pots)]
        for _ in range(steps):
            psi = ls_step(psi, params, pots, dt)
            bundles.append(madelung_extract(psi, params, pots))
        runs.append(bundles)
    for j, (one, other) in enumerate(zip(*runs)):
        cells = j * drift * int(np.sign(m))
        d_rho, d_v = boost_bounds(grid, omega0, k, dt, j, drift, one, other,
                                  cells)
        assert np.all(np.abs(other.amplitude**2
                             - np.roll(one.amplitude**2, cells)) <= d_rho)
        assert np.all(np.abs(other.velocity[0]
                             - np.roll(one.velocity[0], cells) - k / omega0)
                      <= d_v)


# ---------------------------------------------------------------------------
# reruns
# ---------------------------------------------------------------------------

# a grid per kind small enough for a sub-second run, and valid for it
TINY = {
    "free_gausson": {"grid": {"points": 64}},
    "uniform_field": {"grid": {"points": 64}},
    "harmonic_trap": {"grid": {"points": 64}},
    "double_slit_dbb": {"grid": {"points": 128, "length": 40.0}},
    "kg_plane_wave": {"grid": {"points": 64}},
    "kg_packet": {"grid": {"points": 128, "length": 64.0}},
    "entangled_pair": {"grid": {"points": [32, 32], "length": [24.0, 24.0]}},
    "equivariance": {"grid": {"points": 64},
                     "initial": {"trajectories": 50, "bins": 8}},
}


@st.composite
def tiny_runs(draw):
    """A valid config of any kind, a few steps long, and a seed."""
    kind = draw(st.sampled_from(list(KINDS)))
    dt = KINDS[kind].dt
    config = {"scenario": kind, **copy.deepcopy(TINY[kind]),
              "run": {"dt": dt, "t_final": dt * draw(st.integers(1, 20)),
                      "snapshot_every": draw(st.integers(0, 3))}}
    if kind == "kg_packet":
        config["initial"] = {"mode": draw(st.sampled_from(["single",
                                                           "counter"]))}
    return config, draw(st.integers(0, 2**32 - 1))


def run_and_read(config_path, out, seed):
    """Exit code of one in-process `solidyn run` and the bytes it wrote."""
    with warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        code = cli.main(["run", str(config_path), "--quiet", "--seed",
                         str(seed)])
    written = {str(path.relative_to(out)): path.read_bytes()
               for path in sorted(out.rglob("*")) if path.is_file()}
    shutil.rmtree(out)
    return code, written


@settings(max_examples=40, deadline=None)
@given(tiny_runs())
def test_a_rerun_writes_the_same_bytes(run):
    config, seed = run
    with tempfile.TemporaryDirectory() as tmp:
        # both runs write to one directory, so a failure manifest, which
        # lists the output paths, may be compared too
        out = Path(tmp) / "out"
        config_path = Path(tmp) / "run.yaml"
        config_path.write_text(yaml.safe_dump(
            {**config, "output": {"directory": str(out)}}))
        first = run_and_read(config_path, out, seed)
        second = run_and_read(config_path, out, seed)
    assert first[0] in (0, 1, 3)      # the drawn config is valid
    assert first[1]
    assert first == second
