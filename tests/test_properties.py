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
- The CLI exit code follows from how a scenario runner ends: 2 for a
  `ConfigError`, 1 with a manifest naming the error for any other
  `SolidynError`, 3 for a failed check and 0 for a pass, never a traceback.
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

from hypothesis import given, settings, strategies as st  # noqa: E402

from solidyn import cli, errors  # noqa: E402
from solidyn.errors import ConfigError  # noqa: E402
from solidyn.grids import Field, Grid  # noqa: E402
from solidyn.kleingordon import CFL_RATIO, KGState, lkg_step  # noqa: E402
from solidyn.pair import ls2_step, product_pair, symmetrized_pair  # noqa: E402
from solidyn.potentials import PhysicalParams, Potentials  # noqa: E402
from solidyn.scenarios import (KINDS, MAX_STEPS,  # noqa: E402
                               ScenarioConfig, parse_config_dict)
from solidyn.schrodinger import ls_step  # noqa: E402
from solidyn.soliton import (SolitonState, _density_mean_force,  # noqa: E402
                             _grid_positions, classical_trajectory, nls_step,
                             second_central_moments, soliton_center)
from solidyn.stepping import drive, strang_step  # noqa: E402
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
    assert abs(out.norm() - pair.norm()) / pair.norm() < 1e-12 * steps


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
    xbar, c = soliton_center(u, previous, density=rho)
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
    got = _density_mean_force(state, Potentials.free(dim), pos)
    want = _density_mean_force(state, general_zero(dim), pos)
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


def mean_forces(u, potentials, params, times, force=_density_mean_force):
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
    state = KGState.from_levels(
        np.fft.ifft(coeffs * np.exp(1j * energy * dt)),
        Field(grid, np.fft.ifft(coeffs)), PhysicalParams(omega0, 1.0),
        Potentials.free(), dt)
    charge0 = np.vdot(state.psi_prev, state.psi).imag
    floor = (CHARGE_ROUNDOFF_ULPS * np.finfo(float).eps
             * np.linalg.norm(state.psi_prev) * np.linalg.norm(state.psi))
    worst = 0.0
    for _ in range(1000):
        state = lkg_step(state)
        worst = max(worst, abs(np.vdot(state.psi_prev, state.psi).imag
                               - charge0))
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
    def runner(cfg, sink):
        if isinstance(outcome, bool):
            return outcome
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
        elif outcome is ConfigError:
            assert code == 2
        else:
            assert code == 1
            assert f"error: {message}\n" in manifest.read_text()
        assert manifest.exists() == (code == 1)
        assert "Traceback" not in echo.getvalue()


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
