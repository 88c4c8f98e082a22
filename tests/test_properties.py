"""Property tests of config validation, sampling and the split steps (needs
Hypothesis).

- Any mapping given to `parse_config_dict` yields a `ScenarioConfig` or a
  `ConfigError`, never another exception.
- `Grid.sample_density` is deterministic for a fixed seed and draws inside
  the box.
- `ls_step` and `nls_step` keep the norm to round-off.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from solidyn.errors import ConfigError  # noqa: E402
from solidyn.grids import Field, Grid  # noqa: E402
from solidyn.potentials import PhysicalParams, Potentials  # noqa: E402
from solidyn.scenarios import (_INITIAL_KEYS, SCENARIO_KINDS,  # noqa: E402
                               ScenarioConfig, parse_config_dict)
from solidyn.schrodinger import ls_step  # noqa: E402
from solidyn.soliton import SolitonState, nls_step  # noqa: E402

# ---------------------------------------------------------------------------
# parse_config_dict
# ---------------------------------------------------------------------------

SECTION_KEYS = {
    "physics": ["omega0", "charge", "b", "f0"],
    "grid": ["points", "length"],
    "potential": ["kind", "e_field", "spring"],
    "initial": sorted({key for keys in _INITIAL_KEYS.values()
                       for key in keys}),
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
        {"scenario": mostly(st.sampled_from(SCENARIO_KINDS), values)},
        optional={"seed": mostly(st.integers(0, 2**64), values),
                  **{name: section(name) for name in SECTION_KEYS}}),
    st.dictionaries(odd_keys, values, max_size=2),
    mostly(st.just(True), st.just(False)),
).map(lambda parts: {key: value
                     for key, value in {**parts[1], **parts[0]}.items()
                     if parts[2] or key != "scenario"})


@settings(max_examples=400, deadline=None)
@given(configs)
def test_parse_config_dict_yields_config_or_config_error(raw):
    try:
        cfg = parse_config_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)


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
