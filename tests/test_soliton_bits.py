"""Property tests: the lean coupled-step kernels keep the reference bits
(needs Hypothesis).

- `stepping._half_phase` gives the bits of np.exp(-0.5j * dt * w), for w
  holding +0.0, -0.0, subnormals and 1e300, in 1D and as the 2D sum of
  two axis potentials; so does each named potential's cached
  `Potentials.half_phase` factor on 1D and 2D grids.
- `log_nonlinearity` gives the bits of its allocating reference body into
  a new array, a buffer or the density itself, on scalars, and on
  densities at and under its floor.
- `nls_step` gives the bits of the allocating step in
  `soliton_reference.py` (log path, complex exp and `dataclasses.replace`
  rebuild) on 1D and 2D grids, in classical and dbb mode, with q omitted,
  equal at both ends or different at each end, and with densities at the
  `RHO_FLOOR_REL` floor.  The next state's density, center and norm have
  the bits of `np.sum` reductions, its boundary mass those of the
  two-sum fraction, and the input state is left unchanged.
- `madelung_extract` gives the bits of the allocating reference body, at
  wave nodes too, and leaves its input unchanged; its quantum force,
  derived on first read, is kept.
- `classical_trajectory` (RK4 on Python floats) gives the bits of the
  array RK4 for the named potentials, 1- and 2-axis starts and uneven
  time stamps.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from solidyn.grids import BOUNDARY_CELLS, Field, Grid  # noqa: E402
from solidyn.potentials import PhysicalParams, Potentials  # noqa: E402
from solidyn.schrodinger import madelung_extract  # noqa: E402
from solidyn.soliton import (RHO_FLOOR_REL, SolitonState,  # noqa: E402
                             classical_trajectory, log_nonlinearity,
                             nls_step)
from solidyn.stepping import _half_phase  # noqa: E402
from soliton_reference import (reference_boundary_mass_fraction,  # noqa: E402
                               reference_classical_trajectory,
                               reference_log_nonlinearity,
                               reference_madelung_extract,
                               reference_nls_step, reference_state_moments)

# +-0.0, subnormals (3 ulps rounds differently through w * -0.5 first),
# and a huge angle
SPECIAL_W = [0.0, -0.0, 5e-324, -5e-324, 1.5e-323, 3e-323, 1e-310,
             -2.5e-310, 1e300, -1e300]


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


# axis potentials whose 2D sums stay finite
AXIS_W = st.lists(st.floats(-1e307, 1e307), max_size=16)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                max_size=64),
       st.floats(1e-6, 1.0), AXIS_W, AXIS_W)
@example(w=[], dt=0.75, w1=[], w2=[])
def test_half_phase_gives_the_bits_of_the_complex_exp(w, dt, w1, w2):
    w = np.array(SPECIAL_W + w)
    want = np.exp(-0.5j * dt * w)
    out = np.empty(w.shape, dtype=complex)
    got = _half_phase(w.copy(), dt, out)
    assert got is out
    assert same_bits(got, want)
    # the 2D sum of two axis potentials, as the pair step builds it, into
    # a new array
    w1, w2 = np.array(SPECIAL_W + w1), np.array(SPECIAL_W + w2)
    grid_w = w1[:, None] + w2[None, :]
    assert same_bits(_half_phase(grid_w.copy(), dt),
                     np.exp(-0.5j * dt * grid_w))


NAMED_POTENTIALS = ["free", "harmonic", "uniform_e", "vector_ramp"]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(16,), (100,), (256,), (8, 8), (15, 9)]),
       st.sampled_from(NAMED_POTENTIALS), st.floats(2.0, 60.0),
       st.floats(0.2, 5.0), st.floats(-2.0, 2.0), st.floats(1e-6, 1.0),
       st.floats(-5.0, 5.0))
def test_cached_half_phase_gives_the_bits_of_the_complex_exp(
        shape, potential, length, mass, charge, dt, t):
    grid = Grid(shape, (length,) * len(shape))
    pots = POTENTIALS[potential](grid.dim)
    w = mass + charge * pots.scalar_on_grid(grid, t)
    want = np.exp(-0.5j * dt * w)
    linear = pots.linear_potential(grid, mass, charge, t).copy()
    got = pots.half_phase(grid, mass, charge, dt, t)
    assert same_bits(got, want)
    # cached and read-only, and the linear potential it was built from is
    # left as it was
    assert pots.half_phase(grid, mass, charge, dt, t + dt) is got
    assert not got.flags.writeable
    assert same_bits(pots.linear_potential(grid, mass, charge, t), linear)


# zero, subnormal, at and under the floor density of f0 = 1, and above it
SPECIAL_RHO = [0.0, 5e-324, 1e-310, 1e-31, RHO_FLOOR_REL, 2e-30, 1e-12, 0.5,
               1.0, 7.25, 1e300]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1e300), max_size=64), st.floats(0.1, 100.0),
       st.floats(0.2, 5.0), st.sampled_from(["new", "buffer", "rho"]))
def test_log_nonlinearity_gives_the_reference_bits(rho, b, f0, out):
    rho = np.array(SPECIAL_RHO + rho)
    want = reference_log_nonlinearity(rho, b, f0)
    given_rho = rho.copy()
    target = {"new": None, "buffer": np.empty(rho.shape),
              "rho": given_rho}[out]
    got = log_nonlinearity(given_rho, b, f0, out=target)
    assert same_bits(got, want)
    if out == "new":
        assert same_bits(given_rho, rho)
    else:
        assert got is target
    # one scalar density at a time: a numpy scalar, as the array form
    for value in (float(rho[0]), rho[-1], np.float64(f0) ** 2 * 1e-40):
        got = log_nonlinearity(value, b, f0)
        want = reference_log_nonlinearity(value, b, f0)
        assert type(got) is np.float64 and same_bits(got, want)


SHAPES = [(16,), (48,), (100,), (256,), (2048,), (8, 8), (16, 12), (15, 9),
          (32, 32)]


def random_samples(draw, grid, rng):
    """Complex samples: an envelope mixed with noise, with a few exact
    zeros and a few samples whose density sits at the log floor."""
    meshes = grid.meshes()
    r2 = sum(m**2 for m in meshes)
    width = draw(st.floats(0.05, 0.5)) * max(grid.lengths)
    envelope = np.exp(-r2 / (4 * width**2) + 1j * rng.uniform(-3, 3) *
                      meshes[0])
    noise = (rng.standard_normal(grid.shape)
             + 1j * rng.standard_normal(grid.shape))
    mix = draw(st.floats(0.0, 1.0))
    samples = (1.0 - mix) * envelope + mix * noise
    holes = rng.integers(0, grid.size, size=draw(st.integers(0, 3)))
    samples.flat[holes] = 0.0
    return samples


POTENTIALS = {
    "free": lambda dim: Potentials.free(dim),
    "harmonic": lambda dim: Potentials.harmonic(0.3, dim),
    "uniform_e": lambda dim: Potentials.uniform_field(0.2, dim),
    "vector_ramp": lambda dim: Potentials.vector_ramp(0.4, dim),
    # a raw V is sampled anew at every call, so W's linear part is fresh
    "raw": lambda dim: Potentials(
        dim, scalar=lambda t, c: 0.1 * np.sin(t + c[0])),
}


@st.composite
def soliton_cases(draw):
    shape = draw(st.sampled_from(SHAPES))
    grid = Grid(shape, tuple(draw(st.floats(2.0, 60.0)) for _ in shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f0 = draw(st.floats(0.2, 5.0))
    samples = random_samples(draw, grid, rng)
    # a few samples exactly at the floor density and one just under it
    at_floor = rng.integers(0, grid.size, size=2)
    samples.flat[at_floor] = f0 * np.sqrt(RHO_FLOOR_REL)
    samples.flat[rng.integers(grid.size)] = 0.5 * f0 * np.sqrt(RHO_FLOOR_REL)
    mode = draw(st.sampled_from(["classical", "dbb"]))
    ends = draw(st.sampled_from(["none", "same", "different"])) \
        if mode == "dbb" else "omitted"
    q = q_end = None
    if mode == "dbb":
        q = 0.1 * rng.standard_normal(grid.shape)
        if ends == "same":
            q_end = q
        elif ends == "different":
            q_end = 0.1 * rng.standard_normal(grid.shape)
    params = PhysicalParams(draw(st.floats(0.2, 5.0)),
                            draw(st.floats(-2.0, 2.0)))
    return dict(
        grid=grid, samples=samples, params=params, f0=f0,
        b=draw(st.floats(0.1, 100.0)), mode=mode, q=q, q_end=q_end,
        potential=draw(st.sampled_from(sorted(POTENTIALS))),
        dt=draw(st.floats(1e-4, 0.1)), t0=draw(st.floats(-5.0, 5.0)),
        steps=draw(st.integers(1, 3)))


@settings(max_examples=150, deadline=None)
@given(soliton_cases())
def test_nls_step_gives_the_reference_bits(case):
    grid = case["grid"]
    u = Field(grid, case["samples"], case["t0"])
    state = SolitonState(u, case["params"], case["b"], case["f0"],
                         coupling_mode=case["mode"])
    pots = POTENTIALS[case["potential"]](grid.dim)
    q, q_end = case["q"], case["q_end"]
    kwargs = {} if q is None else {"external_q": q, "external_q_end": q_end}
    want_state = state
    for _ in range(case["steps"]):
        before = (state.u.samples.copy(), state.density.copy())
        got = nls_step(state, pots, case["dt"], **kwargs)
        want = reference_nls_step(want_state, pots, case["dt"], **kwargs)
        assert state.u.samples.tobytes() == before[0].tobytes()
        assert state.density.tobytes() == before[1].tobytes()
        assert same_bits(got.u.samples, want.u.samples)
        assert got.u.time_tag == want.u.time_tag
        assert (got.params, got.b, got.f0, got.coupling_mode) == (
            want.params, want.b, want.f0, want.coupling_mode)
        rho, center, norm = reference_state_moments(want.u, state.center)
        assert same_bits(got.density, rho)
        assert got.center is None       # taken where a run records
        assert same_bits(got.track_center(state.center), center)
        assert type(got.norm) is float and got.norm == norm
        assert grid.boundary_mass_fraction(got.density, got._density_sum) \
            == reference_boundary_mass_fraction(grid, rho, BOUNDARY_CELLS)
        state, want_state = got, want


@st.composite
def pilot_cases(draw):
    shape = draw(st.sampled_from(SHAPES))
    grid = Grid(shape, tuple(draw(st.floats(2.0, 60.0)) for _ in shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = Field(grid, random_samples(draw, grid, rng),
                draw(st.floats(-5.0, 5.0)))
    params = PhysicalParams(draw(st.floats(0.2, 5.0)),
                            draw(st.floats(-2.0, 2.0)))
    return psi, params, draw(st.sampled_from(sorted(POTENTIALS)))


@settings(max_examples=150, deadline=None)
@given(pilot_cases())
def test_madelung_extract_gives_the_reference_bits(case):
    psi, params, potential = case
    pots = POTENTIALS[potential](psi.grid.dim)
    before = psi.samples.copy()
    got = madelung_extract(psi, params, pots)
    want = reference_madelung_extract(psi, params, pots)
    assert psi.samples.tobytes() == before.tobytes()
    for name in ("amplitude", "velocity", "quantum_potential",
                 "quantum_force"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert got.quantum_force is got.quantum_force
    assert (got.grid, got.time_tag, got.amp_peak) == (
        want.grid, want.time_tag, want.amp_peak)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["free", "uniform_e", "harmonic", "vector_ramp"]),
       st.integers(1, 2), st.floats(-2.0, 2.0), st.floats(0.2, 5.0),
       st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_classical_trajectory_gives_the_array_rk4_bits(
        potential, dim, charge, omega0, seed, n):
    rng = np.random.default_rng(seed)
    # uneven stamps from an arbitrary origin
    times = np.cumsum(rng.uniform(1e-4, 0.2, n)) - rng.uniform(-5.0, 5.0)
    # some axes start at signed zeros
    z0, v0 = (rng.standard_normal(dim) * rng.choice([-0.0, 0.0, 3.0], dim)
              for _ in range(2))
    params = PhysicalParams(omega0, charge)
    pots = POTENTIALS[potential](dim)
    got = classical_trajectory(times, z0, v0, params, pots)
    want = reference_classical_trajectory(times, z0, v0, params, pots)
    assert same_bits(got, want)
