"""Property tests of the cubic interpolation stencil (needs Hypothesis).

`Grid.stencil(p).apply(f)` must reproduce, bit for bit, the per-call
reference interpolation in `interp_reference.py`.  The float twins must
reproduce the numpy paths: `Grid.point_stencil(p).apply(f)` equals
`Grid.stencil(p).apply(f)`, and `advance_point` over two Madelung bundles
equals `advance_positions` over their two-snapshot `FlowHistory`, aborts
included.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from interp_reference import reference_interpolate, same_bits  # noqa: E402
from solidyn.errors import SolidynError, TrajectoryAbortError  # noqa: E402
from solidyn.grids import Grid  # noqa: E402
from solidyn.potentials import PhysicalParams, Potentials  # noqa: E402
from solidyn.schrodinger import MadelungBundle  # noqa: E402
from solidyn.trajectories import (FlowHistory, advance_point,  # noqa: E402
                                  advance_positions)


@st.composite
def grids(draw):
    dim = draw(st.sampled_from([1, 2]))
    points = tuple(draw(st.integers(4, 40)) for _ in range(dim))
    lengths = tuple(draw(st.floats(0.5, 60.0)) for _ in range(dim))
    return Grid(points, lengths)


def random_field(grid, seed, complex_valued):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.shape)
    if complex_valued:
        f = f + 1j * rng.standard_normal(grid.shape)
    return f


@st.composite
def in_box_points(draw, grid):
    """Query points inside the half-open box, mixing nodes, both box edges
    and arbitrary offsets."""
    n = draw(st.integers(1, 12))
    out = np.empty((n, grid.dim))
    for i in range(n):
        for axis in range(grid.dim):
            half = 0.5 * grid.lengths[axis]
            out[i, axis] = draw(st.one_of(
                st.sampled_from(list(grid.axes[axis])),
                st.just(float(np.nextafter(half, 0.0))),
                st.floats(-half, half, exclude_max=True)))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_stencil_matches_reference_interpolation(data):
    grid = data.draw(grids())
    f = random_field(grid, data.draw(st.integers(0, 2**32 - 1)),
                     data.draw(st.booleans()))
    pts = data.draw(in_box_points(grid))
    want = reference_interpolate(grid, f, pts)
    stencil = grid.stencil(pts)
    assert same_bits(stencil.apply(f), want)
    assert same_bits(grid.interpolate(f, stencil), want)
    assert same_bits(grid.interpolate(f, pts), want)
    # one stencil serves any number of fields
    g = random_field(grid, 1, False)
    assert same_bits(stencil.apply(g), reference_interpolate(grid, g, pts))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stencil_exact_at_nodes(data):
    # with a power-of-two spacing every node coordinate, and its cell
    # offset, is exact in floating point, so the weights are (0, 1, 0, 0)
    dim = data.draw(st.sampled_from([1, 2]))
    points = tuple(data.draw(st.integers(4, 40)) for _ in range(dim))
    grid = Grid(points, tuple(n * 2.0 ** data.draw(st.integers(-6, 2))
                              for n in points))
    f = random_field(grid, data.draw(st.integers(0, 2**32 - 1)),
                     data.draw(st.booleans()))
    idx = [data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                              max_size=6))
           for n in grid.points]
    count = min(len(i) for i in idx)
    idx = [np.asarray(i[:count]) for i in idx]
    pts = np.stack([grid.axes[a][idx[a]] for a in range(grid.dim)], axis=1)
    assert np.array_equal(grid.stencil(pts).apply(f), f[tuple(idx)])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stencil_rejects_points_outside_the_box(data):
    grid = data.draw(grids())
    pts = data.draw(in_box_points(grid))
    row = data.draw(st.integers(0, pts.shape[0] - 1))
    axis = data.draw(st.integers(0, grid.dim - 1))
    half = 0.5 * grid.lengths[axis]
    pts[row, axis] = data.draw(st.one_of(
        st.just(half), st.floats(half, 10 * half),
        st.floats(-10 * half, -half, exclude_max=True),
        st.just(np.nan)))
    with pytest.raises(SolidynError, match="outside the box"):
        grid.stencil(pts)
    with pytest.raises(SolidynError, match="outside the box"):
        grid.interpolate(np.zeros(grid.shape), pts)


# ---------------------------------------------------------------------------
# float twins: point stencil and one-point RK4
# ---------------------------------------------------------------------------

def wide_field(grid, seed, zero_frac=0.0):
    """Real samples spanning twelve decades, so that a sum taken in another
    order than einsum's rounds differently; a share `zero_frac` of them are
    signed zeros."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.shape) \
        * 10.0 ** rng.uniform(-6.0, 6.0, grid.shape)
    f[rng.random(grid.shape) < zero_frac] *= 0.0
    return f


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_point_stencil_matches_stencil(data):
    grid = data.draw(grids())
    f = wide_field(grid, data.draw(st.integers(0, 2**32 - 1)),
                   data.draw(st.sampled_from([0.0, 0.5, 1.0])))
    for p in data.draw(in_box_points(grid)):
        want = grid.stencil(p).apply(f)
        got = grid.point_stencil(p).apply(f)
        assert type(got) is float
        assert same_bits(np.array([got]), want)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_point_stencil_rejects_points_outside_the_box(data):
    grid = data.draw(grids())
    p = data.draw(in_box_points(grid))[0]
    axis = data.draw(st.integers(0, grid.dim - 1))
    half = 0.5 * grid.lengths[axis]
    p[axis] = data.draw(st.one_of(
        st.just(half), st.floats(half, 10 * half),
        st.floats(-10 * half, -half, exclude_max=True), st.just(np.nan)))
    with pytest.raises(SolidynError, match="outside the box"):
        grid.point_stencil(p)
    with pytest.raises(SolidynError, match="grid has"):
        grid.point_stencil(list(p) + [0.0])


def random_bundle(grid, rng, speed, node_frac):
    """Madelung fields as `advance_point` reads them: a velocity of about
    `speed` and an amplitude with a share `node_frac` of zero samples."""
    amp = np.abs(rng.standard_normal(grid.shape)) + 0.1
    amp[rng.random(grid.shape) < node_frac] = 0.0
    amp.flat[0] = 1.0                                   # never all zero
    velocity = speed * rng.standard_normal((grid.dim,) + grid.shape)
    peak = float(np.max(amp))
    return MadelungBundle(grid=grid, time_tag=0.0, amplitude=amp,
                          velocity=velocity, quantum_potential=None,
                          quantum_force=None, amp_peak=peak)


def _outcome(step):
    try:
        return step(), None
    except TrajectoryAbortError as err:
        return None, err


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_advance_point_matches_two_snapshot_flow(data):
    grid = data.draw(grids())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dt = data.draw(st.floats(1e-4, 1.0))
    # a step crosses none, some or many cells; nodes cover up to half
    speed = data.draw(st.sampled_from([0.0, 0.01, 0.3, 3.0])) \
        * min(grid.lengths) / dt
    node_frac = data.draw(st.sampled_from([0.0, 0.05, 0.5]))
    bundle, bundle_next = (random_bundle(grid, rng, speed, node_frac)
                           for _ in range(2))
    # arbitrary offsets, so t1 - t0 need not equal dt (and may be 0)
    t0 = data.draw(st.one_of(st.floats(-1e3, 1e3), st.just(1e17)))
    t1 = t0 + dt
    z = data.draw(in_box_points(grid))[0]

    bundle.time_tag, bundle_next.time_tag = t0, t1
    flow = FlowHistory(grid, PhysicalParams(1.0), Potentials.free(grid.dim))
    flow.append(bundle)
    flow.append(bundle_next)
    k1 = flow.velocity_at(t0, grid.stencil(z))
    k1_point = [grid.point_stencil(z).apply(c) for c in bundle.velocity]
    assert same_bits(np.array([k1_point]), k1)

    want, want_err = _outcome(lambda: advance_positions(
        flow, np.atleast_2d(z), t0, t1, k1=k1))
    got, got_err = _outcome(lambda: advance_point(
        bundle, bundle_next, tuple(z), t0, t1, k1_point))
    if want_err is not None:
        assert type(got_err) is type(want_err)
        assert str(got_err) == str(want_err)
        assert got_err.last_valid_time == want_err.last_valid_time
        return
    assert got_err is None
    z_new, stencil, amp = got
    assert same_bits(np.array([z_new]), want[0])
    f = wide_field(grid, 5)
    assert same_bits(np.array([stencil.apply(f)]), want[1].apply(f))
    assert same_bits(np.array([amp]), flow.amplitude_at(t1, want[1]))
