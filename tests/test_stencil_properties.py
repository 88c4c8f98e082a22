"""Property tests of the cubic interpolation stencil (needs Hypothesis).

`Grid.stencil(p).apply(f)` must reproduce, bit for bit, the per-call
reference interpolation in `interp_reference.py`; its weights, written in
place into one block, equal the stacked weight terms, and its indices, read
from the grid's wrap table, equal (base + offsets) % n.  The float twins must
reproduce the numpy paths: `Grid.point_stencil(p).apply(f)` equals
`Grid.stencil(p).apply(f)`, on arrays and on the pair wave's lazy velocity
lines, and `advance_point` over two Madelung bundles or two pair waves
equals `advance_positions` over their two-snapshot `FlowHistory`, aborts
included.  The pair's conditional slice in floats equals its numpy form.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from interp_reference import (Snapshot, reference_interpolate,  # noqa: E402
                              same_bits)
from pair_reference import reference_axis_slice  # noqa: E402
from solidyn.errors import SolidynError, TrajectoryAbortError  # noqa: E402
from solidyn.grids import (Field, Grid, _cubic_weight_terms,  # noqa: E402
                           _cubic_weights)
from solidyn.pair import (PairWave, _axis_slice,  # noqa: E402
                          pair_velocity_fields, product_pair)
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
# the one-pass batch stencil: weights and wrapped indices
# ---------------------------------------------------------------------------

NEAR_ONE = float(np.nextafter(1.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True)
                | st.sampled_from([0.0, NEAR_ONE, 0.5, 1e-300]),
                max_size=40))
def test_cubic_weights_keep_the_bits_of_the_stacked_terms(fracs):
    # the weights written in place into one block are the stacked
    # per-weight expressions, at offsets 0 and just below 1 included
    f = np.array(fracs + [0.0, NEAR_ONE])
    assert same_bits(_cubic_weights(f), np.stack(_cubic_weight_terms(f)))


def assert_wrapped_indices(grid, pts):
    """The stencil's per-axis indices are (base + offsets) % n, as int64."""
    stencil = grid.stencil(pts)
    for axis, n in enumerate(grid.points):
        base, _ = grid._fraction_index(pts[:, axis], axis)
        want = (base + np.arange(-1, 3)[:, None]) % n
        got = stencil.indices[axis]
        if grid.dim == 2:       # the broadcast views of the 2D gather
            got = got[:, 0, :] if axis == 0 else got[0]
        assert same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_stencil_indices_are_the_wrapped_offsets(data):
    grid = data.draw(grids())
    assert_wrapped_indices(grid, data.draw(in_box_points(grid)))


@pytest.mark.parametrize("points, lengths", [((10,), (3.0,)),
                                             ((33,), (7.0,)),
                                             ((12, 7), (20.0, 2 * np.pi))])
def test_stencil_indices_at_the_box_edges(points, lengths):
    # on spacings that are not powers of two, both box edges and a
    # coordinate just below L/2 whose cell index rounds up to n
    grid = Grid(points, lengths)
    half = 0.5 * np.array(lengths)
    pts = np.stack([-half, np.nextafter(half, 0.0), 0.37 * half,
                    np.nextafter(-half, 0.0)])
    for axis, n in enumerate(points):
        assert grid._fraction_index(pts[:, axis], axis)[0][1] == n
    assert_wrapped_indices(grid, pts)


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
    z_new, stencil = got
    assert same_bits(np.array([z_new]), want[0])
    f = wide_field(grid, 5)
    assert same_bits(np.array([stencil.apply(f)]), want[1].apply(f))


# ---------------------------------------------------------------------------
# the pair run's point path: velocity lines, point RK4 and conditional slice
# ---------------------------------------------------------------------------

@st.composite
def pair_grids(draw):
    """2D configuration grids with arbitrary or power-of-two spacings."""
    points = tuple(draw(st.integers(4, 40)) for _ in range(2))
    if draw(st.booleans()):
        return Grid(points, tuple(n * 2.0 ** draw(st.integers(-6, 2))
                                  for n in points))
    return Grid(points, tuple(draw(st.floats(0.5, 60.0)) for _ in range(2)))


def random_pair(grid, rng, entangled, node_frac):
    """A product or entangled pair wave of random complex samples whose
    factors have a share `node_frac` of zero samples (whole node lines of
    the product), never all zero."""
    def factor(n):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f[rng.random(n) < node_frac] = 0.0
        f[0] = 1.0
        return f

    masses = tuple(rng.uniform(0.5, 2.0, 2))
    pots = (Potentials.free(1), Potentials.free(1))
    if not entangled:
        return product_pair(factor(grid.points[0]), factor(grid.points[1]),
                            grid, masses, 1.0, pots)
    psi = np.outer(factor(grid.points[0]), factor(grid.points[1])) \
        + np.outer(factor(grid.points[0]), factor(grid.points[1]))
    psi.flat[0] = 1.0
    return PairWave(Field(grid, psi), masses, 1.0, pots)


def derived_lines(pair):
    """Per axis, the grid lines whose velocity the wave has derived."""
    return [np.flatnonzero(slots >= 0).tolist()
            for slots in pair.velocity._slots]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_point_stencil_matches_stencil_on_pair_velocity_lines(data):
    grid = data.draw(pair_grids())
    seed = data.draw(st.integers(0, 2**32 - 1))
    entangled = data.draw(st.booleans())
    node_frac = data.draw(st.sampled_from([0.0, 0.3]))
    # two copies of one wave: one read by point stencils, one by stencils
    by_point, by_stencil = (
        random_pair(grid, np.random.default_rng(seed), entangled, node_frac)
        for _ in range(2))
    full, _ = pair_velocity_fields(by_point)
    for p in data.draw(in_box_points(grid)):
        point, stencil = grid.point_stencil(p), grid.stencil(p)
        for axis in range(2):
            want = stencil.apply(by_stencil.velocity[axis])
            got = grid.interpolate(by_point.velocity[axis], point)
            assert type(got) is float
            assert same_bits(np.array([got]), want)
            assert same_bits(np.array([point.apply(full[axis])]),
                             stencil.apply(full[axis]))
        # both read the same 4x4 blocks, so they derive the same lines
        assert derived_lines(by_point) == derived_lines(by_stencil)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_advance_point_over_pair_waves_matches_two_snapshot_flow(data):
    grid = data.draw(pair_grids())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    entangled = data.draw(st.booleans())
    node_frac = data.draw(st.sampled_from([0.0, 0.05, 0.5]))
    t0 = data.draw(st.one_of(st.floats(-1e3, 1e3), st.just(1e17)))
    pair, pair_next = (random_pair(grid, rng, entangled, node_frac)
                       for _ in range(2))
    # the full-grid fields that the per-line velocity must reproduce
    (vel, amp), (vel_next, amp_next) = (pair_velocity_fields(p)
                                        for p in (pair, pair_next))
    # a step crosses none, some or many cells
    speed = max(float(np.max(np.abs(vel))), 1e-300)
    dt = data.draw(st.sampled_from([1e-3, 0.01, 0.3, 3.0])) \
        * min(grid.lengths) / speed
    t1 = t0 + dt
    pair.psi.time_tag, pair_next.psi.time_tag = t0, t1
    z = data.draw(in_box_points(grid))[0]
    if data.draw(st.integers(0, 9)) == 0:
        # a start outside the box fails the stage-1 lookup
        axis = data.draw(st.integers(0, 1))
        z[axis] = data.draw(st.sampled_from([-1.0, 1.0])) \
            * grid.lengths[axis]

    flow = FlowHistory(grid, None, None)
    flow.append(Snapshot(t0, vel, amp))
    flow.append(Snapshot(t1, vel_next, amp_next))
    want, want_err = _outcome(lambda: advance_positions(
        flow, np.atleast_2d(z), t0, t1))
    got, got_err = _outcome(lambda: advance_point(
        pair, pair_next, tuple(z), t0, t1))
    if want_err is not None:
        assert type(got_err) is type(want_err)
        assert str(got_err) == str(want_err)
        assert got_err.last_valid_time == want_err.last_valid_time
        return
    assert got_err is None
    z_new, stencil = got
    assert same_bits(np.array([z_new]), want[0])
    f = wide_field(grid, 5)
    assert same_bits(np.array([stencil.apply(f)]), want[1].apply(f))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_axis_slice_matches_its_numpy_form(data):
    grid = data.draw(pair_grids())
    f = wide_field(grid, data.draw(st.integers(0, 2**32 - 1)),
                   data.draw(st.sampled_from([0.0, 0.5])))
    axis = data.draw(st.integers(0, 1))
    half = 0.5 * grid.lengths[axis]
    coord = data.draw(st.one_of(
        st.sampled_from(list(grid.axes[axis])), st.just(-half),
        st.just(float(np.nextafter(half, 0.0))),
        st.floats(-half, half, exclude_max=True)))
    assert same_bits(_axis_slice(grid, f, axis, coord),
                     reference_axis_slice(grid, f, axis, coord))
