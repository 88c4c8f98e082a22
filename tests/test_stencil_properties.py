"""Property tests of the cubic interpolation stencil (needs Hypothesis).

`Grid.stencil(p).apply(f)` must reproduce, bit for bit, the per-call
reference interpolation in `interp_reference.py`.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from interp_reference import reference_interpolate, same_bits  # noqa: E402
from solidyn.errors import SolidynError  # noqa: E402
from solidyn.grids import Grid  # noqa: E402


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
