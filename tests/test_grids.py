"""Tests for periodic grids, spectral operators, interpolation, and sampling."""

import numpy as np
import pytest

from solidyn.errors import SolidynError
from solidyn.grids import Field, Grid


def test_grid_coordinates_and_spacing():
    g = Grid(256, 20.0)
    assert g.dim == 1
    assert g.spacing[0] == pytest.approx(20.0 / 256)
    assert g.axes[0][0] == pytest.approx(-10.0)
    # x_j = -L/2 + j dx
    assert g.axes[0][10] == pytest.approx(-10.0 + 10 * g.spacing[0])


def test_grid_rejects_bad_shapes():
    with pytest.raises(SolidynError):
        Grid((8, 8, 8), (1.0, 1.0, 1.0))
    with pytest.raises(SolidynError):
        Grid(0, 1.0)
    with pytest.raises(SolidynError):
        Grid(8, -1.0)
    with pytest.raises(SolidynError):
        Grid((1 << 13, 1 << 13), (1.0, 1.0))  # 2**26 samples, over budget


def test_gradient_of_resonant_sine():
    g = Grid(128, 4.0)
    x = g.axes[0]
    f = np.sin(2 * np.pi * x / 4.0)
    df = g.gradient(f)[0]
    expected = (2 * np.pi / 4.0) * np.cos(2 * np.pi * x / 4.0)
    assert np.max(np.abs(df - expected)) < 1e-12


def test_gradient_of_constant_is_zero():
    g = Grid((32, 32), (5.0, 3.0))
    f = np.full(g.shape, 2.5)
    grad = g.gradient(f)
    assert np.max(np.abs(grad)) < 1e-13


def test_gradient_of_gaussian_matches_analytic():
    # e^{-x^2/2} on L=40, N=512: tails below round-off at the boundary
    g = Grid(512, 40.0)
    x = g.axes[0]
    f = np.exp(-0.5 * x**2)
    df = g.gradient(f)[0]
    assert np.max(np.abs(df - (-x * f))) < 1e-10


def test_laplacian_of_resonant_sine():
    g = Grid(128, 4.0)
    x = g.axes[0]
    k = 2 * 2 * np.pi / 4.0  # second harmonic, grid resonant
    f = np.sin(k * x)
    lap = g.laplacian(f)
    assert np.max(np.abs(lap + k * k * f)) < 1e-11


def test_laplacian_of_gaussian_matches_analytic():
    g = Grid(512, 40.0)
    x = g.axes[0]
    f = np.exp(-0.5 * x**2)
    lap = g.laplacian(f)
    assert np.max(np.abs(lap - (x**2 - 1.0) * f)) < 1e-9


def test_laplacian_of_zero_is_zero():
    g = Grid(64, 1.0)
    assert np.max(np.abs(g.laplacian(np.zeros(64)))) == 0.0


def test_operators_are_linear():
    g = Grid(128, 7.0)
    rng = np.random.default_rng(3)
    # band-limit the random fields so round-off comparisons are meaningful
    def smooth():
        spec = np.zeros(128, dtype=complex)
        spec[:12] = rng.normal(size=12) + 1j * rng.normal(size=12)
        spec[-11:] = np.conj(spec[1:12][::-1])
        return np.fft.ifft(spec).real

    a, b = smooth(), smooth()
    alpha, beta = 1.7, -0.3
    for op in (g.laplacian, lambda f: g.gradient(f)[0]):
        lhs = op(alpha * a + beta * b)
        rhs = alpha * op(a) + beta * op(b)
        scale = np.max(np.abs(rhs)) + 1e-30
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_laplacian_equals_div_grad():
    g = Grid((64, 64), (5.0, 8.0))
    xs, ys = g.meshes()
    f = np.exp(np.sin(2 * np.pi * xs / 5.0) + np.cos(2 * np.pi * ys / 8.0))
    lap = g.laplacian(f)
    divgrad = g.divergence(g.gradient(f))
    scale = np.max(np.abs(lap))
    assert np.max(np.abs(lap - divgrad)) / scale < 1e-10


def test_integral_of_gradient_component_vanishes():
    g = Grid(256, 11.0)
    x = g.axes[0]
    f = np.exp(np.cos(2 * np.pi * x / 11.0))
    assert abs(g.integrate(g.gradient(f)[0])) < 1e-12


def test_integrate_constant_gives_volume():
    g = Grid((32, 16), (2.0, 3.0))
    assert g.integrate(np.ones(g.shape)) == pytest.approx(6.0)


def test_integrate_gaussian_gives_sqrt_pi():
    g = Grid(512, 40.0)
    x = g.axes[0]
    assert g.integrate(np.exp(-(x**2))) == pytest.approx(np.sqrt(np.pi), abs=1e-12)


def test_integrate_zero_field():
    g = Grid(16, 1.0)
    assert g.integrate(np.zeros(16)) == 0.0


def test_interpolate_exact_at_nodes():
    g = Grid(64, 8.0)
    rng = np.random.default_rng(0)
    f = rng.normal(size=64)
    pts = g.axes[0][[3, 17, 40]].reshape(-1, 1)
    vals = g.interpolate(f, pts)
    assert np.array_equal(vals, f[[3, 17, 40]])


def test_interpolate_linear_ramp_midcell():
    # cubic reproduces linears away from the periodic seam
    g = Grid(64, 8.0)
    f = 3.0 * g.axes[0] + 1.0
    x = g.axes[0][30] + 0.5 * g.spacing[0]
    val = g.interpolate(f, [[x]])[0]
    assert val == pytest.approx(3.0 * x + 1.0, abs=1e-13)


def test_interpolate_gaussian_off_node():
    g = Grid(256, 20.0)
    sig = 1.5
    f = np.exp(-0.5 * (g.axes[0] / sig) ** 2)
    x = g.axes[0][128] + 0.37 * g.spacing[0]
    val = g.interpolate(f, [[x]])[0]
    assert abs(val - np.exp(-0.5 * (x / sig) ** 2)) < 1e-6


def test_interpolate_rejects_outside_box():
    g = Grid(32, 4.0)
    with pytest.raises(SolidynError):
        g.interpolate(np.zeros(32), [[2.5]])


def test_interpolate_2d_node_and_offnode():
    g = Grid((128, 128), (10.0, 10.0))
    xs, ys = g.meshes()
    f = np.exp(-0.5 * (xs**2 + ys**2))
    # node query
    p_node = [g.axes[0][20], g.axes[1][33]]
    assert g.interpolate(f, [p_node])[0] == f[20, 33]
    # off-node query
    p = [0.13, -0.41]
    val = g.interpolate(f, [p])[0]
    assert abs(val - np.exp(-0.5 * (p[0] ** 2 + p[1] ** 2))) < 1e-5


def test_stencil_rejects_wrong_axis_count():
    with pytest.raises(SolidynError, match="dim"):
        Grid(32, 4.0).stencil([[0.1, 0.2]])


def test_sample_density_delta_cell():
    g = Grid(64, 8.0)
    rho = np.zeros(64)
    rho[20] = 1.0
    pts = g.sample_density(rho, 200, seed=4)
    lo = g.axes[0][20]
    assert np.all((pts[:, 0] >= lo) & (pts[:, 0] < lo + g.spacing[0]))


def test_sample_density_uniform_counts():
    # per-cell counts within 5 sigma of the multinomial expectation
    g = Grid(64, 8.0)
    rho = np.ones(64)
    n = 100_000
    pts = g.sample_density(rho, n, seed=11)
    idx = np.floor((pts[:, 0] + 4.0) / g.spacing[0]).astype(int)
    counts = np.bincount(idx, minlength=64)
    expected = n / 64
    sigma = np.sqrt(n * (1 / 64) * (1 - 1 / 64))
    assert np.max(np.abs(counts - expected)) < 5 * sigma


def test_sample_density_deterministic():
    g = Grid(32, 4.0)
    rho = np.exp(-g.axes[0] ** 2)
    a = g.sample_density(rho, 50, seed=123)
    b = g.sample_density(rho, 50, seed=123)
    assert np.array_equal(a, b)


def test_sample_density_rejects_zero_density():
    g = Grid(32, 4.0)
    with pytest.raises(SolidynError):
        g.sample_density(np.zeros(32), 10, seed=0)


def test_sample_density_2d_marginals():
    g = Grid((32, 32), (8.0, 8.0))
    xs, ys = g.meshes()
    rho = np.exp(-(xs**2) - 0.5 * ys**2)
    pts = g.sample_density(rho, 20_000, seed=7)
    assert pts.shape == (20_000, 2)
    # sampled second moments close to the density's moments
    var_x = g.integrate(rho * xs**2) / g.integrate(rho)
    var_y = g.integrate(rho * ys**2) / g.integrate(rho)
    assert np.var(pts[:, 0]) == pytest.approx(var_x, rel=0.05)
    assert np.var(pts[:, 1]) == pytest.approx(var_y, rel=0.05)


def test_field_norm_and_validation():
    g = Grid(256, 24.0)
    psi = Field(g, np.exp(-0.5 * g.axes[0] ** 2).astype(complex))
    assert psi.norm() == pytest.approx(np.sqrt(np.pi), abs=1e-10)
    with pytest.raises(SolidynError):
        Field(g, np.zeros(32))


# the conserved charge is P_t = 2 omega0 C, C = `Field.norm()`; doubling is
# exact, so these are the checks of P_t at half its tolerances


def test_field_norm_gausson():
    g = Grid(256, 24.0)
    amp = 1.7
    u = Field(g, amp * np.exp(-0.5 * g.axes[0] ** 2).astype(complex))
    assert u.norm() == pytest.approx(amp**2 * np.sqrt(np.pi), abs=5e-13)


def test_field_norm_quadratic_scaling():
    g = Grid(256, 24.0)
    u = Field(g, np.exp(-0.5 * g.axes[0] ** 2).astype(complex))
    u3 = Field(g, 3.0 * u.samples)
    assert u3.norm() == pytest.approx(9 * u.norm(), rel=1e-13)


def test_field_norm_zero_field():
    g = Grid(64, 8.0)
    assert Field(g, np.zeros(64, dtype=complex)).norm() == 0.0


def _written_out(grid, samples, axis, order):
    """The derivative with its multiplier built in place, per call."""
    k = grid._k_along(axis)
    mult = 1j * k if order == 1 else -(k ** 2)
    out = np.fft.ifft(mult * np.fft.fft(samples, axis=axis), axis=axis)
    return out if np.iscomplexobj(samples) else out.real


@pytest.mark.parametrize("shape, lengths", [((64,), (7.0,)),
                                            ((16, 24), (5.0, 3.0))])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_derivatives_match_per_call_multipliers(shape, lengths,
                                                complex_valued):
    # the multipliers built once per grid give the per-call bits
    g = Grid(shape, lengths)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(shape)
    if complex_valued:
        f = f + 1j * rng.standard_normal(shape)
    for axis in range(g.dim):
        first = _written_out(g, f, axis, 1)
        second = _written_out(g, f, axis, 2)
        assert np.array_equal(g.derivative(f, axis), first)
        assert np.array_equal(g.second_derivative(f, axis), second)
    assert g._ik is g._ik and g._minus_k2 is g._minus_k2


@pytest.mark.parametrize("shape, lengths", [((64,), (7.0,)),
                                            ((63,), (7.0,)),
                                            ((16, 24), (5.0, 3.0)),
                                            ((15, 25), (5.0, 3.0))])
def test_real_derivatives_match_the_complex_compositions(shape, lengths):
    # grad f, lap f and grad lap f from one real spectrum equal gradient,
    # laplacian and gradient(laplacian) to round-off, on even and odd axes
    # (a random field fills the Nyquist bins), from one real FFT of f
    # (`rfft` on a 1D grid, `rfftn` on a 2D one)
    g = Grid(shape, lengths)
    f = np.random.default_rng(4).standard_normal(shape)
    lap = g.laplacian(f)
    want = np.concatenate([g.gradient(f), lap[None], g.gradient(lap)])
    calls = []

    with pytest.MonkeyPatch.context() as patch:
        for name in ("rfft", "rfftn"):
            def counting(x, *args, _real=getattr(np.fft, name), **kwargs):
                calls.append(x)
                return _real(x, *args, **kwargs)

            patch.setattr(np.fft, name, counting)
        got = g.real_derivatives(f)
    assert len(calls) == 1 and calls[0] is f
    assert got.shape == (2 * g.dim + 1,) + g.shape
    for row, ref in zip(got, want):
        assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert g._real_multipliers is g._real_multipliers


@pytest.mark.parametrize("bad, message", [(np.inf, "second_derivative input"),
                                          (1e306, "derivative input")])
def test_real_derivatives_check_their_input_and_laplacian(bad, message):
    # a non-finite input, or a Laplacian that overflows, fails with the
    # message of the per-axis call it replaces
    g = Grid(32, 4.0)
    f = np.ones(32)
    f[5] = bad
    with np.errstate(all="ignore"), pytest.raises(
            SolidynError, match=f"^non-finite values in {message}$"):
        g.real_derivatives(f)


@pytest.mark.parametrize("shape, lengths", [((256,), (24.0,)),
                                            ((512,), (16 * np.pi,)),
                                            ((100,), (7.0,)),
                                            ((63,), (7.0,)),
                                            ((16, 24), (4.0, 3.0)),
                                            ((15, 25), (5.0, 3.0))])
def test_real_laplacian_has_the_bits_of_the_laplacian_row(shape, lengths):
    # the one-row inverse gives row `dim` of `real_derivatives` bit for
    # bit, on power-of-two spacings and on other spacings
    g = Grid(shape, lengths)
    f = np.random.default_rng(5).standard_normal(shape)
    want = g.real_derivatives(f)[g.dim]
    assert g.real_laplacian(f).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape, lengths", [((14,), (3.0,)),
                                            ((63,), (7.0,)),
                                            ((255,), (20.0,)),
                                            ((256,), (24.0,)),
                                            ((512,), (16 * np.pi,)),
                                            ((2048,), (60.0,)),
                                            ((15, 25), (5.0, 3.0))])
def test_real_transforms_keep_the_bits_of_rfftn(shape, lengths):
    # a 1D grid runs rfft/irfft, the one call rfftn/irfftn would make; the
    # rows have the bits of the rfftn/irfftn body
    g = Grid(shape, lengths)
    f = np.random.default_rng(6).standard_normal(shape)
    spectrum = np.fft.rfftn(f)
    want = np.fft.irfftn(g._real_multipliers * spectrum, s=g.shape,
                         axes=range(1, g.dim + 1))
    assert g.real_derivatives(f).tobytes() == want.tobytes()
    want = np.fft.irfftn(g._real_multipliers[g.dim] * spectrum, s=g.shape,
                         axes=range(g.dim))
    assert g.real_laplacian(f).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad, message", [(np.inf, "second_derivative input"),
                                          (1e306, "derivative input")])
def test_real_laplacian_checks_its_input_and_result(bad, message):
    # the two checks of `real_derivatives`, with its messages
    g = Grid(32, 4.0)
    f = np.ones(32)
    f[5] = bad
    with np.errstate(all="ignore"), pytest.raises(
            SolidynError, match=f"^non-finite values in {message}$"):
        g.real_laplacian(f)
