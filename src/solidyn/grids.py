"""Periodic grids, spectral differentiation, interpolation, and sampling.

Everything downstream (wave solvers, trajectory integrators, diagnostics)
lives on a periodic Cartesian box centered at the origin:

    x_j = -L/2 + j * dx,   dx = L / N,   j = 0 .. N-1

per axis, in natural units (hbar = c = 1).  Derivatives are computed in
Fourier space, so they are exact for band-limited fields; quadrature is the
rectangle rule, which is spectrally accurate for smooth periodic or rapidly
decaying integrands.

All operations are pure: they never mutate their inputs, so a field,
once produced, may be read by any number of later steps and readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteFieldError, SolidynError

# Hard cap on total sample count: 2**24 complex doubles is 256 MB, well
# within desk-scale memory for the 1D/2D runs this package targets.
MAX_TOTAL_SAMPLES = 2**24

# Width of the edge band `Grid.boundary_mass_fraction` measures, in samples.
BOUNDARY_CELLS = 3


class Grid:
    """Periodic Cartesian sample grid in 1 or 2 spatial dimensions.

    Parameters
    ----------
    points : int or sequence of int
        Samples per axis (powers of two recommended for FFT speed).
    lengths : float or sequence of float
        Physical box length per axis.
    """

    def __init__(self, points, lengths):
        if np.isscalar(points):
            points = (int(points),)
        if np.isscalar(lengths):
            lengths = (float(lengths),)
        self.points = tuple(int(n) for n in points)
        self.lengths = tuple(float(L) for L in lengths)
        self.dim = len(self.points)
        if self.dim not in (1, 2):
            raise SolidynError(f"grid dim must be 1 or 2, got {self.dim}")
        if len(self.lengths) != self.dim:
            raise SolidynError("points and lengths must have matching axis counts")
        if any(n <= 0 for n in self.points):
            raise SolidynError("points per axis must be positive")
        if any(L <= 0 for L in self.lengths):
            raise SolidynError("box lengths must be positive")
        # exact: the int64 np.prod of (2**32, 2**32) wraps to 0
        self.size = math.prod(self.points)
        if self.size > MAX_TOTAL_SAMPLES:
            raise SolidynError(
                f"total sample count {self.size} exceeds the "
                f"memory budget ({MAX_TOTAL_SAMPLES})"
            )
        self.spacing = tuple(L / n for L, n in zip(self.lengths, self.points))
        self.cell_volume = float(np.prod(self.spacing))
        self.shape = self.points
        # axis coordinates and spectral wavenumbers, cached once
        self.axes = tuple(
            -0.5 * L + dx * np.arange(n)
            for L, dx, n in zip(self.lengths, self.spacing, self.points)
        )
        self.wavenumbers = tuple(
            2.0 * np.pi * np.fft.fftfreq(n, d=dx)
            for n, dx in zip(self.points, self.spacing)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.points == other.points
            and self.lengths == other.lengths
        )

    def __repr__(self):
        return f"Grid(points={self.points}, lengths={self.lengths})"

    def meshes(self):
        """Coordinate arrays broadcast to the full grid shape (indexing='ij')."""
        if self.dim == 1:
            return (self.axes[0],)
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    def _k_along(self, axis):
        """Wavenumber array of axis `axis` shaped for broadcasting."""
        k = self.wavenumbers[axis]
        if self.dim == 1:
            return k
        shape = [1, 1]
        shape[axis] = self.points[axis]
        return k.reshape(shape)

    # ------------------------------------------------------------------
    # spectral differentiation
    # ------------------------------------------------------------------

    @cached_property
    def _ik(self):
        """Per-axis first-derivative multipliers 1j k, built once per grid."""
        return tuple(1j * self._k_along(a) for a in range(self.dim))

    @cached_property
    def _minus_k2(self):
        """Per-axis second-derivative multipliers -k^2, built once per grid."""
        return tuple(-(self._k_along(a) ** 2) for a in range(self.dim))

    @cached_property
    def _real_multipliers(self):
        """Multipliers of the real spectrum `np.fft.rfftn(f)`, stacked as
        (2 dim + 1, *spectrum shape) and built once per grid: i k_b per
        axis, -|k|^2, then -i k_b |k|^2 per axis.

        The spectrum's last axis keeps its n // 2 + 1 non-negative bins.
        Each odd-order multiplier is zero at the Nyquist bin of its axis
        b (n_b even): that term is imaginary, and the real part that
        `derivative` takes of a real input drops it.
        """
        k, k_odd = [], []
        for axis, (n, kb) in enumerate(zip(self.points, self.wavenumbers)):
            if axis == self.dim - 1:
                kb = kb[: n // 2 + 1]
            shape = [1] * self.dim
            shape[axis] = kb.size
            k.append(kb.reshape(shape))
            kb = kb.copy()
            if n % 2 == 0:
                kb[n // 2] = 0.0
            k_odd.append(kb.reshape(shape))
        minus_k2 = -sum(kb**2 for kb in k)
        rows = ([1j * kb for kb in k_odd] + [minus_k2]
                + [1j * (kb * minus_k2) for kb in k_odd])
        return np.stack([np.broadcast_to(r, minus_k2.shape) for r in rows])

    def real_derivatives(self, samples):
        """grad f, lap f and grad lap f of a real field f, stacked as
        (2 dim + 1, *grid shape), from one real FFT of f.

        Each equals the `gradient`/`laplacian` composition to round-off.
        The input and the Laplacian are checked as those calls check them.
        """
        _require_finite(samples, "second_derivative input")
        out = self._real_inverse(self._real_multipliers
                                 * self._real_spectrum(samples))
        _require_finite(out[self.dim], "derivative input")
        return out

    def real_laplacian(self, samples):
        """lap f of a real field f alone: the bits of row `dim` of
        `real_derivatives`, with the same two checks, from one real FFT
        pair of f and no other inverse rows."""
        _require_finite(samples, "second_derivative input")
        out = self._real_inverse(self._real_multipliers[self.dim]
                                 * self._real_spectrum(samples))
        _require_finite(out, "derivative input")
        return out

    def _real_spectrum(self, samples):
        """`np.fft.rfftn` of a real grid field.  On a 1D grid this is the
        one pocketfft call `rfftn` makes, without its per-axis
        bookkeeping, so the bits are the same."""
        if self.dim == 1:
            return np.fft.rfft(samples)
        return np.fft.rfftn(samples)

    def _real_inverse(self, spectra):
        """`np.fft.irfftn` over the last `dim` axes of `spectra` (real
        spectra of grid fields, optionally stacked), back to the grid
        shape; in 1D its one `irfft` call, with the same bits."""
        if self.dim == 1:
            return np.fft.irfft(spectra, n=self.points[0])
        return np.fft.irfftn(spectra, s=self.shape,
                             axes=range(spectra.ndim - self.dim, spectra.ndim))

    def derivative(self, samples, axis):
        """First derivative along one axis via FFT; dtype follows the input."""
        _require_finite(samples, "derivative input")
        return self._spectral(samples, axis, self._ik[axis])

    def second_derivative(self, samples, axis):
        """Second derivative along one axis via FFT (-k^2 multiplier)."""
        _require_finite(samples, "second_derivative input")
        return self._spectral(samples, axis, self._minus_k2[axis])

    def _spectral(self, samples, axis, multiplier):
        """ifft(multiplier * fft(samples)) along one axis, in the one array
        `fft` returns: the product and `ifft` write into it (`out=`), with
        the bits of the allocating calls.  The real part (a view) when
        `samples` is real."""
        out = np.fft.fft(samples, axis=axis)
        np.multiply(multiplier, out, out=out)
        np.fft.ifft(out, axis=axis, out=out)
        return out if np.iscomplexobj(samples) else out.real

    def gradient(self, samples):
        """All first derivatives, stacked as shape (dim, *grid shape)."""
        return np.stack([self.derivative(samples, a) for a in range(self.dim)])

    def laplacian(self, samples):
        """Sum of second derivatives over all axes."""
        out = self.second_derivative(samples, 0)
        for axis in range(1, self.dim):
            out = out + self.second_derivative(samples, axis)
        return out

    # ------------------------------------------------------------------
    # quadrature and moments
    # ------------------------------------------------------------------

    def integrate(self, samples):
        """Rectangle-rule integral over the box (`ndarray.sum`, the
        pairwise bits of `np.sum` without its wrapper)."""
        return samples.sum() * self.cell_volume

    def _moments(self, rho):
        """integral(rho), and per axis the mean and the variance of the law
        rho / integral(rho) (not wrap-aware)."""
        total = self.integrate(rho)
        means, variances = [], []
        for mesh in self.meshes():
            mean = self.integrate(rho * mesh) / total
            means.append(mean)
            variances.append(self.integrate(rho * (mesh - mean) ** 2) / total)
        return total, means, variances

    def boundary_mass_fraction(self, density, total):
        """Fraction of total mass within `BOUNDARY_CELLS` samples of any box
        edge; `total` is `density.sum()`, which the caller holds."""
        total = float(total)
        if total <= 0.0:
            return 0.0
        interior = density
        for axis in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[axis] = slice(BOUNDARY_CELLS,
                             self.points[axis] - BOUNDARY_CELLS)
            interior = interior[tuple(sl)]
        return float((total - interior.sum()) / total)

    # ------------------------------------------------------------------
    # off-grid evaluation
    # ------------------------------------------------------------------

    def _cell_coordinate(self, x, axis):
        """(x + L/2) / dx along one axis, of a float or an array (formed in
        place in the new array of the sum): the one coordinate-to-cell rule."""
        s = x + 0.5 * self.lengths[axis]
        s /= self.spacing[axis]
        return s

    def _fraction_index(self, coords, axis):
        """Cell index and fractional offset of coordinates along one axis
        (the offset is formed in place, in the array of the cell
        coordinate)."""
        s = self._cell_coordinate(coords, axis)
        base = np.floor(s)
        s -= base
        return base.astype(np.int64), s

    def contains(self, positions):
        """True where every coordinate lies inside the box (half-open)."""
        positions = np.atleast_2d(positions)
        ok = np.ones(positions.shape[0], dtype=bool)
        for axis in range(self.dim):
            half = 0.5 * self.lengths[axis]
            ok &= (positions[:, axis] >= -half) & (positions[:, axis] < half)
        return ok

    def stencil(self, positions):
        """Cubic interpolation stencil of off-grid points, for reuse.

        Validates the points (axis count, inside the box) and builds their
        4-point Lagrange weights and wrapped sample indices once; passing
        the returned `Stencil` to `interpolate` then evaluates any number of
        fields on this grid at those points.

        Parameters
        ----------
        positions : (n, dim) or (dim,) array of query points
        """
        positions = self._query_points(positions)
        if not np.all(self.contains(positions)):
            raise SolidynError("interpolation point outside the box")
        return self._stencil_in_box(positions)

    def _query_points(self, positions):
        """Query points as an (n, dim) float array; checks the axis count."""
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        if positions.shape[1] != self.dim:
            raise SolidynError(
                f"query points have dim {positions.shape[1]}, grid has {self.dim}"
            )
        return positions

    @cached_property
    def _wrap_tables(self):
        """Per axis, the (4, n + 1) wrapped sample indices of every cell,
        built once per grid: column base holds (base + o) % n for the
        stencil offsets o = -1, 0, 1, 2, for each cell index 0 <= base <= n
        of a point inside the box (base == n where a coordinate just below
        L/2 rounds up to the box length).  One `take` of the columns gives
        a stencil's (4, m) indices."""
        return tuple((np.arange(n + 1) + np.arange(-1, 3)[:, None]) % n
                     for n in self.points)

    def _stencil_in_box(self, positions):
        """`stencil` of (n, dim) points whose box test the caller has made."""
        weights = []
        indices = []
        for axis in range(self.dim):
            base, frac = self._fraction_index(positions[:, axis], axis)
            weights.append(_cubic_weights(frac))
            indices.append(self._wrap_tables[axis].take(base, axis=1))
        if self.dim == 2:
            # broadcast to the (4, 4, n) block of the 2D gather
            indices = [indices[0][:, None, :], indices[1][None, :, :]]
        return Stencil(positions, weights, tuple(indices))

    def point_stencil(self, position):
        """`stencil` of one point, in Python floats (see `PointStencil`).

        Raises like `stencil` for a wrong axis count (`_query_points`) or a
        point outside the box, and for more than one point.
        """
        points = self._query_points(position)
        if len(points) != 1:
            raise SolidynError(
                f"a point stencil takes one point, got {len(points)}")
        position = tuple(points[0].tolist())
        if not self.contains_point(position):
            raise SolidynError("interpolation point outside the box")
        return self._point_stencil_in_box(position)

    def contains_point(self, position):
        """`contains` of one point given as per-axis floats."""
        for c, L in zip(position, self.lengths):
            half = 0.5 * L
            if not -half <= c < half:
                return False
        return True

    def _point_stencil_in_box(self, position):
        """`point_stencil` of a point whose box test the caller has made."""
        weights, indices = [], []
        for axis, c in enumerate(position):
            w, i = self._axis_cell(c, axis)
            weights.append(w)
            indices.append(i)
        return PointStencil(position, weights, indices)

    def _axis_cell(self, c, axis):
        """The four cubic weights and wrapped sample indices of a coordinate
        inside the box along one axis: the index, offset and weight
        arithmetic of `_fraction_index` and `_cubic_weights` in Python
        floats and ints, with the same bits."""
        s = self._cell_coordinate(c, axis)
        base = math.floor(s)
        n = self.points[axis]
        return (_cubic_weight_terms(s - base),
                ((base - 1) % n, base % n, (base + 1) % n, (base + 2) % n))

    def interpolate(self, samples, positions):
        """Separable cubic (4-point Lagrange) interpolation at off-grid points.

        Exact for polynomials of degree <= 3 per axis on the wrapped stencil;
        positions must lie inside the box.  At a sample node the result is
        the stored sample only where the node's coordinate maps back to its
        own cell exactly (e.g. power-of-two spacing); elsewhere it may land
        in the previous cell with an offset just under 1 and differ from the
        sample by round-off.

        Every interpolation goes through here, so profiles count it under
        one name.  To evaluate several fields at the same points, build
        `stencil(positions)` once and pass it as `positions`; for one point,
        `point_stencil(position)` gives the same value as a Python float.

        Parameters
        ----------
        samples : ndarray of the grid shape, or a field indexed like one
            (such as a component of the pair wave's velocity lines)
        positions : (n, dim) or (dim,) array of query points, or a
            `Stencil` or `PointStencil` built by this grid

        Returns
        -------
        ndarray of n interpolated values (dtype follows `samples`), or a
        float for a `PointStencil` of a real field.
        """
        if not isinstance(positions, (Stencil, PointStencil)):
            positions = self.stencil(positions)
        return positions.apply(samples)

    # ------------------------------------------------------------------
    # Born-rule sampling
    # ------------------------------------------------------------------

    def sample_density(self, density, count, seed):
        """Draw `count` positions from a non-negative density on this grid.

        Inverse-CDF over the flattened (row-major) grid density using
        jitter-stratified probes u_i = (i + r_i)/count.  Each probe's
        remainder within its cell's CDF span supplies the intra-cell jitter
        along the last axis (the exact inverse of the piecewise-linear CDF);
        any remaining axes jitter uniformly from the seeded generator.
        Stratification keeps interval counts within O(1) of expectation,
        which the equivariance diagnostics rely on; plain multinomial draws
        would add O(sqrt(bins/count)) histogram noise.  Deterministic for a
        fixed seed.
        """
        density = np.asarray(density, dtype=float)
        if density.shape != self.shape:
            raise SolidynError("density shape does not match the grid")
        if np.any(density < 0.0):
            raise SolidynError("density must be non-negative")
        flat = density.reshape(-1)
        total = flat.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise SolidynError("density integrates to zero; cannot sample")
        cdf = np.cumsum(flat) / total
        rng = np.random.default_rng(seed)
        probes = (np.arange(count) + rng.random(count)) / count
        cells = np.searchsorted(cdf, probes, side="right")
        cells = np.minimum(cells, flat.size - 1)
        below = np.where(cells > 0, cdf[cells - 1], 0.0)
        span = cdf[cells] - below
        with np.errstate(invalid="ignore", divide="ignore"):
            remainder = np.where(span > 0, (probes - below) / span, 0.5)
        remainder = np.clip(remainder, 0.0, np.nextafter(1.0, 0.0))
        multi = np.unravel_index(cells, self.shape)
        out = np.empty((count, self.dim), dtype=float)
        for axis in range(self.dim):
            jitter = remainder if axis == self.dim - 1 else rng.random(count)
            out[:, axis] = (
                -0.5 * self.lengths[axis]
                + (multi[axis] + jitter) * self.spacing[axis]
            )
        return out


class Stencil:
    """Cubic weights and wrapped sample indices of points on one grid.

    Built by `Grid.stencil`; `positions` is the validated (n, dim) array.
    """

    __slots__ = ("positions", "weights", "indices")

    def __init__(self, positions, weights, indices):
        self.positions = positions
        self.weights = weights      # per axis, (4, n)
        self.indices = indices      # gather index of the 4 or 4x4 samples

    def apply(self, samples):
        """Interpolated values of `samples` (the grid shape) at the points;
        the dtype follows `samples`.  A 1D gather is one `np.take` of the
        (4, n) samples, the values and layout of `samples[indices]`."""
        if len(self.weights) == 1:
            return np.einsum("sn,sn->n", self.weights[0],
                             np.take(samples, self.indices[0]))
        # 2D: reduce the second axis first, then the first.
        vals = samples[self.indices]                    # (4, 4, n)
        partial = np.einsum("tn,stn->sn", self.weights[1], vals)
        return np.einsum("sn,sn->n", self.weights[0], partial)


class PointStencil:
    """Cubic weights and wrapped sample indices of one point, as Python
    floats and ints.

    Built by `Grid.point_stencil`.  `apply` returns the bits that
    `Stencil.apply` returns for the same point: the same weights, and per
    axis the four products summed as numpy's einsum sums four terms of one
    point, 0.0 + ((w0 v0 + w2 v2) + (w1 v1 + w3 v3)) (the stencil property
    tests check this).  Without numpy's per-call overhead a 1D one-point
    lookup costs about a microsecond.

    In 2D, `apply` reads the 4x4 block through one broadcast gather index,
    `block`, as `Stencil.apply` reads its blocks, so a field derived on
    demand (the pair wave's velocity lines) serves the block at once.
    """

    __slots__ = ("position", "weights", "indices", "block")

    def __init__(self, position, weights, indices):
        self.position = position    # per axis, the point's float
        self.weights = weights      # per axis, 4 floats
        self.indices = indices      # per axis, 4 wrapped sample indices
        if len(indices) == 2:
            self.block = (np.array(indices[0]).reshape(4, 1),
                          np.array(indices[1]).reshape(1, 4))

    def apply(self, samples):
        """Interpolated value of a real field `samples` (the grid shape)."""
        if len(self.weights) == 1:
            value = samples.item
            i0, i1, i2, i3 = self.indices[0]
            return _sum4(self.weights[0], value(i0), value(i1), value(i2),
                         value(i3))
        # 2D: reduce the second axis first, then the first (as Stencil)
        w1 = self.weights[1]
        return _sum4(self.weights[0], *(
            _sum4(w1, *row) for row in samples[self.block].tolist()))


def _sum4(w, v0, v1, v2, v3):
    """Four-term dot product as einsum forms it for one point: the pairwise
    sum added to a zeroed output (which turns a -0.0 sum into +0.0)."""
    return 0.0 + ((w[0] * v0 + w[2] * v2) + (w[1] * v1 + w[3] * v3))


def _cubic_weights(frac):
    """Lagrange weights on the stencil {-1, 0, 1, 2} for offset frac in [0,1).

    Returns shape (4, n).  At frac == 0 the weights are exactly (0, 1, 0, 0),
    so a query whose offset computes to exactly 0 reproduces the stored
    sample bit-for-bit.

    Fourteen passes: f - 1, f - 2 and f + 1 are formed once, (f + 1) f once
    for both upper weights, and each weight is written in place into its
    row with the products of `_cubic_weight_terms` in its order.  The signs
    move to the final scaling, and the halves are products by 0.5: negation
    and scaling by a power of two are exact, so the bits are those of
    stacking its terms.
    """
    f = frac
    fm1, fm2, fp1 = f - 1.0, f - 2.0, f + 1.0
    out = np.empty((4,) + f.shape)
    w_m1, w_0, w_p1, w_p2 = out
    np.multiply(f, fm1, out=w_m1)
    w_m1 *= fm2
    w_m1 /= -6.0
    np.multiply(fp1, fm1, out=w_0)
    w_0 *= fm2
    w_0 *= 0.5
    np.multiply(fp1, f, out=w_p2)
    np.multiply(w_p2, fm2, out=w_p1)
    w_p1 *= -0.5
    w_p2 *= fm1
    w_p2 /= 6.0
    return out


def _cubic_weight_terms(f):
    """The four weights of `_cubic_weights`, for a float or an array."""
    w_m1 = -f * (f - 1.0) * (f - 2.0) / 6.0
    w_0 = (f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0
    w_p1 = -(f + 1.0) * f * (f - 2.0) / 2.0
    w_p2 = (f + 1.0) * f * (f - 1.0) / 6.0
    return w_m1, w_0, w_p1, w_p2


@dataclass
class Field:
    """Scalar field samples (real or complex) tagged with a simulation time."""

    grid: Grid
    samples: np.ndarray
    time_tag: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.shape != self.grid.shape:
            raise SolidynError("sample count does not match the grid")

    def density(self):
        """|samples|^2 as a real array (squared in place: the bits of
        `np.abs(samples) ** 2`)."""
        rho = np.abs(self.samples)
        return np.square(rho, out=rho)

    def norm(self):
        """Integral of |samples|^2 over the box."""
        return float(self.grid.integrate(self.density()))


def _require_finite(samples, context):
    if not np.isfinite(samples).all():
        raise NonFiniteFieldError(f"non-finite values in {context}")
