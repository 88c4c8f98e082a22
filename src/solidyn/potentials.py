"""External electromagnetic potentials in the restricted gauge.

The vector potential is spatially uniform, A = A(t), so the Coulomb gauge
div A = 0 holds identically and the magnetic field B = curl A vanishes.
The electric field is then E(t, x) = -dA/dt - grad V, and the Lorentz force
on a charge e reduces to e E.  This covers every configuration the solvers
need: free motion, uniform electric fields (as a linear scalar ramp or a
time-ramped vector potential), and harmonic traps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stepping import cached, kinetic_multiplier


@dataclass(frozen=True)
class PhysicalParams:
    """Rest mass omega0 (inverse length, hbar = c = 1) and charge e."""

    omega0: float
    charge: float = 1.0

    def __post_init__(self):
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")


class Potentials:
    """Scalar potential V(t, x) plus a spatially uniform vector potential A(t).

    V and its gradient are supplied as callables of (t, coords) where coords
    is a tuple of per-axis coordinate arrays (broadcastable); A and dA/dt are
    callables of t returning a length-dim vector.

    A V given as a raw callable is assumed to depend on t and is sampled
    anew at every call.  An omitted V (zero) and the V of the named
    constructors below are static: a static V is sampled once per grid, and
    the split-step factors built from it are memoized (see
    `stepping.cached`).

    `zero_field` is true when neither a scalar gradient nor a vector rate
    was given, so E = -dA/dt - grad V is -0.0 everywhere at all times (the
    bits of the general path): `electric_field` then calls no component
    function, and the soliton runs skip work whose result they know
    (`soliton._density_mean_force`, and the E of `classical_trajectory`
    and `run_coupled`, taken once).  `has_vector` is true when an A was
    given; the Klein-Gordon and pair sectors, which ignore A, refuse it.
    """

    def __init__(self, dim, scalar=None, scalar_gradient=None,
                 vector=None, vector_rate=None):
        self.dim = dim
        zero_vec = np.zeros(dim)
        self._scalar = scalar or (lambda t, coords: 0.0)
        self._scalar_gradient = scalar_gradient or (
            lambda t, coords: tuple(0.0 for _ in range(dim)))
        self._vector = vector or (lambda t: zero_vec)
        self._vector_rate = vector_rate or (lambda t: zero_vec)
        self.time_dependent = scalar is not None
        self.has_vector = vector is not None
        self.zero_field = scalar_gradient is None and vector_rate is None
        self._factors = {}

    # -- evaluation ------------------------------------------------------

    def _memo(self, name, grid, key, build):
        """build(), memoized per grid when V is static."""
        if self.time_dependent:
            return build()
        return cached(self._factors, name, grid, key, build)

    def scalar_on_grid(self, grid, t):
        """V(t, .) sampled on the grid (always a full array; read-only and
        sampled once per grid when V is static)."""
        def sample():
            v = self._scalar(t, grid.meshes())
            return np.broadcast_to(np.asarray(v, dtype=float),
                                   grid.shape).copy() \
                if np.ndim(v) == 0 else np.asarray(v, dtype=float)
        return self._memo("scalar", grid, None, sample)

    def linear_potential(self, grid, mass, charge, t):
        """mass + charge * V(t, .) on the grid, the linear part of the
        split-step potential W."""
        return self._memo(
            "linear", grid, (mass, charge),
            lambda: mass + charge * self.scalar_on_grid(grid, t))

    def half_phase(self, grid, mass, charge, dt, t):
        """Strang half phase exp(-i dt (mass + charge V(t)) / 2); for a static
        V one array serves both halves of every step."""
        return self._memo(
            "half", grid, (mass, charge, dt),
            lambda: np.exp(-0.5j * dt * self.linear_potential(
                grid, mass, charge, t)))

    def kinetic_phase(self, grid, mass, charge, dt, t):
        """`kinetic_multiplier` with A(t), rebuilt only when the grid, mass,
        charge, A or dt differ from the previous call on that grid."""
        avec = self.vector(t)
        key = (mass, charge, tuple(avec.tolist()), dt)
        return cached(self._factors, "kinetic", grid, key,
                      lambda: kinetic_multiplier(grid, mass, charge, avec, dt))

    def vector(self, t):
        return np.asarray(self._vector(t), dtype=float)

    def electric_field(self, t, positions):
        """E = -dA/dt - grad V at particle positions, shape (n, dim)."""
        positions = np.atleast_2d(positions)
        if self.zero_field:
            return np.full(positions.shape, -0.0)
        coords = tuple(positions[:, a] for a in range(self.dim))
        gradv = self._scalar_gradient(t, coords)
        out = np.empty(positions.shape, dtype=float)
        rate = np.asarray(self._vector_rate(t), dtype=float)
        for a in range(self.dim):
            out[:, a] = -rate[a] - np.broadcast_to(
                np.asarray(gradv[a], dtype=float), positions.shape[:1])
        return out

    # -- constructors ----------------------------------------------------

    @classmethod
    def free(cls, dim=1):
        return cls(dim)

    @classmethod
    def uniform_field(cls, e_field, dim=1):
        """Uniform electric field along the first axis via a linear scalar
        ramp V = -E x_0.

        Periodic boxes tolerate the seam because runs keep the wave mass away
        from the edges (boundary watchdog).
        """
        def scalar(t, coords):
            return -e_field * coords[0]

        def gradient(t, coords):
            return tuple(-e_field if a == 0 else 0.0 for a in range(dim))

        pot = cls(dim, scalar=scalar, scalar_gradient=gradient)
        pot.time_dependent = False
        return pot

    @classmethod
    def vector_ramp(cls, e_field, dim=1):
        """Uniform electric field along the first axis via A(t) = -E t (no
        scalar seam at all)."""
        direction = np.zeros(dim)
        direction[0] = 1.0

        return cls(
            dim,
            vector=lambda t: -e_field * t * direction,
            vector_rate=lambda t: -e_field * direction,
        )

    @classmethod
    def harmonic(cls, spring, dim=1):
        """Harmonic trap V = (k/2) |x|^2."""
        def scalar(t, coords):
            out = 0.0
            for c in coords:
                out = out + 0.5 * spring * c**2
            return out

        def gradient(t, coords):
            return tuple(spring * c for c in coords)

        pot = cls(dim, scalar=scalar, scalar_gradient=gradient)
        pot.time_dependent = False
        return pot
