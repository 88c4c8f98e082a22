"""Shared time-stepping kernels: Strang split steps and the time loop.

Every wave run advances through `drive`, the one loop over wave steps.  The
same Strang kernel drives the linear Schrodinger wave, the nonlinear
u-field, and the two-particle configuration-space wave; only the phase
factors and the kinetic Fourier multiplier differ, and factors that do not
change from step to step (and a static E on the grid) are built once and
memoized with `cached`.  On a 1D grid the kernel runs the 1D transforms,
which give the bits of the n-dimensional ones.  Phase
sub-steps multiply by unit-modulus factors, so |field| is untouched by them
and the total norm is conserved to round-off by the kinetic step's
unitarity.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .errors import NonFiniteFieldError

# Relative amplitude thresholds shared by all solvers: below NODE_MASK_REL
# times the peak amplitude, Madelung quantities are masked and trajectories
# abort.  Only `FlowHistory.proximity_flags`, which the benchmark's layer
# list names and no walk calls, reads NODE_PROXIMITY_REL.
NODE_MASK_REL = 1e-8
NODE_PROXIMITY_REL = 1e-6
BOUNDARY_MASS_LIMIT = 1e-8


def strang_step(samples, half_start, half_end, kinetic_phase):
    """One Strang split step of i du/dt = (W + K) u.

    Parameters
    ----------
    samples : complex ndarray
    half_start : first half phase exp(-i dt W(t) / 2) (`_half_phase`).
    half_end : second half phase exp(-i dt W(t + dt) / 2), or a callable
        receiving the post-kinetic samples and returning it (for nonlinear W).
    kinetic_phase : precomputed exp(-i dt K) multiplier in Fourier space.

    The output is built once, as half_start * samples, and both transforms
    then run in place on it (`out=`), so a step holds one grid array and
    `samples` is never written.  A 1D step calls `fft`/`ifft`, the one
    pocketfft call that `fftn`/`ifftn` would make without their per-axis
    bookkeeping, so the bits are the same.
    """
    out = half_start * samples
    forward, inverse = ((np.fft.fft, np.fft.ifft) if out.ndim == 1
                        else (np.fft.fftn, np.fft.ifftn))
    forward(out, out=out)
    out *= kinetic_phase
    inverse(out, out=out)
    if callable(half_end):
        half_end = half_end(out)
    out *= half_end
    return out


def _half_phase(w, dt, out=None):
    """The Strang half phase exp(-i dt w / 2) of a real potential `w`, with
    the bits of `np.exp` of the complex product -0.5j dt w, which is
    (+0.0, (-0.5 dt) w + 0.0): cos and sin of that angle are written into
    the real and imaginary views of `out` (a new complex array by
    default), and `w` becomes the angle.  Without the `+ 0.0` a w of +0.0
    would give the angle -0.0 and the sine -0.0, and with `w * -0.5 * dt`
    a subnormal w would round twice."""
    if out is None:
        out = np.empty(w.shape, dtype=complex)
    w *= -0.5 * dt
    w += 0.0
    np.cos(w, out=out.real)
    np.sin(w, out=out.imag)
    return out


def kinetic_multiplier(grid, mass, charge, vector_potential, dt):
    """exp(-i dt sum_a (k_a - eA_a)^2 / (2 m_a)) on the grid's wavenumber
    lattice; `mass` is one rest mass or one per axis."""
    masses = np.broadcast_to(mass, (grid.dim,))
    total = 0.0
    for axis in range(grid.dim):
        k = grid._k_along(axis)
        total = total + (k - charge * vector_potential[axis]) ** 2 \
            / (2.0 * masses[axis])
    return np.exp(-1j * dt * total)


def cached(store, name, grid, key, build):
    """Return build(), memoized in the dict `store` per (name, grid) for `key`.

    Each (name, grid) slot keeps only its latest key, so memory stays bounded
    and a factor whose key changes every step (a time-ramped A) is simply
    rebuilt every step.  The cached array is read-only.
    """
    slot = (name, grid.points, grid.lengths)
    entry = store.get(slot)
    if entry is None or entry[0] != key:
        value = build()
        value.flags.writeable = False
        entry = store[slot] = (key, value)
    return entry[1]


class RowBlock:
    """Rows appended one at a time into one typed block, which grows in
    place by a quarter when full (`ndarray.resize`, a `realloc`) and which
    `block()` trims to the rows written: the rows are never held twice.
    The block has the shape, dtype and bits of `np.asarray` of the rows (a
    row of a wider dtype widens it; no rows read shape (0,)).

    A float row of a 1D float64 block with room left is stored without
    `np.asarray`: no float widens float64, and the store casts as it."""

    def __init__(self):
        self._block, self._count = None, 0
        self._floats = False    # the block is 1D float64

    def append(self, row):
        if (self._floats and isinstance(row, float)
                and self._count < len(self._block)):
            self._block[self._count] = row
            self._count += 1
            return
        row = np.asarray(row)
        if self._block is None:
            self._block = np.empty((16,) + row.shape, row.dtype)
            self._floats = row.shape == () and row.dtype == np.float64
        elif row.dtype != self._block.dtype:
            self._block = self._block.astype(
                np.result_type(self._block.dtype, row.dtype), copy=False)
            self._floats = row.shape == () and self._block.dtype == np.float64
        if self._count == len(self._block):
            self._resize(self._count + self._count // 4)
        self._block[self._count] = row
        self._count += 1

    def block(self):
        """The (rows, *row shape) block."""
        if self._block is None:
            return np.empty(0)
        self._resize(self._count)
        return self._block

    def _resize(self, rows):
        # no view of the block exists before `block()` returns it
        self._block.resize((rows,) + self._block.shape[1:], refcheck=False)


def drive(state, steps, step, sample):
    """The time loop of every wave run.

    Calls sample(state, 0), then for i = 1 ... steps `state = step(state,
    i)` followed by sample(state, i).  A sample is a dict of named
    quantities, or None to record nothing at that step; a quantity whose
    value is None is not recorded at that step.  Returns the final state
    and a dict with one array per quantity named by any sample: its
    recorded values, kept in one `RowBlock` (so `np.asarray` of them).
    """
    columns = defaultdict(RowBlock)
    for i in range(steps + 1):
        if i:
            state = step(state, i)
        for name, value in (sample(state, i) or {}).items():
            column = columns[name]      # named even if never recorded
            if value is not None:
                column.append(value)
    return state, {name: column.block() for name, column in columns.items()}


def check_finite(samples, step_index):
    if not np.isfinite(samples).all():
        raise NonFiniteFieldError(f"non-finite field after step {step_index}")
