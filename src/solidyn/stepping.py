"""Shared time-stepping kernels: Strang split steps and the time loop.

Every wave run advances through `drive`, the one loop over wave steps.  The
same Strang kernel drives the linear Schrodinger wave, the nonlinear
u-field, and the two-particle configuration-space wave; only the phase
factors and the kinetic Fourier multiplier differ, and factors that do not
change from step to step are built once and memoized with `cached`.  Phase
sub-steps multiply by unit-modulus factors, so |field| is untouched by them
and the total norm is conserved to round-off by the kinetic step's
unitarity.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteFieldError

# Relative amplitude thresholds shared by all solvers: below NODE_MASK_REL
# times the peak amplitude, Madelung quantities are masked and trajectories
# abort; below NODE_PROXIMITY_REL they are flagged but integration continues.
NODE_MASK_REL = 1e-8
NODE_PROXIMITY_REL = 1e-6
BOUNDARY_MASS_LIMIT = 1e-8


def strang_step(samples, half_start, half_end, kinetic_phase):
    """One Strang split step of i du/dt = (W + K) u.

    Parameters
    ----------
    samples : complex ndarray
    half_start : first half phase exp(-i dt W(t) / 2).
    half_end : second half phase exp(-i dt W(t + dt) / 2), or a callable
        receiving the post-kinetic samples and returning it (for nonlinear W).
    kinetic_phase : precomputed exp(-i dt K) multiplier in Fourier space.
    """
    out = np.fft.fftn(half_start * samples)
    out *= kinetic_phase
    out = np.fft.ifftn(out)
    if callable(half_end):
        half_end = half_end(out)
    out *= half_end
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


def drive(state, steps, step, sample):
    """The time loop of every wave run.

    Calls sample(state, 0), then for i = 1 ... steps `state = step(state,
    i)` followed by sample(state, i).  A sample is a dict of named
    quantities, or None to record nothing at that step; a quantity whose
    value is None is not recorded at that step.  Returns the final state
    and a dict with one array (`np.asarray` of the recorded values) per
    quantity named by any sample.
    """
    columns = {}

    def record(row):
        for name, value in (row or {}).items():
            column = columns.setdefault(name, [])
            if value is not None:
                column.append(value)

    record(sample(state, 0))
    for i in range(1, steps + 1):
        state = step(state, i)
        record(sample(state, i))
    return state, {name: np.asarray(values)
                   for name, values in columns.items()}


def check_finite(samples, step_index):
    if not np.all(np.isfinite(samples)):
        raise NonFiniteFieldError(f"non-finite field after step {step_index}")
