"""Test oracles of the paper's dynamical claims, and the wave and moment
helpers that only tests read.

No run, `solidyn validate` or `solidyn list-scenarios` calls these, so
they live beside the suite that checks the package, with the arithmetic
they had in it:

- `newton_bohm_residual`: the quantum Newton law omega0 z'' = F_Q + F_em
  along one guidance path (criterion 7)
- `continuity_residual`: continuity of the pilot density a^2
- `kg_newton_residual`: the Klein-Gordon law d/dtau(M u^mu) = d^mu M +
  e F^{mu nu} u_nu along one path, with the variable quantum mass M
- `current_conservation_residual`: conservation of the Klein-Gordon
  current J
- `pair_continuity_residual`: continuity of the pair density from three
  consecutive waves
- `InteriorMax`: the running maximum that the two continuity readers of a
  history keep
- `symmetrized_pair`: the exchange-symmetric entangled pair wave
- `second_central_moments`: the wrap-aware spread of a soliton

The path and history readers attach to a history before the wave fills
it, as `integrate_flow` does, and `finish()` returns their result.
"""

import numpy as np

from solidyn.errors import SolidynError
from solidyn.grids import Field
from solidyn.pair import PairWave, pair_velocity_fields
from solidyn.soliton import _wrapped_offsets
from solidyn.stepping import NODE_MASK_REL, RowBlock
from solidyn.trajectories import FlowWalk, _detach


class InteriorMax:
    """The largest `residual(before, record, after)` over the interior
    records, read as the wave fills the history: each interior record with
    its two neighbours.  `finish()` detaches it (see `_detach`) and
    returns it."""

    def __init__(self, history, residual):
        if history.count:
            raise SolidynError(
                "a reader must attach before the first snapshot")
        self._history, self._residual, self._worst = history, residual, 0.0
        history.readers.append(self._read)

    def _read(self, record):
        records = self._history.records
        if len(records) >= 3:
            self._worst = max(self._worst, self._residual(*records[-3:]))

    def finish(self):
        _detach(self._history, self._read)
        if self._history.count < 3:
            raise SolidynError("need at least 3 snapshots")
        return self._worst


def newton_bohm_residual(z0, history):
    """Residual of omega0 z''(t) = F_Q + F_em along the guidance path from
    the single start z0, read as the wave fills the history.

    Each visit blends F_Q from the records and evaluates F_em = e E at the
    path point; z'' comes from centered differences of the positions.
    `finish()` returns the interior times, the residual series, and its
    RMS relative to the dominant force scale.
    """
    if np.size(z0) != history.grid.dim:
        raise SolidynError("newton_bohm_residual takes a single start")
    params = history.params
    path = [RowBlock() for _ in range(4)]   # t, z, F_Q, F_em

    def visit(i, t, z, stencil, k1):
        records = history.records
        # per axis, a float at the single start's point stencil
        fq = history._blend(lambda p: records[p].quantum_force, t, stencil)
        fem = params.charge * history.potentials.electric_field(t, z)
        for column, value in zip(path, (t, z[0], fq, fem[0])):
            column.append(value)

    def finish():
        times, z, fq, fem = (column.block() for column in path)
        if len(times) < 5:
            raise SolidynError("need at least 5 trajectory points")
        dt = times[1] - times[0]
        if not np.allclose(np.diff(times), dt):
            raise SolidynError("newton_bohm_residual expects uniform sampling")
        acc = (z[2:] - 2.0 * z[1:-1] + z[:-2]) / dt**2
        force = fq[1:-1] + fem[1:-1]
        residual = params.omega0 * acc - force
        scale = max(float(np.max(np.abs(force))),
                    float(params.omega0 * np.max(np.abs(acc))), 1e-300)
        rel_rms = float(np.sqrt(np.mean(residual**2)) / scale)
        return times[1:-1], residual, rel_rms

    return FlowWalk(history, z0, visit, finish)


def continuity_residual(history):
    """Max-norm violation of d(a^2)/dt + div(a^2 v) = 0 over the interior
    snapshots, read as the wave fills the history; `finish()` returns it.

    The time derivative is a centered difference over the neighbouring
    snapshots; the divergence is the sum of the spectral derivatives of
    the flux components; only unmasked samples count.
    """
    grid = history.grid

    def at_middle(before, bundle, after):
        drho = ((after.amplitude ** 2 - before.amplitude ** 2)
                / (after.time_tag - before.time_tag))
        flux = bundle.velocity * (bundle.amplitude ** 2)[None, ...]
        div = grid.derivative(flux[0], 0)
        for axis in range(1, grid.dim):
            div = div + grid.derivative(flux[axis], axis)
        mask = bundle.amplitude >= NODE_MASK_REL * bundle.amp_peak
        resid = np.abs(drho + div)[mask]
        return float(np.max(resid)) if resid.size else 0.0

    return InteriorMax(history, at_middle)


def current_conservation_residual(history):
    """Max |dJ0/dt + dJ1/dx| over interior snapshots (centered in time),
    read as the wave fills the history; `finish()` returns it."""
    def at_middle(before, bundle, after):
        dj0 = ((after.current_t - before.current_t)
               / (after.time_tag - before.time_tag))
        dj1 = history.grid.derivative(bundle.current_x, 0)
        return float(np.max(np.abs(dj0 + dj1)))

    return InteriorMax(history, at_middle)


def kg_newton_residual(z0, history):
    """Residual of d/dtau(M u^mu) = d^mu M + e F^{mu nu} u_nu along the
    guidance path from the single start z0, read as the wave fills the
    history.

    Proper time comes from dtau = sqrt(1 - v^2) dt; M, dM/dt (centered
    over snapshots i-1 and i+1, one-sided at the ends) and dM/dx
    (spectral, of each record's `KGMadelung.mass`) are interpolated at
    each path point as the walk visits it.  `finish()` returns interior
    times, the (n, 2) residual series, and its RMS relative to the
    dominant term scale.
    """
    charge = history.params.charge
    if np.size(z0) != history.grid.dim:
        raise SolidynError("kg_newton_residual takes a single start")
    path = [RowBlock() for _ in range(6)]   # t, v, E, M, dM/dt, dM/dx
    records = history.records

    def dmass_dt(p):
        lo, hi = max(p - 1, 0), min(p + 1, len(records) - 1)
        return ((records[hi].mass - records[lo].mass)
                / (records[hi].time_tag - records[lo].time_tag))

    def dmass_dx(p):
        return history.grid.derivative(records[p].mass, 0)

    def at_path(field, t, stencil):
        return history._blend(lambda p: (field(p),), t, stencil)[0]

    def visit(i, t, z, stencil, k1):
        msq = at_path(lambda p: records[p].mass_sq, t, stencil)
        values = (t, k1[0, 0],
                  charge * history.potentials.electric_field(t, z)[0, 0],
                  np.sqrt(np.maximum(msq, 0.0)),
                  at_path(dmass_dt, t, stencil),
                  at_path(dmass_dx, t, stencil))
        for column, value in zip(path, values):
            column.append(value)

    def finish():
        t, v, efield, mass_path, dmass_dt_path, dmass_dx_path = (
            column.block() for column in path)
        if len(t) < 5:
            raise SolidynError("need at least 5 trajectory points")
        if np.any(np.abs(v) >= 1.0):
            raise SolidynError("path contains luminal segments")
        gamma = 1.0 / np.sqrt(1.0 - v**2)
        dtau_steps = 0.5 * (np.sqrt(1 - v[1:] ** 2)
                            + np.sqrt(1 - v[:-1] ** 2)) * np.diff(t)
        tau = np.concatenate([[0.0], np.cumsum(dtau_steps)])
        dp0 = np.gradient(mass_path * gamma, tau)
        dp1 = np.gradient(mass_path * gamma * v, tau)
        rhs0 = dmass_dt_path + efield * gamma * v
        rhs1 = -dmass_dx_path + efield * gamma
        interior = slice(2, -2)
        res = np.stack([(dp0 - rhs0)[interior], (dp1 - rhs1)[interior]],
                       axis=1)
        scale = max(float(np.max(np.abs(rhs0[interior]))),
                    float(np.max(np.abs(rhs1[interior]))),
                    float(np.max(np.abs(dp0[interior]))),
                    float(np.max(np.abs(dp1[interior]))), 1e-300)
        rel = float(np.sqrt(np.mean(res**2)) / scale)
        return t[interior], res, rel

    return FlowWalk(history, z0, visit, finish)


def symmetrized_pair(samples_a, samples_b, grid, masses, charge,
                     potentials):
    """(psi_a psi_b + psi_b psi_a)/sqrt(2) exchange-symmetric entangled wave,
    at time 0."""
    a = np.asarray(samples_a, dtype=complex)
    b = np.asarray(samples_b, dtype=complex)
    psi2d = (np.outer(a, b) + np.outer(b, a)) / np.sqrt(2.0)
    return PairWave(Field(grid, psi2d), tuple(masses), charge,
                    tuple(potentials))


def pair_continuity_residual(pairs, dt_between):
    """Max |d rho/dt + sum_k d_k(rho v_k)| from three consecutive waves."""
    if len(pairs) != 3:
        raise SolidynError("need exactly three consecutive snapshots")
    grid = pairs[1].psi.grid
    rho = [p.psi.density() for p in pairs]
    drho = (rho[2] - rho[0]) / (2.0 * dt_between)
    vel, amp = pair_velocity_fields(pairs[1])
    div = grid.derivative(rho[1] * vel[0], 0) \
        + grid.derivative(rho[1] * vel[1], 1)
    floor = NODE_MASK_REL * pairs[1].amp_peak
    mask = amp >= floor
    return float(np.max(np.abs(drho + div)[mask]))


def second_central_moments(u, center):
    """Per-axis variance of |u|^2 about `center` (wrap-aware)."""
    grid = u.grid
    rho = u.density()
    c = grid.integrate(rho)
    out = np.empty(grid.dim)
    for a in range(grid.dim):
        delta = _wrapped_offsets(grid, a, center[a])
        out[a] = grid.integrate(rho * delta**2) / c
    return out
