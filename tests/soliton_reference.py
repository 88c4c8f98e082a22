"""Reference bodies of `soliton.nls_step`, `schrodinger.madelung_extract`
and `soliton.classical_trajectory`, written out with allocating operations.

`reference_nls_step` is the step as it stood before its half phases were
built in place: `log_nonlinearity` returns a new array, each half phase is
`np.exp(-0.5j * dt * w)`, and the next state is a `dataclasses.replace` of
the last.  `reference_madelung_extract` takes its complex gradient from
allocating transforms stacked by `Grid.gradient`, and builds the velocity,
quantum potential and quantum force from full-grid temporaries.
`reference_classical_trajectory` steps its RK4 on numpy arrays of the
axes.  The lean kernels must reproduce all three bit for bit.
"""

from dataclasses import replace

import numpy as np

from solidyn.errors import SolidynError
from solidyn.grids import Field
from solidyn.schrodinger import MadelungBundle
from solidyn.soliton import RHO_FLOOR_REL
from solidyn.stepping import NODE_MASK_REL
from strang_reference import reference_strang_step


def reference_log_nonlinearity(rho, b, f0):
    floor = RHO_FLOOR_REL * f0**2
    return -b * (1.0 + np.log(np.maximum(rho, floor) / f0**2))


def reference_nls_step(state, potentials, dt, external_q=None,
                       external_q_end=None):
    if (state.coupling_mode == "dbb") != (external_q is not None):
        raise SolidynError("external_q must be supplied exactly in dbb mode")
    u, grid = state.u, state.u.grid
    p = state.params
    t = u.time_tag
    e = p.charge
    two_w0 = 2.0 * p.omega0
    if external_q_end is None:
        external_q_end = external_q

    w_start = potentials.linear_potential(grid, p.omega0, e, t)
    if external_q is not None:
        w_start = w_start + external_q
    w_start = w_start + reference_log_nonlinearity(state.density, state.b,
                                                   state.f0) / two_w0

    base_end = potentials.linear_potential(grid, p.omega0, e, t + dt)
    if external_q_end is not None:
        base_end = base_end + external_q_end

    def half_end(mid):
        rho = np.abs(mid) ** 2
        w_end = base_end + reference_log_nonlinearity(
            rho, state.b, state.f0) / two_w0
        return np.exp(-0.5j * dt * w_end)

    kin = potentials.kinetic_phase(grid, p.omega0, e, dt, t + 0.5 * dt)
    out = reference_strang_step(u.samples, np.exp(-0.5j * dt * w_start),
                                half_end, kin)
    return replace(state, u=Field(grid, out, t + dt), center=None,
                   stepped=True)


def reference_madelung_extract(psi, params, potentials):
    grid = psi.grid
    a = np.abs(psi.samples)
    peak = float(np.max(a))
    if peak == 0.0:
        raise SolidynError("cannot extract Madelung fields from a zero wave")
    floor = NODE_MASK_REL * peak
    a_safe = np.maximum(a, floor)
    rho_safe = a_safe ** 2
    grad_psi = np.stack([
        np.fft.ifft(grid._ik[axis] * np.fft.fft(psi.samples, axis=axis),
                    axis=axis)
        for axis in range(grid.dim)])
    current = np.imag(np.conj(psi.samples)[None, ...] * grad_psi)
    avec = params.charge * potentials.vector(psi.time_tag)
    velocity = np.empty_like(current)
    for axis in range(grid.dim):
        velocity[axis] = (current[axis] / rho_safe - avec[axis]) \
            / params.omega0
    derivs = grid.real_derivatives(a)
    grad_a, lap_a, grad_lap = (derivs[:grid.dim], derivs[grid.dim],
                               derivs[grid.dim + 1:])
    q = -lap_a / (2.0 * params.omega0 * a_safe)
    fq = (grad_lap / a_safe - lap_a * grad_a / rho_safe) \
        / (2.0 * params.omega0)
    bundle = MadelungBundle(grid=grid, time_tag=psi.time_tag, amplitude=a,
                            velocity=velocity, quantum_potential=q,
                            amp_peak=peak, omega0=params.omega0)
    bundle.quantum_force = fq       # in place of the derivation on read
    return bundle


def reference_state_moments(u, previous_center):
    """The density, center and norm that `SolitonState` computed for a
    state built without a center: `np.sum` reductions throughout."""
    grid = u.grid
    rho = np.abs(u.samples) ** 2
    c = float(np.sum(rho) * grid.cell_volume)
    if c <= 0.0:
        raise SolidynError("u-field has zero norm; no center defined")
    previous = previous_center
    if previous is None:
        peak = np.unravel_index(int(np.argmax(rho)), grid.shape)
        previous = np.array([grid.axes[a][peak[a]] for a in range(grid.dim)])
    previous = np.asarray(previous, dtype=float)
    xbar = np.empty(grid.dim)
    for a in range(grid.dim):
        box = grid.lengths[a]
        r = np.mod(grid.axes[a] - previous[a] + 0.5 * box, box) - 0.5 * box
        if grid.dim == 2:
            r = r.reshape((-1, 1) if a == 0 else (1, -1))
        xbar[a] = previous[a] + np.sum(rho * r) * grid.cell_volume / c
    return rho, xbar, c


def reference_boundary_mass_fraction(grid, density, cells):
    total = float(np.sum(density))
    if total <= 0.0:
        return 0.0
    interior = density
    for axis in range(grid.dim):
        sl = [slice(None)] * grid.dim
        sl[axis] = slice(cells, grid.points[axis] - cells)
        interior = interior[tuple(sl)]
    return float((total - np.sum(interior)) / total)


def reference_classical_trajectory(times, z0, v0, params, potentials):
    z = np.asarray(z0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    e_over_m = params.charge / params.omega0

    if potentials.zero_field:
        # E is the same signed zero at every time and place: evaluate once
        constant = e_over_m * potentials.electric_field(0.0, z[None, :])[0]

        def accel(t, pos):
            return constant
    else:
        def accel(t, pos):
            return e_over_m * potentials.electric_field(t, pos[None, :])[0]

    out = np.empty((len(times), z.size))
    out[0] = z
    for i in range(len(times) - 1):
        t, h = times[i], times[i + 1] - times[i]
        k1z, k1v = v, accel(t, z)
        k2z, k2v = v + 0.5 * h * k1v, accel(t + 0.5 * h, z + 0.5 * h * k1z)
        k3z, k3v = v + 0.5 * h * k2v, accel(t + 0.5 * h, z + 0.5 * h * k2z)
        k4z, k4v = v + h * k3v, accel(t + h, z + h * k3z)
        z = z + (h / 6.0) * (k1z + 2 * k2z + 2 * k3z + k4z)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        out[i + 1] = z
    return out
