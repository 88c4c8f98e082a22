"""Stencil-based guidance lookups against the per-call reference.

Every RK4 stage builds one cubic stencil and applies it to both bracketing
snapshots and to every component; the stencil at the new positions serves
the node check, the proximity flags, the quantum force and the next step's
first stage.  These tests require the results to be bit-identical to the
reference in `interp_reference`, which interpolates every snapshot at every
stage with freshly built weights.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from interp_reference import (reference_blend, reference_integrate_flow,
                              reference_interpolate, reference_rk4_step,
                              same_bits)
from solidyn.errors import BoundaryExitError, NodeEncounterError
from solidyn.grids import Field, Grid
from solidyn.kleingordon import evolve_kg, kg_bohm_trajectory
from solidyn.potentials import PhysicalParams, Potentials
from solidyn.schrodinger import (evolve_schrodinger, integrate_bohm_ensemble,
                                 ls_step, madelung_extract)
from solidyn.soliton import (GaussonParams, SolitonState, gausson_init,
                             run_coupled)
from solidyn.stepping import NODE_PROXIMITY_REL
from solidyn.trajectories import (FlowHistory, advance_positions,
                                  flow_steps, integrate_flow)

PARAMS = PhysicalParams(omega0=1.0, charge=1.0)


@pytest.fixture(scope="module")
def packet_history():
    """A moving, spreading Gaussian packet: Schrodinger history of 41
    snapshots with velocity, amplitude and quantum-force fields."""
    g = Grid(256, 20.0)
    x = g.axes[0]
    psi0 = Field(g, (np.exp(-((x + 2.0) ** 2) / 4.0)
                     * np.exp(0.8j * x)).astype(complex))
    run = evolve_schrodinger(psi0, PARAMS, Potentials.harmonic(0.1),
                             dt=2e-2, steps=40)
    return run.history, run.densities[0]


def smooth_2d_history():
    g = Grid((48, 40), (12.0, 10.0))
    xs, ys = g.meshes()
    hist = FlowHistory(g, PARAMS, Potentials.free(2))
    for t in np.linspace(0.0, 0.5, 11):
        vel = np.stack([0.6 * np.sin(2 * np.pi * ys / 10.0 + t),
                        0.4 * np.cos(2 * np.pi * xs / 12.0 - t)])
        amp = np.exp(-0.02 * (xs**2 + ys**2))
        hist.append(t, vel, amp)
    return hist.freeze()


def test_integrate_flow_ensemble_matches_reference(packet_history):
    hist, density = packet_history
    starts = hist.grid.sample_density(density, 2000, seed=5)
    got = integrate_flow(hist, starts)
    want = reference_integrate_flow(hist, starts)
    for a, b in zip(got, want):
        assert same_bits(a, b)
    assert np.any(got[2] != 0.0)          # the quantum force was recorded


def test_integrate_flow_2d_matches_reference():
    hist = smooth_2d_history()
    rng = np.random.default_rng(3)
    starts = rng.uniform(-3.0, 3.0, size=(300, 2))
    got = integrate_flow(hist, starts, record_quantum_force=False)
    want = reference_integrate_flow(hist, starts, record_quantum_force=False)
    for a, b in zip(got, want):
        assert same_bits(a, b)


@pytest.mark.parametrize("with_k1", [False, True])
def test_advance_positions_matches_reference_step(packet_history, with_k1):
    hist, density = packet_history
    z = hist.grid.sample_density(density, 64, seed=9)
    t0, t1 = hist.times[7], hist.times[8]
    k1 = None
    if with_k1:
        k1 = reference_blend(hist, hist.velocities, t0, z)
    z_new, stencil = advance_positions(hist, z, t0, t1, k1=k1)
    assert same_bits(z_new, reference_rk4_step(hist, z, t0, t1, k1=k1))
    # the returned stencil is the one at z_new
    assert same_bits(stencil.positions, z_new)
    assert same_bits(stencil.apply(hist.amplitudes[8]),
                     reference_interpolate(hist.grid, hist.amplitudes[8],
                                           z_new))


def test_lookup_at_snapshot_time_reads_that_snapshot_only():
    # theta == 0 returns the first snapshot as is: a non-finite value in the
    # next snapshot must not leak in through 0 * inf
    g = Grid(64, 8.0)
    x = g.axes[0]
    hist = FlowHistory(g, PARAMS, Potentials.free())
    hist.append(0.0, np.cos(x)[None, :], np.ones(64))
    hist.append(0.1, np.full((1, 64), np.inf), np.ones(64))
    hist.freeze()
    stencil = g.stencil([[0.37], [-1.9]])
    v = hist.velocity_at(0.0, stencil)
    assert np.all(np.isfinite(v))
    assert same_bits(v, reference_blend(hist, hist.velocities, 0.0,
                                        stencil.positions))


@pytest.fixture(scope="module")
def kg_packet_run():
    sigma, k = 8.0, 0.3
    g = Grid(256, 128.0)
    x = g.axes[0]
    psi0 = Field(g, (np.exp(-x**2 / (4 * sigma**2))
                     * np.exp(1j * k * x)).astype(complex))
    return evolve_kg(psi0, -1j * psi0.samples, PARAMS, Potentials.free(),
                     dt=0.2, steps=80)


def test_kg_path_matches_reference(kg_packet_run):
    hist = kg_packet_run.history
    traj = kg_bohm_trajectory([4.0], hist)
    pos, vel, fq, fem, near = reference_integrate_flow(hist, [4.0])
    assert same_bits(traj.positions, pos[:, 0, :])
    assert same_bits(traj.velocities, vel[:, 0, :])
    assert same_bits(traj.node_proximity, near[:, 0])

    # the mass and its gradients along the path, one stencil per point
    ts, zs = traj.times, traj.positions
    mass = np.array([np.sqrt(np.maximum(
        reference_blend(hist, hist.mass_sq, ts[i], zs[i:i + 1]), 0.0))[0]
        for i in range(len(ts))])
    assert same_bits(hist.mass_at_series(ts, zs), mass)
    m = [np.sqrt(np.maximum(f, 0.0)) for f in hist.mass_sq]
    n = len(hist.times)
    dmdt = [(m[min(i + 1, n - 1)] - m[max(i - 1, 0)])
            / (hist.times[min(i + 1, n - 1)] - hist.times[max(i - 1, 0)])
            for i in range(n)]
    dmdx = [hist.grid.derivative(f, 0) for f in m]
    want_t = np.array([reference_blend(hist, dmdt, ts[i], zs[i:i + 1])[0]
                       for i in range(len(ts))])
    want_x = np.array([reference_blend(hist, dmdx, ts[i], zs[i:i + 1])[0]
                       for i in range(len(ts))])
    got_t, got_x = hist.mass_gradients(ts, zs)
    assert same_bits(got_t, want_t)
    assert same_bits(got_x, want_x)


def test_run_coupled_reference_path_matches_reference():
    # the coupled run's guidance point against a reference RK4 over the same
    # two-snapshot flows, rebuilt here step by step
    g = Grid(256, 20.0)
    x = g.axes[0]
    pots = Potentials.free()
    psi0 = Field(g, (np.exp(-((x - 2.0) ** 2) / 4.0)
                     + np.exp(-((x + 2.0) ** 2) / 4.0)) * np.exp(1.5j * x))
    u0 = gausson_init(GaussonParams(100.0, 1.0, center=(-1.3,),
                                    velocity=(1.5,)), g, 1.0)
    state = SolitonState(u0, PARAMS, 100.0, 1.0, coupling_mode="dbb")
    dt, steps = 1e-2, 40
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # scale separation is not at issue
        ref = run_coupled(psi0, state, PARAMS, pots, dt, steps).reference

    def at(components, z):
        return np.array([reference_interpolate(g, c, z)[0]
                         for c in components])

    psi = psi0
    bundle = madelung_extract(psi, PARAMS, pots)
    z = np.atleast_2d(state.center.copy())
    pos, vel, fq, near = [z[0].copy()], [], [at(bundle.quantum_force, z)], \
        [False]
    for _ in range(steps):
        t = psi.time_tag
        psi_next = ls_step(psi, PARAMS, pots, dt)
        bundle_next = madelung_extract(psi_next, PARAMS, pots)
        flow = FlowHistory(g, PARAMS, pots)
        flow.append(t, bundle.velocity, bundle.amplitude)
        flow.append(t + dt, bundle_next.velocity, bundle_next.amplitude)
        flow.freeze()
        k1 = reference_blend(flow, flow.velocities, t, z)
        vel.append(k1[0].copy())
        z = reference_rk4_step(flow, z, t, t + dt, k1=k1)
        pos.append(z[0].copy())
        fq.append(at(bundle_next.quantum_force, z))
        level = NODE_PROXIMITY_REL * max(flow.amp_peaks)
        near.append(bool(reference_blend(flow, flow.amplitudes, t + dt,
                                         z)[0] < level))
        psi, bundle = psi_next, bundle_next
    vel.append(at(bundle.velocity, z))
    assert same_bits(ref.positions, np.asarray(pos))
    assert same_bits(ref.velocities, np.asarray(vel))
    assert same_bits(ref.quantum_force, np.asarray(fq))
    assert same_bits(ref.node_proximity, np.asarray(near))
    assert np.ptp(ref.positions) > 5 * g.spacing[0]    # the point moved


# ---------------------------------------------------------------------------
# ensembles: positions only
# ---------------------------------------------------------------------------

def test_ensemble_positions_match_reference(packet_history):
    hist, density = packet_history
    starts = hist.grid.sample_density(density, 500, seed=11)
    want = reference_integrate_flow(hist, starts,
                                    record_quantum_force=False)[0]
    assert same_bits(integrate_bohm_ensemble(starts, hist), want)
    # the recording the equivariance scenario keeps: three snapshots only
    indices = [0, len(hist.times) // 2, len(hist.times) - 1]
    kept = [z for i, _, z, _, _ in flow_steps(hist, starts) if i in indices]
    assert same_bits(np.stack(kept), want[indices])


def long_packet_history():
    """401 snapshots of a small moving packet (a long, thin history)."""
    g = Grid(128, 20.0)
    x = g.axes[0]
    psi0 = Field(g, (np.exp(-x**2 / 4.0) * np.exp(0.5j * x)).astype(complex))
    run = evolve_schrodinger(psi0, PARAMS, Potentials.free(), dt=2e-3,
                             steps=400)
    return run.history, run.densities[0]


def test_ensemble_peak_memory_is_one_position_block():
    hist, density = long_packet_history()
    starts = hist.grid.sample_density(density, 400, seed=2)
    tracemalloc.start()
    try:
        block = integrate_bohm_ensemble(starts, hist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (401, 400, 1)
    assert peak < 1.5 * block.nbytes


def drift_history(amp):
    """Uniform drift at speed 1 over t in [0, 6] through amplitude `amp`."""
    g = Grid(256, 20.0)
    hist = FlowHistory(g, PARAMS, Potentials.free())
    for t in np.linspace(0.0, 6.0, 61):
        hist.append(t, np.ones((1, 256)), amp(g.axes[0]))
    return hist.freeze()


@pytest.mark.parametrize("error, amp, starts, culprit", [
    (BoundaryExitError, lambda x: np.ones_like(x), [[-4.0], [0.0], [6.5]], 2),
    (NodeEncounterError,
     lambda x: np.where(np.abs(x - 5.0) < 0.5, 1e-12, 1.0),
     [[-3.0], [0.0], [-1.0]], 1),
])
def test_ensemble_abort_mid_run_matches_reference(error, amp, starts,
                                                  culprit):
    hist = drift_history(amp)
    with pytest.raises(error) as ref:
        reference_integrate_flow(hist, starts, record_quantum_force=False)
    with pytest.raises(error) as got:
        integrate_bohm_ensemble(starts, hist)
    assert type(got.value) is type(ref.value)
    assert got.value.last_valid_time == ref.value.last_valid_time
    assert 0.0 < got.value.last_valid_time < 6.0
    assert f"(trajectory {culprit})" in str(got.value)
