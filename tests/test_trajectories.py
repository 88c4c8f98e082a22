"""Stencil-based guidance lookups against the per-call reference.

Every RK4 stage builds one cubic stencil and applies it to both bracketing
snapshots and to every component; the stencil at the new positions serves
the node check and the next step's first stage.  These tests require the
results to be bit-identical to the reference in `interp_reference`, which
interpolates every snapshot at every stage with freshly built weights, over
a history that keeps every snapshot.
A reader attached to a history, which keeps only its last three snapshots,
must give the bits and the aborts of `flow_steps` over the whole history.
"""

import gc
import re
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

from interp_reference import (Snapshot, keep_every_snapshot, record_fields,
                              reference_blend, reference_bracket,
                              reference_integrate_flow,
                              reference_interpolate, reference_rk4_step,
                              same_bits)
from solidyn import trajectories
from solidyn.errors import (BoundaryExitError, NodeEncounterError,
                            SolidynError)
from solidyn.grids import Field, Grid
from solidyn.kleingordon import (KGHistory, KGMadelung,
                                 current_conservation_residual, evolve_kg,
                                 kg_bohm_trajectory, kg_madelung,
                                 kg_newton_residual)
from solidyn.potentials import PhysicalParams, Potentials
from solidyn.schrodinger import (continuity_residual, evolve_schrodinger,
                                 ls_step, madelung_extract,
                                 newton_bohm_residual)
from solidyn.soliton import (GaussonParams, SolitonState, gausson_init,
                             run_coupled)
from solidyn.stepping import NODE_MASK_REL, RowBlock
from solidyn.trajectories import (WALK_WINDOW, FlowHistory, FlowWalk,
                                  advance_positions, flow_steps,
                                  integrate_flow)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:            # the properties below skip without it
    given = settings = st = None

PARAMS = PhysicalParams(omega0=1.0, charge=1.0)


def packet_run(history=None):
    """A moving, spreading Gaussian packet, evolved into `history`: 41
    snapshots with velocity, amplitude and quantum-force fields."""
    g = Grid(256, 20.0)
    x = g.axes[0]
    psi0 = Field(g, (np.exp(-((x + 2.0) ** 2) / 4.0)
                     * np.exp(0.8j * x)).astype(complex))
    return evolve_schrodinger(psi0, PARAMS, Potentials.harmonic(0.1),
                              dt=2e-2, steps=40, history=history)


@pytest.fixture(scope="module")
def packet_history():
    """The packet run's whole history, and its first density."""
    with keep_every_snapshot():
        run = packet_run()
    return run.history, run.densities[0]


def streamed(attach, run, grid, pots):
    """The `finish()` result of the reader that `attach(history)` attaches
    to a new history, which `run(history)` then fills."""
    history = FlowHistory(grid, PARAMS, pots)
    reader = attach(history)
    run(history)
    return reader.finish()


def smooth_2d_snapshots():
    g = Grid((48, 40), (12.0, 10.0))
    xs, ys = g.meshes()
    snapshots = []
    for t in np.linspace(0.0, 0.5, 11):
        vel = np.stack([0.6 * np.sin(2 * np.pi * ys / 10.0 + t),
                        0.4 * np.cos(2 * np.pi * xs / 12.0 - t)])
        amp = np.exp(-0.02 * (xs**2 + ys**2))
        snapshots.append(Snapshot(t, vel, amp))
    return g, snapshots


def fill(history, snapshots):
    for snapshot in snapshots:
        history.append(snapshot)
    return history


def test_integrate_flow_ensemble_matches_reference(packet_history):
    hist, density = packet_history
    starts = hist.grid.sample_density(density, 2000, seed=5)
    got = streamed(lambda h: integrate_flow(h, starts), packet_run,
                   hist.grid, Potentials.harmonic(0.1))
    pos, vel, *_ = reference_integrate_flow(hist, starts)
    assert same_bits(got.times, np.asarray(record_fields(hist, "time_tag")))
    assert same_bits(got.positions, pos)
    assert same_bits(got.velocities, vel)


def test_integrate_flow_2d_matches_reference():
    g, snapshots = smooth_2d_snapshots()
    rng = np.random.default_rng(3)
    starts = rng.uniform(-3.0, 3.0, size=(300, 2))
    got = streamed(lambda h: integrate_flow(h, starts),
                   lambda h: fill(h, snapshots), g, Potentials.free(2))
    with keep_every_snapshot():
        hist = fill(FlowHistory(g, PARAMS, Potentials.free(2)), snapshots)
    pos, vel, *_ = reference_integrate_flow(hist, starts)
    assert same_bits(got.positions, pos)
    assert same_bits(got.velocities, vel)


@pytest.mark.parametrize("with_k1", [False, True])
def test_advance_positions_matches_reference_step(packet_history, with_k1):
    hist, density = packet_history
    z = hist.grid.sample_density(density, 64, seed=9)
    t0, t1 = hist.records[7].time_tag, hist.records[8].time_tag
    k1 = None
    if with_k1:
        k1 = reference_blend(hist, record_fields(hist, "velocity"), t0, z)
    z_new, stencil = advance_positions(hist, z, t0, t1, k1=k1)
    assert same_bits(z_new, reference_rk4_step(hist, z, t0, t1, k1=k1))
    # the returned stencil is the one at z_new
    assert same_bits(stencil.positions, z_new)
    amp = hist.records[8].amplitude
    assert same_bits(stencil.apply(amp),
                     reference_interpolate(hist.grid, amp, z_new))


def test_lookup_at_snapshot_time_reads_that_snapshot_only():
    # theta == 0 returns the first snapshot as is: a non-finite value in the
    # next snapshot must not leak in through 0 * inf
    g = Grid(64, 8.0)
    x = g.axes[0]
    hist = FlowHistory(g, PARAMS, Potentials.free())
    hist.append(Snapshot(0.0, np.cos(x)[None, :], np.ones(64)))
    hist.append(Snapshot(0.1, np.full((1, 64), np.inf), np.ones(64)))
    stencil = g.stencil([[0.37], [-1.9]])
    v = hist.velocity_at(0.0, stencil)
    assert np.all(np.isfinite(v))
    assert same_bits(v, reference_blend(hist, record_fields(hist, "velocity"),
                                        0.0, stencil.positions))


@pytest.mark.skipif(given is None, reason="needs Hypothesis")
def test_bracket_matches_the_bisection():
    # the index compare gives the clamped pair of the bisection and its
    # out-of-range error, for one to five kept records (a history keeps
    # three; a widened window more), repeated times, times at and just
    # past the tolerance, and a NaN time
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def check(data):
        gaps = data.draw(st.lists(
            st.sampled_from([0.0, 1e-13, 1e-12, 0.1]) | st.floats(0.0, 5.0),
            min_size=0, max_size=4))
        times = [data.draw(st.floats(-100.0, 100.0))]
        for gap in gaps:
            times.append(times[-1] + gap)
        history = FlowHistory(Grid(8, 1.0), PARAMS, Potentials.free())
        with keep_every_snapshot():
            for t in times:
                history.append(types.SimpleNamespace(time_tag=t))
        edges = [times[0] - 1e-12, times[-1] + 1e-12]
        edges += [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
        t = data.draw(st.sampled_from(times + edges + [np.nan])
                      | st.floats(times[0] - 1.0, times[-1] + 1.0))
        try:
            want = reference_bracket(history, t)
        except SolidynError as err:
            with pytest.raises(SolidynError, match=f"^{re.escape(str(err))}$"):
                history.bracket(t)
        else:
            assert history.bracket(t) == want

    check()


def kg_packet_run(history=None):
    sigma, k = 8.0, 0.3
    g = Grid(256, 128.0)
    x = g.axes[0]
    psi0 = Field(g, (np.exp(-x**2 / (4 * sigma**2))
                     * np.exp(1j * k * x)).astype(complex))
    return evolve_kg(psi0, -1j * psi0.samples, PARAMS, Potentials.free(),
                     dt=0.2, steps=80, history=history)


def reference_kg_newton(hist, ts, zs, vs):
    """kg_newton_residual written out over a whole history, with the mass
    and its gradients interpolated by the reference at each path point."""
    mass_sq = record_fields(hist, "mass_sq")
    times = record_fields(hist, "time_tag")
    mass = np.array([np.sqrt(np.maximum(
        reference_blend(hist, mass_sq, ts[i], zs[i:i + 1]), 0.0))[0]
        for i in range(len(ts))])
    m = [np.sqrt(np.maximum(f, 0.0)) for f in mass_sq]
    n = len(times)
    dmdt = [(m[min(i + 1, n - 1)] - m[max(i - 1, 0)])
            / (times[min(i + 1, n - 1)] - times[max(i - 1, 0)])
            for i in range(n)]
    dmdx = [hist.grid.derivative(f, 0) for f in m]
    want_t = np.array([reference_blend(hist, dmdt, ts[i], zs[i:i + 1])[0]
                       for i in range(len(ts))])
    want_x = np.array([reference_blend(hist, dmdx, ts[i], zs[i:i + 1])[0]
                       for i in range(len(ts))])
    efield = np.array([PARAMS.charge * hist.potentials.electric_field(
        ts[i], zs[i:i + 1])[0, 0] for i in range(len(ts))])
    gamma = 1.0 / np.sqrt(1.0 - vs**2)
    tau = np.concatenate([[0.0], np.cumsum(
        0.5 * (np.sqrt(1 - vs[1:] ** 2) + np.sqrt(1 - vs[:-1] ** 2))
        * np.diff(ts))])
    dp0 = np.gradient(mass * gamma, tau)
    dp1 = np.gradient(mass * gamma * vs, tau)
    rhs0 = want_t + efield * gamma * vs
    rhs1 = -want_x + efield * gamma
    inner = slice(2, -2)
    res = np.stack([(dp0 - rhs0)[inner], (dp1 - rhs1)[inner]], axis=1)
    scale = max([float(np.max(np.abs(term[inner])))
                 for term in (rhs0, rhs1, dp0, dp1)] + [1e-300])
    return ts[inner], res, float(np.sqrt(np.mean(res**2)) / scale)


def test_kg_path_matches_reference():
    with keep_every_snapshot():
        hist = kg_packet_run().history
    history = KGHistory(hist.grid, PARAMS, hist.potentials)
    path = kg_bohm_trajectory([4.0], history)
    newton = kg_newton_residual([4.0], history)
    kg_packet_run(history)
    traj = path.finish()
    pos, vel, *_ = reference_integrate_flow(hist, [4.0])
    assert same_bits(traj.positions, pos)
    assert same_bits(traj.velocities, vel)

    # the residual, with the mass and its gradients along the path (one
    # stencil per point), read while the wave runs
    got = newton.finish()
    want = reference_kg_newton(hist, traj.times, traj.positions[:, 0],
                               traj.velocities[:, 0, 0])
    for a, b in zip(got, want):
        assert same_bits(a, b)


def reference_newton_bohm(times, z, fq, fem, omega0):
    """newton_bohm_residual's formula over a recorded path of one start:
    its (n, dim) positions, quantum force and EM force."""
    dt = times[1] - times[0]
    acc = (z[2:] - 2.0 * z[1:-1] + z[:-2]) / dt**2
    force = fq[1:-1] + fem[1:-1]
    residual = omega0 * acc - force
    scale = max(float(np.max(np.abs(force))),
                float(omega0 * np.max(np.abs(acc))), 1e-300)
    return (times[1:-1], residual,
            float(np.sqrt(np.mean(residual**2)) / scale))


def test_newton_bohm_residual_matches_reference(packet_history):
    # the reader blends F_Q and evaluates F_em at each path point as it
    # visits it; the residual has the bits of the formula applied to the
    # reference's positions and forces over the whole history
    hist, _ = packet_history
    got = streamed(lambda h: newton_bohm_residual([-1.5], h), packet_run,
                   hist.grid, Potentials.harmonic(0.1))
    pos, _, fq, fem, _ = reference_integrate_flow(hist, [-1.5])
    assert np.all(fq != 0.0) and np.all(fem != 0.0)   # both forces enter
    want = reference_newton_bohm(np.asarray(record_fields(hist, "time_tag")),
                                 pos[:, 0], fq[:, 0], fem[:, 0],
                                 PARAMS.omega0)
    for a, b in zip(got, want):
        assert same_bits(a, b)


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
    pos, vel = [z.copy()], []
    for _ in range(steps):
        t = psi.time_tag
        psi_next = ls_step(psi, PARAMS, pots, dt)
        bundle_next = madelung_extract(psi_next, PARAMS, pots)
        flow = FlowHistory(g, PARAMS, pots)
        flow.append(bundle)
        flow.append(bundle_next)
        k1 = reference_blend(flow, record_fields(flow, "velocity"), t, z)
        vel.append(k1.copy())
        z = reference_rk4_step(flow, z, t, t + dt, k1=k1)
        pos.append(z.copy())
        psi, bundle = psi_next, bundle_next
    vel.append(at(bundle.velocity, z)[None])
    # the one start's (n, 1, dim) record
    assert same_bits(ref.positions, np.asarray(pos))
    assert same_bits(ref.velocities, np.asarray(vel))
    assert np.ptp(ref.positions) > 5 * g.spacing[0]    # the point moved


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def positions_walk(history, starts):
    """A walk that keeps only the ensemble's positions, row by row in one
    block; `finish()` returns the (n, m, dim) block."""
    rows = RowBlock()
    return FlowWalk(history, starts,
                    lambda i, t, z, stencil, k1: rows.append(z), rows.block)


def test_ensemble_positions_match_reference(packet_history):
    hist, density = packet_history
    starts = hist.grid.sample_density(density, 500, seed=11)
    want = reference_integrate_flow(hist, starts)[0]
    got = streamed(lambda h: integrate_flow(h, starts), packet_run,
                   hist.grid, Potentials.harmonic(0.1)).positions
    assert same_bits(got, want)
    # the recording the equivariance scenario keeps: three snapshots only
    indices = [0, len(hist.records) // 2, len(hist.records) - 1]
    kept = [z for i, _, z, _, _ in flow_steps(hist, starts) if i in indices]
    assert same_bits(np.stack(kept), want[indices])


def long_packet_peak(attach):
    """The result of the reader that attach(history, starts) returns over
    401 snapshots of a small moving packet (a long, thin run) from 400
    starts, and the peak traced memory from the attach to its `finish`."""
    g = Grid(128, 20.0)
    x = g.axes[0]
    psi0 = Field(g, (np.exp(-x**2 / 4.0) * np.exp(0.5j * x)).astype(complex))
    starts = g.sample_density(psi0.density(), 400, seed=2)
    history = FlowHistory(g, PARAMS, Potentials.free())
    tracemalloc.start()
    try:
        reader = attach(history, starts)
        evolve_schrodinger(psi0, PARAMS, Potentials.free(), dt=2e-3,
                           steps=400, history=history)
        result = reader.finish()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_ensemble_peak_memory_is_one_position_block():
    block, peak = long_packet_peak(positions_walk)
    assert block.shape == (401, 400, 1)
    assert peak < 1.5 * block.nbytes


def test_integrate_flow_peak_memory_is_one_copy_of_its_blocks():
    record, peak = long_packet_peak(integrate_flow)
    blocks = (record.times, record.positions, record.velocities)
    assert [b.shape for b in blocks] == [(401,)] + 2 * [(401, 400, 1)]
    assert peak < 1.5 * sum(b.nbytes for b in blocks)


def drift_snapshots(amp):
    """Uniform drift at speed 1 over t in [0, 6] through amplitude `amp`."""
    g = Grid(256, 20.0)
    return g, [Snapshot(t, np.ones((1, 256)), amp(g.axes[0]))
               for t in np.linspace(0.0, 6.0, 61)]


@pytest.mark.parametrize("error, amp, starts, culprit", [
    (BoundaryExitError, lambda x: np.ones_like(x), [[-4.0], [0.0], [6.5]], 2),
    (NodeEncounterError,
     lambda x: np.where(np.abs(x - 5.0) < 0.5, 1e-12, 1.0),
     [[-3.0], [0.0], [-1.0]], 1),
])
def test_ensemble_abort_mid_run_matches_reference(error, amp, starts,
                                                  culprit):
    g, snapshots = drift_snapshots(amp)
    with keep_every_snapshot():
        hist = fill(FlowHistory(g, PARAMS, Potentials.free()), snapshots)
    with pytest.raises(error) as ref:
        reference_integrate_flow(hist, starts)
    with pytest.raises(error) as got:
        streamed(lambda h: integrate_flow(h, starts),
                 lambda h: fill(h, snapshots), g, Potentials.free())
    assert type(got.value) is type(ref.value)
    assert got.value.last_valid_time == ref.value.last_valid_time
    assert 0.0 < got.value.last_valid_time < 6.0
    assert f"(trajectory {culprit})" in str(got.value)


# ---------------------------------------------------------------------------
# the rolling window: a FlowWalk over the last three snapshots
# ---------------------------------------------------------------------------

def walk_outcome(steps):
    """What a walk yields, as (i, t, z, k1) copies, and the error that
    ended it (None if it ran to the end)."""
    seen = []
    try:
        for i, t, z, _, k1 in steps:
            seen.append((i, t, z.copy(), k1.copy()))
    except SolidynError as err:
        return seen, err
    return seen, None


def windowed_outcome(fill, history, starts):
    """`walk_outcome` of a FlowWalk over `history`, filled by `fill`; also
    the most snapshots the history kept after any stored snapshot."""
    seen, kept = [], []
    history.readers.append(lambda record: kept.append(len(history.records)))
    walk = FlowWalk(history, starts, lambda i, t, z, stencil, k1: seen.append(
        (i, t, z.copy(), k1.copy())), list)
    fill(history)
    try:
        walk.finish()
    except SolidynError as err:
        return seen, err, max(kept)
    return seen, None, max(kept)


def assert_same_walk(want, got):
    (want_seen, want_err), (got_seen, got_err) = want, got
    assert len(got_seen) == len(want_seen)
    for (i, t, z, k1), (gi, gt, gz, gk1) in zip(want_seen, got_seen):
        assert (gi, gt) == (i, t)
        assert same_bits(gz, z)
        assert same_bits(gk1, k1)
    assert type(got_err) is type(want_err)
    if want_err is not None:
        assert str(got_err) == str(want_err)
        assert got_err.last_valid_time == want_err.last_valid_time


def random_snapshots(grid, rng, n, kg, speed, node_frac, sector_frac):
    """n snapshots of rough random fields: velocities up to `speed`, nodes
    on about `node_frac` of the cells and (Klein-Gordon) tachyonic and
    past-oriented cells on about `sector_frac`."""
    shape = grid.shape
    out = []
    for _ in range(n):
        amp = rng.uniform(0.2, 1.0, shape)
        amp[rng.random(shape) < node_frac] = 0.0
        vel = speed * rng.uniform(-1.0, 1.0, shape)
        if not kg:
            out.append(Snapshot(0.0, vel[None], amp,
                                rng.standard_normal((1,) + shape)))
            continue
        ones = np.ones(shape)
        tachyon = rng.random(shape) < sector_frac
        past = rng.random(shape) < sector_frac
        out.append(KGMadelung(
            grid=grid, time_tag=0.0, amplitude=amp,
            mass_sq=np.where(tachyon, -1.0, 1.0), current_t=ones,
            current_x=vel, velocity=vel[None], tachyon_mask=tachyon,
            past_oriented_mask=past, energy=0.0,
            amp_peak=float(np.max(amp))))
    return out


def filler(snapshots, times):
    def fill(history):
        for t, snap in zip(times, snapshots):
            snap.time_tag = t
            history.append(snap)
    return fill


@pytest.mark.skipif(given is None, reason="needs Hypothesis")
def test_windowed_walk_equals_the_stored_walk_on_random_fields():
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def check(data):
        kg = data.draw(st.booleans())
        grid = Grid(data.draw(st.integers(8, 48)),
                    data.draw(st.floats(2.0, 40.0)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(2, 12))
        t0 = data.draw(st.floats(-100.0, 100.0))
        dt = data.draw(st.floats(1e-3, 0.5))
        # a step crosses none, some or many cells, or (Klein-Gordon) goes
        # past the speed of light
        speed = data.draw(st.sampled_from([0.0, 0.01, 0.3, 3.0])) \
            * grid.lengths[0] / dt
        if kg:
            speed = min(speed, data.draw(st.sampled_from([0.5, 0.999, 2.0])))
        snapshots = random_snapshots(
            grid, rng, n, kg, speed,
            data.draw(st.sampled_from([0.0, 0.02, 0.3])),
            data.draw(st.sampled_from([0.0, 0.005, 0.1])))
        times = [t0 + k * dt for k in range(n)]
        starts = rng.uniform(-0.5, 0.5, (data.draw(st.integers(1, 6)), 1)) \
            * grid.lengths[0]
        kind = KGHistory if kg else FlowHistory
        pots = Potentials.free()
        stored = kind(grid, PARAMS, pots)
        with keep_every_snapshot():
            filler(snapshots, times)(stored)
        want = walk_outcome(flow_steps(stored, starts))
        *got, kept = windowed_outcome(filler(snapshots, times),
                                      kind(grid, PARAMS, pots), starts)
        assert kept <= WALK_WINDOW
        assert_same_walk(want, got)

    check()


@pytest.mark.skipif(given is None, reason="needs Hypothesis")
def test_windowed_walk_equals_the_stored_walk_on_evolved_waves():
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def check(data):
        kg = data.draw(st.booleans())
        grid = Grid(data.draw(st.sampled_from([32, 64])),
                    data.draw(st.floats(8.0, 30.0)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = grid.axes[0]
        # a few packets, so their interference makes nodes
        psi = sum(rng.uniform(0.2, 1.0)
                  * np.exp(-(x - rng.uniform(-3.0, 3.0)) ** 2
                           / rng.uniform(1.0, 8.0)
                           + 1j * rng.uniform(-3.0, 3.0) * x)
                  for _ in range(data.draw(st.integers(1, 3))))
        psi0 = Field(grid, psi.astype(complex))
        steps = data.draw(st.integers(1, 30))
        starts = rng.uniform(-4.0, 4.0, (data.draw(st.integers(1, 5)), 1))
        pots = Potentials.free()
        if kg:
            dt = 0.5 * grid.spacing[0] * data.draw(st.floats(0.2, 1.0))

            def evolve(history):
                return evolve_kg(psi0, -1j * psi0.samples, PARAMS, pots, dt,
                                 steps, history=history)
            kind = KGHistory
        else:
            dt = data.draw(st.floats(1e-3, 0.2))

            def evolve(history):
                return evolve_schrodinger(psi0, PARAMS, pots, dt, steps,
                                          history=history)
            kind = FlowHistory
        try:
            with keep_every_snapshot():
                stored = evolve(kind(grid, PARAMS, pots)).history
        except SolidynError as err:     # the wave itself failed
            with pytest.raises(type(err), match=re.escape(str(err))):
                evolve(kind(grid, PARAMS, pots))
            return
        want = walk_outcome(flow_steps(stored, starts))
        *got, kept = windowed_outcome(evolve, kind(grid, PARAMS, pots),
                                      starts)
        assert kept <= WALK_WINDOW
        assert_same_walk(want, got)

    check()


def test_walk_error_stops_the_walk_not_the_wave():
    # the drift leaves the box at t = 4.5: the wave's history still
    # receives every snapshot, and `finish` raises the abort
    g = Grid(256, 20.0)
    hist = FlowHistory(g, PARAMS, Potentials.free())
    seen = []
    walk = FlowWalk(hist, [[5.5]], lambda i, *rest: seen.append(i), list)
    for t in np.linspace(0.0, 6.0, 61):
        hist.append(Snapshot(t, np.ones((1, 256)), np.ones(256)))
    assert hist.count == 61 and len(hist.records) == WALK_WINDOW
    with pytest.raises(BoundaryExitError) as info:
        walk.finish()
    assert seen == list(range(len(seen)))
    assert info.value.last_valid_time == pytest.approx(0.1 * seen[-1])
    assert 40 < len(seen) < 50


LIBRARY_READERS = {
    "integrate_flow": lambda h: integrate_flow(h, [[0.5], [-0.5]]),
    "newton_bohm_residual": lambda h: newton_bohm_residual([0.5], h),
    "continuity_residual": continuity_residual,
    "kg_bohm_trajectory": lambda h: kg_bohm_trajectory([4.0], h),
    "kg_newton_residual": lambda h: kg_newton_residual([4.0], h),
    "current_conservation_residual": current_conservation_residual,
}


def equivariance_walk(history):
    """A walk that keeps an ensemble at a few snapshots, as the
    equivariance scenario's does."""
    kept = []

    def keep(i, t, z, stencil, k1):
        if i % 10 == 0:
            kept.append(z)

    starts = history.grid.sample_density(
        np.exp(-history.grid.axes[0] ** 2 / 2.0), 50, 1)
    return FlowWalk(history, starts, keep, lambda: np.stack(kept))


FINISHED_READERS = dict(LIBRARY_READERS, equivariance_walk=equivariance_walk)


def attach_and_evolve(reader, steps):
    """Attach FINISHED_READERS[reader] to a new history and fill it with
    `steps` steps of a moving packet; returns the reader, the history and
    the wave run."""
    if reader.startswith(("kg_", "current_")):
        g = Grid(128, 128.0)
        x = g.axes[0]
        psi0 = Field(g, (np.exp(-x**2 / 128.0)
                         * np.exp(0.1j * x)).astype(complex))
        history = KGHistory(g, PARAMS, Potentials.free())
        attached = FINISHED_READERS[reader](history)
        run = evolve_kg(psi0, -1j * psi0.samples, PARAMS, Potentials.free(),
                        0.2, steps, history=history)
    else:
        g = Grid(64, 20.0)
        x = g.axes[0]
        psi0 = Field(g, (np.exp(-x**2 / 4.0)
                         * np.exp(0.5j * x)).astype(complex))
        history = FlowHistory(g, PARAMS, Potentials.free())
        attached = FINISHED_READERS[reader](history)
        run = evolve_schrodinger(psi0, PARAMS, Potentials.free(), 2e-3,
                                 steps, history=history)
    return attached, history, run


@pytest.mark.parametrize("reader", LIBRARY_READERS)
def test_library_readers_keep_three_snapshots_at_any_length(monkeypatch,
                                                            reader):
    # every history a library reader reads keeps at most three snapshots
    # after each stored one, at 100 steps as at 400, and still receives
    # them all
    spied = []
    init = trajectories.FlowHistory.__init__

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        record = {"kept": 0}
        spied.append((self, record))

        def read(appended):
            record["kept"] = max(record["kept"], len(self.records))
        self.readers.append(read)

    monkeypatch.setattr(trajectories.FlowHistory, "__init__", spy_init)
    for steps in (100, 400):
        spied.clear()
        attached, _, _ = attach_and_evolve(reader, steps)
        attached.finish()
        assert spied
        for history, record in spied:
            assert history.count == steps + 1
            assert 0 < record["kept"] <= 3


@pytest.mark.parametrize("reader", FINISHED_READERS)
def test_finished_reader_frees_the_last_records_without_the_collector(
        reader):
    # a history and an attached reader hold each other until `finish`
    # detaches the reader, so a finished run's last records die with their
    # last reference, with the cyclic collector off
    gc.disable()
    try:
        attached, history, run = attach_and_evolve(reader, 30)
        attached.finish()
        records = [weakref.ref(record) for record in history.records]
        assert len(records) == WALK_WINDOW
        del attached, history, run
        assert all(record() is None for record in records)
    finally:
        gc.enable()


def schrodinger_record():
    g = Grid(64, 20.0)
    x = g.axes[0]
    psi = Field(g, (np.exp(-x**2 / 4.0) * np.exp(0.5j * x)).astype(complex),
                0.3)
    return (FlowHistory(g, PARAMS, Potentials.free()),
            madelung_extract(psi, PARAMS, Potentials.free()))


def kg_record():
    g = Grid(64, 64.0)
    x = g.axes[0]

    def psi_at(t):
        return np.exp(-x**2 / 64.0) * np.exp(1j * (0.3 * x - 1.04 * t))

    return (KGHistory(g, PARAMS, Potentials.free()),
            kg_madelung(psi_at(0.2), psi_at(0.3), psi_at(0.4), 0.3, 0.1, g,
                        PARAMS, Potentials.free()))


@pytest.mark.parametrize("build", [schrodinger_record, kg_record])
def test_history_holds_each_producers_record(build):
    # the history keeps the record its producer built, not a copy of its
    # fields, and every lookup reads that record's fields
    history, record = build()
    history.append(record)
    assert history.records[-1] is record
    t = record.time_tag
    assert history.amp_floor(t) == NODE_MASK_REL * record.amp_peak
    grid = history.grid
    rng = np.random.default_rng(4)
    stencil = grid.stencil(rng.uniform(-0.5, 0.5, (7, grid.dim))
                           * np.asarray(grid.lengths))
    want = np.stack([stencil.apply(record.velocity[a])
                     for a in range(grid.dim)], axis=1)
    assert same_bits(history.velocity_at(t, stencil), want)
