"""Tests for the benchmark's tracer, on tiny grids.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import solidyn  # noqa: E402
from solidyn import grids, pair, schrodinger, soliton, stepping  # noqa: E402
from solidyn.grids import Field, Grid  # noqa: E402
from solidyn.potentials import PhysicalParams, Potentials  # noqa: E402

import traced  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import LAYERS  # noqa: E402


def bindings():
    """Every function-valued global of every solidyn module, plus class
    attributes of the traced classes, keyed by where it is bound."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "solidyn" or name.startswith("solidyn."):
            for key, value in vars(mod).items():
                if callable(value):
                    found[name, key] = value
    for cls in (grids.Grid, solidyn.trajectories.FlowHistory):
        for key, value in vars(cls).items():
            found[cls.__qualname__, key] = value
    return found


def tiny_pair():
    grid = Grid((32, 32), (24.0, 24.0))
    line = Grid(32, 24.0)
    x = line.axes[0]
    packet = np.exp(-x**2 / 4.0).astype(complex)
    pots = (Potentials.free(1), Potentials.free(1))
    wave = pair.product_pair(packet, packet, grid, (1.0, 1.0), 1.0, pots)
    params = PhysicalParams(1.0, 1.0)

    def state():
        u = soliton.gausson_init(soliton.GaussonParams(25.0, 1.0), line, 1.0)
        return soliton.SolitonState(u, params, 25.0, 1.0, coupling_mode="dbb")

    return wave, pair.PairState(u1=state(), u2=state(), z=[0.0, 0.0])


def tiny_psi():
    grid = Grid(64, 20.0)
    return Field(grid, np.exp(-grid.axes[0] ** 2).astype(complex))


def test_sees_calls_through_every_rebound_name():
    originals = {"nls": soliton.nls_step, "ls": schrodinger.ls_step}
    targets = ("stepping.strang_step", "soliton.nls_step",
               "schrodinger.ls_step", "grids.Grid.interpolate")
    with Tracer(targets) as tracer:
        assert pair.nls_step is soliton.nls_step is solidyn.nls_step
        assert pair.nls_step is not originals["nls"]
        assert soliton.ls_step is schrodinger.ls_step is not originals["ls"]
        assert pair.strang_step is soliton.strang_step is stepping.strang_step

        soliton.ls_step(tiny_psi(), PhysicalParams(1.0), Potentials.free(1),
                        0.01)
        assert tracer.stats["schrodinger.ls_step"].calls == 1
        assert tracer.stats["stepping.strang_step"].calls == 1

        wave, state = tiny_pair()
        pair.pair_step(wave, state, 0.001)
    stats = tracer.stats
    assert stats["soliton.nls_step"].calls == 2
    assert stats["stepping.strang_step"].calls == 1 + 3   # ls2 + two nls
    assert stats["grids.Grid.interpolate"].calls > 0


def test_restores_every_original_object():
    before = bindings()
    with pytest.raises(RuntimeError, match="inside"):
        with Tracer(LAYERS):
            assert bindings() != before
            raise RuntimeError("failure inside the traced block")
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_is_duration_minus_children():
    targets = ("schrodinger.ls_step", "stepping.strang_step",
               "stepping.kinetic_multiplier")
    psi = tiny_psi()
    with Tracer(targets) as tracer:
        for _ in range(3):
            psi = schrodinger.ls_step(psi, PhysicalParams(1.0),
                                      Potentials.free(1), 0.01)
    outer, strang, kin = (tracer.stats[name] for name in targets)
    assert outer.calls == strang.calls == kin.calls == 3
    assert outer.self_s == pytest.approx(
        outer.total_s - strang.total_s - kin.total_s, rel=1e-9, abs=1e-12)
    assert strang.self_s == pytest.approx(strang.total_s, rel=1e-12)
    assert 0.0 < outer.self_s < outer.total_s


def test_self_time_with_a_scripted_clock(tmp_path, monkeypatch):
    package = tmp_path / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text(
        "def outer(clock):\n"
        "    clock.tick(2)\n"
        "    inner(clock)\n"
        "    inner(clock)\n"
        "    clock.tick(3)\n"
        "def inner(clock):\n"
        "    clock.tick(5)\n")
    (package / "b.py").write_text("from .a import inner\n")
    monkeypatch.syspath_prepend(str(tmp_path))

    class Clock:
        now = 0.0

        def tick(self, dt):
            self.now += dt

        def __call__(self):
            return self.now

    clock = Clock()
    tracer = Tracer(("a.outer", "a.inner"), package="fakepkg", clock=clock)
    try:
        with tracer:
            sys.modules["fakepkg.a"].outer(clock)
            sys.modules["fakepkg.b"].inner(clock)
    finally:
        for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            sys.modules.pop(name, None)
    outer, inner = tracer.stats["a.outer"], tracer.stats["a.inner"]
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 15.0, 5.0)
    assert (inner.calls, inner.total_s, inner.self_s) == (3, 15.0, 15.0)


def test_untraced_path_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a wrapper was installed")

    monkeypatch.setattr(Tracer, "_rebind", refuse)
    config = tmp_path / "tiny.yaml"
    config.write_text("scenario: free_gausson\ngrid:\n  points: 64\n"
                      "run:\n  dt: 1.0e-3\n  t_final: 0.01\n")
    out = tmp_path / "out"
    before = bindings()
    _, codes = traced.run_in_process(
        [(["run", str(config), "--output-dir", str(out), "--quiet"], out)])
    assert codes == [0]
    assert (out / "summary.txt").is_file()
    after = bindings()
    assert all(after[key] is before[key] for key in before)
