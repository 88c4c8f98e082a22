"""Tests for configuration parsing, snapshot IO, the CLI, and determinism."""

import dataclasses
import gc
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml

from interp_reference import record_snapshots
from solidyn.cli import main as cli_main
from solidyn import trajectories
from solidyn.diagnostics import equivariance_distance
from solidyn.errors import (BoundaryExitError, ConfigError,
                            NodeEncounterError, PastOrientedCurrentError,
                            SolidynError, TachyonicRegionError,
                            TrajectoryAbortError)
from solidyn.grids import Field, Grid
from solidyn.scenarios import (KINDS, MAX_STEPS, THRESHOLDS, parse_config,
                               parse_config_dict, run_scenario)
from solidyn.potentials import Potentials
from solidyn.schrodinger import MadelungBundle, evolve_schrodinger
from solidyn.snapshots import read_snapshot, write_csv, write_snapshot


def write_yaml(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parse_config
# ---------------------------------------------------------------------------

def test_minimal_free_gausson_defaults(tmp_path):
    cfg = parse_config(write_yaml(tmp_path, "min.yaml",
                                  "scenario: free_gausson\n"))
    assert cfg.points == (256,)
    assert cfg.lengths[0] == pytest.approx(20.0)  # 20 / sqrt(b), b = 1
    assert cfg.dt == pytest.approx(1e-3)
    assert cfg.seed == 0


def test_length_default_scales_with_b(tmp_path):
    cfg = parse_config(write_yaml(tmp_path, "b4.yaml",
                                  "scenario: free_gausson\n"
                                  "physics:\n  b: 4.0\n"))
    assert cfg.lengths[0] == pytest.approx(10.0)


def test_negative_b_rejected(tmp_path):
    with pytest.raises(ConfigError, match="b > 0"):
        parse_config(write_yaml(tmp_path, "neg.yaml",
                                "scenario: free_gausson\n"
                                "physics:\n  b: -1.0\n"))


def test_kg_cfl_rejected(tmp_path):
    # dt = dx violates dt <= 0.5 dx and the message cites the bound
    with pytest.raises(ConfigError, match="CFL"):
        parse_config(write_yaml(
            tmp_path, "cfl.yaml",
            "scenario: kg_plane_wave\n"
            "grid:\n  points: 256\n  length: 25.6\n"
            "run:\n  dt: 0.1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(write_yaml(tmp_path, "bad.yaml",
                                "scenario: free_gausson\n"
                                "run:\n  dtx: 1e-3\n"))
    with pytest.raises(ConfigError, match="unknown"):
        parse_config_dict({"scenario": "free_gausson", "extra": 1})
    # YAML keys of mixed types, which do not sort together
    with pytest.raises(ConfigError, match=r"\[run\]\.1: unknown key"):
        parse_config_dict({"scenario": "free_gausson",
                           "run": {1: 0, "dtx": 1e-3}})


@pytest.mark.parametrize("section, key, value", [
    ("run", "dt", ".nan"),
    ("run", "t_final", ".inf"),
    ("physics", "b", ".nan"),
    pytest.param("physics", "omega0", "1" + "0" * 400,   # beyond a float
                 id="physics-omega0-huge_int"),
])
def test_non_finite_number_rejected(tmp_path, section, key, value):
    path = write_yaml(tmp_path, "nonfinite.yaml",
                      f"scenario: free_gausson\n{section}:\n  {key}: {value}\n"
                      f"output:\n  directory: {tmp_path / 'out'}\n")
    with pytest.raises(ConfigError, match=rf"\[{section}\]\.{key}: .*finite"):
        parse_config(path)
    assert cli_main(["run", path, "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, points", [
    ("free_gausson", "33554432"),
    ("entangled_pair", "[8192, 4096]"),
])
def test_oversized_grid_rejected(tmp_path, scenario, points):
    path = write_yaml(tmp_path, "huge.yaml",
                      f"scenario: {scenario}\ngrid:\n  points: {points}\n"
                      f"output:\n  directory: {tmp_path / 'out'}\n")
    with pytest.raises(ConfigError,
                       match=r"\[grid\]\.points: .*memory budget"):
        parse_config(path)
    assert cli_main(["validate", path, "--quiet"]) == 2
    assert cli_main(["run", path, "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dt, t_final", [
    ("1.0e-300", "1.0e+300"),           # t_final/dt overflows to inf
    ("1.0", "0.4"),                     # rounds to 0 steps
    ("1.0", "0.5"),                     # rounds (half to even) to 0 steps
    ("1.0e-3", "1.0e+5"),               # 1e8 steps
    ("1.0", str(float(MAX_STEPS + 1))),
])
def test_step_count_bounded_at_parse_time(tmp_path, dt, t_final):
    path = write_yaml(tmp_path, "steps.yaml",
                      f"scenario: free_gausson\n"
                      f"run:\n  dt: {dt}\n  t_final: {t_final}\n"
                      f"output:\n  directory: {tmp_path / 'out'}\n")
    with pytest.raises(ConfigError, match=r"\[run\]\.t_final: .*steps"):
        parse_config(path)
    assert cli_main(["validate", path, "--quiet"]) == 2
    assert cli_main(["run", path, "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


def test_step_count_accepts_the_bounds_and_uneven_dt(tmp_path):
    def config(dt, t_final):
        return write_yaml(tmp_path, "ok.yaml",
                          f"scenario: free_gausson\n"
                          f"run:\n  dt: {dt}\n  t_final: {t_final}\n")

    assert parse_config(config("1.0", "0.6")).steps == 1
    path = config("1.0", str(float(MAX_STEPS)))
    assert parse_config(path).steps == MAX_STEPS
    assert cli_main(["validate", path, "--quiet"]) == 0
    # dt need not divide t_final: the shipped trap runs 8 pi / 1e-3 steps
    cfg = parse_config(os.path.join(os.path.dirname(__file__), "..",
                                    "configs", "harmonic_trap.yaml"))
    assert cfg.t_final / cfg.dt != cfg.steps
    assert cfg.steps == 25133


@pytest.mark.parametrize("key, value, message", [
    ("trajectories", "0.5", "expected an integer"),
    ("trajectories", "2000.0", "expected an integer"),
    ("trajectories", "0", "must be > 0"),
    ("trajectories", "-3", "must be > 0"),
    pytest.param("trajectories", "1" + "0" * 400, "exceeds the memory",
                 id="trajectories-huge_int"),
    ("bins", "0.5", "expected an integer"),
    ("bins", "0", "must be > 0"),
    ("bins", "abc", "expected an integer"),
])
def test_equivariance_counts_must_be_positive_integers(tmp_path, key, value,
                                                       message):
    path = write_yaml(tmp_path, "counts.yaml",
                      f"scenario: equivariance\ninitial:\n  {key}: {value}\n"
                      f"run:\n  t_final: 0.01\n"
                      f"output:\n  directory: {tmp_path / 'out'}\n")
    with pytest.raises(ConfigError, match=rf"\[initial\]\.{key}: {message}"):
        parse_config(path)
    assert cli_main(["validate", path, "--quiet"]) == 2
    assert cli_main(["run", path, "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


def test_equivariance_counts_parse_as_integers(tmp_path):
    cfg = parse_config(write_yaml(tmp_path, "counts.yaml",
                                  "scenario: equivariance\n"
                                  "initial:\n  trajectories: 300\n"
                                  "  bins: '16'\n"))
    assert cfg.initial["trajectories"] == 300
    assert cfg.initial["bins"] == 16
    assert type(cfg.initial["bins"]) is int


@pytest.mark.parametrize("error", [NodeEncounterError, BoundaryExitError,
                                   TachyonicRegionError,
                                   PastOrientedCurrentError])
def test_trajectory_aborts_share_one_base(tmp_path, monkeypatch, error):
    err = error("trajectory aborted", 0.25)
    assert isinstance(err, TrajectoryAbortError)
    assert isinstance(err, SolidynError)
    assert err.last_valid_time == 0.25
    assert str(err) == "trajectory aborted"

    def abort(cfg, sink):
        raise error("trajectory aborted", 0.25)

    monkeypatch.setitem(KINDS, "free_gausson", dataclasses.replace(
        KINDS["free_gausson"], runner=abort))
    path = write_yaml(tmp_path, "abort.yaml",
                      f"scenario: free_gausson\n"
                      f"output:\n  directory: {tmp_path / 'out'}\n")
    assert cli_main(["run", path, "--quiet"]) == 1
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "error: trajectory aborted" in manifest


@pytest.mark.parametrize("existing", [False, True])
def test_config_error_in_a_runner_leaves_no_new_directory(tmp_path,
                                                          monkeypatch,
                                                          existing):
    # as a config refused at parse time, a runner's ConfigError ends in
    # exit 2 and leaves no directory the run made; one that was there stays
    def refuse(cfg, sink):
        raise ConfigError("[initial].center: refused by the runner")

    monkeypatch.setitem(KINDS, "free_gausson", dataclasses.replace(
        KINDS["free_gausson"], runner=refuse))
    out = tmp_path / "new" / "out"
    if existing:
        out.mkdir(parents=True)
        (out / "kept.txt").write_text("kept\n")
    path = write_yaml(tmp_path, "refuse.yaml",
                      f"scenario: free_gausson\n"
                      f"output:\n  directory: {out}\n")
    assert cli_main(["run", path, "--quiet"]) == 2
    if existing:
        assert sorted(p.name for p in out.iterdir()) == ["kept.txt"]
    else:
        assert not (tmp_path / "new").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["refuse.yaml"]


_HUGE_INT = "-1" + "0" * 400
# the reasons of the rejections below that are not about finiteness, by
# value: `entangled_pair` has no `kind` key, `kg_plane_wave` no
# `wavenumber` (its k comes from `harmonic`), and `harmonic` is an integer
# no larger than the largest grid
_OTHER_REASONS = {"product": "unknown key", "3.0": "unknown key",
                  "4.5": "expected an integer", _HUGE_INT: "must satisfy"}


@pytest.mark.parametrize("scenario, section, key, value", [
    ("free_gausson", "grid", "length", ".nan"),
    ("free_gausson", "grid", "length", "[-.inf]"),
    pytest.param("free_gausson", "grid", "length", "1" + "0" * 400,
                 id="free_gausson-grid-length-huge_int"),
    ("free_gausson", "grid", "points", ".inf"),
    ("double_slit_dbb", "initial", "packet_sigma", ".nan"),
    ("double_slit_dbb", "initial", "soliton_start", ".inf"),
    ("entangled_pair", "initial", "z1", "-.inf"),
    ("kg_packet", "initial", "wavenumber", ".nan"),
    ("entangled_pair", "initial", "kind", "product"),
    ("kg_plane_wave", "initial", "wavenumber", "3.0"),
    ("kg_plane_wave", "initial", "harmonic", "4.5"),
    pytest.param("kg_plane_wave", "initial", "harmonic", _HUGE_INT,
                 id="kg_plane_wave-initial-harmonic-huge_int"),
])
def test_non_finite_grid_or_initial_rejected(tmp_path, scenario, section,
                                             key, value):
    path = write_yaml(tmp_path, "nonfinite.yaml",
                      f"scenario: {scenario}\n{section}:\n  {key}: {value}\n"
                      f"output:\n  directory: {tmp_path / 'out'}\n")
    reason = _OTHER_REASONS.get(value, ".*finite")
    with pytest.raises(ConfigError, match=rf"\[{section}\]\.{key}: {reason}"):
        parse_config(path)
    assert cli_main(["validate", path, "--quiet"]) == 2
    assert cli_main(["run", path, "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


def test_string_and_null_initial_entries_still_accepted():
    cfg = parse_config_dict({"scenario": "kg_packet",
                             "initial": {"mode": "counter"}})
    assert cfg.initial["mode"] == "counter"
    cfg = parse_config_dict({"scenario": "double_slit_dbb",
                             "initial": {"soliton_start": None}})
    assert cfg.initial["soliton_start"] is None


@pytest.mark.parametrize("scenario, grid", [
    ("free_gausson", "points: [64, 64]\n  length: [20.0, 20.0]"),
    ("double_slit_dbb", "points: [256, 256]\n  length: [40.0, 40.0]"),
    ("equivariance", "points: [64, 64]\n  length: [30.0, 30.0]"),
    ("entangled_pair", "points: 256\n  length: 24.0"),
])
def test_wrong_grid_axis_count_rejected(tmp_path, scenario, grid):
    path = write_yaml(tmp_path, "dim.yaml",
                      f"scenario: {scenario}\ngrid:\n  {grid}\n"
                      f"output:\n  directory: {tmp_path / 'out'}\n")
    with pytest.raises(ConfigError, match=r"\[grid\]\.points: .*grid"):
        parse_config(path)
    assert cli_main(["validate", path, "--quiet"]) == 2
    assert cli_main(["run", path, "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("physics", "charge", "0", "must satisfy charge > 0"),
    ("physics", "charge", "-1.0", "must satisfy charge > 0"),
    ("potential", "kind", "none",
     "harmonic_trap needs kind 'harmonic', got 'none'"),
    ("potential", "kind", "uniform_e",
     "harmonic_trap needs kind 'harmonic', got 'uniform_e'"),
])
def test_harmonic_trap_preconditions_rejected(tmp_path, section, key, value,
                                              message):
    # the expected period 2 pi sqrt(omega0 / (charge spring)) needs both;
    # without them the run used to end in a traceback or in exit 1
    path = write_yaml(tmp_path, "trap.yaml",
                      f"scenario: harmonic_trap\n"
                      f"{section}:\n  {key}: {value}\nrun:\n  t_final: 0.01\n"
                      f"output:\n  directory: {tmp_path / 'out'}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == f"[{section}].{key}: {message}"
    assert cli_main(["validate", path, "--quiet"]) == 2
    assert cli_main(["run", path, "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, key, value, box", [
    ("free_gausson", "center", "100.0", "[-10, 10)"),
    ("harmonic_trap", "center", "10.0", "[-10, 10)"),    # the box is half-open
    ("double_slit_dbb", "soliton_start", "100.0", "[-20, 20)"),
    ("entangled_pair", "z1", "100.0", "[-12, 12)"),
    ("entangled_pair", "z2", "-12.5", "[-12, 12)"),
    ("entangled_pair", "z2_alternate", "12.0", "[-12, 12)"),
])
def test_initial_position_outside_the_box_rejected(tmp_path, scenario, key,
                                                   value, box):
    path = write_yaml(tmp_path, "outside.yaml",
                      f"scenario: {scenario}\ninitial:\n  {key}: {value}\n"
                      f"output:\n  directory: {tmp_path / 'out'}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert str(err.value) == (f"[initial].{key}: {float(value)!r} lies "
                              f"outside the box {box}")
    assert cli_main(["validate", path, "--quiet"]) == 2
    assert cli_main(["run", path, "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


def test_initial_positions_are_checked_on_their_own_axis():
    cfg = parse_config_dict({"scenario": "free_gausson",
                             "initial": {"center": -10.0}})
    assert cfg.initial["center"] == -10.0
    # z1 lies on the first axis of the pair grid, z2 and z2_alternate on
    # the second
    for key, box in (("z1", "[-12, 12)"), ("z2", "[-20, 20)"),
                     ("z2_alternate", "[-20, 20)")):
        with pytest.raises(ConfigError) as err:
            parse_config_dict({
                "scenario": "entangled_pair",
                "grid": {"points": [64, 64], "length": [24.0, 40.0]},
                "initial": {key: -25.0}})
        assert str(err.value) == (f"[initial].{key}: -25.0 lies outside "
                                  f"the box {box}")
    # the double slit's pilot packets, at +-separation/2, lie on the
    # first axis; the default start -separation/2 is one of them
    cfg = parse_config_dict({"scenario": "double_slit_dbb",
                             "initial": {"separation": -39.0}})
    assert cfg.initial["soliton_start"] is None
    with pytest.raises(ConfigError, match=r"^\[initial\]\.separation: "
                       r"-40\.0 puts a packet centre at 20\.0, outside"):
        parse_config_dict({"scenario": "double_slit_dbb",
                           "initial": {"separation": -40.0}})


def test_grid_points_take_whole_numbers_only():
    # a float that is a whole number reads as its int, as an exponent
    # string does; any other float is refused like the count keys
    cfg = parse_config_dict({"scenario": "entangled_pair",
                             "grid": {"points": [64.0, 32]}})
    assert cfg.points == (64, 32) and type(cfg.points[0]) is int
    with pytest.raises(ConfigError) as err:
        parse_config_dict({"scenario": "free_gausson",
                           "grid": {"points": "2.05e1"}})
    assert str(err.value) == "[grid].points: expected an integer, got 20.5"


def test_entangled_pair_runs_on_a_non_square_grid(tmp_path):
    # each particle's packets and soliton live on its own axis grid
    path = write_yaml(tmp_path, "pair.yaml",
                      "scenario: entangled_pair\n"
                      "grid:\n  points: [64, 128]\n  length: [24.0, 48.0]\n"
                      "run:\n  t_final: 0.02\n"
                      f"output:\n  directory: {tmp_path / 'out'}\n")
    assert cli_main(["run", path, "--quiet"]) in (0, 3)
    assert (tmp_path / "out" / "trajectories.csv").exists()


def test_exponent_strings_read_as_numbers():
    # YAML 1.1 reads an exponent without a dot as a string
    cfg = parse_config_dict({"scenario": "entangled_pair",
                             "grid": {"points": ["3.2e1", 32],
                                      "length": ["2e1", 24]},
                             "run": {"t_final": "1e-1"}, "seed": "7"})
    assert (cfg.points, cfg.lengths) == ((32, 32), (20.0, 24.0))
    assert (cfg.t_final, cfg.seed) == (0.1, 7)


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config(write_yaml(tmp_path, "kind.yaml", "scenario: warp\n"))


def test_malformed_yaml_cites_file(tmp_path):
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(write_yaml(tmp_path, "broken.yaml",
                                "scenario: [unclosed\n"))


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_round_trip(tmp_path):
    g = Grid((32, 16), (4.0, 8.0))
    rng = np.random.default_rng(5)
    samples = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    field = Field(g, samples, time_tag=1.25)
    path = str(tmp_path / "f.sldn")
    write_snapshot(field, path)
    back = read_snapshot(path)
    assert np.array_equal(back.samples, samples)
    assert back.time_tag == 1.25
    assert back.grid.points == (32, 16)
    assert back.grid.lengths == (4.0, 8.0)


def test_snapshot_size_1d_n8(tmp_path):
    g = Grid(8, 1.0)
    path = str(tmp_path / "z.sldn")
    write_snapshot(Field(g, np.zeros(8, dtype=complex)), path)
    assert os.path.getsize(path) == 157  # 5 + 4 + 4 + 8 + 8 + 8*16


def test_snapshot_layout_little_endian(tmp_path):
    g = Grid(4, 2.0)
    samples = np.array([1 + 2j, 3 - 4j, 0.5j, -1.0], dtype=complex)
    path = str(tmp_path / "le.sldn")
    write_snapshot(Field(g, samples, time_tag=0.75), path)
    blob = open(path, "rb").read()
    assert blob[:5] == b"SLDN1"
    assert struct.unpack_from("<I", blob, 5)[0] == 1
    assert struct.unpack_from("<I", blob, 9)[0] == 4
    assert struct.unpack_from("<d", blob, 13)[0] == 2.0
    assert struct.unpack_from("<d", blob, 21)[0] == 0.75
    re0, im0 = struct.unpack_from("<dd", blob, 29)
    assert (re0, im0) == (1.0, 2.0)


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.sldn"
    path.write_bytes(b"NOPE!" + b"\x00" * 64)
    with pytest.raises(SolidynError, match="SLDN1"):
        read_snapshot(str(path))


# ---------------------------------------------------------------------------
# run_scenario / CLI
# ---------------------------------------------------------------------------

FAST_FREE = """\
scenario: free_gausson
run:
  t_final: 0.5
output:
  directory: {out}
"""


def test_run_scenario_pass_and_outputs(tmp_path):
    cfg = parse_config(write_yaml(tmp_path, "run.yaml",
                                  FAST_FREE.format(out=tmp_path / "out")))
    assert run_scenario(cfg, quiet=True) == 0
    assert (tmp_path / "out" / "summary.txt").exists()
    assert (tmp_path / "out" / "center.csv").exists()
    assert (tmp_path / "out" / "conservation.csv").exists()
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "overall: PASS" in summary


def test_run_scenario_acceptance_fail_exit_code(tmp_path):
    # a coarse step breaks the stationarity tolerance: exit code 3
    path = write_yaml(tmp_path, "fail.yaml",
                      "scenario: free_gausson\n"
                      "run:\n  dt: 0.05\n  t_final: 0.5\n"
                      f"output:\n  directory: {tmp_path / 'failout'}\n")
    cfg = parse_config(path)
    assert run_scenario(cfg, quiet=True) == 3
    summary = (tmp_path / "failout" / "summary.txt").read_text()
    assert "FAIL" in summary


def test_cli_exit_codes(tmp_path):
    good = write_yaml(tmp_path, "ok.yaml",
                      FAST_FREE.format(out=tmp_path / "cliout"))
    assert cli_main(["validate", good, "--quiet"]) == 0
    bad = write_yaml(tmp_path, "bad.yaml",
                     "scenario: free_gausson\nrun:\n  dtx: 1\n")
    assert cli_main(["validate", bad, "--quiet"]) == 2
    assert cli_main(["run", bad, "--quiet"]) == 2
    assert cli_main(["list-scenarios"]) == 0


def test_cli_flag_overrides(tmp_path):
    good = write_yaml(tmp_path, "flags.yaml",
                      FAST_FREE.format(out=tmp_path / "ignored"))
    out = tmp_path / "flagged"
    assert cli_main(["run", good, "--quiet", "--output-dir", str(out),
                     "--seed", "7", "--snapshots", "100"]) == 0
    assert (out / "summary.txt").exists()
    assert "seed: 7" in (out / "summary.txt").read_text()
    assert any(p.suffix == ".sldn" for p in (out / "snapshots").iterdir())


def test_cli_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "solidyn.cli", "list-scenarios"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    for kind in KINDS:
        assert kind in proc.stdout


def test_rerun_reproduces_byte_identical_csvs(tmp_path):
    text = ("scenario: equivariance\n"
            "run:\n  dt: 2e-3\n  t_final: 0.2\n"
            "output:\n  directory: {out}\n")
    cfg_a = parse_config(write_yaml(tmp_path, "a.yaml",
                                    text.format(out=tmp_path / "a")))
    cfg_b = parse_config(write_yaml(tmp_path, "b.yaml",
                                    text.format(out=tmp_path / "b")))
    assert run_scenario(cfg_a, quiet=True) == 0
    assert run_scenario(cfg_b, quiet=True) == 0
    for name in ("equivariance.csv", "summary.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_thresholds_match_acceptance_values():
    # freeze the acceptance thresholds against accidental edits
    assert THRESHOLDS["profile_l2"] == 1e-6
    assert THRESHOLDS["norm_drift"] == 1e-10
    assert THRESHOLDS["static_energy_identity"] == 1e-12
    assert THRESHOLDS["uniform_center_rel"] == 1e-3
    assert THRESHOLDS["trap_period_rel"] == 5e-3
    assert THRESHOLDS["cancellation_rel"] == 1e-8
    assert THRESHOLDS["tracking_cells"] == 3.0
    assert THRESHOLDS["newton_rms"] == 0.02
    assert THRESHOLDS["equivariance_l1"] == 0.05
    assert THRESHOLDS["kg_mass_dev"] == 1e-8
    assert THRESHOLDS["kg_slope_dev"] == 1e-6
    assert THRESHOLDS["kg_gap_frac"] == 0.01
    assert THRESHOLDS["pair_product_shift_cells"] == 0.1
    assert THRESHOLDS["pair_entangled_shift_cells"] == 10.0


@pytest.mark.slow
def test_double_slit_scenario_reduced(tmp_path):
    cfg = parse_config_dict({
        "scenario": "double_slit_dbb",
        "physics": {"b": 100.0},
        "grid": {"points": 1024, "length": 40.0},
        "run": {"dt": 1e-3, "t_final": 6.5},
        "output": {"directory": str(tmp_path / "ds")},
    })
    assert run_scenario(cfg, quiet=True) == 0
    assert (tmp_path / "ds" / "tracking.csv").exists()
    assert (tmp_path / "ds" / "harmony.csv").exists()


def test_equivariance_scenario_keeps_only_reported_snapshots(tmp_path):
    # the scenario records the ensemble at three snapshots; its CSV must
    # equal the report computed from the full position block
    cfg = parse_config_dict({
        "scenario": "equivariance",
        "grid": {"points": 256, "length": 30.0},
        "initial": {"trajectories": 400, "bins": 16},
        "run": {"t_final": 0.3},
        "output": {"directory": str(tmp_path / "eq")},
    })
    assert run_scenario(cfg, quiet=True) in (0, 3)
    grid = cfg.grid
    x = grid.axes[0]
    sigma = cfg.initial["packet_sigma"]
    psi0 = Field(grid, np.exp(-x**2 / (4 * sigma**2)).astype(complex))
    history = trajectories.FlowHistory(grid, cfg.params, cfg.potentials())
    stored = record_snapshots(history, "time_tag", "amplitude")
    starts = grid.sample_density(psi0.density(), 400, cfg.seed)
    ensemble = trajectories.integrate_flow(history, starts)
    evolve_schrodinger(psi0, cfg.params, cfg.potentials(), cfg.dt, cfg.steps,
                       history=history)
    block = ensemble.finish().positions
    densities = [a ** 2 for a in stored["amplitude"]]
    n = len(densities)
    report = equivariance_distance(densities, grid, stored["time_tag"],
                                   block, indices=[0, n // 2, n - 1],
                                   bins=16)
    write_csv(tmp_path / "want.csv", ["time", "l1_distance"],
              [report.times, report.distances], comment="dimensionless")
    assert (tmp_path / "eq" / "equivariance.csv").read_bytes() \
        == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("kind, initial, t_finals", [
    ("kg_plane_wave", {}, (0.05, 0.1)),
    ("kg_packet", {}, (0.5, 1.0)),
    ("kg_packet", {"mode": "counter"}, (0.5, 1.0)),
    ("equivariance", {"trajectories": 50}, (0.01, 0.02)),
    ("double_slit_dbb", {}, (0.01, 0.02)),
])
def test_walks_and_coupled_steps_read_no_flag_or_field_per_visit(
        tmp_path, monkeypatch, kind, initial, t_finals):
    # the trajectory walks and the coupled run's reference point record
    # times, positions and velocities only: a run twice as long calls the
    # node-proximity flags and the electric field no more often
    counts = []
    for cls, method in ((trajectories.FlowHistory, "proximity_flags"),
                        (Potentials, "electric_field")):
        def spy(self, *args, original=getattr(cls, method), method=method):
            counts[-1][method] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, method, spy)
    for t_final in t_finals:
        counts.append({"proximity_flags": 0, "electric_field": 0})
        cfg = parse_config_dict({
            "scenario": kind, "initial": initial, "run": {"t_final": t_final},
            "output": {"directory": str(tmp_path / str(t_final))}})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # scale separation aside
            assert run_scenario(cfg, quiet=True) in (0, 3)
    assert counts[0] == counts[1]
    assert counts[1]["proximity_flags"] == 0


def test_finished_equivariance_run_leaves_no_record_to_the_collector(
        tmp_path):
    # the density reader counts its snapshots and the walk detaches at
    # `finish`, so no reader ties the history into a cycle: with the
    # cyclic collector off, none of the run's records outlives the run
    cfg = parse_config_dict({
        "scenario": "equivariance",
        "grid": {"points": 96, "length": 30.0},
        "initial": {"trajectories": 100, "bins": 16},
        "run": {"t_final": 0.1},
        "output": {"directory": str(tmp_path / "eq")},
    })
    gc.disable()
    try:
        assert run_scenario(cfg, quiet=True) in (0, 3)
        left = [o for o in gc.get_objects()
                if isinstance(o, MadelungBundle) and o.grid == cfg.grid]
    finally:
        gc.enable()
    assert not left


def test_shipped_configs_all_validate():
    import pathlib
    config_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    configs = sorted(config_dir.glob("*.yaml"))
    assert len(configs) >= 8
    kinds = set()
    for path in configs:
        cfg = parse_config(str(path))
        kinds.add(cfg.kind)
    assert kinds == set(KINDS)


CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")


@pytest.mark.parametrize("config", sorted(
    name for name in os.listdir(CONFIG_DIR) if name.endswith(".yaml")))
def test_shipped_config_summaries_print_plain_numbers(tmp_path, config):
    # a short run of each shipped config writes its summary, extras
    # included, without numpy reprs such as np.float64(1.118033988749895);
    # the trap runs long enough, at a coarse step, to measure a period
    with open(os.path.join(CONFIG_DIR, config)) as handle:
        raw = yaml.safe_load(handle)
    run = raw.setdefault("run", {})
    if raw["scenario"] == "harmonic_trap":
        run.update(dt=1e-2, t_final=20.0)
    else:
        run["t_final"] = 10 * run.get("dt", KINDS[raw["scenario"]].dt)
    raw["output"] = {"directory": str(tmp_path / "out")}
    path = write_yaml(tmp_path, config, yaml.safe_dump(raw))
    assert cli_main(["run", path, "--quiet"]) in (0, 3)
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "np." not in summary
    for line in summary.splitlines()[2:]:
        key, value = line.split(": ", 1)
        if not key.startswith("check ") and key != "overall":
            float(value)


@pytest.mark.parametrize("scenario, initial, grid, dt", [
    ("equivariance", {"trajectories": 50, "bins": 8}, (64, 30.0), 1e-3),
    ("kg_packet", {"mode": "counter"}, (64, 50.0), 5e-3),
    ("kg_packet", {"mode": "single", "packet_sigma": 8.0}, (64, 120.0),
     5e-3),
    ("kg_plane_wave", {"harmonic": 4}, (64, 50.0), 5e-3),
])
def test_history_runners_keep_three_snapshots_at_any_length(
        tmp_path, monkeypatch, scenario, initial, grid, dt):
    # every history these runners fill keeps at most three snapshots after
    # each stored one, at 100 steps as at 400, and still receives them all
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
        cfg = parse_config_dict({
            "scenario": scenario, "initial": dict(initial),
            "grid": {"points": grid[0], "length": grid[1]},
            "run": {"dt": dt, "t_final": steps * dt},
            "output": {"directory": str(tmp_path / f"{scenario}{steps}")}})
        assert run_scenario(cfg, quiet=True) in (0, 3)
        assert spied
        for history, record in spied:
            assert history.count == steps + 1
            assert 0 < record["kept"] <= 3


def test_snapshot_run_memory_stays_flat_as_the_run_doubles(tmp_path):
    # each stored (u, psi) pair is written as it is sampled and each
    # per-step number is an 8-byte row, so the traced peak of a run that
    # writes a snapshot pair every step barely grows from 100 to 200
    # steps; holding the N = 2048 pairs to the end would add 64 KB per
    # step, 6.4 MB here
    peaks = {}
    for steps in (2, 100, 200):      # the first run warms up
        cfg = parse_config(os.path.join(CONFIG_DIR, "double_slit_dbb.yaml"))
        cfg.t_final = steps * cfg.dt
        cfg.snapshot_every = 1
        cfg.output_dir = str(tmp_path / f"ds{steps}")
        tracemalloc.start()
        try:
            run_scenario(cfg, quiet=True)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(os.listdir(tmp_path / f"ds{steps}" / "snapshots")) \
            == 2 * (steps + 1)
    assert peaks[200] - peaks[100] < 512 * 1024


def test_boundary_abort_lists_the_snapshots_written_before_it(tmp_path):
    # a strong field pushes the soliton into the seam: the run exits 1,
    # and its manifest lists the snapshots of the steps before the abort,
    # in the order they were written
    out = tmp_path / "out"
    path = write_yaml(tmp_path, "push.yaml",
                      "scenario: uniform_field\n"
                      "grid:\n  points: 64\n  length: 20.0\n"
                      "potential:\n  kind: uniform_e\n  e_field: 2.0\n"
                      "run:\n  dt: 1.0e-2\n  t_final: 5.0\n"
                      "  snapshot_every: 10\n"
                      f"output:\n  directory: {out}\n")
    assert cli_main(["run", path, "--quiet"]) == 1
    manifest = (out / "manifest.txt").read_text()
    abort_step = int(re.search(r"boundary mass .* at step (\d+)\n",
                               manifest).group(1))
    listed = manifest.split("partial outputs:\n")[1].split()
    written = [str(out / "snapshots" / f"u_{i:06d}.sldn")
               for i in range((abort_step - 1) // 10 + 1)]
    assert listed == written
    assert sorted(os.listdir(out / "snapshots")) \
        == [os.path.basename(name) for name in written]
