"""Tests for configuration parsing, snapshot IO, the CLI, and determinism."""

import dataclasses
import gc
import os
import re
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml

from interp_reference import record_snapshots
from solidyn.cli import main as cli_main
from solidyn import scenarios, trajectories
from solidyn.diagnostics import equivariance_distance
from solidyn.errors import (BoundaryExitError, ConfigError,
                            NodeEncounterError, NonFiniteFieldError,
                            PastOrientedCurrentError, SolidynError,
                            TachyonicRegionError, TrajectoryAbortError)
from solidyn.grids import Field, Grid
from solidyn.pair import product_pair, run_pair
from solidyn.scenarios import (KINDS, MAX_STEPS, THRESHOLDS, _concurrently,
                               parse_config, parse_config_dict, run_scenario)
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
def test_an_output_directory_that_cannot_be_made_leaves_none_behind(
        tmp_path, capsys, existing):
    # a name too long for the file system is refused only after the
    # directories above it are made: the run exits 2 naming
    # [output].directory and removes the directories it made; one that was
    # there stays
    out = tmp_path / "new" / "out"
    if existing:
        out.mkdir(parents=True)
        (out / "kept.txt").write_text("kept\n")
    path = write_yaml(tmp_path, "long.yaml",
                      f"scenario: free_gausson\n"
                      f"output:\n  directory: {out / ('x' * 300)}\n")
    assert cli_main(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "configuration error: [output].directory: [Errno 36] File name too "
        "long: ")
    if existing:
        assert sorted(p.name for p in out.iterdir()) == ["kept.txt"]
    else:
        assert sorted(p.name for p in tmp_path.iterdir()) == ["long.yaml"]


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


def test_double_slit_scenario_derives_no_quantum_force(tmp_path,
                                                       monkeypatch):
    # no reader of the coupled run reads F_Q, so the one real-derivative
    # stack that would hold it is never built; q still takes its Laplacian
    calls = {"real_derivatives": 0, "real_laplacian": 0}
    for name in calls:
        def counting(self, samples, _name=name, _real=getattr(Grid, name)):
            calls[_name] += 1
            return _real(self, samples)

        monkeypatch.setattr(Grid, name, counting)
    with open(os.path.join(CONFIG_DIR, "double_slit_dbb.yaml")) as f:
        raw = yaml.safe_load(f)
    raw["run"]["t_final"] = 0.05
    raw["output"]["directory"] = str(tmp_path / "ds")
    cfg = parse_config_dict(raw)
    assert run_scenario(cfg, quiet=True) in (0, 3)
    assert calls == {"real_derivatives": 0, "real_laplacian": cfg.steps + 1}


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


@pytest.mark.parametrize("blocker", ["snapshots", "center.csv"])
def test_an_output_that_cannot_be_written_ends_in_exit_1(tmp_path, capsys,
                                                         blocker):
    # a file named `snapshots` where the snapshot directory goes, or a
    # directory named like a series file: the run exits 1 with one
    # "solver error" line, no traceback, and a manifest of the files
    # written before the failing one
    out = tmp_path / "out"
    out.mkdir()
    if blocker == "snapshots":
        (out / "snapshots").write_text("not a directory\n")
    else:
        (out / "center.csv").mkdir()
    path = write_yaml(tmp_path, "blocked.yaml", FAST_FREE.format(out=out))
    assert cli_main(["run", path, "--snapshots", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(
        f"solver error: cannot write {out / blocker}")
    assert captured.out.count("\n") == 1
    manifest = (out / "manifest.txt").read_text()
    assert manifest.startswith("scenario: free_gausson\nstatus: solver "
                               "error\nerror: cannot write ")
    listed = manifest.split("partial outputs:\n")[1].split()
    written = sorted(str(p) for p in (out / "snapshots").iterdir()) \
        if blocker == "center.csv" else []
    assert listed == written
    assert len(written) == (6 if blocker == "center.csv" else 0)


def test_a_manifest_that_cannot_be_written_still_ends_in_exit_1(tmp_path,
                                                                 capsys):
    # a directory named `manifest.txt` where a failed run writes its
    # manifest: the run still exits 1 with its one "solver error" line,
    # and stderr says the manifest could not be written
    out = tmp_path / "out"
    out.mkdir()
    (out / "snapshots").write_text("not a directory\n")
    (out / "manifest.txt").mkdir()
    path = write_yaml(tmp_path, "blocked.yaml", FAST_FREE.format(out=out))
    assert cli_main(["run", path, "--snapshots", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(
        f"solver error: cannot write {out / 'snapshots'}")
    assert captured.out.count("\n") == 1
    assert captured.err.startswith(
        f"cannot write the manifest {out / 'manifest.txt'}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert (out / "manifest.txt").is_dir()
    assert sorted(p.name for p in out.iterdir()) == ["manifest.txt",
                                                     "snapshots"]


# ---------------------------------------------------------------------------
# the entangled and product pair runs in two processes
# ---------------------------------------------------------------------------

SHORT_PAIR = ("scenario: entangled_pair\n"
              "grid:\n  points: [64, 64]\n  length: [24.0, 24.0]\n"
              "run:\n  t_final: 0.02\n"
              "output:\n  directory: {out}\n")


def open_fd_count():
    return len(os.listdir("/proc/self/fd"))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_pair_config(tmp_path, capsys, name, text=SHORT_PAIR):
    """Exit code, stdout and output files of one `run_scenario` of `text`;
    checks that the run leaves no child process and no open descriptor."""
    out = tmp_path / name
    fds = open_fd_count()
    path = write_yaml(tmp_path, f"{name}.yaml", text.format(out=out))
    code = run_scenario(parse_config(path))
    assert_no_child_left()
    assert open_fd_count() == fds
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, capsys.readouterr().out, files


def test_concurrently_returns_both_results_and_reaps_its_child():
    fds = open_fd_count()
    parent = os.getpid()
    first, second = _concurrently(lambda: os.getpid(),
                                  lambda: (os.getpid(), np.arange(3.0)))
    assert first == parent and second[0] != parent
    assert second[1].tobytes() == np.arange(3.0).tobytes()
    assert_no_child_left()
    assert open_fd_count() == fds


@pytest.mark.parametrize("error", [NodeEncounterError("node", 0.25),
                                   NonFiniteFieldError("non-finite"),
                                   ValueError("not a solver error")])
def test_concurrently_raises_the_childs_error_after_first(error):
    ran = []

    def fail():
        raise error

    with pytest.raises(type(error)) as err:
        _concurrently(lambda: ran.append("first"), fail)
    assert ran == ["first"]
    assert str(err.value) == str(error)
    assert getattr(err.value, "last_valid_time", None) \
        == getattr(error, "last_valid_time", None)
    assert_no_child_left()


def test_concurrently_reports_a_child_that_ends_with_no_result():
    fds = open_fd_count()
    with pytest.raises(SolidynError, match=r"no result \(exit status 7\)$"):
        _concurrently(lambda: None, lambda: os._exit(7))
    assert_no_child_left()
    assert open_fd_count() == fds


def test_concurrently_without_fork_runs_first_then_second(monkeypatch):
    order = []
    monkeypatch.delattr(os, "fork")
    assert _concurrently(lambda: order.append(1) or "a",
                         lambda: order.append(2) or "b") == ("a", "b")
    assert order == [1, 2]


def test_pair_runs_without_fork_write_the_forked_bytes(tmp_path, capsys,
                                                       monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    forked = run_pair_config(tmp_path, capsys, "forked")
    assert forks == [os.getpid()]
    monkeypatch.delattr(os, "fork")
    serial = run_pair_config(tmp_path, capsys, "serial")
    assert forked == serial
    assert forked[0] in (0, 3)
    assert sorted(forked[2]) == ["summary.txt", "trajectories.csv"]


def product_aborts(monkeypatch, entangled_error=None, product_delay=0.0):
    """Make the product run of `entangled_pair` abort at its end, after
    `product_delay` seconds, and the entangled run raise `entangled_error`
    if given.  The product wave is told apart by the `product_pair` that
    built it."""
    products = []

    def tagged(*args, **kwargs):
        products.append(product_pair(*args, **kwargs))
        return products[-1]

    def aborting(pair, states, dt, steps):
        runs = run_pair(pair, states, dt, steps)
        if not any(pair is wave for wave in products):
            if entangled_error is not None:
                raise entangled_error
            return runs
        time.sleep(product_delay)
        raise NodeEncounterError(
            "node encounter at t=0.018 (trajectory 1)", 0.016)

    monkeypatch.setattr(scenarios, "product_pair", tagged)
    monkeypatch.setattr(scenarios, "run_pair", aborting)


def test_a_product_only_abort_exits_1_as_the_serial_run(tmp_path, capsys,
                                                        monkeypatch):
    # the abort is patched before the fork, so it happens in the child
    product_aborts(monkeypatch)
    forked = run_pair_config(tmp_path, capsys, "forked")
    monkeypatch.delattr(os, "fork")
    serial = run_pair_config(tmp_path, capsys, "serial")
    assert forked == serial
    code, out, files = forked
    assert code == 1
    assert out == "solver error: node encounter at t=0.018 (trajectory 1)\n"
    assert list(files) == ["manifest.txt"]
    assert files["manifest.txt"] == (
        b"scenario: entangled_pair\nstatus: solver error\n"
        b"error: node encounter at t=0.018 (trajectory 1)\n"
        b"partial outputs:\n\n")


def test_an_entangled_abort_wins_and_its_child_is_killed(tmp_path, capsys,
                                                         monkeypatch):
    # the product run would abort too, but only after a minute
    product_aborts(monkeypatch, BoundaryExitError("entangled abort", 0.01),
                   product_delay=60.0)
    kills = []
    kill = os.kill

    def spy(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)

    monkeypatch.setattr(os, "kill", spy)
    start = time.perf_counter()
    forked = run_pair_config(tmp_path, capsys, "forked")
    assert time.perf_counter() - start < 30.0
    assert [sig for _, sig in kills] == [signal.SIGKILL]
    assert kills[0][0] != os.getpid()
    monkeypatch.delattr(os, "fork")
    serial = run_pair_config(tmp_path, capsys, "serial")
    assert forked == serial
    assert forked[:2] == (1, "solver error: entangled abort\n")


def test_an_abort_at_the_first_steps_keeps_its_exit_and_manifest(
        tmp_path, capsys, monkeypatch):
    # a start where the pair wave lies below its node mask: both runs
    # abort, and the entangled run's abort is the one reported
    text = SHORT_PAIR.replace(
        "run:\n  t_final: 0.02\n",
        "initial:\n  packet_sigma: 0.3\n  z1: 10\n").replace(
        "grid:\n  points: [64, 64]\n  length: [24.0, 24.0]\n", "")
    forked = run_pair_config(tmp_path, capsys, "forked", text)
    monkeypatch.delattr(os, "fork")
    serial = run_pair_config(tmp_path, capsys, "serial", text)
    assert forked == serial
    code, out, files = forked
    assert code == 1
    assert out == "solver error: node encounter at t=0.002 (trajectory 0)\n"
    assert files["manifest.txt"] == (
        b"scenario: entangled_pair\nstatus: solver error\n"
        b"error: node encounter at t=0.002 (trajectory 0)\n"
        b"partial outputs:\n\n")
