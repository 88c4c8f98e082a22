"""Tests for configuration parsing, snapshot IO, the CLI, and determinism."""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from solidyn.cli import main as cli_main
from solidyn import scenarios
from solidyn.diagnostics import equivariance_distance
from solidyn.errors import (BoundaryExitError, ConfigError,
                            NodeEncounterError, PastOrientedCurrentError,
                            SolidynError, TachyonicRegionError,
                            TrajectoryAbortError)
from solidyn.grids import Field, Grid
from solidyn.scenarios import (MAX_STEPS, SCENARIO_KINDS, THRESHOLDS,
                               parse_config, parse_config_dict, run_scenario)
from solidyn.schrodinger import evolve_schrodinger, integrate_bohm_ensemble
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

    monkeypatch.setitem(scenarios._RUNNERS, "free_gausson", abort)
    path = write_yaml(tmp_path, "abort.yaml",
                      f"scenario: free_gausson\n"
                      f"output:\n  directory: {tmp_path / 'out'}\n")
    assert cli_main(["run", path, "--quiet"]) == 1
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "error: trajectory aborted" in manifest


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
    for kind in SCENARIO_KINDS:
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
    run = evolve_schrodinger(psi0, cfg.params, cfg.potentials(), cfg.dt,
                             cfg.steps)
    starts = grid.sample_density(psi0.density(), 400, cfg.seed)
    block = integrate_bohm_ensemble(starts, run.history)
    n = len(run.densities)
    report = equivariance_distance(run.densities, grid, run.history.times,
                                   block, indices=[0, n // 2, n - 1],
                                   bins=16)
    write_csv(tmp_path / "want.csv", ["time", "l1_distance"],
              [report.times, report.distances], comment="dimensionless")
    assert (tmp_path / "eq" / "equivariance.csv").read_bytes() \
        == (tmp_path / "want.csv").read_bytes()


def test_shipped_configs_all_validate():
    import pathlib
    config_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    configs = sorted(config_dir.glob("*.yaml"))
    assert len(configs) >= 8
    kinds = set()
    for path in configs:
        cfg = parse_config(str(path))
        kinds.add(cfg.kind)
    assert kinds == set(SCENARIO_KINDS)
