"""Declarative scenario configuration and run orchestration.

A scenario is a YAML file with a strict schema: unknown keys fail the run
before any solver allocation, every constraint violation names the offending
key, and all state lives in the file plus the seed, so identical inputs
reproduce byte-identical CSV outputs.

Summary PASS/FAIL thresholds come from the single module constant
THRESHOLDS, shared with the acceptance suite so the CLI and the tests can
never drift apart.  Exit codes: 0 all checks pass, 1 solver error,
2 configuration error, 3 a check failed.
"""

from __future__ import annotations

import copy
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np
import yaml

from .diagnostics import (cancellation_integrals, conservation_report,
                          ehrenfest_report, equivariance_distance,
                          static_energy_identity_deviation)
from .errors import ConfigError, SolidynError, TachyonicRegionError
from .grids import MAX_TOTAL_SAMPLES, Field, Grid
from .kleingordon import KGHistory, discrete_mode_frequency, evolve_kg
from .pair import (PairState, PairWave, pair_tracking_residual,
                   product_pair, run_pair)
from .potentials import PhysicalParams, Potentials
from .schrodinger import evolve_schrodinger
from .snapshots import write_csv, write_snapshot, write_text
from .soliton import (GaussonParams, SolitonState, classical_trajectory,
                      gausson_init, run_classical, run_coupled)
from .trajectories import WALK_WINDOW, FlowHistory, FlowWalk

SCENARIO_KINDS = (
    "free_gausson", "uniform_field", "harmonic_trap", "double_slit_dbb",
    "kg_plane_wave", "kg_packet", "entangled_pair", "equivariance",
)

# Largest step count a config may ask for (t_final / dt, rounded).  It
# bounds run time (ten million coupled steps at N = 2048 take hours), not
# memory: the per-step series of a run that long still take gigabytes.
MAX_STEPS = 10**7

# Keys of [initial] that count things: positive integers, at most
# MAX_TOTAL_SAMPLES like the grid.
_COUNT_KEYS = ("trajectories", "bins")

# Quantitative acceptance thresholds; scenario summaries and the acceptance
# suite share these constants.
THRESHOLDS = {
    "profile_l2": 1e-6,            # Gausson stationarity, T = 10
    "norm_drift": 1e-10,           # per 1e4 split steps
    "static_energy_identity": 1e-12,
    "energy_drift": 1e-8,          # classical mode, static potentials
    "uniform_center_rel": 1e-3,    # parabola match, E = 0.1, T = 5
    "trap_period_rel": 5e-3,       # harmonic trap k = 0.25
    "cancellation_rel": 1e-8,      # mean-force cancellation quadratures
    "tracking_cells": 3.0,         # |xbar - z| bound in units of dx
    "pair_tracking_cells": 5.0,    # entangled tracking bound in dx
    "newton_rms": 0.02,            # free-Gaussian trajectory residual
    "equivariance_l1": 0.05,       # 2000 trajectories, 64 bins, T = 2
    "kg_mass_dev": 1e-8,           # plane wave |M - w0|
    "kg_slope_dev": 1e-6,          # plane-wave trajectory slope
    "kg_gap_frac": 0.01,           # KG vs Schrodinger gap / packet width
    "pair_product_shift_cells": 0.1,   # product shift < dx/10
    "pair_entangled_shift_cells": 10.0,  # entangled shift > 10 dx
}


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

_INITIAL_KEYS = {
    "free_gausson": {"center": 0.0, "velocity": 0.0},
    "uniform_field": {"center": 0.0, "velocity": 0.0},
    "harmonic_trap": {"center": 1.0, "velocity": 0.0},
    "double_slit_dbb": {"packet_sigma": 2.0, "separation": 8.0,
                        "soliton_start": None},
    "kg_plane_wave": {"harmonic": 4},
    "kg_packet": {"packet_sigma": 8.0, "wavenumber": 0.1,
                  "mode": "single", "amplitude_ratio": 0.8},
    "entangled_pair": {"packet_offset": 2.0, "packet_sigma": 1.0,
                       "boost": 1.5, "z1": -2.0, "z2": -2.0,
                       "z2_alternate": 3.0},
    "equivariance": {"packet_sigma": 1.0, "trajectories": 2000, "bins": 64},
}

_RUN_DEFAULTS = {
    "free_gausson": {"dt": 1e-3, "t_final": 10.0},
    "uniform_field": {"dt": 1e-3, "t_final": 5.0},
    "harmonic_trap": {"dt": 1e-3, "t_final": 8 * np.pi},
    "double_slit_dbb": {"dt": 1e-3, "t_final": 8.0},
    "kg_plane_wave": {"dt": 2.5e-3, "t_final": 1.0},
    "kg_packet": {"dt": 0.05, "t_final": 5.0},
    "entangled_pair": {"dt": 2e-3, "t_final": 0.8},
    "equivariance": {"dt": 1e-3, "t_final": 2.0},
}


@dataclass
class ScenarioConfig:
    kind: str
    seed: int
    points: tuple
    lengths: tuple
    omega0: float
    charge: float
    b: float
    f0: float
    potential_kind: str
    e_field: float
    spring: float
    initial: dict
    dt: float
    t_final: float
    snapshot_every: int
    output_dir: str

    @property
    def grid(self):
        return Grid(self.points, self.lengths)

    @property
    def params(self):
        return PhysicalParams(self.omega0, self.charge)

    @property
    def steps(self):
        return int(round(self.t_final / self.dt))

    def potentials(self, dim=1):
        if self.potential_kind == "none":
            return Potentials.free(dim)
        if self.potential_kind == "uniform_e":
            return Potentials.uniform_field(self.e_field, dim)
        if self.potential_kind == "harmonic":
            return Potentials.harmonic(self.spring, dim)
        raise ConfigError(f"[potential].kind: unknown kind "
                          f"{self.potential_kind!r}")


def _expect_mapping(raw, key):
    value = raw.get(key, {})
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"[{key}]: expected a mapping")
    return value


def _pop_number(section, section_name, key, default, required=False,
                integer=False):
    if key in section:
        value = section.pop(key)
        if isinstance(value, str):
            # YAML 1.1 reads "2e-3" (no dot) as a string; accept it anyway
            try:
                value = int(value) if integer else float(value)
            except ValueError:
                pass
        kinds = (int,) if integer else (int, float)
        if not isinstance(value, kinds) or isinstance(value, bool):
            want = "an integer" if integer else "a number"
            raise ConfigError(f"[{section_name}].{key}: expected {want}, "
                              f"got {value!r}")
        if not _is_finite(value, integer):
            raise ConfigError(f"[{section_name}].{key}: expected a finite "
                              f"number, got {value!r}")
        return int(value) if integer else float(value)
    if required:
        raise ConfigError(f"[{section_name}].{key}: required key missing")
    return default


def _is_finite(number, integer):
    """math.isfinite, where an integer beyond the float range counts as
    finite only if an integer is wanted (a float cannot hold it)."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return integer


def _reject_unknown(section, section_name):
    if section:
        # YAML keys need not be strings, and mixed key types do not sort
        key = sorted(section, key=str)[0]
        raise ConfigError(f"[{section_name}].{key}: unknown key")


def parse_config(path) -> ScenarioConfig:
    """Load and strictly validate a scenario configuration file."""
    try:
        with open(path) as handle:
            raw = yaml.safe_load(handle)
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: malformed YAML ({err})") from err
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from err
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_config_dict(raw)


def parse_config_dict(raw: dict) -> ScenarioConfig:
    raw = copy.deepcopy(raw)
    kind = raw.pop("scenario", None)
    if kind is None:
        raise ConfigError("scenario: required key missing")
    if kind not in SCENARIO_KINDS:
        raise ConfigError(
            f"scenario: unknown kind {kind!r} (choose from "
            f"{', '.join(SCENARIO_KINDS)})")
    seed = raw.pop("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed: expected a non-negative integer")

    physics = _expect_mapping(raw, "physics")
    raw.pop("physics", None)
    omega0 = _pop_number(physics, "physics", "omega0", 1.0)
    charge = _pop_number(physics, "physics", "charge", 1.0)
    b = _pop_number(physics, "physics", "b", 1.0)
    f0 = _pop_number(physics, "physics", "f0", 1.0)
    _reject_unknown(physics, "physics")
    if omega0 <= 0:
        raise ConfigError("[physics].omega0: must satisfy omega0 > 0")
    if b <= 0:
        raise ConfigError("[physics].b: must satisfy b > 0")
    if f0 <= 0:
        raise ConfigError("[physics].f0: must satisfy f0 > 0")

    grid_sec = _expect_mapping(raw, "grid")
    raw.pop("grid", None)
    default_points, default_lengths = _default_grid(kind, b)
    points = grid_sec.pop("points", None)
    lengths = grid_sec.pop("length", None)
    _reject_unknown(grid_sec, "grid")
    points = default_points if points is None else _as_tuple(
        points, "points", integer=True)
    lengths = default_lengths if lengths is None else _as_tuple(
        lengths, "length")
    if len(points) != len(lengths):
        raise ConfigError("[grid]: points and length must share axis count")
    dim = 2 if kind == "entangled_pair" else 1
    if len(points) != dim:
        raise ConfigError(f"[grid].points: {kind} needs a {dim}D grid, got "
                          f"{len(points)} axes")
    if any(p <= 0 for p in points):
        raise ConfigError("[grid].points: must satisfy points > 0")
    if math.prod(points) > MAX_TOTAL_SAMPLES:
        raise ConfigError(
            f"[grid].points: total sample count {math.prod(points)} exceeds "
            f"the memory budget ({MAX_TOTAL_SAMPLES})")
    if any(ell <= 0 for ell in lengths):
        raise ConfigError("[grid].length: must satisfy length > 0")

    pot = _expect_mapping(raw, "potential")
    raw.pop("potential", None)
    pot_kind = pot.pop("kind", _default_potential(kind))
    if pot_kind not in ("none", "uniform_e", "harmonic"):
        raise ConfigError(f"[potential].kind: unknown kind {pot_kind!r}")
    e_field = _pop_number(pot, "potential", "e_field", 0.1)
    spring = _pop_number(pot, "potential", "spring", 0.25)
    _reject_unknown(pot, "potential")
    if pot_kind == "harmonic" and spring <= 0:
        raise ConfigError("[potential].spring: must satisfy spring > 0")

    init = _expect_mapping(raw, "initial")
    raw.pop("initial", None)
    allowed = dict(_INITIAL_KEYS[kind])
    parsed_init = {}
    for key, default in allowed.items():
        if isinstance(default, str) or (default is None
                                        and init.get(key) is None):
            parsed_init[key] = init.pop(key, default)
        else:
            # a key with an integer default takes integers only
            parsed_init[key] = _pop_number(init, "initial", key, default,
                                           integer=isinstance(default, int))
    _reject_unknown(init, "initial")
    _validate_initial(kind, parsed_init)

    run = _expect_mapping(raw, "run")
    raw.pop("run", None)
    run_defaults = _RUN_DEFAULTS[kind]
    dt = _pop_number(run, "run", "dt", run_defaults["dt"])
    t_final = _pop_number(run, "run", "t_final", run_defaults["t_final"])
    snapshot_every = _pop_number(run, "run", "snapshot_every", 0,
                                 integer=True)
    _reject_unknown(run, "run")
    if dt <= 0:
        raise ConfigError("[run].dt: must satisfy dt > 0")
    if t_final <= 0:
        raise ConfigError("[run].t_final: must satisfy t_final > 0")
    _check_step_count(t_final / dt)
    if snapshot_every < 0:
        raise ConfigError("[run].snapshot_every: must be >= 0")

    out = _expect_mapping(raw, "output")
    raw.pop("output", None)
    directory = out.pop("directory", "out")
    _reject_unknown(out, "output")
    _reject_unknown(raw, "config")

    cfg = ScenarioConfig(
        kind=kind, seed=seed, points=points, lengths=lengths, omega0=omega0,
        charge=charge, b=b, f0=f0, potential_kind=pot_kind, e_field=e_field,
        spring=spring, initial=parsed_init, dt=dt, t_final=t_final,
        snapshot_every=snapshot_every, output_dir=str(directory))

    if kind.startswith("kg_"):
        dx = cfg.lengths[0] / cfg.points[0]
        if cfg.dt > 0.5 * dx:
            raise ConfigError(
                f"[run].dt: {cfg.dt} violates the Klein-Gordon CFL bound "
                f"dt <= 0.5 dx = {0.5 * dx:.6g}")
    return cfg


def _check_step_count(ratio):
    """The step count round(t_final / dt) must be finite and lie in
    [1, MAX_STEPS]; a dt that does not divide t_final is fine (the run
    stops at the nearest whole step)."""
    if not math.isfinite(ratio) or not 1 <= round(ratio) <= MAX_STEPS:
        raise ConfigError(
            f"[run].t_final: t_final/dt = {ratio:.6g} steps; the step count "
            f"must round to between 1 and {MAX_STEPS}")


def _as_tuple(value, key, integer=False):
    """A [grid] entry: one number or a list of finite numbers, per axis."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, list):
        raise ConfigError(f"[grid].{key}: expected a number or list")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"[grid].{key}: expected numeric entries")
        if not _is_finite(item, integer):
            raise ConfigError(f"[grid].{key}: expected finite entries, "
                              f"got {item!r}")
        out.append(int(item) if integer else float(item))
    return tuple(out)


def _default_grid(kind, b):
    if kind == "double_slit_dbb":
        return (2048,), (40.0,)
    if kind == "kg_plane_wave":
        return (256,), (16 * np.pi,)
    if kind == "kg_packet":
        return (1024,), (256.0,)
    if kind == "entangled_pair":
        return (256, 256), (24.0, 24.0)
    if kind == "equivariance":
        return (512,), (30.0,)
    return (256,), (20.0 / np.sqrt(b),)


def _default_potential(kind):
    if kind == "uniform_field":
        return "uniform_e"
    if kind == "harmonic_trap":
        return "harmonic"
    return "none"


def _validate_initial(kind, init):
    if kind == "kg_packet" and init["mode"] not in ("single", "counter"):
        raise ConfigError(
            "[initial].mode: expected 'single' or 'counter'")
    for key in ("packet_sigma",) + _COUNT_KEYS:
        if key in init and init[key] is not None and init[key] <= 0:
            raise ConfigError(f"[initial].{key}: must be > 0")
    for key in _COUNT_KEYS:
        if key in init and init[key] > MAX_TOTAL_SAMPLES:
            raise ConfigError(f"[initial].{key}: exceeds the memory "
                              f"budget ({MAX_TOTAL_SAMPLES})")
    if abs(init.get("harmonic", 0)) > MAX_TOTAL_SAMPLES:
        # no grid within the memory budget resolves a higher mode, and
        # k = 2 pi harmonic / L needs the integer within the float range
        raise ConfigError(f"[initial].harmonic: must satisfy |harmonic| <= "
                          f"{MAX_TOTAL_SAMPLES}")


# ---------------------------------------------------------------------------
# output sink
# ---------------------------------------------------------------------------

class OutputSink:
    """Atomic series/snapshot/summary writer rooted at one directory."""

    def __init__(self, directory, quiet=False):
        self.directory = directory
        self.quiet = quiet
        self.files = []
        os.makedirs(directory, exist_ok=True)

    def series(self, name, header, columns, comment=None):
        path = os.path.join(self.directory, name)
        write_csv(path, header, columns, comment=comment)
        self.files.append(path)
        return path

    def snapshot(self, field, label, index):
        sub = os.path.join(self.directory, "snapshots")
        os.makedirs(sub, exist_ok=True)
        path = os.path.join(sub, f"{label}_{index:06d}.sldn")
        write_snapshot(field, path)
        self.files.append(path)
        return path

    def summary(self, kind, seed, checks, extras=()):
        lines = [f"scenario: {kind}", f"seed: {seed}"]
        lines.extend(extras)
        ok = True
        for name, value, threshold, op in checks:
            passed = value < threshold if op == "<" else value > threshold
            ok = ok and passed
            lines.append(
                f"check {name}: value={value:.6e} threshold{op}{threshold:g}"
                f" {'PASS' if passed else 'FAIL'}")
        lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
        path = os.path.join(self.directory, "summary.txt")
        write_text(path, "\n".join(lines) + "\n")
        self.files.append(path)
        if not self.quiet:
            print("\n".join(lines))
        return ok


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def run_scenario(cfg: ScenarioConfig, quiet=False) -> int:
    """Execute a scenario; returns the process exit code.

    A configuration error leaves no output directory that the run made,
    as when it is found before the run.
    """
    made = _first_missing_directory(cfg.output_dir)
    sink = OutputSink(cfg.output_dir, quiet=quiet)
    try:
        runner = _RUNNERS[cfg.kind]
        ok = runner(cfg, sink)
    except ConfigError as err:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        if not quiet:
            print(f"configuration error: {err}")
        return 2
    except SolidynError as err:
        _write_failure_manifest(cfg, sink, err)
        if not quiet:
            print(f"solver error: {err}")
        return 1
    return 0 if ok else 3


def _first_missing_directory(path):
    """The outermost directory of `path` that does not exist yet, or None."""
    path = os.path.abspath(path)
    missing = None
    while not os.path.exists(path):
        missing, path = path, os.path.dirname(path)
    return missing


def _write_failure_manifest(cfg, sink, err):
    text = (f"scenario: {cfg.kind}\nstatus: solver error\n"
            f"error: {err}\npartial outputs:\n"
            + "\n".join(f"  {p}" for p in sink.files) + "\n")
    write_text(os.path.join(cfg.output_dir, "manifest.txt"), text)


def _gausson_state(cfg, grid, velocity=None, center=None, mode="classical"):
    init = cfg.initial
    center = (init.get("center", 0.0),) if center is None else center
    velocity = (init.get("velocity", 0.0),) if velocity is None else velocity
    u0 = gausson_init(GaussonParams(cfg.b, cfg.f0, center=center,
                                    velocity=velocity), grid, cfg.omega0)
    return SolitonState(u0, cfg.params, cfg.b, cfg.f0, coupling_mode=mode)


def _emit_soliton_series(cfg, sink, run):
    sink.series("center.csv", ["time", "xbar"],
                [run.times, run.centers[:, 0]],
                comment="natural units hbar=c=1")
    report = conservation_report(run)
    sink.series("conservation.csv",
                ["time", "norm_pt", "energy", "static_energy",
                 "energy_ratio", "boundary_mass"],
                [report.times, report.norm, report.energy,
                 report.static_energy, report.energy_ratio,
                 report.boundary_mass],
                comment="natural units hbar=c=1")
    if cfg.snapshot_every:
        for i, u in enumerate(run.u_snapshots):
            sink.snapshot(u, "u", i)
    return report


def _run_free_gausson(cfg, sink):
    grid = cfg.grid
    state = _gausson_state(cfg, grid)
    profile = np.abs(state.u.samples)
    norm_profile = np.sqrt(grid.integrate(profile**2))
    store = cfg.snapshot_every or max(cfg.steps // 100, 1)
    run = run_classical(state, cfg.potentials(), cfg.dt, cfg.steps,
                        store_every=store)
    report = _emit_soliton_series(cfg, sink, run)
    dev = max(
        np.sqrt(grid.integrate((np.abs(u.samples) - profile) ** 2))
        / norm_profile
        for u in run.u_snapshots)
    identity = max(static_energy_identity_deviation(u, cfg.b, cfg.f0)
                   for u in run.u_snapshots[:: max(len(run.u_snapshots) // 8,
                                                   1)])
    (vals_n, scales_n), (vals_r, scales_r) = cancellation_integrals(
        run.u_snapshots[-1], cfg.b, cfg.f0)
    cancel = max(float(np.max(np.abs(vals_n) / scales_n)),
                 float(np.max(np.abs(vals_r) / scales_r)))
    checks = [
        ("profile_l2_deviation", dev, THRESHOLDS["profile_l2"], "<"),
        ("norm_drift", report.norm_drift, THRESHOLDS["norm_drift"], "<"),
        ("static_energy_identity", identity,
         THRESHOLDS["static_energy_identity"], "<"),
        ("energy_drift", report.energy_drift, THRESHOLDS["energy_drift"],
         "<"),
        ("cancellation_ratio", cancel, THRESHOLDS["cancellation_rel"], "<"),
    ]
    return sink.summary(cfg.kind, cfg.seed, checks)


def _run_uniform_field(cfg, sink):
    grid = cfg.grid
    state = _gausson_state(cfg, grid)
    z0 = state.center[0]
    # linear scalar potential on a periodic box: the boundary watchdog
    # aborts the run if wave mass reaches the seam
    run = run_classical(state, cfg.potentials(), cfg.dt, cfg.steps,
                        store_every=cfg.snapshot_every or cfg.steps,
                        abort_on_boundary_mass=True)
    report = _emit_soliton_series(cfg, sink, run)
    accel = cfg.charge * cfg.e_field / cfg.omega0
    expected = z0 + 0.5 * accel * run.times**2
    err = float(np.max(np.abs(run.centers[:, 0] - expected))
                / max(abs(expected[-1] - z0), 1e-300))
    ehr = ehrenfest_report(run)
    checks = [
        ("parabola_rel_err", err, THRESHOLDS["uniform_center_rel"], "<"),
        ("ehrenfest_rms", ehr.residual_rel_rms,
         THRESHOLDS["uniform_center_rel"], "<"),
        ("norm_drift", report.norm_drift, THRESHOLDS["norm_drift"], "<"),
    ]
    return sink.summary(cfg.kind, cfg.seed, checks)


def _run_harmonic_trap(cfg, sink):
    grid = cfg.grid
    state = _gausson_state(cfg, grid)
    run = run_classical(state, cfg.potentials(), cfg.dt, cfg.steps,
                        store_every=cfg.snapshot_every or cfg.steps)
    report = _emit_soliton_series(cfg, sink, run)
    period = 2 * np.pi * np.sqrt(cfg.omega0 / (cfg.charge * cfg.spring))
    crossings = _downward_crossings(run.times, run.centers[:, 0])
    if len(crossings) < 2:
        raise SolidynError("trap run too short to measure a period")
    measured = crossings[1] - crossings[0]
    err = abs(measured - period) / period
    checks = [
        ("period_rel_err", err, THRESHOLDS["trap_period_rel"], "<"),
        ("norm_drift", report.norm_drift, THRESHOLDS["norm_drift"], "<"),
    ]
    extras = [f"period_measured: {measured!r}", f"period_expected: {period!r}"]
    return sink.summary(cfg.kind, cfg.seed, checks, extras)


def _downward_crossings(times, series):
    out = []
    for i in range(len(series) - 1):
        if series[i] > 0 >= series[i + 1]:
            frac = series[i] / (series[i] - series[i + 1])
            out.append(times[i] + frac * (times[i + 1] - times[i]))
    return out


def _run_double_slit(cfg, sink):
    grid = cfg.grid
    init = cfg.initial
    sigma = init["packet_sigma"]
    half_sep = 0.5 * init["separation"]
    x = grid.axes[0]
    psi0 = Field(grid, (np.exp(-((x - half_sep) ** 2) / (4 * sigma**2))
                        + np.exp(-((x + half_sep) ** 2) / (4 * sigma**2)))
                 .astype(complex))
    start = init["soliton_start"]
    if start is None:
        start = -half_sep
    state = _gausson_state(cfg, grid, center=(start,), velocity=(0.0,),
                           mode="dbb")
    run = run_coupled(psi0, state, cfg.params, cfg.potentials(), cfg.dt,
                      cfg.steps, store_every=cfg.snapshot_every or cfg.steps,
                      harmony_every=max(cfg.steps // 50, 1))
    dx = grid.spacing[0]
    gap = float(np.max(np.abs(run.centers[:, 0]
                              - run.reference.positions[:, 0])))
    classical = classical_trajectory(run.times, run.centers[0],
                                     run.reference.velocities[0],
                                     cfg.params, cfg.potentials())
    classical_gap = float(np.max(np.abs(run.centers[:, 0]
                                        - classical[:, 0])))
    sink.series("tracking.csv",
                ["time", "xbar", "z_bohm", "z_classical"],
                [run.times, run.centers[:, 0], run.reference.positions[:, 0],
                 classical[:, 0]],
                comment="natural units hbar=c=1")
    sink.series("harmony.csv", ["time", "phase_harmony_residual"],
                [run.harmony_times, run.harmony],
                comment="dimensionless")
    if cfg.snapshot_every:
        for i, (u, p) in enumerate(zip(run.u_snapshots, run.psi_snapshots)):
            sink.snapshot(u, "u", i)
            sink.snapshot(p, "psi", i)
    norm_drift = float(np.max(np.abs(run.norms - run.norms[0]))
                       / run.norms[0])
    checks = [
        ("tracking_gap_cells", gap / dx, THRESHOLDS["tracking_cells"], "<"),
        ("classical_reference_gap_cells", classical_gap / dx,
         THRESHOLDS["tracking_cells"], ">"),
        ("norm_drift", norm_drift, THRESHOLDS["norm_drift"], "<"),
        ("phase_harmony_max", float(np.max(run.harmony)), 0.1, "<"),
    ]
    return sink.summary(cfg.kind, cfg.seed, checks)


def _run_kg_plane_wave(cfg, sink):
    grid = cfg.grid
    init = cfg.initial
    k = 2 * np.pi * init["harmonic"] / grid.lengths[0]
    freq = discrete_mode_frequency(k, cfg.omega0, cfg.dt)
    x = grid.axes[0]
    psi0 = Field(grid, np.exp(1j * k * x))
    prev = np.exp(1j * (k * x + freq * cfg.dt))
    pots = cfg.potentials()
    history = KGHistory(grid, cfg.params, pots, window=WALK_WINDOW)
    mass_dev = -np.inf

    def track_mass(h):
        nonlocal mass_dev
        mass_dev = np.maximum(mass_dev, np.max(np.abs(
            np.sqrt(np.maximum(h.mass_sq[-1], 0.0)) - cfg.omega0)))

    history.readers.append(track_mass)
    walk, path = _path_walk(history, 0.0)
    run = evolve_kg(psi0, None, cfg.params, pots, cfg.dt, cfg.steps,
                    psi_prev=prev, history=history)
    walk.finish()
    times, z, velocity = (np.asarray(column) for column in path)
    slope = float(np.polyfit(times, z, 1)[0])
    e_cont = np.sqrt(k**2 + cfg.omega0**2)
    slope_dev = abs(slope - k / e_cont)
    sink.series("trajectory.csv", ["time", "z", "velocity"],
                [times, z, velocity], comment="natural units hbar=c=1")
    sink.series("energy.csv", ["time", "field_energy"],
                [times, run.energies], comment="natural units hbar=c=1")
    checks = [
        ("mass_deviation", float(mass_dev), THRESHOLDS["kg_mass_dev"], "<"),
        ("slope_deviation", slope_dev, THRESHOLDS["kg_slope_dev"], "<"),
        ("max_speed", float(np.max(np.abs(velocity))), 1.0, "<"),
    ]
    extras = [f"wavenumber: {k!r}", f"dispersion_energy: {e_cont!r}"]
    return sink.summary(cfg.kind, cfg.seed, checks, extras)


def _run_kg_packet(cfg, sink):
    grid = cfg.grid
    init = cfg.initial
    sigma = init["packet_sigma"]
    k = init["wavenumber"]
    x = grid.axes[0]
    if init["mode"] == "counter":
        ratio = init["amplitude_ratio"]
        envelope = np.exp(-x**2 / (4 * (0.25 * grid.lengths[0]) ** 2))
        psi0 = Field(grid, (envelope * (np.exp(1j * k * x)
                                        + ratio * np.exp(-1j * k * x)))
                     .astype(complex))
        pots = cfg.potentials()
        history = KGHistory(grid, cfg.params, pots, window=WALK_WINDOW)
        tachyon_cells = 0

        def count_tachyon_cells(h):
            nonlocal tachyon_cells
            tachyon_cells += int(h.tachyon_masks[-1].sum())

        history.readers.append(count_tachyon_cells)
        walk, _ = _path_walk(history, 0.15 * grid.lengths[0])
        evolve_kg(psi0, -1j * cfg.omega0 * psi0.samples, cfg.params, pots,
                  cfg.dt, cfg.steps, history=history)
        aborted = 0.0
        try:
            walk.finish()
        except TachyonicRegionError:
            aborted = 1.0
        checks = [
            ("tachyon_cells", float(tachyon_cells), 0.0, ">"),
            ("trajectory_aborted", aborted, 0.5, ">"),
        ]
        return sink.summary(cfg.kind, cfg.seed, checks)

    psi0 = Field(grid, (np.exp(-x**2 / (4 * sigma**2))
                        * np.exp(1j * k * x)).astype(complex))
    # both waves run first and both walks end after them, so a wave's
    # error still comes before either walk's abort
    kg_pots, s_pots = cfg.potentials(), cfg.potentials()
    kg_history = KGHistory(grid, cfg.params, kg_pots, window=WALK_WINDOW)
    s_history = FlowHistory(grid, cfg.params, s_pots, window=WALK_WINDOW)
    kg_walk, kg_path = _path_walk(kg_history, 0.5 * sigma)
    s_walk, s_path = _path_walk(s_history, 0.5 * sigma)
    evolve_kg(psi0, -1j * cfg.omega0 * psi0.samples, cfg.params, kg_pots,
              cfg.dt, cfg.steps, history=kg_history)
    evolve_schrodinger(psi0, cfg.params, s_pots, cfg.dt, cfg.steps,
                       history=s_history)
    kg_walk.finish()
    s_walk.finish()
    times, z_kg, _ = (np.asarray(column) for column in kg_path)
    z_s = np.asarray(s_path[1])
    n = min(len(z_kg), len(z_s))
    gap = float(np.max(np.abs(z_kg[:n] - z_s[:n])))
    sink.series("trajectory.csv", ["time", "z_kg", "z_schrodinger"],
                [times[:n], z_kg[:n], z_s[:n]],
                comment="natural units hbar=c=1")
    checks = [("gap_over_width", gap / sigma, THRESHOLDS["kg_gap_frac"],
               "<")]
    return sink.summary(cfg.kind, cfg.seed, checks)


def _path_walk(history, z0):
    """A FlowWalk of one trajectory from z0 over `history`, and the lists
    its visits fill: times, positions and velocities."""
    path = ([], [], [])

    def record(i, t, z, stencil, k1):
        path[0].append(t)
        path[1].append(z[0, 0])
        path[2].append(k1[0, 0])

    return FlowWalk(history, [z0], record), path


def _run_entangled_pair(cfg, sink):
    grid = cfg.grid
    init = cfg.initial
    g1 = Grid(grid.points[0], grid.lengths[0])
    x = g1.axes[0]
    sigma = init["packet_sigma"]
    off = init["packet_offset"]
    boost = init["boost"]
    left = (np.exp(-((x + off) ** 2) / (4 * sigma**2))
            * np.exp(-1j * boost * x)).astype(complex)
    right = (np.exp(-((x - off) ** 2) / (4 * sigma**2))
             * np.exp(1j * boost * x)).astype(complex)
    pots = (cfg.potentials(1), cfg.potentials(1))
    masses = (cfg.omega0, cfg.omega0)

    def wave(entangled):
        if entangled:
            psi2d = (np.outer(left, left) + np.outer(right, right)) \
                / np.sqrt(2.0)
            return PairWave(Field(grid, psi2d), masses, cfg.charge, pots)
        partner = (left + right) / np.sqrt(2.0)
        return product_pair(left, partner, grid, masses, cfg.charge, pots)

    def state(pair_wave, z1, z2):
        # phase-harmony initial data: each soliton boosted to the local
        # guidance velocity of its particle (read through the wave's line
        # memo, which the first pair step then reuses)
        stencil = grid.stencil(np.array([[z1, z2]]))
        v0 = [grid.interpolate(pair_wave.velocity[a], stencil)[0]
              for a in range(2)]
        u1 = gausson_init(GaussonParams(cfg.b, cfg.f0, center=(z1,),
                                        velocity=(v0[0],)), g1, cfg.omega0)
        u2 = gausson_init(GaussonParams(cfg.b, cfg.f0, center=(z2,),
                                        velocity=(v0[1],)), g1, cfg.omega0)
        p = cfg.params
        return PairState(
            u1=SolitonState(u1, p, cfg.b, cfg.f0, coupling_mode="dbb"),
            u2=SolitonState(u2, p, cfg.b, cfg.f0, coupling_mode="dbb"),
            z=[z1, z2])

    z1, z2, z2b = init["z1"], init["z2"], init["z2_alternate"]

    def run(entangled, z2_start):
        # each initial wave is freed when its run ends, not kept to the end
        pair_wave = wave(entangled)
        return run_pair(pair_wave, state(pair_wave, z1, z2_start), cfg.dt,
                        cfg.steps)

    ent_a, ent_b = run(True, z2), run(True, z2b)
    prod_a, prod_b = run(False, z2), run(False, z2b)
    dx = grid.spacing[0]
    ent_shift = float(np.max(np.abs(ent_a.z[:, 0] - ent_b.z[:, 0])))
    prod_shift = float(np.max(np.abs(prod_a.z[:, 0] - prod_b.z[:, 0])))
    sink.series("trajectories.csv",
                ["time", "z1_entangled", "z1_entangled_displaced",
                 "z1_product", "z1_product_displaced"],
                [ent_a.times, ent_a.z[:, 0], ent_b.z[:, 0],
                 prod_a.z[:, 0], prod_b.z[:, 0]],
                comment="natural units hbar=c=1")
    r1, r2 = pair_tracking_residual(prod_a)
    checks = [
        ("entangled_shift_cells", ent_shift / dx,
         THRESHOLDS["pair_entangled_shift_cells"], ">"),
        ("product_shift_cells", prod_shift / dx,
         THRESHOLDS["pair_product_shift_cells"], "<"),
        ("product_tracking_cells", max(r1, r2) / dx,
         THRESHOLDS["tracking_cells"], "<"),
    ]
    return sink.summary(cfg.kind, cfg.seed, checks)


def _run_equivariance(cfg, sink):
    grid = cfg.grid
    init = cfg.initial
    sigma = init["packet_sigma"]
    count = int(init["trajectories"])
    bins = int(init["bins"])
    x = grid.axes[0]
    psi0 = Field(grid, np.exp(-x**2 / (4 * sigma**2)).astype(complex))
    pots = cfg.potentials()
    history = FlowHistory(grid, cfg.params, pots, window=WALK_WINDOW)
    starts = grid.sample_density(psi0.density(), count, cfg.seed)
    # keep the densities and the ensemble only at the reported snapshots
    indices = sorted({0, (cfg.steps + 1) // 2, cfg.steps})
    densities, times, kept = [], [], []

    def keep_density(h):
        if h.count - 1 in indices:
            densities.append(h.amplitudes[-1] ** 2)

    def keep_positions(i, t, z, stencil, k1):
        if i in indices:
            times.append(t)
            kept.append(z)

    history.readers.append(keep_density)
    walk = FlowWalk(history, starts, keep_positions)
    evolve_schrodinger(psi0, cfg.params, pots, cfg.dt, cfg.steps,
                       history=history)
    walk.finish()
    report = equivariance_distance(
        densities, grid, times, np.stack(kept), indices=range(len(indices)),
        bins=bins)
    sink.series("equivariance.csv", ["time", "l1_distance"],
                [report.times, report.distances],
                comment="dimensionless")
    checks = [("l1_distance", report.final_distance,
               THRESHOLDS["equivariance_l1"], "<")]
    extras = [f"trajectories: {count}", f"bins: {bins}"]
    return sink.summary(cfg.kind, cfg.seed, checks, extras)


_RUNNERS = {
    "free_gausson": _run_free_gausson,
    "uniform_field": _run_uniform_field,
    "harmonic_trap": _run_harmonic_trap,
    "double_slit_dbb": _run_double_slit,
    "kg_plane_wave": _run_kg_plane_wave,
    "kg_packet": _run_kg_packet,
    "entangled_pair": _run_entangled_pair,
    "equivariance": _run_equivariance,
}
