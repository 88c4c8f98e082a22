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
import itertools
import math
import os
import shutil
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import yaml

from .diagnostics import (cancellation_integrals, conservation_report,
                          ehrenfest_report, equivariance_distance,
                          static_energy_identity_deviation)
from .errors import ConfigError, SolidynError, TachyonicRegionError
from .grids import MAX_TOTAL_SAMPLES, Field, Grid
from .kleingordon import (CFL_RATIO, KGHistory, discrete_mode_frequency,
                          evolve_kg, kg_bohm_trajectory)
from .pair import (PairRun, PairState, PairWave,
                   pair_tracking_residual, product_pair, run_pair)
from .potentials import PhysicalParams, Potentials
from .schrodinger import evolve_schrodinger
from .snapshots import write_csv, write_snapshot, write_text
from .soliton import (GaussonParams, SolitonState, classical_trajectory,
                      gausson_init, run_classical, run_coupled)
from .stepping import run_ahead
from .trajectories import FlowHistory, FlowWalk, integrate_flow

# Largest step count a config may ask for (t_final / dt, rounded).  It
# bounds run time (ten million coupled steps at N = 2048 take hours) and the
# per-step rows, 8 bytes x columns x steps (0.8 GB for a 1D coupled run).
MAX_STEPS = 10**7

# Keys of [initial] that count things: positive integers, at most
# MAX_TOTAL_SAMPLES like the grid.
_COUNT_KEYS = ("trajectories", "bins")

# Keys of [initial] that place a soliton or a particle, by the grid axis
# they lie on; each must lie inside the box.
_POSITION_AXES = {"center": 0, "soliton_start": 0, "z1": 0, "z2": 1,
                  "z2_alternate": 1}

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
        return POTENTIAL_KINDS[self.potential_kind](self, dim)


# Every [potential].kind, declared once: its `Potentials` from the config
# and the grid dimension.
POTENTIAL_KINDS = {
    "none": lambda cfg, dim: Potentials.free(dim),
    "uniform_e": lambda cfg, dim: Potentials.uniform_field(cfg.e_field, dim),
    "harmonic": lambda cfg, dim: Potentials.harmonic(cfg.spring, dim),
}


@dataclass(frozen=True)
class Kind:
    """One scenario kind as declared in KINDS: its runner, its
    `solidyn list-scenarios` line, and the defaults and checks of its
    config."""

    runner: Callable        # runner(cfg, sink) is True if all checks pass
    description: str
    dt: float
    t_final: float
    initial: dict           # the [initial] keys and their defaults
    grid: tuple | None = None   # (points, lengths); None: 256 over 20/sqrt(b)
    potential: str = "none"     # the default [potential].kind
    check: Callable | None = None   # check(cfg) raises a ConfigError


def _section(raw, name):
    """Pop section `name` off the top level; absent or empty reads {}."""
    value = raw.pop(name, None)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"[{name}]: expected a mapping")
    return value


def _number(value, name, cast=float, words=None):
    """Every numeric config value is read here, as `cast` of it: float (a
    finite number), int (an integer, of any size) or _whole (an integer, or
    a float that is a whole number, as [grid].points takes it).  Anything
    else is a ConfigError naming `name`.

    YAML 1.1 reads an exponent without a dot ("2e-3") as a string, so a
    string reads as the number it spells.  A bool is not a number.  An int
    is finite at any size, but must fit a float where a float is wanted.
    `words` rewords the two complaints, (not a number, not finite), for
    the keys whose messages say it differently.
    """
    wrong, infinite = words or (None, "expected a finite number")
    if isinstance(value, str):
        try:
            value = int(value) if cast is int else float(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(
            value, int if cast is int else (int, float)):
        want = "an integer" if cast is int else "a number"
        raise ConfigError(f"{name}: "
                          + (wrong or f"expected {want}, got {value!r}"))
    if isinstance(value, int) and cast is not float:
        return value
    try:
        finite = math.isfinite(float(value))
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"{name}: {infinite}, got {value!r}")
    try:
        return cast(value)
    except ValueError:
        raise ConfigError(
            f"{name}: expected an integer, got {value!r}") from None


def _whole(value):
    """int of a finite float that is a whole number; ValueError if not."""
    if not float(value).is_integer():
        raise ValueError(value)
    return int(value)


def _axes(value, key, cast):
    """A [grid] entry: one number or a list of numbers, one per axis."""
    words = ("expected numeric entries" if isinstance(value, list)
             else "expected a number or list", "expected finite entries")
    return tuple(_number(item, f"[grid].{key}", cast, words)
                 for item in (value if isinstance(value, list) else [value]))


def _require_positive(section_name, **values):
    for key, value in values.items():
        if value <= 0:
            raise ConfigError(
                f"[{section_name}].{key}: must satisfy {key} > 0")


def _reject_unknown(section, section_name):
    if section:
        # YAML keys need not be strings, and mixed key types do not sort
        key = sorted(section, key=str)[0]
        raise ConfigError(f"[{section_name}].{key}: unknown key")


def _read(raw, name, defaults):
    """Section `name` of `raw`, each key of `defaults` read by the type of
    its default: an int takes integers only, a str is passed through, None
    takes a number or null, anything else a float.  Other keys are
    refused."""
    section = _section(raw, name)
    values = {}
    for key, default in defaults.items():
        value = section.pop(key, default)
        if isinstance(default, str) or (default is None and value is None):
            values[key] = value
        else:
            values[key] = _number(value, f"[{name}].{key}",
                                  int if isinstance(default, int) else float)
    _reject_unknown(section, name)
    return values


def parse_config(path, overrides=None) -> ScenarioConfig:
    """Load and strictly validate a scenario configuration file.

    `overrides` maps top-level keys to values that replace the file's, as
    `solidyn run` passes its flags; a mapping merges into a section that is
    a mapping or absent.  The parser checks them as it checks the file."""
    try:
        with open(path, "rb") as handle:
            raw = yaml.safe_load(handle)
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: malformed YAML ({err})") from err
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from err
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    for key, value in (overrides or {}).items():
        section = raw.get(key)
        if isinstance(value, dict) and isinstance(section, dict):
            section.update(value)
        elif not isinstance(value, dict) or section is None:
            raw[key] = value
    return parse_config_dict(raw)


def parse_config_dict(raw: dict) -> ScenarioConfig:
    raw = copy.deepcopy(raw)
    kind = raw.pop("scenario", None)
    if kind is None:
        raise ConfigError("scenario: required key missing")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(
            f"scenario: unknown kind {kind!r} (choose from "
            f"{', '.join(KINDS)})")
    spec = KINDS[kind]
    seed = _number(raw.pop("seed", 0), "seed", int,
                   ("expected a non-negative integer", None))
    if seed < 0:
        raise ConfigError("seed: expected a non-negative integer")

    physics = _read(raw, "physics",
                    {"omega0": 1.0, "charge": 1.0, "b": 1.0, "f0": 1.0})
    _require_positive("physics", omega0=physics["omega0"], b=physics["b"],
                      f0=physics["f0"])

    grid_sec = _section(raw, "grid")
    default_points, default_lengths = spec.grid or (
        (256,), (20.0 / np.sqrt(physics["b"]),))
    points = grid_sec.pop("points", None)
    lengths = grid_sec.pop("length", None)
    _reject_unknown(grid_sec, "grid")
    points = default_points if points is None else _axes(points, "points",
                                                         _whole)
    lengths = default_lengths if lengths is None else _axes(lengths, "length",
                                                            float)
    if len(points) != len(lengths):
        raise ConfigError("[grid]: points and length must share axis count")
    dim = len(default_points)
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

    pot = _read(raw, "potential",
                {"kind": spec.potential, "e_field": 0.1, "spring": 0.25})
    pot_kind = pot.pop("kind")
    if not isinstance(pot_kind, str) or pot_kind not in POTENTIAL_KINDS:
        raise ConfigError(f"[potential].kind: unknown kind {pot_kind!r}")
    if pot_kind == "harmonic":
        _require_positive("potential", spring=pot["spring"])

    initial = _read(raw, "initial", spec.initial)
    _validate_initial(initial, lengths)

    run = _read(raw, "run", {"dt": spec.dt, "t_final": spec.t_final,
                             "snapshot_every": 0})
    _require_positive("run", dt=run["dt"], t_final=run["t_final"])
    _check_step_count(run["t_final"] / run["dt"])
    if run["snapshot_every"] < 0:
        raise ConfigError("[run].snapshot_every: must be >= 0")

    directory = _read(raw, "output", {"directory": "out"})["directory"]
    if not isinstance(directory, str) or not directory:
        raise ConfigError(f"[output].directory: expected a non-empty "
                          f"string, got {directory!r}")
    _reject_unknown(raw, "config")

    cfg = ScenarioConfig(
        kind=kind, seed=seed, points=points, lengths=lengths, **physics,
        potential_kind=pot_kind, **pot, initial=initial, **run,
        output_dir=directory)
    if spec.check is not None:
        spec.check(cfg)
    return cfg


def _check_step_count(ratio):
    """The step count round(t_final / dt) must be finite and lie in
    [1, MAX_STEPS]; a dt that does not divide t_final is fine (the run
    stops at the nearest whole step)."""
    if not math.isfinite(ratio) or not 1 <= round(ratio) <= MAX_STEPS:
        raise ConfigError(
            f"[run].t_final: t_final/dt = {ratio:.6g} steps; the step count "
            f"must round to between 1 and {MAX_STEPS}")


def _validate_initial(init, lengths):
    if init.get("mode", "single") not in ("single", "counter"):
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
    for key, axis in _POSITION_AXES.items():
        if init.get(key) is not None:
            # the half-open box of Grid.contains
            half = 0.5 * lengths[axis]
            if not -half <= init[key] < half:
                raise ConfigError(
                    f"[initial].{key}: {init[key]!r} lies outside the box "
                    f"[{-half:g}, {half:g})")


def _check_cfl(cfg):
    dx = cfg.lengths[0] / cfg.points[0]
    if cfg.dt > CFL_RATIO * dx:
        raise ConfigError(
            f"[run].dt: {cfg.dt} violates the Klein-Gordon CFL bound "
            f"dt <= {CFL_RATIO} dx = {CFL_RATIO * dx:.6g}")


def _check_plane_wave(cfg):
    _check_cfl(cfg)
    # a mode at or past the Nyquist harmonic aliases to a lower one
    harmonic, half = cfg.initial["harmonic"], 0.5 * cfg.points[0]
    if not abs(harmonic) < half:
        raise ConfigError(f"[initial].harmonic: must satisfy |harmonic| < "
                          f"points/2 = {half:g}")
    try:
        discrete_mode_frequency(2 * np.pi * harmonic / cfg.lengths[0],
                                cfg.omega0, cfg.dt)
    except (SolidynError, OverflowError):
        raise ConfigError(
            f"[run].dt: {cfg.dt} puts the plane-wave mode outside the "
            f"leapfrog stability region (dt/2) sqrt(k^2 + omega0^2) < 1"
        ) from None


def _check_packet(cfg):
    _check_cfl(cfg)
    # a single packet's two walks start at 0.5 packet_sigma
    sigma, half = cfg.initial["packet_sigma"], 0.5 * cfg.lengths[0]
    if cfg.initial["mode"] == "single" and not 0.5 * sigma < half:
        raise ConfigError(
            f"[initial].packet_sigma: {sigma!r} starts the walks at "
            f"{0.5 * sigma:g}, outside the box [{-half:g}, {half:g})")


def _check_gausson_box(cfg):
    shortest = GaussonParams(cfg.b, cfg.f0).min_box_length
    for length in cfg.lengths:
        if length < shortest:
            raise ConfigError(
                f"[grid].length: {length:g} is below 10/sqrt(b) = "
                f"{shortest:.6g}; the Gausson would wrap around the "
                f"periodic seam")


def _check_double_slit(cfg):
    # the pilot packets sit at +-separation/2, and the soliton starts on
    # the left one unless soliton_start is set
    separation = cfg.initial["separation"]
    half = 0.5 * cfg.lengths[0]
    for centre in (-0.5 * separation, 0.5 * separation):
        if not -half <= centre < half:
            raise ConfigError(
                f"[initial].separation: {separation!r} puts a packet centre "
                f"at {centre!r}, outside the box [{-half:g}, {half:g})")
    _check_gausson_box(cfg)


def _check_trap(cfg):
    # the expected period 2 pi sqrt(omega0 / (charge spring)) needs a
    # harmonic potential and charge > 0 (spring > 0 is checked with it)
    if cfg.potential_kind != "harmonic":
        raise ConfigError(f"[potential].kind: harmonic_trap needs kind "
                          f"'harmonic', got {cfg.potential_kind!r}")
    _require_positive("physics", charge=cfg.charge)
    _check_gausson_box(cfg)


# ---------------------------------------------------------------------------
# output sink
# ---------------------------------------------------------------------------

class OutputSink:
    """Atomic series/snapshot/summary writer rooted at one directory;
    `files` lists the outputs written.  An output that cannot be written
    raises a SolidynError, so the run exits 1 with a manifest."""

    def __init__(self, directory, quiet=False):
        self.directory = directory
        self.quiet = quiet
        self.files = []
        os.makedirs(directory, exist_ok=True)

    def _write(self, path, write):
        try:
            write()
        except OSError as err:
            raise SolidynError(f"cannot write {path}: {err}") from err
        self.files.append(path)

    def series(self, name, header, columns, comment=None):
        path = os.path.join(self.directory, name)
        self._write(path, lambda: write_csv(path, header, columns,
                                            comment=comment))

    def snapshot(self, field, label, index):
        # the atomic write makes the snapshot directory
        path = os.path.join(self.directory, "snapshots",
                            f"{label}_{index:06d}.sldn")
        self._write(path, lambda: write_snapshot(field, path))

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
        self._write(path, lambda: write_text(path, "\n".join(lines) + "\n"))
        if not self.quiet:
            print("\n".join(lines))
        return ok


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def run_scenario(cfg: ScenarioConfig, quiet=False) -> int:
    """Execute a parsed scenario; returns the process exit code.

    The parser has checked every setting but one: an output directory that
    cannot be made raises a ConfigError, after removing what it made.  Any
    other failure of the run (an `Exception`) exits 1 with the failure
    manifest and one "solver error" line: a solidyn error by its message,
    any other (a `MemoryError`, or a `ValueError` raised again from a
    child process) by its class name and message.
    """
    made = _first_missing_directory(cfg.output_dir)
    try:
        sink = OutputSink(cfg.output_dir, quiet=quiet)
    except (OSError, ValueError) as err:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise ConfigError(f"[output].directory: {err}") from err
    try:
        ok = KINDS[cfg.kind].runner(cfg, sink)
    except Exception as err:
        message = str(err) if isinstance(err, SolidynError) else ": ".join(
            filter(None, (type(err).__name__, str(err))))
        _write_failure_manifest(cfg, sink, message)
        if not quiet:
            print(f"solver error: {message}")
        return 1
    return 0 if ok else 3


def _first_missing_directory(path):
    """The outermost directory of `path` that does not exist yet, or None."""
    path = os.path.abspath(path)
    missing = None
    while not os.path.exists(path):
        missing, path = path, os.path.dirname(path)
    return missing


def _write_failure_manifest(cfg, sink, message):
    text = (f"scenario: {cfg.kind}\nstatus: solver error\n"
            f"error: {message}\npartial outputs:\n"
            + "\n".join(f"  {p}" for p in sink.files) + "\n")
    path = os.path.join(cfg.output_dir, "manifest.txt")
    try:
        write_text(path, text)
    except OSError as write_err:
        print(f"cannot write the manifest {path}: {write_err}",
              file=sys.stderr)


def _gausson_state(cfg, grid, velocity=None, center=None, mode="classical"):
    init = cfg.initial
    center = (init["center"],) if center is None else center
    velocity = (init["velocity"],) if velocity is None else velocity
    u0 = gausson_init(GaussonParams(cfg.b, cfg.f0, center=center,
                                    velocity=velocity), grid, cfg.omega0)
    return SolitonState(u0, cfg.params, cfg.b, cfg.f0, coupling_mode=mode)


def _snapshot_writer(cfg, sink, *labels):
    """The `store` of a soliton run: writes its i-th stored fields as the
    snapshots `<label>_<i>`, if the config asks for snapshots."""
    index = itertools.count()

    def store(*fields):
        i = next(index)
        for label, field in zip(labels, fields):
            sink.snapshot(field, label, i)

    return store if cfg.snapshot_every else lambda *fields: None


def _soliton_series(cfg, sink, state, store_every=None, store=None,
                    **options):
    """`run_classical` of the config from `state` and its center and
    conservation series; returns the run and its `conservation_report`.
    By default every `snapshot_every`-th step (or the last) is stored."""
    run = run_classical(state, cfg.potentials(), cfg.dt, cfg.steps,
                        store_every=store_every or cfg.snapshot_every
                        or cfg.steps,
                        store=store or _snapshot_writer(cfg, sink, "u"),
                        **options)
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
    return run, report


def _run_free_gausson(cfg, sink):
    grid = cfg.grid
    state = _gausson_state(cfg, grid)
    profile = np.abs(state.u.samples)
    norm_profile = np.sqrt(grid.integrate(profile**2))
    store_every = cfg.snapshot_every or max(cfg.steps // 100, 1)
    # each stored field is checked as it comes: the profile deviation at
    # each, the identity at every (count // 8)-th, cancellations at the last
    count = cfg.steps // store_every + 1
    write = _snapshot_writer(cfg, sink, "u")
    index, dev, identity, cancel = 0, -math.inf, -math.inf, None

    def store(u):
        nonlocal index, dev, identity, cancel
        write(u)
        dev = max(dev, np.sqrt(grid.integrate(
            (np.abs(u.samples) - profile) ** 2)) / norm_profile)
        if index % max(count // 8, 1) == 0:
            identity = max(identity, static_energy_identity_deviation(
                u, cfg.b, cfg.f0))
        if index == count - 1:
            (vals_n, scales_n), (vals_r, scales_r) = cancellation_integrals(
                u, cfg.b, cfg.f0)
            cancel = max(float(np.max(np.abs(vals_n) / scales_n)),
                         float(np.max(np.abs(vals_r) / scales_r)))
        index += 1

    _, report = _soliton_series(cfg, sink, state, store_every, store)
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
    state = _gausson_state(cfg, cfg.grid)
    z0 = state.center[0]
    # linear scalar potential on a periodic box: the boundary watchdog
    # aborts the run if wave mass reaches the seam
    run, report = _soliton_series(cfg, sink, state,
                                  abort_on_boundary_mass=True)
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
    state = _gausson_state(cfg, cfg.grid)
    run, report = _soliton_series(cfg, sink, state)
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
    extras = [f"period_measured: {float(measured)!r}",
              f"period_expected: {float(period)!r}"]
    return sink.summary(cfg.kind, cfg.seed, checks, extras)


def _downward_crossings(times, series):
    out = []
    for i in range(len(series) - 1):
        if series[i] > 0 >= series[i + 1]:
            frac = series[i] / (series[i] - series[i + 1])
            out.append(times[i] + frac * (times[i + 1] - times[i]))
    return out


def _packet(x, center, sigma):
    """exp(-(x - center)^2 / (4 sigma^2)): a packet of spread sigma."""
    return np.exp(-((x - center) ** 2) / (4 * sigma**2))


def _run_double_slit(cfg, sink):
    grid = cfg.grid
    init = cfg.initial
    sigma = init["packet_sigma"]
    half_sep = 0.5 * init["separation"]
    x = grid.axes[0]
    psi0 = Field(grid, (_packet(x, half_sep, sigma)
                        + _packet(x, -half_sep, sigma)).astype(complex))
    start = init["soliton_start"]
    if start is None:
        start = -half_sep
    state = _gausson_state(cfg, grid, center=(start,), velocity=(0.0,),
                           mode="dbb")
    run = run_coupled(psi0, state, cfg.params, cfg.potentials(), cfg.dt,
                      cfg.steps, store_every=cfg.snapshot_every or cfg.steps,
                      harmony_every=max(cfg.steps // 50, 1),
                      store=_snapshot_writer(cfg, sink, "u", "psi"))
    dx = grid.spacing[0]
    z_bohm = run.reference.positions[:, 0, 0]
    gap = float(np.max(np.abs(run.centers[:, 0] - z_bohm)))
    classical = classical_trajectory(run.times, run.centers[0],
                                     run.reference.velocities[0, 0],
                                     cfg.params, cfg.potentials())
    classical_gap = float(np.max(np.abs(run.centers[:, 0]
                                        - classical[:, 0])))
    sink.series("tracking.csv",
                ["time", "xbar", "z_bohm", "z_classical"],
                [run.times, run.centers[:, 0], z_bohm, classical[:, 0]],
                comment="natural units hbar=c=1")
    sink.series("harmony.csv", ["time", "phase_harmony_residual"],
                [run.harmony_times, run.harmony],
                comment="dimensionless")
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
    history = KGHistory(grid, cfg.params, pots)
    mass_dev = -np.inf

    def track_mass(bundle):
        nonlocal mass_dev
        mass_dev = np.maximum(mass_dev, np.max(np.abs(
            np.sqrt(np.maximum(bundle.mass_sq, 0.0)) - cfg.omega0)))

    history.readers.append(track_mass)
    walk = kg_bohm_trajectory(0.0, history)
    run = evolve_kg(psi0, None, cfg.params, pots, cfg.dt, cfg.steps,
                    psi_prev=prev, history=history)
    path = walk.finish()
    times, z, velocity = (path.times, path.positions[:, 0, 0],
                          path.velocities[:, 0, 0])
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
    extras = [f"wavenumber: {float(k)!r}",
              f"dispersion_energy: {float(e_cont)!r}"]
    return sink.summary(cfg.kind, cfg.seed, checks, extras)


def _run_kg_packet(cfg, sink):
    grid = cfg.grid
    init = cfg.initial
    sigma = init["packet_sigma"]
    k = init["wavenumber"]
    x = grid.axes[0]
    if init["mode"] == "counter":
        ratio = init["amplitude_ratio"]
        envelope = _packet(x, 0.0, 0.25 * grid.lengths[0])
        psi0 = Field(grid, (envelope * (np.exp(1j * k * x)
                                        + ratio * np.exp(-1j * k * x)))
                     .astype(complex))
        pots = cfg.potentials()
        history = KGHistory(grid, cfg.params, pots)
        tachyon_cells = 0

        def count_tachyon_cells(bundle):
            nonlocal tachyon_cells
            tachyon_cells += int(bundle.tachyon_mask.sum())

        history.readers.append(count_tachyon_cells)
        walk = kg_bohm_trajectory(0.15 * grid.lengths[0], history)
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

    psi0 = Field(grid, (_packet(x, 0.0, sigma)
                        * np.exp(1j * k * x)).astype(complex))
    # both waves run first and both walks end after them, so a wave's
    # error still comes before either walk's abort
    kg_pots, s_pots = cfg.potentials(), cfg.potentials()
    kg_history = KGHistory(grid, cfg.params, kg_pots)
    s_history = FlowHistory(grid, cfg.params, s_pots)
    kg_walk = kg_bohm_trajectory(0.5 * sigma, kg_history)
    s_walk = integrate_flow(s_history, 0.5 * sigma)
    evolve_kg(psi0, -1j * cfg.omega0 * psi0.samples, cfg.params, kg_pots,
              cfg.dt, cfg.steps, history=kg_history)
    evolve_schrodinger(psi0, cfg.params, s_pots, cfg.dt, cfg.steps,
                       history=s_history)
    kg_path = kg_walk.finish()
    times, z_kg = kg_path.times, kg_path.positions[:, 0, 0]
    z_s = s_walk.finish().positions[:, 0, 0]
    n = min(len(z_kg), len(z_s))
    gap = float(np.max(np.abs(z_kg[:n] - z_s[:n])))
    sink.series("trajectory.csv", ["time", "z_kg", "z_schrodinger"],
                [times[:n], z_kg[:n], z_s[:n]],
                comment="natural units hbar=c=1")
    checks = [("gap_over_width", gap / sigma, THRESHOLDS["kg_gap_frac"],
               "<")]
    return sink.summary(cfg.kind, cfg.seed, checks)


def _concurrently(first, second):
    """(first(), second()), with second() run in a forked child process
    while this process runs first(): the one-item use of
    `stepping.run_ahead`, whose child pickles back the result or the
    error.  Errors keep the order of the serial calls: an error of first()
    raises at once, and the child is killed; otherwise an error of
    second() raises here, with its class, message and attributes.
    Without a fork the two run in order."""
    with run_ahead(lambda: (run() for run in (second,))) as results:
        result = first()
        (value,) = results
    return result, value


def _run_entangled_pair(cfg, sink):
    grid = cfg.grid
    init = cfg.initial
    sigma = init["packet_sigma"]
    off = init["packet_offset"]
    boost = init["boost"]

    def packets(x):
        # the left and right packets of one particle, on its own axis
        return ((_packet(x, -off, sigma)
                 * np.exp(-1j * boost * x)).astype(complex),
                (_packet(x, off, sigma)
                 * np.exp(1j * boost * x)).astype(complex))

    (left1, right1), (left2, right2) = (packets(x) for x in grid.axes)
    pots = (cfg.potentials(1), cfg.potentials(1))
    masses = (cfg.omega0, cfg.omega0)

    def wave(entangled):
        if entangled:
            psi2d = (np.outer(left1, left2) + np.outer(right1, right2)) \
                / np.sqrt(2.0)
            return PairWave(Field(grid, psi2d), masses, cfg.charge, pots)
        partner = (left2 + right2) / np.sqrt(2.0)
        return product_pair(left1, partner, grid, masses, cfg.charge, pots)

    def state(pair_wave, z1, z2):
        # phase-harmony initial data: each soliton boosted to the local
        # guidance velocity of its particle (read through the wave's line
        # memo, which the first pair step then reuses)
        stencil = grid.point_stencil((z1, z2))
        u1, u2 = (_gausson_state(cfg, g, center=(z,), mode="dbb",
                                 velocity=(grid.interpolate(v, stencil),))
                  for z, v, g in zip((z1, z2), pair_wave.velocity,
                                     pair_wave.axis_grids))
        return PairState(u1=u1, u2=u2, z=[z1, z2])

    z1, z2, z2b = init["z1"], init["z2"], init["z2_alternate"]

    def run(entangled):
        # both partner starts ride one wave, stepped once for both
        pair_wave = wave(entangled)
        return run_pair(pair_wave, [state(pair_wave, z1, z2),
                                    state(pair_wave, z1, z2b)],
                        cfg.dt, cfg.steps)

    def product_series():
        # the series the summary reads, without the final solitons
        return [PairRun(r.times, r.z, r.centers1, r.centers2)
                for r in run(False)]

    # the entangled and the product runs share nothing: the product run
    # goes on in a child process, so both waves are resident at once
    (ent_a, ent_b), (prod_a, prod_b) = _concurrently(lambda: run(True),
                                                     product_series)
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
    psi0 = Field(grid, _packet(x, 0.0, sigma).astype(complex))
    pots = cfg.potentials()
    history = FlowHistory(grid, cfg.params, pots)
    starts = grid.sample_density(psi0.density(), count, cfg.seed)
    # keep the densities and the ensemble only at the reported snapshots
    indices = sorted({0, (cfg.steps + 1) // 2, cfg.steps})
    densities, times, kept = [], [], []
    # counted here, not read from the history, which holds this reader
    snapshot = itertools.count()

    def keep_density(bundle):
        if next(snapshot) in indices:
            densities.append(bundle.amplitude ** 2)

    def keep_positions(i, t, z, stencil, k1):
        if i in indices:
            times.append(t)
            kept.append(z)

    history.readers.append(keep_density)
    walk = FlowWalk(history, starts, keep_positions, lambda: np.stack(kept))
    evolve_schrodinger(psi0, cfg.params, pots, cfg.dt, cfg.steps,
                       history=history)
    report = equivariance_distance(
        densities, grid, times, walk.finish(), indices=range(len(indices)),
        bins=bins)
    sink.series("equivariance.csv", ["time", "l1_distance"],
                [report.times, report.distances],
                comment="dimensionless")
    checks = [("l1_distance", report.final_distance,
               THRESHOLDS["equivariance_l1"], "<")]
    extras = [f"trajectories: {count}", f"bins: {bins}"]
    return sink.summary(cfg.kind, cfg.seed, checks, extras)


# Every scenario kind, declared once; `solidyn list-scenarios` lists them in
# this order.
KINDS = {
    "free_gausson": Kind(
        _run_free_gausson,
        "resting soliton: stationarity, norm/energy checks",
        dt=1e-3, t_final=10.0, initial={"center": 0.0, "velocity": 0.0},
        check=_check_gausson_box),
    "uniform_field": Kind(
        _run_uniform_field,
        "soliton in a uniform electric field: parabolic center",
        dt=1e-3, t_final=5.0, initial={"center": 0.0, "velocity": 0.0},
        potential="uniform_e", check=_check_gausson_box),
    "harmonic_trap": Kind(
        _run_harmonic_trap, "soliton in a harmonic trap: oscillation period",
        dt=1e-3, t_final=8 * np.pi, initial={"center": 1.0, "velocity": 0.0},
        potential="harmonic", check=_check_trap),
    "double_slit_dbb": Kind(
        _run_double_slit, "two-packet pilot wave driving a coupled soliton",
        dt=1e-3, t_final=8.0,
        initial={"packet_sigma": 2.0, "separation": 8.0,
                 "soliton_start": None},
        grid=((2048,), (40.0,)), check=_check_double_slit),
    "kg_plane_wave": Kind(
        _run_kg_plane_wave,
        "Klein-Gordon plane wave: constant mass, slope k/E",
        dt=2.5e-3, t_final=1.0, initial={"harmonic": 4},
        grid=((256,), (16 * np.pi,)), check=_check_plane_wave),
    "kg_packet": Kind(
        _run_kg_packet,
        "Klein-Gordon packet: non-relativistic limit or tachyon detection "
        "(mode: counter)",
        dt=0.05, t_final=5.0,
        initial={"packet_sigma": 8.0, "wavenumber": 0.1, "mode": "single",
                 "amplitude_ratio": 0.8},
        grid=((1024,), (256.0,)), check=_check_packet),
    "entangled_pair": Kind(
        _run_entangled_pair, "two-particle nonlocality witness",
        dt=2e-3, t_final=0.8,
        initial={"packet_offset": 2.0, "packet_sigma": 1.0, "boost": 1.5,
                 "z1": -2.0, "z2": -2.0, "z2_alternate": 3.0},
        grid=((256, 256), (24.0, 24.0)), check=_check_gausson_box),
    "equivariance": Kind(
        _run_equivariance, "Born-rule ensemble transport",
        dt=1e-3, t_final=2.0,
        initial={"packet_sigma": 1.0, "trajectories": 2000, "bins": 64},
        grid=((512,), (30.0,))),
}
