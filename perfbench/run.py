"""solidyn benchmark: shipped scenarios via the CLI, end to end and by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload coupled_1d --seed 1 --seconds 20 \
        --trace 0

With ``--trace 0`` the workload's shortened configs run as ``solidyn run``
subprocesses (``python -m solidyn.cli`` over ``src/``), one at a time in a
closed loop, for about ``--seconds`` seconds; the end-to-end metrics are
medians over those repetitions.  Each ``solidyn run`` child runs under a
host-speed sampler (``child.py``), and the reported times are rescaled to
reference host speed (see ``reference.py``); the times as measured are
printed and kept in the record.  With ``--trace 1`` the configs run inside
this process untraced, traced and untraced again, which gives the
per-layer metrics and the tracing overhead (see ``traced.py``).

Every run is gated: exit code 0, every summary check PASS, and CSV bytes
identical to the first repetition.  Human-readable lines go to stdout, then
one JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with provenance and each check's value, is written under
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import gate
from reference import REF_BLOCK_S, Kernel
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_ROUNDS = 5
MIN_REPS = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def prepare_jobs(name, seed):
    """Write the shortened configs; return one job dict per part."""
    from solidyn.scenarios import parse_config

    cfg_dir = WORK / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for index, part in enumerate(WORKLOADS[name].parts):
        raw = yaml.safe_load((ROOT / "configs" / part.config).read_text())
        raw.setdefault("run", {})["t_final"] = part.t_final
        text = yaml.safe_dump(raw, sort_keys=True)
        path = cfg_dir / part.config
        path.write_text(text)
        options = ["--seed", str(seed), "--quiet"]
        if part.snapshots:
            options += ["--snapshots", str(part.snapshots)]
        jobs.append({
            "config": str(path.relative_to(ROOT)),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "steps": parse_config(path).steps * part.evolutions,
            "path": str(path), "options": options,
            "out_dir": WORK / "out" / name / f"{index}_{path.stem}",
        })
    return jobs


def run_argv(job, out_dir):
    return ["run", job["path"], "--output-dir", str(out_dir), *job["options"]]


def spawn(argv, env, log_path, samples_path=None):
    """Run ``python -m solidyn.cli argv``, or with ``samples_path`` the same
    CLI under the host sampler, which writes its samples there.

    Returns (wall s, exit code, max RSS MB).
    """
    if samples_path is None:
        cmd = [sys.executable, "-m", "solidyn.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), str(samples_path),
               *argv]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def setup_time(jobs, env):
    """Median over rounds of the summed ``solidyn validate`` walls, at
    reference host speed and as measured.  Each round is rescaled by the
    mean of the reference blocks timed right before and after it.

    Returns (setup s, measured setup s, problems).
    """
    kernel = Kernel()
    kernel.block()                                # warm-up, not timed
    before = kernel.timed_block()
    rounds, scaled, problems = [], [], []
    for _ in range(SETUP_ROUNDS):
        total = 0.0
        for job in jobs:
            wall, code, _ = spawn(["validate", job["path"], "--quiet"],
                                  env, WORK / "validate.log")
            total += wall
            if code != 0:
                problems.append(f"validate {job['config']}: exit {code}")
        rounds.append(total)
        after = kernel.timed_block()
        scaled.append(total * REF_BLOCK_S / (0.5 * (before + after)))
        before = after
    return statistics.median(scaled), statistics.median(rounds), problems


def run_rep(jobs, env, reference):
    """One closed-loop repetition of every part, gated.  ``wall_s`` is
    each child's wall time less its sampler's time, as measured;
    ``blocks`` are the reference blocks its samplers timed."""
    rep = {"wall_s": 0.0, "peak_rss_mb": 0.0, "blocks": [], "parts": [],
           "problems": []}
    for job in jobs:
        shutil.rmtree(job["out_dir"], ignore_errors=True)
        log = job["out_dir"].with_suffix(".log")
        samples_path = job["out_dir"].with_suffix(".samples.json")
        samples_path.unlink(missing_ok=True)
        log.parent.mkdir(parents=True, exist_ok=True)
        wall, code, rss = spawn(run_argv(job, job["out_dir"]), env, log,
                                samples_path)
        problems, values, digests = gate.judge(code, job["out_dir"])
        try:
            samples = json.loads(samples_path.read_text())
        except FileNotFoundError:
            samples = {"blocks": [], "busy_s": 0.0}
            problems.append("the sampler wrote no samples")
        wall -= samples["busy_s"]
        rep["blocks"] += samples["blocks"]
        if reference is not None and digests != reference[job["config"]]:
            problems.append("CSV bytes differ from the first repetition")
        rep["wall_s"] += wall
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
        rep["parts"].append({"config": job["config"], "wall_s": wall,
                             "exit": code, "max_rss_mb": rss,
                             "checks": values, "csv_sha256": digests})
        rep["problems"] += [f"{job['config']}: {p}" for p in problems]
    return rep


def timed_runs(jobs, seconds, env):
    """Repeat the workload until about ``seconds`` have passed."""
    reps, reference = [], None
    start = time.perf_counter()
    while True:
        rep = run_rep(jobs, env, reference)
        if reference is None:
            reference = {p["config"]: p["csv_sha256"] for p in rep["parts"]}
        reps.append(rep)
        elapsed = time.perf_counter() - start
        typical = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + 0.5 * typical > seconds:
            return reps


def end_to_end(name, jobs, args, env, record):
    setup_s, raw_setup_s, setup_problems = setup_time(jobs, env)
    reps = timed_runs(jobs, args.seconds, env)
    passed = sum(not r["problems"] for r in reps)
    raw_wall_s = statistics.median(r["wall_s"] for r in reps)
    blocks = [b for r in reps for b in r["blocks"]]
    block_s = statistics.fmean(blocks) if blocks else REF_BLOCK_S
    # at reference host speed (see reference.py): each repetition by the
    # mean of the blocks sampled during it
    wall_s = statistics.median(
        r["wall_s"] * REF_BLOCK_S / statistics.fmean(r["blocks"] or [block_s])
        for r in reps)
    steps = sum(job["steps"] for job in jobs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "steps_per_s": (steps / max(wall_s - setup_s, 1e-9), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
        "pass_frac": (passed / len(reps), "fraction"),
    }
    record["reps"] = reps
    record["as_measured"] = {"setup_s": raw_setup_s, "wall_s": raw_wall_s,
                             "reference_block_s": block_s,
                             "reference_blocks": len(blocks)}
    record["setup_problems"] = setup_problems
    print(f"{name}: {len(reps)} repetitions, {steps} solver steps each, "
          f"fail_frac {1 - passed / len(reps):.3f}")
    print(f"  as measured: setup {raw_setup_s:.4f} s, wall {raw_wall_s:.4f} s"
          f"; reference block {block_s:.4f} s (mean of {len(blocks)}, "
          f"nominal {REF_BLOCK_S} s)")
    for rep in reps:
        for problem in rep["problems"]:
            print(f"  FAILED: {problem}")
    for problem in setup_problems:
        print(f"  FAILED: {problem}")
    attempted = len(reps)
    failed = attempted - passed
    return metrics, attempted, failed, not (failed or setup_problems)


def per_layer(name, jobs, record):
    import traced

    labels = ("untraced", "traced", "untraced_again")
    runs = {label: [(job, job["out_dir"].with_name(
        f"{job['out_dir'].name}_{label}")) for job in jobs]
        for label in labels}
    codes, metrics, tracer = traced.traced_metrics(
        {label: [(run_argv(job, out), out) for job, out in pairs]
         for label, pairs in runs.items()})
    problems, checks, digests = {}, {}, {}
    for label, pairs in runs.items():
        problems[label] = []
        for (job, out), code in zip(pairs, codes[label]):
            found, values, digests[label, job["config"]] = gate.judge(
                code, out)
            problems[label] += [f"{job['config']}: {p}" for p in found]
            checks[label, job["config"]] = values
    for label in labels[1:]:
        for job in jobs:
            if digests[label, job["config"]] != digests["untraced",
                                                        job["config"]]:
                problems[label].append(f"{job['config']}: CSV bytes differ "
                                       "from the first untraced run")
    metrics["snapshots.bytes_written"] = (
        sum(gate.bytes_written(out) for _, out in runs["traced"]), "bytes")
    record["checks"] = {f"{label}:{config}": values
                        for (label, config), values in checks.items()}
    record["tracing_overhead"] = metrics["tracer.overhead_frac"][0]
    record["problems"] = problems
    report_layers(name, tracer, metrics)
    print(f"  gated runs: {', '.join(labels)}")
    for label, found in problems.items():
        for problem in found:
            print(f"  FAILED ({label}): {problem}")
    failed = sum(bool(found) for found in problems.values())
    return metrics, len(runs), failed, not failed


def report_layers(name, tracer, metrics):
    ranked = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)
    print(f"{name}: largest self times (tracing overhead "
          f"{metrics['tracer.overhead_frac'][0]:+.1%})")
    for layer, stat in ranked[:8]:
        print(f"  {layer:44s} {stat.self_s:8.3f} s  {stat.calls:8d} calls  "
              f"{stat.us_per_call:10.1f} us/call")
    by_module = {}
    for layer, stat in tracer.stats.items():
        module = layer.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + stat.self_s
    modules = sorted(by_module, key=by_module.get, reverse=True)
    print("  self time by module: " + ", ".join(
        f"{m} {by_module[m]:.3f} s" for m in modules[:5]))
    expected = WORKLOADS[name].expected_top
    verdict = "matches" if modules[0] in expected else "MISMATCH with"
    print(f"  top module {modules[0]!r} {verdict} expected "
          f"{' / '.join(expected)}")
    for layer, grid in WORKLOADS[name].floors.items():
        floor = metrics[f"fft_floor.{grid}.us"][0]
        step = tracer.stats[layer].us_per_call
        print(f"  {layer:28s} {step:9.1f} us/call  FFT floor {grid:10s} "
              f"{floor:8.1f} us  ratio {step / floor:5.1f}")
    print(f"  computed: schrodinger.history_mb "
          f"{metrics['schrodinger.history_mb'][0]:.3f} MB, "
          f"snapshots.bytes_written {metrics['snapshots.bytes_written'][0]}")


def provenance(jobs, args):
    import numpy

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "configs": {job["config"]: job["sha256"] for job in jobs},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "thread_env": THREAD_ENV,
        "tracing_overhead": None,     # measured by --trace 1 only
    }


def main(argv=None):
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "solidyn" / "cli.py").is_file() or not (
            ROOT / "configs").is_dir():
        print(f"perfbench: no solidyn sources under {ROOT}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    jobs = prepare_jobs(args.workload, args.seed)
    record = provenance(jobs, args)
    if args.trace:
        metrics, attempted, failed, correct = per_layer(
            args.workload, jobs, record)
    else:
        metrics, attempted, failed, correct = end_to_end(
            args.workload, jobs, args, child_env(), record)
    record["metrics"] = metrics
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    if not args.trace:
        for key, (value, unit) in metrics.items():
            print(f"  {key:20s} {value:14.6g} {unit}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
