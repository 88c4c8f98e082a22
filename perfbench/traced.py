"""In-process runs that give the per-layer metrics.

The workload's configs run through ``solidyn.cli.main`` inside this process:
untraced, under the ``Tracer``, and untraced again; the traced wall against
the untraced ones is the tracing overhead.  The same process then times the
raw FFT cost on each grid a step function runs on (the "FFT floor").
"""

from __future__ import annotations

import contextlib
import shutil
import statistics
import time

import numpy as np

from tracer import Tracer
from workloads import FFT_FLOOR_GRIDS, LAYERS


class HistoryBytes:
    """Bytes of the Madelung arrays kept by every stored Schrodinger history
    (computed from array sizes, not measured)."""

    def __init__(self):
        self.total = 0

    def __call__(self, run):
        history = run.history
        arrays = (*history.velocities, *history.amplitudes,
                  *history.quantum_forces, *history.quantum_potentials,
                  *run.densities)
        self.total += sum(a.nbytes for a in arrays)


def run_in_process(jobs, tracer=None):
    """Run each (argv, out_dir) job through the CLI entry point.

    Returns the wall time of all jobs and their exit codes; an exception
    escaping the CLI is recorded in place of the code, as a failed run.
    Without a tracer nothing is wrapped.
    """
    from solidyn import cli

    for _, out_dir in jobs:
        shutil.rmtree(out_dir, ignore_errors=True)
    codes = []
    start = time.perf_counter()
    with tracer if tracer is not None else contextlib.nullcontext():
        for argv, _ in jobs:
            try:
                codes.append(cli.main(argv))
            except Exception as err:
                codes.append(f"{type(err).__name__}: {err}")
    return time.perf_counter() - start, codes


def fft_floor_us(shape, repeat=7, min_batch_s=0.05):
    """Median µs of one complex fftn + ifftn pair on a grid of this shape."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def batch(n):
        start = time.perf_counter()
        for _ in range(n):
            np.fft.ifftn(np.fft.fftn(x))
        return time.perf_counter() - start

    n = 1
    while batch(n) < min_batch_s:
        n *= 2
    return 1e6 * statistics.median(batch(n) / n for _ in range(repeat))


def traced_metrics(jobs_by_label):
    """Untraced, traced, then untraced again in-process runs of the configs.

    ``jobs_by_label`` maps "untraced", "traced" and "untraced_again" to job
    lists with their own output directories.  The overhead compares the
    traced wall with the mean of the two untraced walls, so warm-up in the
    first run and drift across the three do not masquerade as overhead.
    Returns ({label: exit codes}, per-layer metrics, tracer).
    """
    history = HistoryBytes()
    tracer = Tracer(LAYERS, observers={
        "schrodinger.evolve_schrodinger": history})
    walls, codes = {}, {}
    for label, jobs in jobs_by_label.items():
        walls[label], codes[label] = run_in_process(
            jobs, tracer if label == "traced" else None)
    untraced_s = 0.5 * (walls["untraced"] + walls["untraced_again"])

    metrics = {}
    for name, stat in tracer.stats.items():
        metrics[f"{name}.calls"] = (stat.calls, "count")
        metrics[f"{name}.us_per_call"] = (stat.us_per_call, "us")
        metrics[f"{name}.self_s"] = (stat.self_s, "s")
    for key, shape in FFT_FLOOR_GRIDS.items():
        metrics[f"fft_floor.{key}.us"] = (fft_floor_us(shape), "us")
    metrics["schrodinger.history_mb"] = (history.total / 2**20, "MB")
    metrics["tracer.overhead_frac"] = (walls["traced"] / untraced_s - 1.0,
                                       "fraction")
    return codes, metrics, tracer
