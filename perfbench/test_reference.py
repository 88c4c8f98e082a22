"""Tests for the host-speed sampler and the sampled child.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from reference import Sampler

HERE = Path(__file__).resolve().parent


def test_sampler_times_blocks_and_restores_the_signal_state():
    before = signal.getsignal(signal.SIGALRM)
    with Sampler(period_s=0.05) as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.blocks) >= 2
    assert sampler.busy_s > sum(sampler.blocks) > 0.0


def test_child_runs_the_cli_and_writes_its_samples(tmp_path):
    config = tmp_path / "tiny.yaml"
    config.write_text("scenario: free_gausson\ngrid:\n  points: 64\n"
                      "run:\n  dt: 1.0e-3\n  t_final: 0.01\n")
    samples = tmp_path / "samples.json"
    out = tmp_path / "out"
    env = {"PYTHONPATH": str(HERE.parent / "src"), "PATH": ""}
    result = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(samples), "run",
         str(config), "--output-dir", str(out), "--quiet"],
        env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert (out / "summary.txt").is_file()
    recorded = json.loads(samples.read_text())
    assert recorded["busy_s"] > 0.0
    assert isinstance(recorded["blocks"], list)
