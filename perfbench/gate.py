"""Correctness gate: summary checks and output fingerprints of one run."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

_CHECK = re.compile(r"^check (\S+): value=(\S+) threshold(\S+) (PASS|FAIL)$")


def read_summary(out_dir):
    """Return (problems, {check: value}) from ``summary.txt`` in out_dir."""
    path = Path(out_dir) / "summary.txt"
    if not path.is_file():
        return ["no summary.txt"], {}
    problems, values = [], {}
    overall = None
    for line in path.read_text().splitlines():
        match = _CHECK.match(line)
        if match:
            name, value, _, verdict = match.groups()
            values[name] = float(value)
            if verdict != "PASS":
                problems.append(f"check {name} FAIL")
        elif line.startswith("overall: "):
            overall = line.split(": ", 1)[1]
    if overall != "PASS":
        problems.append(f"overall {overall}")
    if not values:
        problems.append("summary lists no checks")
    return problems, values


def csv_digests(out_dir):
    """sha256 of every CSV the run wrote, keyed by path inside out_dir."""
    root = Path(out_dir)
    return {str(p.relative_to(root)):
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*.csv"))}


def bytes_written(out_dir):
    """Total size of the CSV and SLDN1 files the run wrote."""
    root = Path(out_dir)
    return sum(p.stat().st_size for pattern in ("*.csv", "*.sldn")
               for p in root.rglob(pattern))


def judge(exit_code, out_dir):
    """Gate one run of one config: (problems, check values, CSV digests)."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    summary_problems, values = read_summary(out_dir)
    return problems + summary_problems, values, csv_digests(out_dir)
