"""Golden output hashes of every shipped config, run short through the CLI.

    PYTHONPATH=src python tests/make_golden.py

runs each entry of RUNS (`solidyn run` in this process, `--seed 7`, in a
temporary directory) and writes the exit code of each run and the sha256
of every file it wrote to tests/golden/<numpy version>-<machine>.json.
`tests/test_golden.py` reruns the same list and compares.

FFT bits are only reproducible on one numpy build and one machine type,
so the file name carries both and the test skips elsewhere.  Short runs
may FAIL a summary check or stop with a solver error (exit 1 and a
manifest); their bytes are still deterministic, and bytes are all that is
compared.  Regenerate only for a change that alters output bits on
purpose, and say so with the physics checks before and after.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = 7

# (config under configs/, shortened run.t_final, --snapshots EVERY_K)
RUNS = (
    ("free_gausson.yaml", 0.3, 0),
    ("uniform_field.yaml", 0.3, 0),
    ("harmonic_trap.yaml", 0.3, 0),
    ("double_slit_dbb.yaml", 0.8, 200),
    ("kg_plane_wave.yaml", 0.5, 0),
    ("kg_packet.yaml", 5.0, 0),
    ("kg_tachyon.yaml", 4.0, 0),
    ("entangled_pair.yaml", 0.06, 0),
    ("equivariance.yaml", 0.2, 0),
)


def golden_path():
    """Golden file of this numpy version and machine type."""
    return GOLDEN_DIR / f"{np.__version__}-{platform.machine()}.json"


def run_all(workdir):
    """Run every entry of RUNS under `workdir`; return the record.

    Output directories are relative to `workdir` (the working directory
    during the runs), so manifests list the same paths everywhere.
    """
    from solidyn import cli

    workdir = Path(workdir)
    exit_codes, files = {}, {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for config, t_final, snapshots in RUNS:
            name = Path(config).stem
            raw = yaml.safe_load((ROOT / "configs" / config).read_text())
            raw.setdefault("run", {})["t_final"] = t_final
            Path(config).write_text(yaml.safe_dump(raw, sort_keys=True))
            argv = ["run", config, "--output-dir", f"out/{name}",
                    "--seed", str(SEED), "--quiet"]
            if snapshots:
                argv += ["--snapshots", str(snapshots)]
            exit_codes[name] = cli.main(argv)
        for path in sorted(Path("out").rglob("*")):
            if path.is_file():
                files[path.relative_to("out").as_posix()] = \
                    hashlib.sha256(path.read_bytes()).hexdigest()
    finally:
        os.chdir(previous)
    return {"exit_codes": exit_codes, "files": files}


def main():
    with tempfile.TemporaryDirectory() as workdir:
        record = run_all(workdir)
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = golden_path()
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(record['files'])} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
