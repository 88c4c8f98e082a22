"""Cross-commit byte identity: every shipped config, run short, writes the
bytes recorded in tests/golden/ (see make_golden.py, which wrote them)."""

import json

import pytest

from make_golden import golden_path, run_all


def test_shipped_configs_write_the_golden_bytes(tmp_path):
    path = golden_path()
    if not path.exists():
        pytest.skip(f"no golden file for this numpy and machine ({path.name})")
    golden = json.loads(path.read_text())
    record = run_all(tmp_path)
    assert record["exit_codes"] == golden["exit_codes"]
    assert sorted(record["files"]) == sorted(golden["files"])
    changed = [name for name, digest in golden["files"].items()
               if record["files"][name] != digest]
    assert not changed, f"output bytes changed: {changed}"
