"""Byte gate: every seed-0 command of the three benchmark workloads, run in
process, prints exactly the bytes whose sha256 perfbench/golden.json
records.  The inputs come from perfbench/inputs.py, loaded by file path;
the commands known to fail there are left out."""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bitorsor_kit import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def load_inputs():
    """The module is registered before it runs: its dataclasses look their
    module up by name."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(GOLDEN["workloads"]))
def test_seed_zero_stdout_matches_golden(tmp_path, workload):
    inputs = load_inputs().generate(workload, 0, tmp_path, GOLDEN["class_counts"])
    digests = GOLDEN["workloads"][workload]["digests"]
    assert inputs.exact and inputs.ops
    for op in inputs.ops:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(list(op.argv))
        data = out.getvalue().encode()
        if op.stdout_to:
            Path(op.stdout_to).write_bytes(data)
        assert rc == 0, op.id
        assert hashlib.sha256(data).hexdigest()[:16] == digests[op.id], op.id
