"""Smoke tests for the scripts under scripts/: each runs to exit 0 on a tiny
input."""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, last_line",
    [
        (
            "survey_tame_models",
            ["--q-max", "2", "--n-max", "3", "--m-max", "2", "--groups", "cyclic:2"],
            "all decompositions verified",
        ),
        (
            "registry_closures",
            ["--pi", "cyclic:2", "--universe", "cyclic:2", "--max-n", "2"],
            "searched and fixed-point closures agree on every registry",
        ),
        ("memo_traffic", ["--workload", "survey-ladder"], "two passes of 7 commands, each exit 0"),
    ],
)
def test_script_runs_on_a_tiny_input(capsys, name, argv, last_line):
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == last_line


def test_survey_json_bytes_are_unchanged(capsys):
    """The digest of the survey JSON written field by field, which writing
    params and rows from the records' fields must keep."""
    argv = ["--q-max", "3", "--n-max", "4", "--m-max", "2", "--groups", "cyclic:2", "symmetric:3", "--json"]
    assert load("survey_tame_models").main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "08263fa01807a52e822690507e249fd6a0cd944749018fcc1c4bc2afa1924fd4"
    )
