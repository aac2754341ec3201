"""Smoke tests for the scripts under scripts/: each runs to exit 0 on a tiny
input."""

from __future__ import annotations

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
    ],
)
def test_script_runs_on_a_tiny_input(capsys, name, argv, last_line):
    assert load(name).main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == last_line
