"""The package's public names: every name in __all__ resolves, and each
command loads only the modules it runs."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import bitorsor_kit

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = ["bitorsor_kit", "bitorsor_kit.cli", "bitorsor_kit.errors", "bitorsor_kit.formats", "bitorsor_kit.groups"]


def test_every_exported_name_resolves():
    names = bitorsor_kit.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(bitorsor_kit, n)] == []
    star: dict = {}
    exec("from bitorsor_kit import *", star)
    assert set(names) <= set(star)


def test_every_exported_name_is_read_from_the_module_defining_it():
    from importlib import import_module

    for module, names in bitorsor_kit._EXPORTS.items():
        mod = import_module(f"bitorsor_kit.{module}")
        for name in names:
            value = getattr(bitorsor_kit, name)
            assert value is getattr(mod, name), name
            assert value.__module__ == mod.__name__, name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bitorsor_kit.no_such_name  # noqa: B018
    assert not hasattr(bitorsor_kit, "cli_main")


def test_dir_covers_all_and_the_exporting_modules():
    listed = set(dir(bitorsor_kit))
    assert set(bitorsor_kit.__all__) <= listed
    assert set(bitorsor_kit._EXPORTS) <= listed
    assert bitorsor_kit.groups.make_group is bitorsor_kit.make_group


def loaded_after(code: str) -> list[str]:
    """The bitorsor_kit modules a fresh interpreter holds after `code`."""
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}\n"
        "print(__import__('json').dumps(sorted(m for m in sys.modules if m.startswith('bitorsor_kit'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize(
    "code, extra",
    [
        ("import bitorsor_kit.cli", []),
        ("from bitorsor_kit import cli; cli.main(['validate-group', '--group', 'dihedral:5'])", []),
        (
            "from bitorsor_kit import cli; cli.main(['h1', '--pi', 'cyclic:2', '--group', 'symmetric:3'])",
            ["bitorsor_kit.bitorsors", "bitorsor_kit.equivariant"],
        ),
    ],
)
def test_a_command_loads_only_what_it_runs(code, extra):
    assert loaded_after(code) == sorted(CORE + extra)


def test_importing_the_package_loads_no_module():
    assert loaded_after("import bitorsor_kit") == ["bitorsor_kit"]
