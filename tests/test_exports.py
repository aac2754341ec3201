"""The package's public names: every name in __all__ resolves, each
command loads only the modules it runs, never dataclasses or inspect, and
every public definition is reached from outside the unit tests."""

from __future__ import annotations

import ast
import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import bitorsor_kit
from bitorsor_kit import cli

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


# Standard modules no command may load: importing dataclasses, which
# imports inspect, costs a fresh process about 12 ms (python -X importtime).
NEVER = ["dataclasses", "inspect"]
CALCULUS = ["bitorsor_kit.bitorsors", "bitorsor_kit.equivariant"]
DEVISSAGE = CALCULUS + ["bitorsor_kit.devissage"]
EXTENSION = "extension tame\npi_big semidirect:3:2:2\ngamma 0 2 4\np 0 1 0 1 0 1\ns 0 1\n"


def loaded_after(code: str) -> list[str]:
    """The bitorsor_kit modules a fresh interpreter holds after `code`; it
    must hold none of NEVER."""
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}\n"
        "print(__import__('json').dumps(sorted(m for m in sys.modules if m.startswith('bitorsor_kit') "
        f"or m in {NEVER!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert [m for m in NEVER if m in loaded] == []
    return loaded


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    """An extension, a registry, and a certificate decompose wrote."""
    work = tmp_path_factory.mktemp("inputs")
    (work / "tame.ext").write_text(EXTENSION)
    (work / "reg.txt").write_text("elementary cyclic:4 0\nelementary cyclic:4 1\n")
    out = io.StringIO()
    with redirect_stdout(out):
        argv = ["decompose", "--extension", str(work / "tame.ext"), "--group", "symmetric:3",
                "--class", "2", "--format", "json"]
        assert cli.main(argv) == 0
    (work / "cert.json").write_text(out.getvalue())
    return {"ext": str(work / "tame.ext"), "reg": str(work / "reg.txt"), "cert": str(work / "cert.json")}


@pytest.mark.parametrize(
    "code, extra",
    [
        ("import bitorsor_kit.cli", []),
        ("from bitorsor_kit import cli; cli.main(['validate-group', '--group', 'dihedral:5'])", []),
        (
            "from bitorsor_kit import cli; cli.main(['h1', '--pi', 'cyclic:2', '--group', 'symmetric:3'])",
            CALCULUS,
        ),
        (
            "from bitorsor_kit import cli; cli.main(['decompose', '--extension', '{ext}', "
            "'--group', 'symmetric:3', '--class', '2'])",
            DEVISSAGE,
        ),
        ("from bitorsor_kit import cli; cli.main(['verify', '--certificate', '{cert}'])", DEVISSAGE),
        (
            "from bitorsor_kit import cli; cli.main(['closure', '--pi', 'cyclic:4', '--registry', "
            "'{reg}', '--group', 'cyclic:4', '--class', '2', '--max-n', '3'])",
            CALCULUS + ["bitorsor_kit.rclass"],
        ),
        (
            "from bitorsor_kit import cli; cli.main(['local-survey', '--q', '2', '--n', '3', "
            "'--m', '2', '--group', 'cyclic:2'])",
            DEVISSAGE + ["bitorsor_kit.local_model"],
        ),
    ],
)
def test_a_command_loads_only_what_it_runs(code, extra, inputs):
    assert loaded_after(code.format(**inputs)) == sorted(CORE + extra)


def test_importing_the_package_loads_no_module():
    assert loaded_after("import bitorsor_kit") == ["bitorsor_kit"]


ROOT = SRC.parent


def test_every_public_definition_is_reached():
    """Every public top-level function or class of the library is named
    somewhere other than its own definition: by another line under src/,
    by the package's _EXPORTS, under scripts/ or perfbench/, or by
    tests/test_acceptance.py.  A name only other tests reach is dead code."""
    sources = {p: p.read_text().splitlines() for p in sorted((SRC / "bitorsor_kit").glob("*.py"))}
    elsewhere = [
        p.read_text()
        for p in [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*"), ROOT / "tests/test_acceptance.py"]
        if p.is_file()
    ]
    exported = {n for names in bitorsor_kit._EXPORTS.values() for n in names}
    unreached = []
    for path, lines in sources.items():
        for node in ast.parse("\n".join(lines)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = node.lineno - 1
            named = (
                node.name in exported
                or any(word.search(text) for text in elsewhere)
                or any(
                    word.search(line)
                    for p, ls in sources.items()
                    for i, line in enumerate(ls)
                    if (p, i) != (path, own)
                )
            )
            if not named:
                unreached.append(f"{path.stem}.{node.name}")
    assert unreached == []


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted((SRC / "bitorsor_kit").glob("*.py"))}


def test_every_imported_name_is_read():
    """No linter runs here, so this is its unused-import check: each name a
    module of src/ imports is read in that module, unless its line says
    `# noqa: F401` and why."""
    unread = []
    for name, tree in _modules().items():
        lines = (SRC / "bitorsor_kit" / f"{name}.py").read_text().splitlines()
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                noqa = re.search(r"# noqa: F401\s+\S", lines[alias.lineno - 1])
                if bound not in read and not noqa:
                    unread.append(f"{name}.{bound}")
    assert unread == []


# The aliases src/ gives its modules: `import bitorsors as bt` and so on.
ALIASES = {"bt": "bitorsors", "eq": "equivariant", "dv": "devissage", "fm": "formats"}


def _qualified_names(text: str, modules: set[str]) -> list[str]:
    """Every `module.name` (or `alias.name`, with attribute chains) in
    `text` whose module is not itself preceded by a dot; a file name such
    as groups.py is none."""
    heads = "|".join(sorted(modules | set(ALIASES)))
    found = re.findall(rf"(?<![\w.])((?:{heads})(?:\.[A-Za-z_]\w*)+)", text)
    return [name for name in found if not name.endswith(".py")]


def _unresolved(names: list[str]) -> list[str]:
    from importlib import import_module

    out = []
    for qualified in names:
        head, *chain = qualified.split(".")
        obj = import_module(f"bitorsor_kit.{ALIASES.get(head, head)}")
        for attr in chain:
            if not hasattr(obj, attr):
                out.append(qualified)
                break
            obj = getattr(obj, attr)
    return out


def test_every_qualified_name_in_the_docs_resolves():
    """Every module-qualified name that a docstring or comment of src/
    names, and every one in backticks in README, is a real attribute: a
    deleted or renamed function leaves none behind."""
    import tokenize

    trees = _modules()
    texts = []
    for name, tree in trees.items():
        texts += [
            ast.get_docstring(node) or ""
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        with open(SRC / "bitorsor_kit" / f"{name}.py", "rb") as f:
            texts += [tok.string for tok in tokenize.tokenize(f.readline) if tok.type == tokenize.COMMENT]
    readme = (ROOT / "README.md").read_text()
    spans = re.findall(r"`([^`\n]+)`", readme)
    found = [n for text in texts for n in _qualified_names(text, set(trees))]
    in_readme = [n for span in spans for n in _qualified_names(span, set(trees))]
    assert found and in_readme
    assert _unresolved(found) == []
    assert _unresolved(in_readme) == []
