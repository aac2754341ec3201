"""The per-process memos: make_group on (table, generators, label),
resolve_group_spec on a constructor spec, parse_group on its text,
parse_extension after pi_big on (text, the resolved group, its label), and
an extension's conjugation action on the value and its labels.  Within one
process a changed file is always seen, a label is never lost, a failure is
never cached, and every memo of every module of the package is bounded by
the bound README states for it."""

from __future__ import annotations

import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import bitorsor_kit
from bitorsor_kit import cli
from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import formats as F
from bitorsor_kit import groups as G
from bitorsor_kit import rclass as R

from test_cli import S3_EXTENSION, run


def _labelled(g: G.FiniteGroup, label: str) -> str:
    return F.format_group(G.make_group(g.mul, g.generators, label))


def test_one_table_under_two_labels_keeps_both_labels(tmp_path, capsys):
    s3 = G.symmetric(3)
    a, b = (G.make_group(s3.mul, s3.generators, label) for label in ("A", "B"))
    assert a == b and (a.label, b.label) == ("A", "B")
    for label in ("X", "Y"):
        path = tmp_path / f"{label}.grp"
        path.write_text(_labelled(s3, label))
        code, out, _ = run(capsys, "validate-group", "--group", str(path))
        assert code == 0 and out.startswith(f"valid group {label} of order 6\n")


def test_a_group_file_rewritten_between_commands_is_seen(tmp_path, capsys):
    path = tmp_path / "g.grp"
    for g in (G.cyclic(4), G.symmetric(3), G.cyclic(4)):
        path.write_text(F.format_group(g))
        code, out, _ = run(capsys, "validate-group", "--group", str(path))
        assert code == 0 and out.startswith(f"valid group {g.label} of order {g.order}\n")


def _decompose(capsys, ext):
    return run(capsys, "decompose", "--extension", str(ext), "--group", "symmetric:3", "--class", "2")


def test_a_rewritten_pi_big_file_is_seen_under_the_same_extension_text(tmp_path, capsys):
    big = F.resolve_group_spec("semidirect:3:2:2")
    pi_file, ext = tmp_path / "pi.grp", tmp_path / "tame.ext"
    ext.write_text(S3_EXTENSION.replace("semidirect:3:2:2", "pi.grp"))
    for label in ("P", "Q"):
        pi_file.write_text(_labelled(big, label))
        code, out, _ = _decompose(capsys, ext)
        assert code == 0 and out.startswith(f"decomposed class 2 of S3 over {label}\n")
    # C6 under the same p and s lines: 1 has order 6, so s is no hom
    pi_file.write_text(F.format_group(G.cyclic(6)))
    code, out, err = _decompose(capsys, ext)
    assert (code, out) == (2, "") and err.startswith("groups.NotAHomomorphism: ")


def test_a_failed_parse_is_not_cached(tmp_path, capsys):
    path = tmp_path / "g.grp"
    good = F.format_group(G.cyclic(3))
    path.write_text(good.replace("\n0 1 2\n", "\n0 1 3\n", 1))
    code, _, err = run(capsys, "validate-group", "--group", str(path))
    assert code == 2 and err.startswith("formats.ParseError: table entry 3 out of range")
    path.write_text(good)
    assert run(capsys, "validate-group", "--group", str(path))[0] == 0

    # a pi_big file that fails, then is mended, under one extension text
    pi_file, ext = tmp_path / "pi.grp", tmp_path / "tame.ext"
    ext.write_text(S3_EXTENSION.replace("semidirect:3:2:2", "pi.grp"))
    big = F.format_group(F.resolve_group_spec("semidirect:3:2:2"))
    pi_file.write_text(big.replace("generators", "generators 9"))
    code, _, err = _decompose(capsys, ext)
    assert code == 2 and err.startswith("formats.ParseError: generator 9 out of range")
    pi_file.write_text(big)
    assert _decompose(capsys, ext)[0] == 0


@pytest.mark.parametrize("spec", ["cyclic:6", "dihedral:5", "symmetric:4", "semidirect:7:3:2"])
def test_a_constructor_spec_is_built_once(monkeypatch, spec):
    first = F.resolve_group_spec(spec)

    def boom(*args):
        raise AssertionError("a group was built again")

    for name in ("cyclic", "dihedral", "symmetric", "semidirect_product"):
        monkeypatch.setattr(F, name, boom)
    assert F.resolve_group_spec(spec) is first


def test_a_failing_constructor_spec_fails_on_every_call():
    before = F._constructed.cache_info().currsize
    for _ in range(3):
        with pytest.raises(G.NotAnAction, match="is not an automorphism"):
            F.resolve_group_spec("semidirect:4:2:2")
    assert F._constructed.cache_info().currsize == before


def test_a_second_verify_builds_no_gamma_action(tmp_path, capsys, monkeypatch):
    ext, cert = tmp_path / "tame.ext", tmp_path / "cert.json"
    ext.write_text(S3_EXTENSION)
    argv = ("--extension", str(ext), "--group", "symmetric:3", "--class", "0", "--format", "json")
    code, out, _ = run(capsys, "decompose", *argv)
    assert code == 0
    cert.write_text(out)
    built = []
    orig = D.subgroup_as_group
    monkeypatch.setattr(D, "subgroup_as_group", lambda *a, **k: built.append(a) or orig(*a, **k))
    D._gamma_structure.cache_clear()
    for builds in (True, False):
        built.clear()
        assert run(capsys, "verify", "--certificate", str(cert)) == (0, "all checks passed\n", "")
        assert bool(built) is builds


def test_the_gamma_action_and_the_component_keep_their_labels():
    """Equal values under other labels: each memo keys on the labels too."""
    n, q, acts = G.cyclic_power_action(3, 2, 2)
    s3 = G.symmetric(3)
    for label in ("A", "B"):
        sd = G.semidirect_product(n, q, acts, label)
        e = D.SplitExtension(sd.group, G.kernel(sd.projection), q, sd.projection, sd.section)
        assert D.gamma_conjugation_structure(e).pi.label == label
        g = G.make_group(s3.mul, s3.generators, label)
        comp, incl = E.connected_component(E.h1(sd.group, g)[0])  # class 0: theta is trivial
        assert (comp.pi.label, comp.bitorsor.right_group.label) == (label, f"{label}<0>")
        assert incl.dst.left_group.label == label


def _memos():
    modules = [importlib.import_module(f"bitorsor_kit.{m.name}") for m in pkgutil.iter_modules(bitorsor_kit.__path__)]
    return [
        (f"{mod.__name__}.{name}", obj)
        for mod in modules
        for name, obj in sorted(vars(mod).items())
        if isinstance(obj, functools._lru_cache_wrapper)
    ]


def _memo_section() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n## Memos\n", 1)[1].split("\n## ", 1)[0]


def test_the_memos_are_the_ones_documented():
    """Every memo of the package is named, module and all, in README's
    Memos section, so no memo lands undocumented."""
    section = _memo_section()
    names = [name.removeprefix("bitorsor_kit.") for name, _ in _memos()]
    assert [name for name in names if f"`{name}`" not in section] == []
    assert {name.rpartition(".")[2] for name in names} >= {
        "_make_group", "_constructed", "parse_group", "_extension_over",
        "wedge_class_index", "_gamma_structure", "_class_maps", "_h1", "_table_text",
    }


@pytest.mark.parametrize("name, memo", _memos(), ids=[name for name, _ in _memos()])
def test_every_memo_reports_a_finite_maxsize(name, memo):
    assert isinstance(memo.cache_info().maxsize, int)


@pytest.mark.parametrize("name, memo", _memos(), ids=[name for name, _ in _memos()])
def test_every_memo_bound_is_the_documented_one(name, memo):
    """Each README Memos bullet that names a memo states its bound, with or
    without a thousands separator, so a bound cannot drift from the docs."""
    bound = memo.cache_info().maxsize
    named = f"`{name.removeprefix('bitorsor_kit.')}`"
    bullets = [b for b in _memo_section().split("\n- ") if named in b]
    stated = re.compile(rf"(?<![\d,.]){bound:,}(?![\d,])|(?<![\d,.]){bound}(?![\d,])")
    assert bullets and [b for b in bullets if not stated.search(" ".join(b.split()))] == []
