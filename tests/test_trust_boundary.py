"""The trust boundary with BITORSOR_CHECK unset, as the command line runs.

Values built by formula skip their validators unless BITORSOR_CHECK=full.
The rest of the suite sets it, so a reader or parser constructor wrongly
moved onto the trusted path would still be checked there; these tests run
without it.  Each tampered certificate must be refused while it is read,
with the validator's own error on stderr and exit code 2, before verify
compares anything."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bitorsor_kit import cli

from conftest import cli_in_fresh_process
from test_cli import S3_EXTENSION
from test_validators import LOOP6


def _bump(row: list, i: int, n: int) -> None:
    row[i] = (row[i] + 1) % n


def _retype(value):
    """Write the first 1 of the input's left_act row 0 as `value`, which
    int() would read back as 1."""

    def edit(d: dict) -> None:
        row = d["input"]["bitorsor"]["left_act"][0]
        row[row.index(1)] = value

    return edit


def _swap_at_non_generator(d: dict) -> None:
    """Swap two entries of y's left action row at a symmetry that is neither
    the identity nor a generator of pi.  The row stays a permutation and is
    not read as a hom, so only the composition law can refuse it."""
    pg = d["decomposition"]["y"]["left"]
    pi = d["groups"][pg["pi"]]
    ident = pi["mul"].index(list(range(pi["order"])))
    c = next(c for c in range(pi["order"]) if c != ident and c not in pi["generators"])
    row = pg["action"][c]
    row[1], row[2] = row[2], row[1]


def _one_copy(path: str, edit):
    """Edit one copy only of the carrier that the certificate stores twice,
    as the factor y and as the target of the witness inclusion."""

    def apply(d: dict) -> None:
        dec = d["decomposition"]
        edit(dec["y"] if path == "y" else dec["certificate"]["w_inclusion"]["dst"])

    return apply


def _group_ref(value):
    """Write the extension's reference to the group that int(value) names
    (pi_big is group 0, pi_small group 1) as `value`."""

    def edit(d: dict) -> None:
        ext = d["extension"]
        key = next(k for k in ("pi_big", "pi_small") if ext[k] == int(value))
        ext[key] = value

    return edit


def _true_for_a_one(p: dict) -> None:
    row = p["points_action"][0]
    row[row.index(1)] = True


# kind -> (edit of one entry of the document, the error the reader raises)
TAMPERS = {
    # group 0 is pi_big, of order 6; its product 1.2 is moved
    "group table": (lambda d: _bump(d["groups"][0]["mul"][1], 2, 6), "groups.NotAssociative"),
    "hom map": (lambda d: _bump(d["input"]["theta"]["map"], 2, 6), "groups.NotAHomomorphism"),
    "subgroup members": (
        lambda d: d["decomposition"]["certificate"]["h_prime"]["members"].__setitem__(1, 1),
        "groups.NotASubgroup",
    ),
    "left_act": (
        lambda d: _bump(d["input"]["bitorsor"]["left_act"][1], 0, 6), "groups.NotAnAction"
    ),
    "pi_group action row": (
        lambda d: _bump(d["decomposition"]["y"]["left"]["action"][1], 2, 6),
        "groups.NotAHomomorphism",
    ),
    "points_action row": (
        lambda d: _bump(d["decomposition"]["y"]["points_action"][1], 2, 6),
        "equivariant.EquivariantError",
    ),
    "point_map": (
        lambda d: _bump(d["decomposition"]["witness_iso"]["point_map"], 2, 6),
        "bitorsors.InvalidMorphism",
    ),
    "extension p": (
        lambda d: _bump(d["extension"]["p"]["map"], 2, 2), "groups.NotAHomomorphism"
    ),
    "action row at a non-generator": (_swap_at_non_generator, "groups.NotAnAction"),
    # y is read after the certificate's witness inclusion, so a memo that
    # treated the two copies as one would skip the check of y's copy
    "bumped copy of y in w_inclusion": (
        _one_copy("w_inclusion", lambda p: _bump(p["points_action"][1], 2, 6)),
        "equivariant.EquivariantError",
    ),
    "bumped y beside w_inclusion": (
        _one_copy("y", lambda p: _bump(p["points_action"][1], 2, 6)),
        "equivariant.EquivariantError",
    ),
    "true in the copy of y in w_inclusion": (
        _one_copy("w_inclusion", _true_for_a_one), "formats.ParseError"
    ),
    "true in y beside w_inclusion": (_one_copy("y", _true_for_a_one), "formats.ParseError"),
    "float entry": (_retype(1.9), "formats.ParseError"),
    "string entry": (_retype("1"), "formats.ParseError"),
    "bool entry": (_retype(True), "formats.ParseError"),
    "group reference true": (_group_ref(True), "formats.ParseError"),
    "group reference 0.0": (_group_ref(0.0), "formats.ParseError"),
    "group reference string": (_group_ref("0"), "formats.ParseError"),
    "float map": (
        lambda d: d["input"]["theta"].update(map=[float(v) for v in d["input"]["theta"]["map"]]),
        "formats.ParseError",
    ),
}


@pytest.fixture(scope="module")
def default_mode_runs(tmp_path_factory):
    """One fresh interpreter with BITORSOR_CHECK unset verifies the intact
    certificate and every tampered copy, then validates a non-associative
    group file."""
    work = tmp_path_factory.mktemp("boundary")
    ext = work / "tame.ext"
    ext.write_text(S3_EXTENSION)
    cert = work / "cert.json"
    argv = ["decompose", "--extension", str(ext), "--group", "symmetric:3", "--class", "2"]
    doc = _emit_json(argv + ["--format", "json"])
    assert doc["decomposition"]["certificate"]["w_inclusion"]["dst"] == doc["decomposition"]["y"]
    cert.write_text(json.dumps(doc))
    commands = [("verify", "--certificate", str(cert))]
    for kind, (edit, _) in TAMPERS.items():
        bad = copy.deepcopy(doc)
        edit(bad)
        path = work / f"{kind.replace(' ', '_')}.json"
        path.write_text(json.dumps(bad))
        commands.append(("verify", "--certificate", str(path)))
    loop = work / "loop6.grp"
    loop.write_text(
        "group L order 6\n" + "".join(" ".join(map(str, r)) + "\n" for r in LOOP6)
        + "generators 1 2\n"
    )
    commands.append(("validate-group", "--group", str(loop)))
    full_check, runs = cli_in_fresh_process(commands, check=None)
    assert not full_check
    return dict(zip(["intact", *TAMPERS, "non-associative"], runs))


def _emit_json(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def test_intact_certificate_verifies(default_mode_runs):
    assert default_mode_runs["intact"] == (0, "all checks passed\n", "")


@pytest.mark.parametrize("kind", list(TAMPERS))
def test_reader_rejects_a_single_entry_tamper(default_mode_runs, kind):
    code, out, err = default_mode_runs[kind]
    assert code == 2 and out == ""
    assert err.startswith(TAMPERS[kind][1] + ": ")


def test_non_associative_group_file_rejected(default_mode_runs):
    code, out, err = default_mode_runs["non-associative"]
    assert code == 2 and out == ""
    assert err.startswith("groups.NotAssociative: first violating triple")


# Each checked constructor given a bool, then a float, where an int belongs:
# (the call with the entry as {v}, the layer's error, the entry named).
NOT_INTS = {
    "FiniteGroup": ("G.FiniteGroup(c2.mul, ({v},), 'X')", "groups.GeneratorsDoNotGenerate", "generators[0]"),
    "GroupHom": ("G.GroupHom(c2, c2, (0, {v}))", "groups.NotAHomomorphism", "map[1]"),
    "Subgroup": ("G.Subgroup(c2, (0, {v}))", "groups.NotASubgroup", "members[1]"),
    "Bitorsor": (
        "B.Bitorsor.from_tables(c2, c2, ((0, 1), ({v}, 0)), c2.mul)", "bitorsors.InvalidBitorsor", "left action entry (1,0)"
    ),
    "BitorsorMorphism": ("B.BitorsorMorphism(t, t, i, (0, {v}), i)", "bitorsors.InvalidMorphism", "point_map[1]"),
    "PiGroup": ("E.PiGroup(c2, c2, ((0, 1), (0, {v})))", "equivariant.EquivariantError", "action entry (1,1)"),
    "PiBitorsor": (
        "E.PiBitorsor.from_tables(k, k, t, ((0, 1), ({v}, 0)))", "equivariant.EquivariantError", "point action entry (1,0)"
    ),
}

_CONSTRUCT = """
import json, sys
from bitorsor_kit import bitorsors as B, equivariant as E, errors, groups as G
c2 = G.cyclic(2)
t, i, k = B.trivial_bitorsor(c2), G.identity_hom(c2), E.constant_pi_group(c2, c2)
out = {}
for name, call in json.load(sys.stdin).items():
    for v in ("True", "1.0"):
        try:
            eval(call.format(v=v))
            out[name + " " + v] = "accepted"
        except Exception as exc:
            module = type(exc).__module__.removeprefix("bitorsor_kit.")
            out[name + " " + v] = f"{module}.{type(exc).__name__}: {exc}"
json.dump({"full_check": errors.FULL_CHECK, "out": out}, sys.stdout)
"""


@pytest.fixture(scope="module")
def not_int_constructions():
    """Every NOT_INTS call, in one fresh interpreter with BITORSOR_CHECK
    unset: the checked constructors check whatever the mode."""
    env = {k: v for k, v in os.environ.items() if k != "BITORSOR_CHECK"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _CONSTRUCT], input=json.dumps({n: c for n, (c, _, _) in NOT_INTS.items()}),
        capture_output=True, text=True, env=env, check=True,
    )
    doc = json.loads(proc.stdout)
    assert not doc["full_check"]
    return doc["out"]


@pytest.mark.parametrize("name", list(NOT_INTS))
def test_a_checked_constructor_takes_only_ints(not_int_constructions, name):
    """A bool would pass for 1 and be written true, which the certificate
    reader refuses; a float would reach an index as a bare TypeError."""
    _, error, entry = NOT_INTS[name]
    for v in ("True", "1.0"):
        assert not_int_constructions[f"{name} {v}"] == f"{error}: {entry} = {v} is not an int"
