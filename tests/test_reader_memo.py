"""The certificate reader checks each distinct value once per process
(formats._checked): a second read checks nothing again, a tampered table
is rejected on every read, and each read keeps the labels of its own
document."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bitorsor_kit import bitorsors as B
from bitorsor_kit import cli
from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import formats as F
from bitorsor_kit import groups as G

from test_cli import run
from test_formats import s3_extension


@pytest.fixture(scope="module")
def doc():
    e = s3_extension()
    t = E.h1(e.pi_big, G.symmetric(3))[-1]
    return json.loads(json.dumps(F.decomposition_to_json(t, e, D.decompose(t, e))))


def _read(doc):
    return F.decomposition_from_json(copy.deepcopy(doc))


def test_a_second_read_checks_no_value_again(doc, monkeypatch):
    """Each distinct carrier table, Π-group and point action runs its
    validator once over two reads of one certificate."""
    calls = []

    def count(owner, name):
        check = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append((name, args)) or check(*args))

    count(B, "_check_tables")
    count(E, "_check_point_action")
    count(E.PiGroup, "__post_init__")
    F._checked.cache_clear()
    _read(doc)
    first = list(calls)
    assert len(set(first)) == len(first)
    assert {name for name, _ in first} == {"_check_tables", "_check_point_action", "__post_init__"}
    _read(doc)
    assert calls == first


def _swap(row, i, j):
    row[i], row[j] = row[j], row[i]


TAMPERED = {
    "left_act": (lambda y: _swap(y["bitorsor"]["left_act"][1], 0, 1),
                 G.NotAnAction, "left action breaks at (1,2,2)"),
    "right_act": (lambda y: _swap(y["bitorsor"]["right_act"][1], 0, 1),
                  G.NotAnAction, "right identity moves point 1"),
    "points_action": (lambda y: _swap(y["points_action"][1], 0, 1),
                      G.NotAnAction, "point action breaks at (1,2,3)"),
    "pi action row": (lambda y: _swap(y["left"]["action"][1], 1, 2),
                      G.NotAHomomorphism, "first violating pair (a,b)=(1,2)"),
}


@pytest.mark.parametrize("edit, error, message", TAMPERED.values(), ids=TAMPERED.keys())
def test_a_tampered_table_is_rejected_on_every_read(doc, edit, error, message):
    _read(doc)
    bad = copy.deepcopy(doc)
    edit(bad["decomposition"]["y"])
    for _ in range(2):
        with pytest.raises(error) as exc:
            _read(bad)
        assert type(exc.value) is error and str(exc.value) == message
    t, e, d = _read(doc)
    assert D.verify_decomposition(t, d, e).ok


def _pi_bitorsors():
    """The path to every Π-bitorsor of a decomposition, in its document and
    in the value read."""
    yield from (("y",), ("z",), ("certificate", "w_witness"))
    for m in (("witness_iso",), ("certificate", "w_inclusion")):
        yield m + ("src",)
        yield m + ("dst",)


def _at(obj, path):
    for step in path:
        obj = obj[step] if isinstance(obj, dict) else getattr(obj, step)
    return obj


def _labels(p):
    return tuple(g.label for g in (p.left.group, p.left.pi, p.right.group, p.right.pi,
                                   p.bitorsor.left_group, p.bitorsor.right_group))


def _doc_labels(doc, pd):
    label = [g["label"] for g in doc["groups"]]
    return tuple(label[i] for i in (pd["left"]["group"], pd["left"]["pi"], pd["right"]["group"],
                                    pd["right"]["pi"], pd["bitorsor"]["left_group"],
                                    pd["bitorsor"]["right_group"]))


def _with_own_right_pi(doc, label):
    """The document with every Π-bitorsor's right π a copy of π under
    `label`: equal to the left π by value, apart from it by label."""
    out = copy.deepcopy(doc)
    pi = out["decomposition"]["y"]["right"]["pi"]
    out["groups"].append(dict(out["groups"][pi], label=label))
    for path in _pi_bitorsors():
        _at(out["decomposition"], path)["right"]["pi"] = len(out["groups"]) - 1
    return out


def _relabelled(doc, old, new):
    out = copy.deepcopy(doc)
    (entry,) = [g for g in out["groups"] if g["label"] == old]
    entry["label"] = new
    return out


@pytest.mark.parametrize("relabel", [
    lambda doc, label: _relabelled(doc, "S3", label),
    lambda doc, label: _relabelled(doc, "C3:C2", label),
    _with_own_right_pi,
], ids=["coefficient group", "pi", "right pi alone"])
def test_each_read_keeps_its_own_labels(doc, relabel):
    """Equal tables under two labellings, read one after the other: every
    Π-bitorsor read carries the labels of its own document."""
    for label in ("A", "B"):
        labelled = relabel(doc, label)
        t, _, d = _read(labelled)
        assert (t.bitorsor.left_group.label, t.bitorsor.right_group.label) == tuple(
            labelled["groups"][labelled["input"]["bitorsor"][side]]["label"]
            for side in ("left_group", "right_group")
        )
        for path in _pi_bitorsors():
            assert _labels(_at(d, path)) == _doc_labels(labelled, _at(labelled["decomposition"], path))
        assert label in _labels(d.y)


def test_verify_dot_prints_the_labels_of_its_certificate(doc, tmp_path, capsys):
    """A dot graph after one of the same tables under another label is the
    one a fresh process prints."""
    paths = []
    for label in ("Alpha", "Beta"):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(_relabelled(doc, "S3", label)))
    argv = ["verify", "--format", "dot", "--certificate"]
    outs = [run(capsys, *argv, str(path)) for path in paths]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    fresh = subprocess.run(
        [sys.executable, "-m", "bitorsor_kit.cli", *argv, str(paths[1])],
        capture_output=True, text=True, env=env, check=True,
    )
    assert [code for code, _, _ in outs] == [0, 0] and outs[1][1] == fresh.stdout
    assert "left Beta, right Beta" in outs[1][1] and "Alpha" not in outs[1][1]
