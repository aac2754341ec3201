"""Shared fixtures: the small-group universe and brute-force oracles."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from bitorsor_kit import groups as G


@pytest.fixture(scope="session")
def z2():
    return G.cyclic(2)


@pytest.fixture(scope="session")
def z3():
    return G.cyclic(3)


@pytest.fixture(scope="session")
def z4():
    return G.cyclic(4)


@pytest.fixture(scope="session")
def z6():
    return G.cyclic(6)


@pytest.fixture(scope="session")
def s3():
    return G.symmetric(3)


@pytest.fixture(scope="session")
def d4():
    return G.dihedral(4)


@pytest.fixture(scope="session")
def group_universe(z2, z3, z4, z6, s3, d4):
    return (z2, z3, z4, z6, s3, d4)


def brute_force_hom_maps(src: G.FiniteGroup, dst: G.FiniteGroup) -> set[tuple[int, ...]]:
    """Scan the full function space; only usable for tiny signatures."""
    assert dst.order ** src.order <= 300_000, "oracle restricted to tiny cases"
    out = set()
    for m in itertools.product(range(dst.order), repeat=src.order):
        if m[src.identity] != dst.identity:
            continue
        if all(
            m[src.mul[a][b]] == dst.mul[m[a]][m[b]]
            for a in src.elements
            for b in src.elements
        ):
            out.add(m)
    return out


@pytest.fixture
def hom_oracle():
    return brute_force_hom_maps


RNG_SEED = 20260814


@pytest.fixture
def rng():
    return random.Random(RNG_SEED)


@pytest.fixture(scope="session")
def sweep_decompositions():
    """test_restrict's sweep of carriers, decomposed once per session for
    the tests of test_restrict and test_construction that check it."""
    from test_restrict import decompose_the_sweep

    return decompose_the_sweep()


def scrambled_trivial(
    g: G.FiniteGroup, rnd: random.Random, twist: G.GroupHom | None = None
):
    """A carrier with both structure groups equal to g: points are a shuffled
    copy of the group, optionally with the left action twisted by an
    automorphism."""
    from bitorsor_kit import bitorsors as B

    sigma = list(g.elements)
    rnd.shuffle(sigma)
    inv_sigma = [0] * g.order
    for i, v in enumerate(sigma):
        inv_sigma[v] = i
    alpha = twist.map if twist is not None else tuple(g.elements)
    left = tuple(
        tuple(inv_sigma[g.mul[alpha[gp]][sigma[x]]] for x in g.elements)
        for gp in g.elements
    )
    right = tuple(
        tuple(inv_sigma[g.mul[sigma[x]][h]] for h in g.elements) for x in g.elements
    )
    return B.Bitorsor.from_tables(g, g, left, right)


def replace(value, **changes):
    """A copy of a record with `changes` applied, built through its
    constructor (so validated) as dataclasses.replace builds one; a name
    that is not a field raises TypeError."""
    fields = {name: getattr(value, name) for name in value.__match_args__}
    return type(value)(**{**fields, **changes})


@pytest.fixture
def make_carrier():
    return scrambled_trivial


def over_c1(b):
    """A plain carrier as a PiBitorsor over the trivial group."""
    from bitorsor_kit import equivariant as E

    c1 = G.cyclic(1)
    left, right = E.constant_pi_group(c1, b.left_group), E.constant_pi_group(c1, b.right_group)
    return E.PiBitorsor.from_tables(left, right, b, (tuple(b.points),))


_CLI_RUNNER = """
import contextlib, io, json, sys
from bitorsor_kit import cli, errors
runs = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append((code, out.getvalue(), err.getvalue()))
json.dump({"full_check": errors.FULL_CHECK, "runs": runs}, sys.stdout)
"""


def cli_in_fresh_process(commands, check: str | None):
    """Run each argv through cli.main, in order, in one new interpreter whose
    BITORSOR_CHECK is `check` (None: unset).  Returns whether that process
    checked values built by formula, and (exit code, stdout, stderr) per
    command."""
    env = {k: v for k, v in os.environ.items() if k != "BITORSOR_CHECK"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if check is not None:
        env["BITORSOR_CHECK"] = check
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_RUNNER],
        input=json.dumps([list(argv) for argv in commands]),
        capture_output=True, text=True, env=env, check=True,
    )
    doc = json.loads(proc.stdout)
    return doc["full_check"], [tuple(run) for run in doc["runs"]]
