"""End-to-end acceptance battery: nine numbered criteria, each printing one
pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see them."""

from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

from bitorsor_kit import bitorsors as B
from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import groups as G
from bitorsor_kit import local_model as L
from bitorsor_kit import rclass as R
from bitorsor_kit.errors import DomainError

from conftest import scrambled_trivial


@contextmanager
def criterion(n: int, desc: str):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {n} ({elapsed:.2f}s): {desc}")


def carrier_pool(g: G.FiniteGroup, rnd: random.Random) -> list[B.Bitorsor]:
    """Trivial, shuffled, and automorphism-twisted carriers over g."""
    pool = [
        B.trivial_bitorsor(g),
        scrambled_trivial(g, rnd),
        scrambled_trivial(g, rnd),
    ]
    for twist in G.isomorphisms_between(g, g)[1:3]:
        pool.append(scrambled_trivial(g, rnd, twist=twist))
    return pool


def test_criterion_1_group_law_fuzzing(z6, s3):
    with criterion(1, "2000 single-entry corruptions all rejected"):
        start = time.perf_counter()
        rnd = random.Random(1)
        for g in (z6, s3):
            n = g.order
            for _ in range(1000):
                i, j = rnd.randrange(n), rnd.randrange(n)
                v = rnd.randrange(n - 1)
                if v >= g.mul[i][j]:
                    v += 1
                rows = [list(row) for row in g.mul]
                rows[i][j] = v
                with pytest.raises(DomainError):
                    G.make_group(tuple(tuple(r) for r in rows), g.generators)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_hom_and_h1_counts():
    with criterion(2, "|Hom(Z/n, Z/m)| = |H1(Z/n, Z/m)| = gcd(n, m) for n,m <= 12"):
        start = time.perf_counter()
        import math

        for n in range(1, 13):
            for m in range(1, 13):
                pi, g = G.cyclic(n), G.cyclic(m)
                want = math.gcd(n, m)
                assert len(G.enumerate_homs(pi, g)) == want
                assert len(E.h1(pi, g)) == want
        assert time.perf_counter() - start < 5.0


def test_criterion_3_composition_laws(group_universe):
    with criterion(3, "unit/inverse laws, 200 associativity triples, 50 Isom pairs"):
        start = time.perf_counter()
        rnd = random.Random(3)
        pools = {g: carrier_pool(g, rnd) for g in group_universe}
        for g, pool in pools.items():
            triv = B.trivial_bitorsor(g)
            for b in pool:
                assert B.are_isomorphic(B.contracted_product(b, triv), b) is not None
                assert B.are_isomorphic(B.contracted_product(triv, b), b) is not None
                unit = B.contracted_product(b, B.inverse(b))
                assert B.are_isomorphic(unit, B.trivial_bitorsor(g)) is not None
        groups = list(pools)
        for _ in range(200):
            g = rnd.choice(groups)
            a, b, c = (rnd.choice(pools[g]) for _ in range(3))
            left = B.contracted_product(B.contracted_product(a, b), c)
            right = B.contracted_product(a, B.contracted_product(b, c))
            assert B.are_isomorphic(left, right) is not None
        for _ in range(50):
            g = rnd.choice(groups)
            x, y = rnd.choice(pools[g]), rnd.choice(pools[g])
            iso = B.isom_canonical_iso(x, y)
            assert iso.is_isomorphism()
            assert iso.src == B.contracted_product(y, B.inverse(x))
            assert iso.dst == B.isom_bitorsor(x, y)
        assert time.perf_counter() - start < 60.0


def induction_fixtures(pis, universe, rnd: random.Random):
    """(theta-carrier, normal subgroup of its right group): every h1 class
    from each pi into each group, carried through point 0 of each carrier of
    carrier_pool, against every normal subgroup."""
    for g in universe:
        normal = [h for h in G.all_subgroups(g) if h.is_normal]
        for b in carrier_pool(g, rnd):
            conj = B.point_conjugation(b, 0)
            for pi in pis:
                for rep in E.h1(pi, g):
                    t = E.ThetaBitorsor(b, G.compose_homs(conj, rep.theta))
                    for h in normal:
                        yield t, h


def test_criterion_4_induction_conditions_agree(z2, z4, s3, group_universe):
    with criterion(4, "the four induced-torsor conditions agree on every fixture"):
        fixtures = induction_fixtures((z2, z4, s3), group_universe, random.Random(4))
        flags = [E.induced_conditions(t, h)[:4] for t, h in fixtures]
        assert set(flags) == {(False,) * 4, (True,) * 4}
        assert len(flags) > 300


def test_criterion_5_theta_roundtrip(z2, z4, z6, s3, group_universe):
    with criterion(5, "to_theta/from_theta round trips, 50 per symmetry group"):
        rnd = random.Random(5)
        for pi in (z2, z4, z6, s3):
            for _ in range(50):
                g = rnd.choice(group_universe)
                theta = rnd.choice(G.enumerate_homs(pi, g))
                t = E.ThetaBitorsor(scrambled_trivial(g, rnd), theta)
                p = E.from_theta(t)
                assert E.to_theta(p) == t
                back = E.from_theta(E.to_theta(p))
                assert E.pi_isomorphism(back, p) is not None


def _acceptance_extensions() -> list[D.SplitExtension]:
    shapes = ((3, 2, 2), (4, 2, 3), (3, 2, 1), (5, 4, 2), (7, 3, 2))
    out = []
    for n, m, k in shapes:
        n_grp, q_grp, acts = G.cyclic_power_action(n, m, k)
        sd = G.semidirect_product(n_grp, q_grp, acts)
        base = D.SplitExtension(
            sd.group, G.kernel(sd.projection), q_grp, sd.projection, sd.section
        )
        for s in G.sections_of(base.p):
            out.append(
                D.SplitExtension(base.pi_big, base.gamma, base.pi_small, base.p, s)
            )
    return out


def test_criterion_6_every_class_decomposes(group_universe):
    with criterion(6, "decompose+verify over five extensions, six groups, all sections"):
        start = time.perf_counter()
        ran = 0
        for e in _acceptance_extensions():
            for g in group_universe:
                for rep in E.h1(e.pi_big, g):
                    d = D.decompose(rep, e)
                    res = D.verify_decomposition(rep, d, e)
                    assert res.ok, res.diagnosis
                    ran += 1
        assert ran > 100
        assert time.perf_counter() - start < 300.0


def _criterion_7_registries(z2, z4) -> list[R.ElementaryClassRegistry]:
    """Every valid registry over C2 and C4 under C4."""
    universe = (z2, z4)
    slots = [(0, c) for c in range(len(E.h1(z4, z2)))] + [
        (1, c) for c in range(len(E.h1(z4, z4)))
    ]
    valid = []
    for take in itertools.product((False, True), repeat=len(slots)):
        members = frozenset(s for s, keep in zip(slots, take) if keep)
        r = R.ElementaryClassRegistry(z4, universe, members)
        if R.validate_registry(r):
            valid.append(r)
    return valid


def test_criterion_7_closure_matches_fixed_point(z2, z4):
    with criterion(7, "in_closure agrees with the fixed-point closure on all registries"):
        registries = _criterion_7_registries(z2, z4)
        for r in registries:
            fixed = R.fixed_point_closure(r)
            for ui, g in enumerate(r.universe):
                for ci, rep in enumerate(E.h1(z4, g)):
                    found = R.in_closure(rep, r, 8) is not None
                    assert found == ((ui, ci) in fixed)
        assert len(registries) >= 4


def test_criterion_8_local_surveys(z2, z4, s3):
    with criterion(8, "three tame surveys decompose fully with cyclic witnesses"):
        start = time.perf_counter()
        cases = (
            (L.TameParams(q=3, n=4, m=2), z2),
            (L.TameParams(q=2, n=3, m=2), s3),
            (L.TameParams(q=5, n=4, m=1), z4),
        )
        for params, g in cases:
            first = L.survey(params, g)
            assert all(row.verified for row in first.rows)
            again = json.dumps(L.survey(params, g).to_dict(), sort_keys=True)
            assert json.dumps(first.to_dict(), sort_keys=True) == again
            for _, d in L.survey_decompositions(params, g):
                assert d.certificate.w_witness.bitorsor.left_group.is_cyclic()
        assert time.perf_counter() - start < 30.0


def test_criterion_9_abelian_composition():
    with criterion(9, "wedge on classes realizes addition for cyclic groups"):
        for n in (2, 3, 4, 6):
            zn = G.cyclic(n)
            classes = E.h1(zn, zn)
            assert [c.theta.map[1 % n] for c in classes] == list(range(n))
            for a in range(n):
                for b in range(n):
                    glued = E.compose_pi(
                        E.from_theta(classes[a]), E.from_theta(classes[b])
                    )
                    got = E.classify(E.to_theta(glued))
                    assert got == (a + b) % n
