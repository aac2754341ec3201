"""One class invariant: h1's representatives, class_index_of_hom,
trivial_class_index and wedge_class_index all read a hom's canonical
conjugate, and return exactly what the orbit scan, the table of every
conjugate and the glued carrier in reference_checks return."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checks as ref
from bitorsor_kit import bitorsors as B
from bitorsor_kit import equivariant as E
from bitorsor_kit import groups as G
from bitorsor_kit import local_model as L
from bitorsor_kit import rclass as R

from test_acceptance import _acceptance_extensions
from test_lookup import S4_LADDER
from test_search import RELABELLED, UNIVERSE, relabel_off_zero


def sd(n: int, m: int, k: int) -> G.FiniteGroup:
    return G.semidirect_product(*G.cyclic_power_action(n, m, k)).group


# Symmetry groups: those of the unit tests, the acceptance extensions, the
# order-39 certificate and the S4 survey ladder, and the relabelled groups.
PIS = tuple({
    g: None for g in UNIVERSE + RELABELLED + [e.pi_big for e in _acceptance_extensions()]
    + [sd(13, 3, 3)] + [L.build_tame_quotient(L.TameParams(*p)).pi_big for p in S4_LADDER]
})
# Structure groups: those of the unit tests and the relabelled ones.
GROUPS = tuple(UNIVERSE + RELABELLED)


def _larger_pairs() -> tuple[tuple[G.FiniteGroup, G.FiniteGroup], ...]:
    """The three ceiling pairs, the larger pairs the other tests use, and
    relabelled copies of those the benchmark tests relabel."""
    rnd = random.Random(11)
    c2, c12, s3, s5 = G.cyclic(2), G.cyclic(12), G.symmetric(3), G.symmetric(5)
    d60, d100 = G.dihedral(60), G.dihedral(100)
    pairs = [(c2, d100), (d100, s5), (s5, d100), (c2, d60), (sd(3, 2, 2), s5)]
    for pi, g in ((c2, d60), (sd(13, 3, 3), s3), (sd(5, 4, 2), s3), (c12, c12)):
        pairs.append((relabel_off_zero(pi, rnd), relabel_off_zero(g, rnd)))
    return tuple(pairs)


LARGER = _larger_pairs()


def assert_classes_match_scan(pi: G.FiniteGroup, g: G.FiniteGroup) -> int:
    """Representatives, the index of every hom and the trivial class agree
    with the reference; returns the number of homs."""
    reps = E.h1_representatives(pi, g)
    assert [r.map for r in reps] == [r.map for r in ref.h1_representatives(pi, g)]
    table = ref._class_index_by_map(pi, g)
    homs = G.enumerate_homs(pi, g)
    for h in homs:
        assert E.class_index_of_hom(h) == table[h.map]
    assert E.trivial_class_index(pi, g) == table[(g.identity,) * pi.order]
    return len(homs)


def central_classes(pi: G.FiniteGroup, g: G.FiniteGroup) -> list[int]:
    return [i for i, r in enumerate(E.h1_representatives(pi, g)) if R._has_central_image(r)]


def assert_wedges_match_gluing(pi: G.FiniteGroup, g: G.FiniteGroup) -> int:
    """Every central pair, and the NotComposable of a non-central second
    factor; returns the number of central pairs."""
    n = len(E.h1_representatives(pi, g))
    central = central_classes(pi, g)
    for a in range(n):
        for b in central:
            assert R.wedge_class_index(pi, g, a, b) == ref.wedge_class_index(pi, g, a, b)
    for b in sorted(set(range(n)) - set(central)):
        with pytest.raises(B.NotComposable):
            R.wedge_class_index(pi, g, 0, b)
    return n * len(central)


@pytest.mark.parametrize("pi", PIS, ids=lambda g: f"{g.label}@{g.identity}")
def test_classes_match_orbit_scan(pi):
    homs = sum(assert_classes_match_scan(pi, g) for g in GROUPS)
    assert homs >= len(GROUPS)


@pytest.mark.parametrize("pi, g", LARGER, ids=lambda g: f"{g.label}@{g.identity}")
def test_larger_classes_match_orbit_scan(pi, g):
    assert assert_classes_match_scan(pi, g) >= 3


@pytest.mark.parametrize("pi", PIS, ids=lambda g: f"{g.label}@{g.identity}")
def test_wedge_classes_match_gluing(pi):
    assert sum(assert_wedges_match_gluing(pi, g) for g in GROUPS) >= len(GROUPS)


@pytest.mark.parametrize("pi, g", LARGER, ids=lambda g: f"{g.label}@{g.identity}")
def test_larger_wedge_classes_match_gluing(pi, g):
    assert assert_wedges_match_gluing(pi, g) >= 2


def _valid_powers(n: int, m: int) -> list[int]:
    return [k for k in range(1, n + 1) if math.gcd(k, n) == 1 and pow(k, m, n) == 1 % n]


@st.composite
def small_groups(draw) -> G.FiniteGroup:
    """C_n x| C_m with a power action, or a direct product of two cyclic
    groups, of order at most 24."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        m = draw(st.integers(1, 24 // n))
        k = draw(st.sampled_from(_valid_powers(n, m)))
        return G.semidirect_product(*G.cyclic_power_action(n, m, k)).group
    a = draw(st.integers(1, 6))
    b = draw(st.integers(1, 24 // a))
    return G.direct_product(G.cyclic(a), G.cyclic(b)).group


@settings(max_examples=40, deadline=None)
@given(pi=small_groups(), g=small_groups(), pick=st.integers(0, 10**6))
def test_canonical_conjugate_is_least_and_invariant(pi, g, pick):
    homs = G.enumerate_homs(pi, g)
    f = homs[pick % len(homs)]
    canon = G.canonical_conjugate(f)
    conjugates = [G.conjugate_hom(c, f) for c in g.elements]
    assert canon.map in {h.map for h in conjugates}
    for h in conjugates:
        assert canon.map <= h.map
        assert G.canonical_conjugate(h) == canon
