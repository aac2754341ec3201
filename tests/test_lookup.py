"""Classes and witnesses by construction: classify's lookup of theta carried
back through point 0, trivial_class_index's lookup, the identity witness
of a connected decomposition, pi_isomorphism's lookup of the conjugators of
both thetas, and the closure witnesses built from it return exactly what
the isomorphism scans and searches in reference_checks return."""

from __future__ import annotations

import pytest

import reference_checks as ref
from bitorsor_kit import bitorsors as B
from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import groups as G
from bitorsor_kit import local_model as L
from bitorsor_kit import rclass as R
from bitorsor_kit.errors import DomainError

from conftest import scrambled_trivial
from test_acceptance import _acceptance_extensions, _criterion_7_registries
from test_construction import _twisted
from test_rclass import all_members, registry, trivial_members
from test_search import RELABELLED, UNIVERSE, _record_transports

SMALL = (G.cyclic(2), G.cyclic(3), G.cyclic(4), G.cyclic(6), G.symmetric(3), G.dihedral(4))
S4_LADDER = ((3, 4, 2), (2, 3, 2), (2, 7, 3), (5, 4, 1), (2, 5, 4))


def assert_classified_as_scan(t: E.ThetaBitorsor) -> int:
    classes = E.h1(t.pi, t.bitorsor.right_group)
    got = E.classify(t)
    assert got == ref.classify(t, classes)
    return got


def test_classify_matches_scan_on_every_representative():
    """Every representative of h1 over the small groups of the unit tests,
    under C1-C4, C6 and S3 and under the symmetry group of each acceptance
    extension, classifies to itself, and the trivial class is found."""
    pis = [G.cyclic(n) for n in (1, 2, 3, 4, 6)] + [G.symmetric(3)]
    pis += list({e.pi_big: None for e in _acceptance_extensions()})
    pairs = 0
    for pi in pis:
        for g in SMALL + tuple(RELABELLED[:2]):
            for i, rep in enumerate(E.h1(pi, g)):
                assert assert_classified_as_scan(rep) == i
            assert E.trivial_class_index(pi, g) == ref.trivial_class_index(pi, g)
            pairs += 1
    assert pairs > 50


def test_classify_matches_scan_on_scrambled_and_twisted_carriers(rng):
    """Scrambled and twisted carriers over every group of test_search, the
    relabelled ones (identity not 0) included, under the identity and every
    theta from C2, C3 and C4.  The twist moves point 0's transport off the
    identity; under the identity of C5, C7 or C9 it also moves the class
    where the transport is applied the wrong way round."""
    pis = [G.cyclic(n) for n in (2, 3, 4)]
    checked = moved = 0
    for g in UNIVERSE + RELABELLED:
        thetas = [G.identity_hom(g)] + [th for pi in pis for th in G.enumerate_homs(pi, g)]
        for b in (scrambled_trivial(g, rng), _twisted(g, rng)):
            moved += B.point_conjugation(b, 0).map != tuple(g.elements)
            for theta in thetas:
                assert_classified_as_scan(E.ThetaBitorsor(b, theta))
                checked += 1
    assert checked > 500 and moved > 20


def test_classify_matches_scan_on_calculus_outputs(z2, z3, z4, s3):
    """The glued, inverted, pushed and collapsed carriers of test_equivariant,
    over every pair of classes."""
    proj = G.GroupHom(z4, z2, (0, 1, 0, 1))
    for pi, g in ((z4, z4), (z3, z3), (z4, z2), (z2, s3), (z4, s3)):
        for a in E.h1(pi, g):
            pa = E.from_theta(a)
            inv = E.inverse_pi(pa)
            if inv.right_constant:
                assert_classified_as_scan(E.to_theta(inv))
            for b in E.h1(pi, g):
                pb = E.from_theta(b)
                if pb.left == pb.right:
                    assert_classified_as_scan(E.to_theta(E.compose_pi(pa, pb)))
    for a in E.h1(z4, z4):
        pa = E.from_theta(a)
        pushed, _ = E.pushforward_pi(pa, proj, E.constant_pi_group(z4, z2))
        assert_classified_as_scan(E.to_theta(pushed))
        _, collapse = G.quotient(z4, G.subgroup(z4, [0, 2]))
        q, _ = E.pushforward_pi(pa, collapse, E.constant_pi_group(z4, collapse.dst))
        assert_classified_as_scan(E.to_theta(q))


def _connected_decompositions(monkeypatch, work) -> list:
    """(connected carrier, decomposition) for every connected input `work`
    decomposes, and for the component of point 0 of every disconnected one,
    which decompose only factors: its decomposition by _decompose_connected,
    as _record_transports builds it."""
    calls = []
    lib = D._decompose_connected

    def record(t, e):
        d = lib(t, e)
        calls.append((t, d))
        return d

    monkeypatch.setattr(D, "_decompose_connected", record)
    transports = _record_transports(monkeypatch, work)
    return calls + [(E.to_theta(m.src), inner) for m, inner, _ in transports]


def assert_witnesses_match_search(calls) -> None:
    for t, d in calls:
        x = E.from_theta(t)
        assert d.witness_iso == ref.pi_isomorphism(E.compose_pi(d.y, d.z), x, fix_right=True)
        assert d.witness_iso.src == d.witness_iso.dst == x


def test_connected_witness_matches_search_on_criterion_6(monkeypatch, group_universe):
    def work():
        for e in _acceptance_extensions():
            for g in group_universe:
                for rep in E.h1(e.pi_big, g):
                    D.decompose(rep, e)

    calls = _connected_decompositions(monkeypatch, work)
    assert len(calls) > 100
    assert_witnesses_match_search(calls)


@pytest.mark.parametrize("params", S4_LADDER, ids=lambda v: "-".join(map(str, v)))
def test_connected_witness_matches_search_on_s4_survey(monkeypatch, params):
    calls = _connected_decompositions(
        monkeypatch, lambda: L.survey(L.TameParams(*params), G.symmetric(4))
    )
    assert calls
    assert_witnesses_match_search(calls)


def test_wedge_that_misses_the_input_is_refused(monkeypatch):
    """The identity witness is only built once y glued with z is the input
    itself; a gluing that returns anything else is an internal failure."""
    sd = G.semidirect_product(*G.cyclic_power_action(3, 2, 2))
    e = D.SplitExtension(
        sd.group, G.kernel(sd.projection), sd.projection.dst, sd.projection, sd.section
    )
    s3 = G.symmetric(3)
    t = E.ThetaBitorsor(B.trivial_bitorsor(s3), G.isomorphisms_between(e.pi_big, s3)[0])
    lib = E.compose_pi
    glued = []

    def glue_then_drop_z(p1, p2):
        """Glue y honestly, then hand y back as the wedge of y and z."""
        glued.append(p1)
        return lib(p1, p2) if len(glued) == 1 else p1

    monkeypatch.setattr(E, "compose_pi", glue_then_drop_z)
    with pytest.raises(D.DevissageError, match="failed to reproduce the input"):
        D.decompose(t, e)
    assert len(glued) == 2


def _theta_carriers(rnd):
    """For each group of test_search, the relabelled ones included, and each
    pi of C2, C4 and S3: its scrambled and twisted carriers under every
    theta."""
    for g in UNIVERSE + RELABELLED:
        carriers = (scrambled_trivial(g, rnd), _twisted(g, rnd))
        for pi in (G.cyclic(2), G.cyclic(4), G.symmetric(3)):
            yield [
                E.from_theta(E.ThetaBitorsor(b, theta))
                for b in carriers
                for theta in G.enumerate_homs(pi, b.left_group)
            ]


def test_pi_isomorphism_matches_search_on_test_carriers(rng):
    """Each theta-carrier against every other over the same group and pi, or
    against about eight evenly spaced ones where there are more, gets the
    first isomorphism of the search over every point, or None."""
    pairs = found = moved = 0
    for carriers in _theta_carriers(rng):
        for p1 in carriers:
            for p2 in carriers[:: 1 + len(carriers) // 8]:
                got = E.pi_isomorphism(p1, p2)
                assert got == ref.pi_isomorphism(p1, p2, fix_right=True)
                found += got is not None
                moved += got is not None and got(0) != 0
                pairs += 1
    assert found > 1000 and pairs - found > 1000 and moved > 500


def test_pi_isomorphism_refuses_a_twisted_right_structure(s3):
    """The search accepted the identity of a carrier whose right structure
    pi twists; the lookup collapses both sides to theta first, and refuses."""
    p = E.inverse_pi(E.from_theta(E.h1(s3, s3)[1]))
    assert not p.right_constant
    assert ref.pi_isomorphism(p, p, fix_right=True) is not None
    with pytest.raises(E.RightGroupNotConstant):
        E.pi_isomorphism(p, p)


def _outcome(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return type(exc)


def _rclass_registries():
    """The registries of test_rclass."""
    z2, z3, z4, s3 = G.cyclic(2), G.cyclic(3), G.cyclic(4), G.symmetric(3)
    u = (z2, z4)
    base = trivial_members(z4, u)
    return [
        registry(z4, (z2, z3), trivial_members(z4, (z2, z3))),
        registry(z4, u, all_members(z4, u)),
        registry(z4, (z4,), trivial_members(z4, (z4,)) | {(0, 1)}),
        registry(z4, (z4,), trivial_members(z4, (z4,)) | {(0, 2)}),
        registry(z4, (z4,), {(0, 0), (0, 2)}),
        registry(s3, (s3,), {(0, 0), (0, 2)}),
        *(registry(z4, u, base | extra) for extra in ({(1, 1)}, {(1, 2)})),
    ]


def test_closure_witnesses_match_search_on_registries(rng, z2, z4):
    """in_closure and requiv_related on test_rclass's registries and
    criterion 7's, for every theta over each group of the universe on a
    scrambled carrier, against the copies that searched every point and
    glued the chain again in the checked Factorization."""
    built = 0
    for r in _rclass_registries() + _criterion_7_registries(z2, z4):
        for g in r.universe:
            b = scrambled_trivial(g, rng)
            ts = [E.ThetaBitorsor(b, theta) for theta in G.enumerate_homs(r.pi, g)]
            for t in ts:
                for n in (1, 3):
                    got = _outcome(R.in_closure, t, r, n)
                    assert got == _outcome(ref.in_closure, t, r, n)
                    built += isinstance(got, R.Factorization)
                for y in ts:
                    got = _outcome(R.requiv_related, t, y, r, 3)
                    assert got == _outcome(ref.requiv_related, t, y, r, 3)
                    built += isinstance(got, tuple)
    assert built > 200


def test_requiv_related_refuses_a_non_central_theta_before_gluing(monkeypatch, rng):
    """Over the S3 registry of test_rclass, every x whose theta has a
    non-central image raises RightGroupNotConstant, naming the
    precondition, before any carrier is glued; every other x glues."""
    r = _rclass_registries()[5]
    s3 = r.universe[0]
    glued = []
    lib = E.compose_pi

    def record(p1, p2):
        glued.append((p1, p2))
        return lib(p1, p2)

    monkeypatch.setattr(E, "compose_pi", record)
    b = scrambled_trivial(s3, rng)
    ts = [E.ThetaBitorsor(b, theta) for theta in G.enumerate_homs(r.pi, s3)]
    refused = 0
    for x in ts:
        central = R._has_central_image(x.theta)
        for y in ts:
            glued.clear()
            if central:
                R.requiv_related(x, y, r, 3)
                assert glued
                continue
            with pytest.raises(E.RightGroupNotConstant, match="central image"):
                R.requiv_related(x, y, r, 3)
            assert glued == []
            refused += 1
    assert refused > 0 and any(R._has_central_image(x.theta) for x in ts)

