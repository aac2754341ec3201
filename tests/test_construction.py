"""Values built by construction: every torsor completion, every contracted
product, pushforward and gluing map built in base-point coordinates, every
Pi-action on a pushed group, every isomorphism built at a base point and
every wedge rewrite with forced right-hom pools returns exactly what the
closing, orbit-sorting, conjugating, filtering and unforced references in
reference_checks return, group labels and generators included."""

from __future__ import annotations

import random
from collections import Counter

import pytest

import reference_checks as ref
from bitorsor_kit import bitorsors as B
from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import groups as G
from bitorsor_kit import local_model as L

from conftest import plain_rewrite, scrambled_trivial
from test_restrict import assert_same, labels
from test_acceptance import _acceptance_extensions
from test_search import (
    RELABELLED, UNIVERSE, _pi_wedge_cases, _plain_wedge_cases, _record_wedge_calls,
)


def _ref_wedge_of_morphisms(m1, m2, src_wedge, dst_wedge):
    """The reference gluing map, given the pair indexes it reads."""
    src_index = ref.contracted_product(m1.src, m2.src)[1]
    dst_index = ref.contracted_product(m1.dst, m2.dst)[1]
    return ref.wedge_of_morphisms(m1, m2, src_index, dst_index, src_wedge, dst_wedge)


# (module, library function, reference) for every construction this file
# checks; the references call back into the library for everything else.
CHECKED = (
    (B, "_complete_right", lambda g, ra: ref.from_right_torsor(len(ra), g, ra)),
    (B, "_complete_left", lambda g, la: ref._from_left_torsor(len(la[0]), g, la)),
    (E, "pushforward_pi", ref.pushforward_pi),
    (E, "pushforward_left_pi", ref.pushforward_left_pi),
    (B, "pushforward", ref.pushforward),
    (B, "pushforward_left", ref.pushforward_left),
    (B, "contracted_product", lambda b1, b2: ref.contracted_product(b1, b2)[0]),
    (E, "compose_pi", lambda p1, p2: ref.contracted_product_pi(p1, p2)[0]),
    (B, "wedge_of_morphisms", _ref_wedge_of_morphisms),
    (B, "isom_canonical_iso", ref.isom_canonical_iso),
    (E, "pi_factor_through_pushforwards", ref.unforced_pi_factor_through_pushforwards),
)


@pytest.fixture
def checked(monkeypatch):
    """Route each CHECKED function through a comparison with its reference
    (value and labels; group equality compares generators), once per
    distinct argument list, labels included.  Yields the number of
    comparisons made per function."""
    counts: Counter = Counter()

    def wrap(module, name, reference):
        lib = getattr(module, name)
        seen = set()

        def check(*args):
            out = lib(*args)
            key = (args, tuple(labels(args)))
            if key not in seen:
                seen.add(key)
                assert_same(out, reference(*args))
                counts[name] += 1
            return out

        monkeypatch.setattr(module, name, check)

    for module, name, reference in CHECKED:
        wrap(module, name, reference)
    yield counts


def assert_completions_match(b: B.Bitorsor) -> None:
    """Complete each side of b alone, with the library and the reference.
    Group equality compares generators too; the completed group's are
    compared once more by name, since generating_set picks them from the
    numbering."""
    args = (b.size, b.right_group, b.right_act)
    got, want = B.from_right_torsor(*args), ref.from_right_torsor(*args)
    assert_same(got, want)
    assert got.left_group.generators == want.left_group.generators
    got = B._complete_left(b.left_group, b.left_act)
    want = ref._from_left_torsor(b.size, b.left_group, b.left_act)
    assert_same(got, want)
    assert got.right_group.generators == want.right_group.generators


def _twisted(g: G.FiniteGroup, rnd: random.Random) -> B.Bitorsor:
    autos = list(G.iter_isomorphisms(g, g))
    return scrambled_trivial(g, rnd, autos[len(autos) // 2])


def test_completions_match_reference_on_test_carriers(rng):
    """Scrambled and twisted carriers over every group of test_search, the
    relabelled ones (identity not 0) included, and every carrier of its
    wedge cases and of their factorizations."""
    carriers = []
    for g in UNIVERSE + RELABELLED:
        carriers += [B.trivial_bitorsor(g), scrambled_trivial(g, rng), _twisted(g, rng)]
    for m, b1, b2 in _plain_wedge_cases(rng):
        fac = plain_rewrite(m, b1, b2)
        carriers += [b1, b2, m.src, m.dst, fac.wedge]
        carriers += [fac.left_canonical.dst, fac.right_canonical.dst]
    for m, p1, p2 in _pi_wedge_cases():
        fac = E.pi_factor_through_pushforwards(m, p1, p2)
        carriers += [p.bitorsor for p in (p1, p2, m.src, m.dst, fac.wedge)]
    assert any(b.right_group.identity != 0 for b in carriers)
    for b in carriers:
        assert_completions_match(b)


def test_point_zero_decides_transport_and_connectivity(rng):
    """What corresponding_normal_subgroup and is_connected no longer check
    over every point, on scrambled and twisted carriers over every group of
    test_search, the relabelled ones included: every point transports each
    normal subgroup to the same normal subgroup, and under every theta from
    C2, C3, C4 or the identity, every point's Pi-orbit has the size of the
    orbit of 0, and the component of point 0 embeds injectively."""
    pis = [G.cyclic(n) for n in (2, 3, 4)]
    for g in UNIVERSE + RELABELLED:
        normal = [h for h in G.all_subgroups(g) if h.is_normal]
        thetas = [G.identity_hom(g)] + [th for pi in pis for th in G.enumerate_homs(pi, g)]
        for b in (scrambled_trivial(g, rng), _twisted(g, rng)):
            for h in normal:
                hp = B.corresponding_normal_subgroup(b, h)
                assert hp.is_normal
                for x in b.points:
                    conj = B.point_conjugation(b, x)
                    assert G.subgroup(b.left_group, (conj.map[a] for a in h.members)) == hp
            for theta in thetas:
                t = E.ThetaBitorsor(b, theta)
                pa = E.from_theta(t).pi_action_on_points
                sizes = {len({row[x] for row in pa}) for x in b.points}
                assert sizes == {len({row[0] for row in pa})}
                assert E.is_connected(t) == (sizes == {b.size})
                assert E.connected_component(t)[1].is_injective()


def test_pushforwards_match_reference_on_relabelled_groups(checked, rng):
    """Plain and Pi pushforwards on both sides, from carriers over groups
    whose identity is not 0 into such groups, under a nontrivial theta."""
    c2 = G.cyclic(2)
    for g in RELABELLED:
        theta = next(h for h in G.enumerate_homs(c2, g) if h.map != (g.identity,) * 2)
        p = E.from_theta(E.ThetaBitorsor(_twisted(g, rng), theta))
        for target in RELABELLED:
            homs = G.enumerate_homs(g, target)
            for f in homs[:: max(1, len(homs) // 4)]:
                B.pushforward(p.bitorsor, f)
                B.pushforward_left(p.bitorsor, f)
                twisted = E.conjugation_pi_group(G.compose_homs(f, theta))
                E.pushforward_pi(p, f, E.constant_pi_group(c2, target))
                E.pushforward_left_pi(p, f, twisted)
                E.pushforward_pi(E.inverse_pi(p), f, twisted)
    assert min(checked[name] for _, name, _ in CHECKED[:6]) > 5


def test_gluing_matches_reference_on_relabelled_groups(checked, rng):
    """Plain and Pi contracted products, each way round, the Isom
    identification, and a glued pair of morphisms whose first moves point 0,
    on twisted and scrambled carriers over groups whose identity is not 0,
    under a nontrivial theta."""
    c2 = G.cyclic(2)
    for g in RELABELLED:
        theta = next(h for h in G.enumerate_homs(c2, g) if h.map != (g.identity,) * 2)
        p = E.from_theta(E.ThetaBitorsor(_twisted(g, rng), theta))
        q = E.from_theta(E.ThetaBitorsor(scrambled_trivial(g, rng), theta))
        E.compose_pi(p, E.inverse_pi(q))
        E.compose_pi(E.inverse_pi(q), p)
        B.contracted_product(q.bitorsor, p.bitorsor)
        B.isom_canonical_iso(p.bitorsor, q.bitorsor)
        B.isom_canonical_iso(q.bitorsor, p.bitorsor)
        b, qi = p.bitorsor, B.inverse(q.bitorsor)
        m1 = B.base_point_iso(b, 0, b, 1, G.identity_hom(g))
        wedge = B.contracted_product(b, qi)
        B.wedge_of_morphisms(m1, B.identity_morphism(qi), wedge, wedge)
    names = ("compose_pi", "isom_canonical_iso", "wedge_of_morphisms")
    assert min(checked[name] for name in names) > 5


def test_wedge_rewrites_match_unforced_search(checked, rng):
    """The wedge cases of test_search, and every class over S3 and D4 along
    C3 x| C2 for each section: several right isomorphisms pass there."""
    for m, b1, b2 in _plain_wedge_cases(rng):
        got = plain_rewrite(m, b1, b2)
        assert_same(got, ref.unforced_factor_through_pushforwards(m, b1, b2))
    for m, p1, p2 in _pi_wedge_cases():
        E.pi_factor_through_pushforwards(m, p1, p2)
    sd = G.semidirect_product(*G.cyclic_power_action(3, 2, 2))
    for s in G.sections_of(sd.projection):
        e = D.SplitExtension(sd.group, G.kernel(sd.projection), sd.projection.dst,
                             sd.projection, s)
        for g in (G.symmetric(3), G.dihedral(4)):
            for t in E.h1(e.pi_big, g):
                D.decompose(t, e)
    assert checked["pi_factor_through_pushforwards"] > 5


def _survey_inner_rewrites(monkeypatch, work) -> list:
    """The plain rewrite of every Pi rewrite that `work` makes."""
    calls = []
    lib = E.pi_factor_through_pushforwards

    def record(m, p1, p2):
        calls.append((m.inner, p1.bitorsor, p2.bitorsor))
        return lib(m, p1, p2)

    with monkeypatch.context() as mp:
        mp.setattr(E, "pi_factor_through_pushforwards", record)
        work()
    return calls


# The S4 surveys of the survey ladder and the S5 (2,3,2) survey.
SURVEYS = pytest.mark.parametrize(
    "params, group",
    [
        ((3, 4, 2), G.symmetric(4)),
        ((2, 3, 2), G.symmetric(4)),
        ((2, 7, 3), G.symmetric(4)),
        ((5, 4, 1), G.symmetric(4)),
        ((2, 5, 4), G.symmetric(4)),
        ((2, 3, 2), G.symmetric(5)),
    ],
    ids=lambda v: getattr(v, "label", None) or "-".join(map(str, v)),
)


@SURVEYS
def test_survey_classes_match_reference(checked, monkeypatch, params, group):
    """Every class of the S4 surveys of the survey ladder and of the S5
    (2,3,2) survey: each completion, pushed Pi-action and rewrite, plain
    and Pi, as its reference builds it."""
    report = []
    inner = _survey_inner_rewrites(
        monkeypatch, lambda: report.append(L.survey(L.TameParams(*params), group))
    )
    assert all(r.verified for r in report[0].rows)
    assert checked["_complete_right"] > 0
    assert inner and len(inner) == sum(not r.connected for r in report[0].rows)
    for m, b1, b2 in inner:
        got = plain_rewrite(m, b1, b2)
        assert_same(got, ref.unforced_factor_through_pushforwards(m, b1, b2))


def test_forced_pools_drop_only_rejected_right_homs(monkeypatch, rng):
    """Every right isomorphism over the pools of rho_pools passes
    rho o glued.phi_right = m.phi_right, the ones that pass are the unforced
    search's, in its order, and the pools cut the search in some rewrite."""
    seen = []
    lib = B.rho_pools

    def record(glued, m):
        seen.append((glued, m))
        return lib(glued, m)

    monkeypatch.setattr(B, "rho_pools", record)
    for m, b1, b2 in _plain_wedge_cases(rng):
        plain_rewrite(m, b1, b2)
    for m, p1, p2 in _pi_wedge_cases():
        E.pi_factor_through_pushforwards(m, p1, p2)
    assert seen
    cut = 0
    for glued, m in seen:
        a, b = glued.dst.right_group, m.dst.right_group

        def passing(homs):
            return [r.map for r in homs if G.compose_homs(r, glued.phi_right) == m.phi_right]

        unforced = list(G.iter_isomorphisms(a, b))
        forced = list(G.iter_isomorphisms(a, b, lib(glued, m)))
        assert passing(forced) == [r.map for r in forced] == passing(unforced) != []
        cut += len(forced) < len(unforced)
    assert cut > 0


def test_isomorphisms_match_reference_on_test_carriers(rng):
    """are_isomorphic is the first hit of the checked search over the
    identity right hom, on scrambled and twisted carriers over every group of
    test_search, the relabelled ones included, and None between different
    right groups; so is the trivialization through each point."""
    found = 0
    previous = B.trivial_bitorsor(G.cyclic(2))
    for g in UNIVERSE + RELABELLED:
        carriers = (scrambled_trivial(g, rng), _twisted(g, rng))
        for b1 in carriers:
            for b2 in carriers + (previous,):
                got = B.are_isomorphic(b1, b2)
                assert got == ref.are_isomorphic(b1, b2)
                found += got is not None
            for x in b1.points:
                assert B.trivialize(b1, x) == ref.trivialize(b1, x)
        previous = carriers[1]
    assert found == 4 * len(UNIVERSE + RELABELLED)


def _assert_rewrites_complete_as_reference(monkeypatch, work) -> None:
    """The isomorphism of each wedge rewrite `work` makes is the first
    completion that the checked search keeps over the forced pools."""
    calls = _record_wedge_calls(monkeypatch, work)
    assert calls
    for m, _, _, fac in calls:
        glued = B.wedge_of_morphisms(
            fac.left_canonical.inner, fac.right_canonical.inner, m.src.bitorsor, fac.wedge.bitorsor
        )
        pools = B.rho_pools(glued, m.inner)
        right_isos = E.pi_equivariant_isos(fac.wedge.right, m.dst.right, pools)
        completions = ref.wedge_completions(glued, m.inner, right_isos)
        assert fac.iso == ref._first_pi_morphism(fac.wedge, m.dst, completions)


def test_rewrites_complete_as_reference_on_criterion_6(monkeypatch, group_universe):
    def work():
        for e in _acceptance_extensions():
            for g in group_universe:
                for rep in E.h1(e.pi_big, g):
                    D.decompose(rep, e)

    _assert_rewrites_complete_as_reference(monkeypatch, work)


@SURVEYS
def test_rewrites_complete_as_reference_on_surveys(monkeypatch, params, group):
    _assert_rewrites_complete_as_reference(
        monkeypatch, lambda: L.survey(L.TameParams(*params), group)
    )
