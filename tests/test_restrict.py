"""The shared restriction (bitorsors.restrict, equivariant.restrict_pi) and
the merged orbit partition: every caller returns exactly what its former
hand-built copy in reference_checks returns, group labels included, on the
inputs of test_search."""

from __future__ import annotations

import dataclasses

import reference_checks as ref
from bitorsor_kit import bitorsors as B
from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import groups as G

from conftest import scrambled_trivial
from test_search import UNIVERSE, _pi_wedge_cases, _plain_wedge_cases


def labels(x) -> list[str]:
    """Every group label inside a value, in field order: value equality
    ignores labels, but labels reach the output."""
    if isinstance(x, G.FiniteGroup):
        return [x.label]
    if dataclasses.is_dataclass(x):
        return [s for f in dataclasses.fields(x) for s in labels(getattr(x, f.name))]
    if isinstance(x, tuple) and x and not isinstance(x[0], int):
        return [s for v in x for s in labels(v)]
    return []


def assert_same(got, want) -> None:
    assert got == want
    assert labels(got) == labels(want)


def test_orbit_partition_matches_reference(rng):
    """Both sides, every subgroup, normal or not, on scrambled carriers over
    S3, D4, D6, S4, C2xC2 and C2xC6 and on a twisted one over S3."""
    s3 = G.symmetric(3)
    twist = G.isomorphisms_between(s3, s3)[3]
    carriers = [scrambled_trivial(g, rng) for g in UNIVERSE[12:]]
    for b in carriers + [scrambled_trivial(s3, rng, twist)]:
        for h in G.all_subgroups(b.left_group):
            got = B.orbit_partition(b, h.members, left=True)
            assert got == ref._left_orbit_partition(b, h.members)
        for h in G.all_subgroups(b.right_group):
            got = B.orbit_partition(b, h.members, left=False)
            assert got == ref._right_orbit_partition(b, h.members)


def test_sub_bitorsor_and_induced_conditions_match_reference(rng):
    """Every class of every normal subgroup of scrambled carriers over S3,
    D4, D6, S4, C2xC2 and C2xC6."""
    checked = 0
    for g in UNIVERSE[12:]:
        b = scrambled_trivial(g, rng)
        for h in G.all_subgroups(g):
            if not h.is_normal:
                continue
            assert_same(B.induced_conditions(b, h), ref.induced_conditions(b, h))
            for cls in B.orbit_partition(b, h.members, left=False):
                assert_same(B.sub_bitorsor_on_class(b, h, cls), ref.sub_bitorsor_on_class(b, h, cls))
                checked += 1
    assert checked > 50


def test_plain_image_factorization_matches_reference(rng):
    for m, b1, b2 in _plain_wedge_cases(rng):
        fac = B.factor_through_pushforwards(m, b1, b2)
        for f in (m, fac.left_canonical, fac.right_canonical, fac.iso):
            assert_same(B.factor_morphism(f), ref.factor_morphism(f))


def test_pi_image_factorization_matches_reference():
    for m, p1, p2 in _pi_wedge_cases():
        fac = E.pi_factor_through_pushforwards(m, p1, p2)
        for f in (m, fac.left_canonical, fac.right_canonical, fac.iso):
            assert_same(E.factor_morphism_pi(f), ref.factor_morphism_pi(f))


def test_sweep_restrictions_match_reference(monkeypatch):
    """Every class over S3 and D4 along C3 x| C2, for each section: each
    component at each basepoint, each witness and image factorization that
    decompose builds, and the type-gamma search on the input and on both
    factors."""
    sd = G.semidirect_product(*G.cyclic_power_action(3, 2, 2))
    calls = {"pi_induced_witness": [], "factor_morphism_pi": []}

    def recorder(name):
        lib = getattr(E, name)

        def record(*args):
            out = lib(*args)
            calls[name].append((args, out))
            return out

        return record

    for name in calls:
        monkeypatch.setattr(E, name, recorder(name))
    gamma_hits = disconnected = 0
    for s in G.sections_of(sd.projection):
        e = D.SplitExtension(sd.group, G.kernel(sd.projection), sd.projection.dst,
                             sd.projection, s)
        for g in (G.symmetric(3), G.dihedral(4)):
            for t in E.h1(e.pi_big, g):
                disconnected += not E.is_connected(t)
                for x in t.bitorsor.points:
                    assert_same(E.connected_component(t, x), ref.connected_component(t, x))
                d = D.decompose(t, e)
                for p in (E.from_theta(t), d.y, d.z):
                    got = D.is_type_gamma(p, e)
                    assert_same(got, ref.is_type_gamma(p, e))
                    gamma_hits += got is not None
    monkeypatch.undo()
    assert disconnected > 0 and gamma_hits > 0
    assert calls["pi_induced_witness"] and calls["factor_morphism_pi"]
    for args, out in calls["pi_induced_witness"]:
        assert_same(out, ref.pi_induced_witness(*args))
    for args, out in calls["factor_morphism_pi"]:
        assert_same(out, ref.factor_morphism_pi(*args))
