"""Registry validation, closure search with factorizations, the fixed-point
cross-check, and the relatedness witness."""

from __future__ import annotations

import itertools

import pytest

import reference_checks as ref
from bitorsor_kit import bitorsors as B
from bitorsor_kit import equivariant as E
from bitorsor_kit import groups as G
from bitorsor_kit import rclass as R


def registry(pi, universe, pairs):
    return R.ElementaryClassRegistry(pi, tuple(universe), frozenset(pairs))


def trivial_members(pi, universe):
    return {(ui, E.trivial_class_index(pi, g)) for ui, g in enumerate(universe)}


def all_members(pi, universe):
    return {
        (ui, ci)
        for ui, g in enumerate(universe)
        for ci in range(len(E.h1(pi, g)))
    }


class TestRegistryValidation:
    def test_trivials_only_is_valid(self, z4, z2, z3):
        r = registry(z4, (z2, z3), trivial_members(z4, (z2, z3)))
        check = R.validate_registry(r)
        assert check
        assert check.violation == ""

    def test_all_classes_is_valid(self, z4, z2):
        u = (z2, z4)
        r = registry(z4, u, all_members(z4, u))
        assert R.validate_registry(r)

    def test_missing_inverse_detected(self, z4):
        r = registry(z4, (z4,), trivial_members(z4, (z4,)) | {(0, 1)})
        check = R.validate_registry(r)
        assert not check
        assert "inverse" in check.violation

    def test_missing_morphism_image_detected(self, z4, z2):
        u = (z2, z4)
        members = trivial_members(z4, u) | {(0, 1)}
        check = R.validate_registry(registry(z4, u, members))
        assert not check
        assert "image" in check.violation

    def test_self_inverse_registry_is_valid(self, z4):
        r = registry(z4, (z4,), trivial_members(z4, (z4,)) | {(0, 2)})
        assert R.validate_registry(r)

    def test_bad_indices_rejected(self, z4, z2):
        with pytest.raises(R.InvalidRegistry):
            registry(z4, (z2,), {(0, 9)})
        with pytest.raises(R.InvalidRegistry):
            registry(z4, (z2,), {(3, 0)})
        with pytest.raises(R.InvalidRegistry):
            registry(z4, (), set())
        with pytest.raises(R.InvalidRegistry):
            registry(z4, (z2, z2), {(0, 0)})

    def test_validate_against_explicit_universe(self, z4, z2):
        u = (z2, z4)
        r = registry(z4, u, trivial_members(z4, u) | {(1, 2)})
        assert R.validate_registry(r, [z4])

    def test_contains(self, z4, z2, s3):
        u = (z2, z4)
        r = registry(z4, u, trivial_members(z4, u) | {(1, 2)})
        classes = E.h1(z4, z4)
        assert r.contains(classes[2])
        assert not r.contains(classes[1])
        with pytest.raises(R.UnknownGroup):
            r.contains(E.h1(z4, s3)[0])
        with pytest.raises(B.SignatureMismatch):
            r.contains(E.h1(z2, z4)[1])


class TestInverseByFormula:
    """validate_registry reads an inverse class as that of c |-> theta(c)^-1
    when theta's image is central, in place of the round trip through the
    inverse carrier (reference_checks)."""

    def test_central_classes_invert_as_the_round_trip_does(self, group_universe):
        seen = 0
        for pi in group_universe:
            for g in group_universe:
                for t in E.h1(pi, g):
                    want = ref.inverse_class_index(t)
                    assert (want is not None) == R._has_central_image(t.theta)
                    if want is not None:
                        inv = G.GroupHom(pi, g, tuple(g.inv[v] for v in t.theta.map))
                        assert R.class_index_of_hom(inv) == want
                        seen += 1
        assert seen == 76

    def test_twisted_inverses_are_skipped_as_before(self, z2, z3, s3, d4):
        """A class whose image is not central has an inverse carrier with a
        twisted right group, which neither check classifies."""
        seen = 0
        for pi in (z2, z3, s3):
            for g in (s3, d4):
                for ci, t in enumerate(E.h1(pi, g)):
                    if not R._has_central_image(t.theta):
                        r = registry(pi, (g,), trivial_members(pi, (g,)) | {(0, ci)})
                        assert R.validate_registry(r) == ref.validate_registry(r)
                        seen += 1
        assert seen == 8

    def test_every_default_registry_check_is_unchanged(self):
        """The registries scripts/registry_closures.py enumerates by default."""
        pi, universe = G.cyclic(4), (G.cyclic(2), G.cyclic(4))
        slots = [(ui, ci) for ui, g in enumerate(universe) for ci in range(len(E.h1(pi, g)))]
        checks = set()
        for take in itertools.product((False, True), repeat=len(slots)):
            r = registry(pi, universe, {s for s, keep in zip(slots, take) if keep})
            got = R.validate_registry(r)
            assert got == ref.validate_registry(r)
            checks.add(got.violation.partition(" ")[0])
        assert checks == {"", "missing", "inverse", "image"}


class TestClassIndexing:
    def test_representative_indices_roundtrip(self, z4, s3):
        for pi, g in ((z4, z4), (G.cyclic(2), s3)):
            for i, rep in enumerate(E.h1_representatives(pi, g)):
                assert R.class_index_of_hom(rep) == i

    def test_conjugate_homs_share_an_index(self, z2, s3):
        t = next(g for g in s3.elements if s3.element_order(g) == 2)
        theta = G.GroupHom(z2, s3, (s3.identity, t))
        base = R.class_index_of_hom(theta)
        for c in s3.elements:
            assert R.class_index_of_hom(G.conjugate_hom(c, theta)) == base

    def test_wedge_classes_follow_the_group_law(self, z4):
        for a in range(4):
            for b in range(4):
                assert R.wedge_class_index(z4, z4, a, b) == (a + b) % 4

    def test_noncentral_second_factor_rejected(self, s3):
        assert R.wedge_class_index(s3, s3, 1, 0) == 1
        with pytest.raises(B.NotComposable):
            R.wedge_class_index(s3, s3, 0, 1)
        with pytest.raises(B.NotComposable):
            R.wedge_class_index(s3, s3, 0, 2)


class TestClosureSearch:
    def test_trivial_target_has_a_length_one_chain(self, z4, z2):
        r = registry(z4, (z2,), trivial_members(z4, (z2,)))
        t = E.h1(z4, z2)[E.trivial_class_index(z4, z2)]
        fac = R.in_closure(t, r, 3)
        assert fac is not None
        assert fac.length == 1
        assert fac.iso.is_isomorphism()

    def test_nontrivial_target_escapes_the_trivials(self, z4):
        r = registry(z4, (z4,), trivial_members(z4, (z4,)))
        t = E.h1(z4, z4)[1]
        for bound in range(1, 5):
            assert R.in_closure(t, r, bound) is None

    def test_group_law_closure(self, z4):
        r = registry(z4, (z4,), trivial_members(z4, (z4,)) | {(0, 1)})
        classes = E.h1(z4, z4)
        fac2 = R.in_closure(classes[2], r, 4)
        assert fac2 is not None and fac2.length == 2
        assert [E.classify(E.to_theta(f)) for f in fac2.factors] == [1, 1]
        fac3 = R.in_closure(classes[3], r, 4)
        assert fac3 is not None and fac3.length == 3
        assert R.in_closure(classes[1], r, 4).length == 1

    def test_monotone_in_the_bound(self, z4):
        r = registry(z4, (z4,), trivial_members(z4, (z4,)) | {(0, 1)})
        t = E.h1(z4, z4)[2]
        assert R.in_closure(t, r, 1) is None
        lengths = [R.in_closure(t, r, bound).length for bound in (2, 3, 5)]
        assert lengths == [2, 2, 2]

    def test_bound_must_be_positive(self, z4, z2):
        r = registry(z4, (z2,), trivial_members(z4, (z2,)))
        with pytest.raises(R.RClassError):
            R.in_closure(E.h1(z4, z2)[0], r, 0)

    def test_unknown_group_and_wrong_symmetry(self, z4, z2, s3):
        r = registry(z4, (z2,), trivial_members(z4, (z2,)))
        with pytest.raises(R.UnknownGroup):
            R.in_closure(E.h1(z4, s3)[0], r, 2)
        foreign = E.h1(z2, z2)[0]
        with pytest.raises(B.SignatureMismatch):
            R.in_closure(foreign, r, 2)

    def test_noncentral_members_only_lead(self, s3):
        r = registry(s3, (s3,), {(0, 0), (0, 2)})
        classes = E.h1(s3, s3)
        assert R.in_closure(classes[2], r, 4).length == 1
        assert R.in_closure(classes[1], r, 4) is None


class TestFixedPoint:
    def test_group_law_saturation(self, z4, z2):
        u = (z2, z4)
        r = registry(z4, u, trivial_members(z4, u) | {(1, 1)})
        fp = R.fixed_point_closure(r)
        assert fp == frozenset(trivial_members(z4, u) | {(1, 0), (1, 1), (1, 2), (1, 3)})

    def test_matches_the_search_everywhere(self, z4, z2):
        u = (z2, z4)
        base = trivial_members(z4, u)
        for extra in (set(), {(1, 1)}, {(1, 2)}, all_members(z4, u)):
            r = registry(z4, u, base | extra)
            fp = R.fixed_point_closure(r)
            for ui, g in enumerate(u):
                classes = E.h1(z4, g)
                for ci, rep in enumerate(classes):
                    found = R.in_closure(rep, r, len(classes) + 1) is not None
                    assert found == ((ui, ci) in fp)


class TestRelated:
    def test_equal_carriers_differ_by_a_trivial(self, z4):
        r = registry(z4, (z4,), trivial_members(z4, (z4,)))
        t = E.h1(z4, z4)[1]
        out = R.requiv_related(t, t, r, 2)
        assert out is not None
        fac, iso = out
        assert fac.length == 1
        assert iso.is_isomorphism()

    def test_orbit_pair_over_the_group_law(self, z4):
        r = registry(z4, (z4,), trivial_members(z4, (z4,)) | {(0, 1)})
        classes = E.h1(z4, z4)
        out = R.requiv_related(classes[1], classes[3], r, 4)
        assert out is not None
        fac, iso = out
        assert fac.length == 2
        assert iso.dst == E.from_theta(classes[3])

    def test_unrelated_under_a_trivial_registry(self, z4):
        r = registry(z4, (z4,), trivial_members(z4, (z4,)))
        classes = E.h1(z4, z4)
        assert R.requiv_related(classes[1], classes[0], r, 4) is None

    def test_signature_mismatch(self, z4, z2):
        r = registry(z4, (z4,), trivial_members(z4, (z4,)))
        with pytest.raises(B.SignatureMismatch):
            R.requiv_related(E.h1(z4, z4)[0], E.h1(z4, z2)[0], r, 2)

    def test_characterizations_agree(self, z4):
        r = registry(z4, (z4,), {(0, 0), (0, 2)})
        assert R.validate_registry(r)
        classes = E.h1(z4, z4)
        fp = R.fixed_point_closure(r)
        for a in range(4):
            for b in range(4):
                direct = R.requiv_related(classes[a], classes[b], r, 5) is not None
                exists = any(
                    R.wedge_class_index(z4, z4, cz, a) == b for _, cz in fp
                )
                assert direct == exists
