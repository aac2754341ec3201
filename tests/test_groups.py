"""Group layer: table validation, constructions, homomorphism machinery."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checks as ref
from bitorsor_kit import bitorsors as B
from bitorsor_kit import errors
from bitorsor_kit import groups as G


def corrupt(table, i, j, v):
    rows = [list(r) for r in table]
    rows[i][j] = v
    return rows


class TestMakeGroup:
    def test_cyclic_6(self, z6):
        assert z6.order == 6
        assert z6.identity == 0
        assert z6.inv == (0, 5, 4, 3, 2, 1)

    def test_identity_discovered_not_assumed(self):
        # relabel C3 so the neutral element lands at index 2
        perm = (2, 1, 0)
        base = G.cyclic(3)
        table = [[0] * 3 for _ in range(3)]
        for a in range(3):
            for b in range(3):
                table[perm[a]][perm[b]] = perm[base.mul[a][b]]
        g = G.make_group(table, (perm[1],), "C3~")
        assert g.identity == 2
        assert g.element_order(perm[1]) == 3

    def test_single_entry_corruption_rejected(self, z6):
        bad = corrupt(z6.mul, 2, 3, 0)
        with pytest.raises(G.GroupError):
            G.make_group(bad, (1,))

    def test_no_identity(self):
        with pytest.raises(G.NoIdentity, match="^no two-sided neutral element$"):
            G.make_group([[1, 1], [1, 1]], (0,))

    def test_non_generating_set(self, z6):
        with pytest.raises(G.GeneratorsDoNotGenerate):
            G.make_group(z6.mul, (2,))  # <2> = {0,2,4}

    def test_malformed(self):
        """A malformed table is refused as one, also where the identity or
        an inverse cannot be read off it."""
        for table, message in [
            ([[0, 1], [1]], "row 1 has length 1, expected 2"),
            ([[0, 7], [1, 0]], "entry (0,1) = 7 out of range"),
            ([[0, -1], [1, 0]], "entry (0,1) = -1 out of range"),
            ([[0, 1], [1, -2]], "entry (1,1) = -2 out of range"),
            ([[0, 1, 2], [1, 2], [2, 0, 1]], "row 1 has length 2, expected 3"),
            ([], "empty multiplication table"),
        ]:
            with pytest.raises(G.MalformedTable) as err:
                G.make_group(table, (1,))
            assert str(err.value) == message

    @pytest.mark.parametrize("full", [False, True], ids=["default mode", "full-check mode"])
    def test_an_entry_that_is_no_int_is_malformed(self, monkeypatch, full):
        """A bool or a float equals an int and passes a range check, so the
        checked constructor checks the types first and names the first bad
        entry; make_group converts an entry that equals its int."""
        monkeypatch.setattr(errors, "FULL_CHECK", full)
        for table, message in [
            (((0, True), (True, 0)), "entry (0,1) = True is not an int"),
            (((0, 1), (1.0, 0)), "entry (1,0) = 1.0 is not an int"),
            (((0, 1), (1, "0")), "entry (1,1) = '0' is not an int"),
        ]:
            with pytest.raises(G.MalformedTable) as err:
                G.FiniteGroup(table, (1,), "X")
            assert str(err.value) == message
        assert G.make_group(((0, True), (1.0, 0)), (True,)).mul == ((0, 1), (1, 0))

    def test_make_group_takes_a_value_only_when_it_equals_its_int(self):
        """int() would read 1.5 as 1 and '1' as 1, and fail on None with a
        bare TypeError; make_group names the entry."""
        for table, gens, error, message in [
            ([[0, 1.5], [1.5, 0]], [1], G.MalformedTable, "entry (0,1) = 1.5 is not an int"),
            ([[0, "1"], [1, 0]], [1], G.MalformedTable, "entry (0,1) = '1' is not an int"),
            ([[0, 1], [1, None]], [1], G.MalformedTable, "entry (1,1) = None is not an int"),
            ([[0, 1], [1, 0]], [1.5], G.GeneratorsDoNotGenerate, "generators[0] = 1.5 is not an int"),
        ]:
            with pytest.raises(error) as err:
                G.make_group(table, gens)
            assert str(err.value) == message

    def test_each_table_is_range_checked_once(self, monkeypatch):
        calls, table, check = [], G.cyclic(7).mul, G._check_square
        monkeypatch.setattr(G, "_check_square", lambda mul: calls.append(mul) or check(mul))
        g = G.make_group(table, (1,), "C7 checked once")
        assert g.order == 7 and len(calls) == 1

    def test_all_single_entry_corruptions_of_s3_rejected(self, s3, rng):
        # changing one cell always breaks the row permutation property
        for _ in range(200):
            i, j = rng.randrange(6), rng.randrange(6)
            old = s3.mul[i][j]
            v = rng.choice([x for x in range(6) if x != old])
            with pytest.raises(G.GroupError):
                G.make_group(corrupt(s3.mul, i, j, v), s3.generators)


class TestConstructors:
    def test_symmetric_3(self, s3):
        assert s3.order == 6
        assert not s3.is_abelian()
        orders = sorted(s3.element_order(a) for a in s3.elements)
        assert orders == [1, 2, 2, 2, 3, 3]

    def test_symmetric_4(self):
        s4 = G.symmetric(4)
        assert s4.order == 24
        assert not s4.is_abelian()

    def test_symmetric_size_limit(self):
        assert G.symmetric(G.SYMMETRIC_MAX_DEGREE).order == 120
        with pytest.raises(G.MalformedTable, match="1 <= n <= 5"):
            G.symmetric(6)

    def test_dihedral_4(self, d4):
        assert d4.order == 8
        assert not d4.is_abelian()
        assert sorted(d4.element_order(a) for a in d4.elements) == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_semidirect_c3_c2_inversion_is_s3(self, s3):
        n, q, acts = G.cyclic_power_action(3, 2, 2)
        pack = G.semidirect_product(n, q, acts)
        assert pack.group.order == 6
        assert G.isomorphisms_between(pack.group, s3)

    def test_semidirect_c4_c2_third_power_is_d4(self, d4):
        n, q, acts = G.cyclic_power_action(4, 2, 3)
        pack = G.semidirect_product(n, q, acts)
        assert G.isomorphisms_between(pack.group, d4)
        # the four twisted elements square to the identity
        qn = q.order
        for a in range(4):
            idx = a * qn + 1
            assert pack.group.mul[idx][idx] == pack.group.identity

    def test_semidirect_trivial_action_is_direct(self, z6):
        pack = G.direct_product(G.cyclic(3), G.cyclic(2))
        assert G.isomorphisms_between(pack.group, z6)

    def test_not_an_action(self):
        n = G.cyclic(4)
        q = G.cyclic(2)
        doubling = G.GroupHom(n, n, (0, 2, 0, 2))  # a hom, but not bijective
        with pytest.raises(G.NotAnAction):
            G.semidirect_product(n, q, [G.identity_hom(n), doubling])

    def test_semidirect_round_trips(self):
        n, q, acts = G.cyclic_power_action(5, 4, 2)
        pack = G.semidirect_product(n, q, acts)
        assert pack.group.order == 20
        assert G.compose_homs(pack.projection, pack.section).map == tuple(q.elements)
        assert G.kernel(pack.projection).members == tuple(pack.inclusion.map)


class TestSubgroupsQuotients:
    def test_kernel_image_of_sign(self, s3, z2):
        sign = next(
            h for h in G.enumerate_homs(s3, z2) if h.is_surjective()
        )
        ker = G.kernel(sign)
        assert len(ker.members) == 3 and ker.is_normal
        assert G.image(sign).members == (0, 1)

    @pytest.mark.parametrize("full", [False, True], ids=["default mode", "full-check mode"])
    def test_kernel_and_image_are_built_by_formula(self, s3, z2, monkeypatch, full):
        """A kernel and the image of a subgroup are subgroups by construction:
        validated only in full-check mode, normality decided by generators
        either way."""
        sign = next(h for h in G.enumerate_homs(s3, z2) if h.is_surjective())
        swap = G.subgroup(s3, [0, 1])  # a transposition: not normal
        monkeypatch.setattr(errors, "FULL_CHECK", full)
        checked, post = [], G.Subgroup.__post_init__
        monkeypatch.setattr(G.Subgroup, "__post_init__", lambda self: checked.append(self) or post(self))
        ker, img = G.kernel(sign), G.image(G.identity_hom(s3), swap)
        assert (ker.members, ker.is_normal) == ((0, 3, 4), True)
        assert (img.members, img.is_normal) == ((0, 1), False)
        assert G.image(sign, swap).members == (0, 1)
        assert len(checked) == (3 if full else 0)
        with pytest.raises(G.MixedSignatures):
            G.image(sign, G.subgroup(z2, [0]))

    def test_quotient_s3_by_a3(self, s3, z2):
        sign = next(h for h in G.enumerate_homs(s3, z2) if h.is_surjective())
        q, proj = G.quotient(s3, G.kernel(sign))
        assert q.order == 2
        assert G.isomorphisms_between(q, z2)
        assert proj.is_surjective()

    def test_quotient_rejects_non_normal(self, s3):
        twist = next(a for a in s3.elements if s3.element_order(a) == 2)
        h = G.subgroup(s3, (s3.identity, twist))
        assert not h.is_normal
        with pytest.raises(G.NotNormal):
            G.quotient(s3, h)

    def test_first_isomorphism_on_fixtures(self, s3, z6, z4):
        for src, dst in [(s3, z6), (z6, z4), (z6, z6), (s3, s3)]:
            for f in G.enumerate_homs(src, dst):
                q, _ = G.quotient(src, G.kernel(f))
                img, _ = G.subgroup_as_group(dst, G.image(f).members)
                assert G.isomorphisms_between(q, img)

    def test_all_subgroups_counts(self, s3, d4, z6):
        assert len(G.all_subgroups(s3)) == 6
        assert len(G.all_subgroups(d4)) == 10
        assert len(G.all_subgroups(z6)) == 4

    def test_subgroup_takes_a_member_only_when_it_equals_its_int(self, z4):
        assert G.subgroup(z4, [False, 2.0, 2]).members == (0, 2)
        for members, message in [([0, 2.7], "members[1] = 2.7 is not an int"),
                                 (["2", 0], "members[0] = '2' is not an int"),
                                 ([0, None], "members[1] = None is not an int")]:
            for build in (G.subgroup, G.subgroup_as_group):
                with pytest.raises(G.NotASubgroup) as err:
                    build(z4, members)
                assert str(err.value) == message

    def test_subgroup_as_group(self, s3):
        a3 = next(s for s in G.all_subgroups(s3) if len(s.members) == 3)
        sub, incl = G.subgroup_as_group(s3, a3.members)
        assert sub.order == 3 and sub.is_cyclic()
        assert incl.is_injective()


class TestHomEnumeration:
    def test_frozen_counts(self, z6, z4, z2, z3, s3):
        assert len(G.enumerate_homs(z6, z4)) == 2
        assert len(G.enumerate_homs(z2, s3)) == 4
        assert len(G.enumerate_homs(z3, z2)) == 1

    def test_against_function_space_oracle(self, hom_oracle, z6, z4, z2, z3, s3):
        for src, dst in [(z6, z4), (z2, s3), (z3, z2), (s3, z2), (s3, s3)]:
            got = {h.map for h in G.enumerate_homs(src, dst)}
            assert got == hom_oracle(src, dst)

    def test_order_and_uniqueness(self, s3, d4):
        homs = G.enumerate_homs(s3, d4)
        keys = [tuple(h.map[g] for g in s3.generators) for h in homs]
        assert keys == sorted(keys)
        assert len(set(h.map for h in homs)) == len(homs)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), m=st.integers(1, 12))
    def test_cyclic_hom_count_is_gcd(self, n, m):
        assert len(G.enumerate_homs(G.cyclic(n), G.cyclic(m))) == math.gcd(n, m)

    def test_hom_validation(self, z4, z2):
        with pytest.raises(G.NotAHomomorphism):
            G.GroupHom(z4, z2, (0, 1, 1, 0))


class TestSections:
    def test_c6_to_c2_unique_section(self, z6, z2):
        q = G.GroupHom(z6, z2, (0, 1, 0, 1, 0, 1))
        secs = G.sections_of(q)
        assert len(secs) == 1
        assert secs[0].map[1] == 3

    def test_c4_to_c2_has_none(self, z4, z2):
        q = G.GroupHom(z4, z2, (0, 1, 0, 1))
        assert G.sections_of(q) == []

    def test_s3_sign_has_three(self, s3, z2):
        sign = next(h for h in G.enumerate_homs(s3, z2) if h.is_surjective())
        secs = G.sections_of(sign)
        assert len(secs) == 3
        for s in secs:
            t = s.map[1]
            assert s3.element_order(t) == 2

    def test_rejects_non_surjective(self, z2, z4):
        f = G.GroupHom(z2, z4, (0, 2))
        with pytest.raises(G.NotSurjective):
            G.sections_of(f)


class TestConjugacyClasses:
    def test_z2_into_s3(self, z2, s3):
        canon = Counter(G.canonical_conjugate(h).map for h in G.enumerate_homs(z2, s3))
        assert len(canon) == 2
        assert sorted(canon.values()) == [1, 3]

    def test_abelian_target_classes_are_singletons(self, z6, z4):
        for h in G.enumerate_homs(z6, z4):
            assert G.canonical_conjugate(h) == h

    def test_representative_is_smallest(self, z2, s3):
        for h in G.enumerate_homs(z2, s3):
            conjugates = [G.conjugate_hom(c, h).map for c in s3.elements]
            assert G.canonical_conjugate(h).map == min(conjugates)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 10**6))
def test_random_relabelings_still_validate(n, seed):
    rng = random.Random(seed)
    base = G.cyclic(n)
    perm = list(range(n))
    rng.shuffle(perm)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[base.mul[a][b]]
    g = G.make_group(table, (perm[1 % n],), "shuffled")
    assert g.identity == perm[0]
    assert g.is_abelian()


def _moved(g: G.FiniteGroup, shift: int) -> G.FiniteGroup:
    """g with x renamed (x + shift) mod its order, so the identity leaves 0."""
    n = g.order
    back = [(x - shift) % n for x in g.elements]
    table = [[(g.mul[back[a]][back[b]] + shift) % n for b in range(n)] for a in range(n)]
    return G.make_group(table, [(x + shift) % n for x in g.generators], f"{g.label}+{shift}")


def _assert_discovered(h: G.FiniteGroup, f: G.GroupHom) -> None:
    """h's identity and inverses are what the reference make_group discovers
    on h's table, and the hom f into or out of h carries them; normality of
    every subgroup of h is what the reference decides on all elements."""
    want = ref.loop_make_group(h.mul, h.generators, h.label)
    assert (h.identity, h.inv) == (want.identity, want.inv)
    assert f.map[f.src.identity] == f.dst.identity
    assert all(f.map[f.src.inv[x]] == f.dst.inv[f.map[x]] for x in f.src.elements)
    for s in G.all_subgroups(h):
        assert s.is_normal == ref.is_normal(h, s.members)


def test_groups_built_by_formula_agree_with_discovery(group_universe):
    """Quotients, subgroups as groups and the translation groups of
    pushforwards store only their tables: what is read off them is what the
    formulas they replaced gave (the image of the parent's identity and
    inverses), over the universe and two copies whose identity is not 0."""
    groups = (*group_universe, _moved(G.symmetric(3), 2), _moved(G.dihedral(4), 5))
    for g in groups:
        for n in G.all_subgroups(g):
            assert n.is_normal == G.Subgroup(g, n.members).is_normal == ref.is_normal(g, n.members)
            sub, incl = G.subgroup_as_group(g, n.members)
            _assert_discovered(sub, incl)
            if n.is_normal:
                q, proj = G.quotient(g, n)
                _assert_discovered(q, proj)
        for g2 in group_universe:
            for phi in G.enumerate_homs(g, g2):
                assert G.kernel(phi).is_normal and ref.is_normal(g, G.kernel(phi).members)
                image = G.image(phi)
                assert image.is_normal == ref.is_normal(g2, image.members)
                pushed, canonical = B.pushforward(B.trivial_bitorsor(g), phi)
                _assert_discovered(pushed.left_group, canonical.phi_left)
                pushed, canonical = B.pushforward_left(B.trivial_bitorsor(g), phi)
                _assert_discovered(pushed.right_group, canonical.phi_right)
