"""Carrier construction, the product/inverse/Isom calculus, pushforwards
and quotients."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checks as ref
from bitorsor_kit import bitorsors as B
from bitorsor_kit import groups as G
from bitorsor_kit.errors import FULL_CHECK, DomainError

from conftest import scrambled_trivial


def product_map(g: G.FiniteGroup) -> tuple[B.BitorsorMorphism, B.Bitorsor]:
    """The multiplication morphism out of the glued double of the trivial
    carrier: the class of (a, b) goes to a*b, and class i is that of (0, i)."""
    t = B.trivial_bitorsor(g)
    wedge = B.contracted_product(t, t)
    pm = tuple(g.mul[0][i] for i in wedge.points)
    m = B.BitorsorMorphism(
        wedge, t, G.identity_hom(g), pm, G.identity_hom(g)
    )
    return m, wedge


class TestConstruction:
    def test_trivial_carrier_roundtrips_the_table(self, z4):
        t = B.trivial_bitorsor(z4)
        assert t.size == 4
        assert t.left_act == z4.mul and t.right_act == z4.mul

    def test_two_point_swap_completes(self, z2):
        b = B.from_right_torsor(2, z2, ((0, 1), (1, 0)))
        assert b.size == 2
        assert b.left_group.order == 2

    def test_completion_left_group_matches_point_count(self, z4, s3):
        for g in (z4, s3):
            b = B.from_right_torsor(g.order, g, g.mul)
            assert b.left_group.order == g.order
            assert b.right_act == g.mul
        assert B.from_right_torsor(4, z4, z4.mul).left_group.is_cyclic()

    def test_completion_takes_an_entry_only_when_it_equals_its_int(self, z2):
        assert B.from_right_torsor(2, z2, ((0, 1.0), (True, 0))).right_act == z2.mul
        for row, message in [((0, 1.5), "(0,1) = 1.5"), ((0, "1"), "(0,1) = '1'"), ((None, 1), "(0,0) = None")]:
            with pytest.raises(B.InvalidBitorsor) as err:
                B.from_right_torsor(2, z2, (row, (1, 0)))
            assert str(err.value) == f"right action entry {message} is not an int"

    def test_completion_rejects_unfree_action(self, z2):
        with pytest.raises(DomainError):
            B.from_right_torsor(2, z2, ((0, 0), (1, 1)))

    @pytest.mark.parametrize(
        "order, left_act, error, message",
        [
            (2, ((0, 1),), B.InvalidBitorsor, "left action table has the wrong shape"),
            (2, ((1, 0), (0, 1)), G.NotAHomomorphism, "identity not preserved"),
            (3, ((0, 1, 2), (1, 2, 0), (1, 2, 0)), G.NotAnAction,
             "left action breaks at (1,1,0)"),
            (2, ((0, 1), (0, 1)), B.NotFree, "left action is not free at point 0"),
            (2, ((0, 1, 2, 3), (1, 0, 3, 2)), B.NotTransitive,
             "left orbit of point 0 misses points"),
        ],
    )
    def test_left_completion_checks_before_building(self, order, left_act, error, message):
        """`error` and `message` name each table's defect.  No malformed
        table yields a Bitorsor: the builder reads only the orbit of point 0,
        so it raises a freeness or transitivity error there, or, in
        full-check mode, by_formula's AssertionError around the pointed
        validator's diagnosis of the data read there (a left identity that
        moves point 0 makes u move the identity)."""
        assert FULL_CHECK
        with pytest.raises((DomainError, AssertionError)) as exc:
            B._complete_left(G.cyclic(order), left_act)
        if exc.type is AssertionError:
            cause = exc.value.__cause__
            assert type(cause) is error and str(cause) == message
        else:
            assert type(exc.value) in (B.NotFree, B.NotTransitive)
            assert "point 0" in str(exc.value)
            if error in (B.NotFree, B.NotTransitive):
                assert str(exc.value) == message

    @pytest.mark.parametrize(
        "left_order, right_order, left_act, right_act, error, message",
        [
            (2, 2, ((0, 1), (0, 1)), None, B.NotFree, "left action is not free at point 0"),
            (2, 4, ((0, 1, 2, 3), (2, 3, 0, 1)), None, B.NotTransitive,
             "left orbit of point 0 misses points"),
            (2, 2, None, ((0, 0), (1, 1)), B.NotFree, "right action is not free at point 0"),
            (4, 2, None, ((0, 2), (1, 3), (2, 0), (3, 1)), B.NotTransitive,
             "right orbit of point 0 misses points"),
        ],
    )
    def test_free_and_transitive_decided_at_point_zero(
        self, left_order, right_order, left_act, right_act, error, message
    ):
        """Commuting actions, each one side short of a torsor: the error is
        the one a check of every point in order raises first."""
        gl, gr = G.cyclic(left_order), G.cyclic(right_order)
        args = (gl, gr, left_act or gl.mul, right_act or gr.mul)
        with pytest.raises(error) as exc:
            B.Bitorsor.from_tables(*args)
        assert str(exc.value) == message
        with pytest.raises(error) as exc:
            ref.bitorsor(*args)
        assert str(exc.value) == message

    def test_noncommuting_actions_rejected(self, s3):
        right = tuple(
            tuple(s3.mul[s3.inv[g]][x] for g in s3.elements) for x in s3.elements
        )
        with pytest.raises(B.InvalidBitorsor):
            B.Bitorsor.from_tables(s3, s3, s3.mul, right)

    def test_corrupted_entry_rejected(self, s3, rng):
        t = B.trivial_bitorsor(s3)
        for _ in range(20):
            rows = [list(r) for r in t.left_act]
            i = rng.randrange(6)
            j = rng.randrange(6)
            rows[i][j] = (rows[i][j] + 1 + rng.randrange(5)) % 6
            with pytest.raises(DomainError):
                B.Bitorsor.from_tables(s3, s3, tuple(tuple(r) for r in rows), t.right_act)

    def test_scrambled_carriers_validate(self, group_universe, rng):
        for g in group_universe:
            b = scrambled_trivial(g, rng)
            assert b.size == g.order


class TestTrivialization:
    def test_conjugation_on_trivial_carrier(self, s3):
        t = B.trivial_bitorsor(s3)
        for x in t.points:
            conj = B.point_conjugation(t, x)
            assert conj.map == tuple(s3.conjugate(x, g) for g in s3.elements)

    def test_point_change_twists_by_conjugation(self, s3, rng):
        b = scrambled_trivial(s3, rng)
        x = 2
        conj_x = B.point_conjugation(b, x)
        for c in s3.elements:
            y = b.right_act[x][c]
            conj_y = B.point_conjugation(b, y)
            assert conj_y.map == tuple(
                conj_x.map[s3.conjugate(c, h)] for h in s3.elements
            )

    def test_trivialization_is_isomorphism(self, group_universe, rng):
        for g in group_universe:
            b = scrambled_trivial(g, rng)
            m = B.base_point_morphism(B.trivial_bitorsor(g), g.identity, b, 0, G.identity_hom(g))
            assert m.is_isomorphism()
            assert m.phi_left == B.point_conjugation(b, 0)


class TestNormalTransport:
    def test_alternating_subgroup_transports_to_itself(self, s3):
        t = B.trivial_bitorsor(s3)
        a3 = G.subgroup(s3, [g for g in s3.elements if s3.element_order(g) != 2])
        assert a3.is_normal
        moved = B.corresponding_normal_subgroup(t, a3)
        assert moved.members == a3.members

    def test_nonnormal_subgroup_refused(self, s3):
        t = B.trivial_bitorsor(s3)
        swap = next(g for g in s3.elements if s3.element_order(g) == 2)
        h = G.subgroup(s3, (s3.identity, swap))
        with pytest.raises(G.NotNormal):
            B.corresponding_normal_subgroup(t, h)

    def test_transport_on_scrambled_carrier(self, s3, rng):
        a3 = G.subgroup(s3, [g for g in s3.elements if s3.element_order(g) != 2])
        for _ in range(5):
            b = scrambled_trivial(s3, rng)
            moved = B.corresponding_normal_subgroup(b, a3)
            assert len(moved.members) == 3 and moved.is_normal


class TestCalculus:
    def test_product_has_group_many_points(self, group_universe, rng):
        for g in group_universe:
            b1 = scrambled_trivial(g, rng)
            b2 = scrambled_trivial(g, rng)
            assert B.contracted_product(b1, b2).size == g.order

    def test_mismatched_middle_groups_refused(self, z2, z3):
        with pytest.raises(B.NotComposable):
            B.contracted_product(B.trivial_bitorsor(z2), B.trivial_bitorsor(z3))

    def test_unit_laws(self, s3, z6, rng):
        for g in (s3, z6):
            t = B.trivial_bitorsor(g)
            b = scrambled_trivial(g, rng)
            assert B.are_isomorphic(B.contracted_product(t, b), b) is not None
            assert B.are_isomorphic(B.contracted_product(b, t), b) is not None

    def test_inverse_laws(self, s3, z4, rng):
        for g in (s3, z4):
            b = scrambled_trivial(g, rng)
            t = B.trivial_bitorsor(g)
            assert B.are_isomorphic(B.contracted_product(b, B.inverse(b)), t) is not None
            assert B.are_isomorphic(B.contracted_product(B.inverse(b), b), t) is not None

    def test_double_inverse_is_literal_identity(self, group_universe, rng):
        for g in group_universe:
            b = scrambled_trivial(g, rng)
            assert B.inverse(B.inverse(b)) == b

    def test_associativity_samples(self, s3, z6, rng):
        for g in (s3, z6):
            for _ in range(3):
                b1 = scrambled_trivial(g, rng)
                b2 = scrambled_trivial(g, rng)
                b3 = scrambled_trivial(g, rng)
                lhs = B.contracted_product(B.contracted_product(b1, b2), b3)
                rhs = B.contracted_product(b1, B.contracted_product(b2, b3))
                assert B.are_isomorphic(lhs, rhs) is not None

    def test_twisted_left_action_still_composes(self, z4, rng):
        twist = G.GroupHom(z4, z4, (0, 3, 2, 1))
        b1 = scrambled_trivial(z4, rng, twist)
        b2 = scrambled_trivial(z4, rng)
        assert B.contracted_product(b1, b2).size == 4


class TestIsomCarrier:
    def test_equivariant_maps_count(self, s3, rng):
        b1 = scrambled_trivial(s3, rng)
        b2 = scrambled_trivial(s3, rng)
        assert len(ref.equivariant_maps(b1, b2)) == 6

    def test_isom_carrier_and_canonical_identification(self, s3, z6, rng):
        for g in (s3, z6):
            b1 = scrambled_trivial(g, rng)
            b2 = scrambled_trivial(g, rng)
            iso_carrier = B.isom_bitorsor(b1, b2)
            assert iso_carrier.size == g.order
            assert iso_carrier.left_group == b2.left_group
            assert iso_carrier.right_group == b1.left_group
            ident = B.isom_canonical_iso(b1, b2)
            assert ident.is_isomorphism()


class TestPushforward:
    def test_extension_along_projection_shrinks(self, z4, z2):
        t = B.trivial_bitorsor(z4)
        proj = G.GroupHom(z4, z2, (0, 1, 0, 1))
        pushed, can = B.pushforward(t, proj)
        assert pushed.size == 2
        assert can.is_surjective() == can.phi_right.is_surjective() == True  # noqa: E712

    def test_extension_along_inclusion_grows(self, z2, z4):
        t = B.trivial_bitorsor(z2)
        incl = G.GroupHom(z2, z4, (0, 2))
        pushed, can = B.pushforward(t, incl)
        assert pushed.size == 4
        assert pushed.left_group.order == 4
        assert pushed.left_group.is_cyclic()
        assert can.is_injective()

    def test_left_extension_mirror(self, z2, z4):
        t = B.trivial_bitorsor(z2)
        incl = G.GroupHom(z2, z4, (0, 2))
        pushed, can = B.pushforward_left(t, incl)
        assert pushed.size == 4
        assert pushed.right_group.order == 4
        assert can.is_injective()

    def test_injectivity_and_surjectivity_move_together(self, z4, z2, s3, rng):
        t4 = B.trivial_bitorsor(z4)
        samples = [
            B.pushforward(t4, G.GroupHom(z4, z2, (0, 1, 0, 1)))[1],
            B.pushforward(t4, G.GroupHom(z4, z4, (0, 2, 0, 2)))[1],
            B.pushforward(B.trivial_bitorsor(z2), G.GroupHom(z2, z4, (0, 2)))[1],
            B.base_point_morphism(
                B.trivial_bitorsor(s3), s3.identity, scrambled_trivial(s3, rng), 1,
                G.identity_hom(s3),
            ),
        ]
        for m in samples:
            assert m.is_injective() == m.phi_right.is_injective() == m.phi_left.is_injective()
            assert m.is_surjective() == m.phi_right.is_surjective() == m.phi_left.is_surjective()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), order=st.sampled_from([2, 3, 4, 6]))
def test_random_carrier_laws(seed, order):
    g = G.cyclic(order)
    rnd = random.Random(seed)
    b1 = scrambled_trivial(g, rnd)
    b2 = scrambled_trivial(g, rnd)
    assert B.inverse(B.inverse(b1)) == b1
    prod = B.contracted_product(b1, b2)
    assert prod.size == order
    assert B.are_isomorphic(prod, B.trivial_bitorsor(g)) is not None
