"""Symmetry-carrying carriers: the theta presentation and its inverse,
connectivity, h1 classification, and the equivariant calculus."""

from __future__ import annotations

import pytest

from bitorsor_kit import bitorsors as B
from bitorsor_kit import equivariant as E
from bitorsor_kit import groups as G
from bitorsor_kit.errors import DomainError

from conftest import scrambled_trivial
from test_bitorsors import product_map


def theta_into(pi: G.FiniteGroup, g: G.FiniteGroup, gen_image: int) -> G.GroupHom:
    """The hom sending the first listed generator to gen_image, when one
    exists; cyclic pi only."""
    for h in G.enumerate_homs(pi, g):
        if h.map[pi.generators[0]] == gen_image:
            return h
    raise AssertionError("no such homomorphism")


class TestPiGroup:
    def test_constant_and_conjugation_structures(self, z2, s3):
        const = E.constant_pi_group(z2, s3)
        assert const.is_constant
        t = next(g for g in s3.elements if s3.element_order(g) == 2)
        theta = G.GroupHom(z2, s3, (s3.identity, t))
        conj = E.conjugation_pi_group(theta)
        assert not conj.is_constant
        fixed = [g for g in s3.elements if conj.action[1].map[g] == g]
        centralizer = [g for g in s3.elements if s3.mul[g][t] == s3.mul[t][g]]
        assert fixed == centralizer and len(fixed) == 2

    def test_rejects_non_automorphism(self, z4, z2):
        doubling = G.GroupHom(z4, z4, (0, 2, 0, 2))
        with pytest.raises(G.NotAnAction):
            E.PiGroup(z4, z2, (G.identity_hom(z4), doubling))

    def test_rejects_non_action(self, z2):
        z5 = G.cyclic(5)
        alpha = G.GroupHom(z5, z5, (0, 2, 4, 1, 3))
        with pytest.raises(G.NotAnAction):
            E.PiGroup(z5, z2, (G.identity_hom(z5), alpha))

    def test_restrict_and_quotient(self, z2, s3):
        t = next(g for g in s3.elements if s3.element_order(g) == 2)
        conj = E.conjugation_pi_group(G.GroupHom(z2, s3, (s3.identity, t)))
        a3 = [g for g in s3.elements if s3.element_order(g) != 2]
        sub_pg, _ = E.restrict_pi_group(conj, a3)
        assert sub_pg.group.order == 3 and not sub_pg.is_constant
        quot_pg, _ = E.quotient_pi_group(conj, G.subgroup(s3, a3))
        assert quot_pg.group.order == 2 and quot_pg.is_constant
        with pytest.raises(E.NotPiStable):
            E.restrict_pi_group(conj, [s3.identity, [g for g in s3.elements if s3.element_order(g) == 2][1]])


class TestThetaRoundtrip:
    def test_translation_action_recovers_theta(self, z2):
        t = B.trivial_bitorsor(z2)
        pg = E.constant_pi_group(z2, z2)
        pb = E.PiBitorsor(pg, pg, t, ((0, 1), (1, 0)))
        assert E.to_theta(pb).theta.map == (0, 1)

    def test_trivial_action_gives_trivial_theta(self, s3, z2):
        theta = G.GroupHom(z2, s3, (s3.identity, s3.identity))
        pb = E.from_theta(E.ThetaBitorsor(B.trivial_bitorsor(s3), theta))
        assert pb.right_constant
        assert pb.pi_action_on_points[1] == tuple(range(6))
        assert E.to_theta(pb).theta == theta

    def test_roundtrip_exact_on_random_instances(self, group_universe, rng):
        for pi in group_universe[:4]:
            for g in group_universe:
                homs = G.enumerate_homs(pi, g)
                carrier = scrambled_trivial(g, rng)
                theta = homs[rng.randrange(len(homs))]
                t = E.ThetaBitorsor(carrier, theta)
                pb = E.from_theta(t)
                assert E.to_theta(pb) == t
                assert E.from_theta(E.to_theta(pb)) == pb

    def test_twisted_right_structure_refused(self, s3, z2):
        t = next(g for g in s3.elements if s3.element_order(g) == 2)
        pb = E.from_theta(
            E.ThetaBitorsor(B.trivial_bitorsor(s3), G.GroupHom(z2, s3, (s3.identity, t)))
        )
        flipped = E.inverse_pi(pb)
        with pytest.raises(E.RightGroupNotConstant):
            E.to_theta(flipped)

    def test_expansion_keeps_the_labels_of_its_input(self, z2):
        def labelled(name):
            g = G.make_group(G.symmetric(3).mul, G.symmetric(3).generators, name)
            theta = G.GroupHom(z2, g, (g.identity, 1))
            return E.ThetaBitorsor(B.trivial_bitorsor(g), theta)

        first, second = labelled("A"), labelled("B")
        assert first == second
        for t, name in ((first, "A"), (second, "B"), (first, "A")):
            pb = E.from_theta(t)
            assert pb.bitorsor is t.bitorsor
            assert pb.left.group.label == pb.right.group.label == name

    def test_left_structure_is_conjugation(self, s3, z2):
        t = next(g for g in s3.elements if s3.element_order(g) == 2)
        theta = G.GroupHom(z2, s3, (s3.identity, t))
        pb = E.from_theta(E.ThetaBitorsor(B.trivial_bitorsor(s3), theta))
        assert pb.left == E.conjugation_pi_group(theta)


class TestConnectivity:
    def test_surjective_theta_is_connected(self, z6):
        t = E.ThetaBitorsor(B.trivial_bitorsor(z6), G.identity_hom(z6))
        assert E.is_connected(t)
        comp, incl = E.connected_component(t)
        assert comp.bitorsor.size == 6 and incl.is_injective()

    def test_trivial_theta_is_disconnected(self, z4, z2):
        theta = G.GroupHom(z2, z4, (0, 0))
        t = E.ThetaBitorsor(B.trivial_bitorsor(z4), theta)
        assert not E.is_connected(t)
        comp, _ = E.connected_component(t)
        assert comp.bitorsor.size == 1

    def test_half_image_component(self, z4, z2):
        theta = G.GroupHom(z2, z4, (0, 2))
        t = E.ThetaBitorsor(B.trivial_bitorsor(z4), theta)
        assert not E.is_connected(t)
        comp, incl = E.connected_component(t, basepoint=1)
        assert comp.bitorsor.size == 2
        assert comp.bitorsor.right_group.order == 2
        assert E.is_connected(comp)
        assert sorted(incl.point_map) == [1, 3]

    def test_component_at_default_basepoint(self, s3, z2):
        t0 = next(g for g in s3.elements if s3.element_order(g) == 2)
        theta = G.GroupHom(z2, s3, (s3.identity, t0))
        comp, incl = E.connected_component(E.ThetaBitorsor(B.trivial_bitorsor(s3), theta))
        assert comp.bitorsor.size == 2
        assert E.is_connected(comp)


class TestH1:
    def test_frozen_class_counts(self, z2, s3):
        z1 = G.cyclic(1)
        assert len(E.h1(z2, z2)) == 2
        assert len(E.h1(z2, s3)) == 2
        assert len(E.h1(z1, s3)) == 1

    def test_gcd_law_sample(self):
        for n, m in ((2, 4), (6, 4), (9, 12), (5, 7)):
            import math

            assert len(E.h1(G.cyclic(n), G.cyclic(m))) == math.gcd(n, m)

    def test_each_representative_classifies_to_itself(self, z4, s3):
        for pi, g in ((z4, z4), (z2_pair := G.cyclic(2), s3), (s3, s3)):
            classes = E.h1(pi, g)
            for i, rep in enumerate(classes):
                assert E.classify(rep, classes) == i

    def test_classify_on_scrambled_carrier(self, z4, rng):
        classes = E.h1(z4, z4)
        carrier = scrambled_trivial(z4, rng)
        theta = theta_into(z4, z4, 3)
        t = E.ThetaBitorsor(carrier, theta)
        assert E.classify(t, classes) == 3

    def test_no_match_raises(self, z4):
        classes = E.h1(z4, z4)
        t = E.ThetaBitorsor(B.trivial_bitorsor(z4), theta_into(z4, z4, 1))
        with pytest.raises(E.NoMatch):
            E.classify(t, classes[:1])

    def test_trivial_class_index(self, z4, s3):
        for pi, g in ((z4, z4), (z4, s3)):
            idx = E.trivial_class_index(pi, g)
            rep = E.h1_representatives(pi, g)[idx]
            assert set(rep.map) == {g.identity}


class TestEquivariantCalculus:
    def test_abelian_composition_adds_classes(self, z4):
        classes = E.h1(z4, z4)
        one = E.from_theta(classes[1])
        prod = E.compose_pi(one, one)
        assert E.classify(E.to_theta(prod), classes) == 2

    def test_noncentral_middle_refused(self, s3):
        classes = E.h1(s3, s3)
        ident_cls = next(
            i for i, r in enumerate(E.h1_representatives(s3, s3)) if r.is_bijective()
        )
        a = E.from_theta(classes[ident_cls])
        with pytest.raises(B.NotComposable):
            E.compose_pi(a, a)

    def test_inverse_negates_abelian_class(self, z3):
        classes = E.h1(z3, z3)
        inv = E.inverse_pi(E.from_theta(classes[1]))
        assert E.classify(E.to_theta(inv), classes) == 2

    def test_nonisomorphic_classes_have_isomorphic_carriers(self, z3):
        classes = E.h1(z3, z3)
        p1, p2 = E.from_theta(classes[1]), E.from_theta(classes[2])
        assert E.pi_isomorphism(p1, p2) is None
        assert B.are_isomorphic(p1.bitorsor, p2.bitorsor) is not None

    def test_pushforward_transports_class_along_hom(self, z4, z2):
        classes4 = E.h1(z4, z4)
        proj = G.GroupHom(z4, z2, (0, 1, 0, 1))
        p = E.from_theta(classes4[1])
        pushed, can = E.pushforward_pi(p, proj, E.constant_pi_group(z4, z2))
        got = E.classify(E.to_theta(pushed), E.h1(z4, z2))
        expected = E.classify(
            E.ThetaBitorsor(B.trivial_bitorsor(z2), G.compose_homs(proj, classes4[1].theta)),
            E.h1(z4, z2),
        )
        assert got == expected == 1

    def test_left_pushforward_mirror(self, z4, z2):
        p = E.from_theta(E.h1(z4, z4)[2])
        proj = G.GroupHom(z4, z2, (0, 1, 0, 1))
        pushed, can = E.pushforward_left_pi(p, proj, E.constant_pi_group(z4, z2))
        assert pushed.bitorsor.size == 2
        assert can.inner.phi_left == proj

    def test_quotient_collapses_class(self, z4):
        p = E.from_theta(E.h1(z4, z4)[1])
        h = G.subgroup(z4, [0, 2])
        q, qm = E.quotient_pi(p, h)
        assert q.bitorsor.size == 2
        assert q.right_constant
        got = E.classify(E.to_theta(q), E.h1(z4, q.bitorsor.right_group))
        assert got == 1

    def test_normal_transport_ignores_theta(self, s3, z2, z4):
        carrier = B.trivial_bitorsor(s3)
        a3 = G.subgroup(s3, [g for g in s3.elements if s3.element_order(g) != 2])
        t0 = next(g for g in s3.elements if s3.element_order(g) == 2)
        results = set()
        for theta in (
            G.GroupHom(z2, s3, (s3.identity, s3.identity)),
            G.GroupHom(z2, s3, (s3.identity, t0)),
        ):
            pb = E.from_theta(E.ThetaBitorsor(carrier, theta))
            results.add(B.corresponding_normal_subgroup(pb.bitorsor, a3).members)
        assert len(results) == 1


class TestPiInduction:
    def test_witness_when_class_dies_in_quotient(self, z4, z2):
        theta = G.GroupHom(z2, z4, (0, 2))
        p = E.from_theta(E.ThetaBitorsor(B.trivial_bitorsor(z4), theta))
        h = G.subgroup(z4, [0, 2])
        flags = E.pi_induced_conditions(p, h)
        assert set(flags) == {True}
        w = E.pi_induced_witness(p, h)
        assert w is not None
        assert w.sub.bitorsor.size == 2
        assert w.inclusion.inner.is_injective()

    def test_no_witness_when_quotient_class_survives(self, z4):
        p = E.from_theta(E.h1(z4, z4)[1])
        h = G.subgroup(z4, [0, 2])
        flags = E.pi_induced_conditions(p, h)
        assert set(flags) == {False}
        assert E.pi_induced_witness(p, h) is None


class TestPiFactorizations:
    def test_image_factorization_restricts_structures(self, z4, z2):
        p = E.from_theta(E.h1(z4, z4)[2])
        incl = G.GroupHom(z2, z4, (0, 2))
        pushed, can = E.pushforward_pi(
            E.from_theta(E.h1(z4, z2)[1]), incl, E.constant_pi_group(z4, z4)
        )
        alpha, beta, img = E.factor_morphism_pi(can)
        assert img.bitorsor.size == 2
        assert alpha.inner.is_surjective() and beta.inner.is_injective()

    def test_wedge_rewrite_equivariant(self, z4):
        m_ens, wedge_ens, idx = product_map(z4)
        a = E.from_theta(E.h1(z4, z4)[1])
        b = E.from_theta(E.h1(z4, z4)[1])
        wedge, _ = E.contracted_product_pi(a, b)
        assert wedge.bitorsor == wedge_ens
        dst = E.from_theta(E.h1(z4, z4)[2])
        m = E.PiMorphism(
            wedge,
            dst,
            B.BitorsorMorphism(
                wedge.bitorsor, dst.bitorsor, m_ens.phi_left, m_ens.point_map, m_ens.phi_right
            ),
        )
        h = G.subgroup(z4, [0, 2])
        dq, mq = E.quotient_pi(dst, h)
        m2 = E.compose_pi_morphisms(mq, m)
        fac = E.pi_factor_through_pushforwards(m2, a, b)
        assert fac.iso.is_isomorphism()
        assert fac.wedge.bitorsor.right_group.order == 2
        rebuilt = B.compose_bimorphisms(
            fac.iso.inner,
            B.wedge_of_morphisms(
                fac.left_canonical.inner,
                fac.right_canonical.inner,
                E.contracted_product_pi(a, b)[1],
                E.contracted_product_pi(
                    fac.left_canonical.dst, fac.right_canonical.dst
                )[1],
                wedge.bitorsor,
                fac.wedge.bitorsor,
            ),
        )
        assert rebuilt.point_map == m2.inner.point_map
        assert rebuilt.phi_right == m2.inner.phi_right

    def test_wedge_rewrite_identity_target(self, s3):
        triv_theta = G.GroupHom(s3, s3, tuple(s3.identity for _ in s3.elements))
        a = E.from_theta(E.ThetaBitorsor(B.trivial_bitorsor(s3), triv_theta))
        wedge, _ = E.contracted_product_pi(a, a)
        m_ens, wedge_ens, _ = product_map(s3)
        m = E.PiMorphism(
            wedge,
            a,
            B.BitorsorMorphism(
                wedge.bitorsor, a.bitorsor, m_ens.phi_left, m_ens.point_map, m_ens.phi_right
            ),
        )
        fac = E.pi_factor_through_pushforwards(m, a, a)
        assert fac.iso.is_isomorphism()
        assert fac.middle_hom.src == s3
