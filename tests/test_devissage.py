"""Decomposition along a split extension: type predicates, the split into
a gamma factor and a pi factor, certificate verification, and oracle-backed
membership."""

from __future__ import annotations

import dataclasses

import pytest

from bitorsor_kit import bitorsors as B
from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import groups as G

from conftest import scrambled_trivial


def split_from_semidirect(sd: G.SemidirectProduct) -> D.SplitExtension:
    return D.SplitExtension(
        sd.group,
        G.kernel(sd.projection),
        sd.projection.dst,
        sd.projection,
        sd.section,
    )


def trivial_theta(pi: G.FiniteGroup, g: G.FiniteGroup) -> G.GroupHom:
    return G.GroupHom(pi, g, tuple(g.identity for _ in pi.elements))


def translation_carrier(g: G.FiniteGroup, theta: G.GroupHom) -> E.ThetaBitorsor:
    return E.ThetaBitorsor(B.trivial_bitorsor(g), theta)


def has_trivial_action(p: E.PiBitorsor) -> bool:
    ident = tuple(p.bitorsor.points)
    return all(row == ident for row in p.pi_action_on_points)


@pytest.fixture(scope="module")
def ext_s3():
    n, q, acts = G.cyclic_power_action(3, 2, 2)
    return split_from_semidirect(G.semidirect_product(n, q, acts))


@pytest.fixture(scope="module")
def ext_z6():
    return split_from_semidirect(G.direct_product(G.cyclic(3), G.cyclic(2)))


@pytest.fixture(scope="module")
def theta_s3(ext_s3, s3):
    return G.isomorphisms_between(ext_s3.pi_big, s3)[0]


@pytest.fixture(scope="module")
def theta_z6(ext_z6, z6):
    return G.isomorphisms_between(ext_z6.pi_big, z6)[0]


@pytest.fixture(scope="module")
def d_s3(ext_s3, theta_s3, s3):
    t = translation_carrier(s3, theta_s3)
    return t, D.decompose(t, ext_s3)


@pytest.fixture(scope="module")
def d_z6(ext_z6, theta_z6, z6):
    t = translation_carrier(z6, theta_z6)
    return t, D.decompose(t, ext_z6)


@pytest.fixture(scope="module")
def d_trivial(ext_z6, z4):
    t = translation_carrier(z4, trivial_theta(ext_z6.pi_big, z4))
    return t, D.decompose(t, ext_z6)


class TestSplitExtension:
    def test_semidirect_extension_validates(self, ext_s3):
        assert set(ext_s3.gamma.members) == {0, 2, 4}
        assert ext_s3.pi_small.order == 2
        assert not ext_s3.pi_big.is_abelian()

    def test_rejects_wrong_kernel(self, ext_s3):
        with pytest.raises(B.InvalidMorphism):
            D.SplitExtension(
                ext_s3.pi_big,
                G.trivial_subgroup(ext_s3.pi_big),
                ext_s3.pi_small,
                ext_s3.p,
                ext_s3.s,
            )

    def test_rejects_broken_section(self, ext_s3):
        collapse = trivial_theta(ext_s3.pi_small, ext_s3.pi_big)
        with pytest.raises(B.InvalidMorphism):
            D.SplitExtension(
                ext_s3.pi_big,
                ext_s3.gamma,
                ext_s3.pi_small,
                ext_s3.p,
                collapse,
            )

    def test_conjugation_structure_inverts_gamma(self, ext_s3):
        pg = D.gamma_conjugation_structure(ext_s3)
        assert pg.group.order == 3
        flip = ext_s3.s.map[1]
        assert pg.action[flip].map == (0, 2, 1)
        assert pg.action[ext_s3.pi_big.identity].map == (0, 1, 2)

    def test_gamma_as_group_inclusion(self, ext_z6):
        grp, incl = D.gamma_as_group(ext_z6)
        assert grp.order == 3
        assert incl.map == (0, 2, 4)
        assert incl.is_injective()


class TestTypePi:
    def test_trivial_action_is_type_pi(self, ext_z6, z3):
        t = translation_carrier(z3, trivial_theta(ext_z6.pi_big, z3))
        assert D.is_type_pi(E.from_theta(t), ext_z6)

    def test_degenerate_gamma_always_type_pi(self, z2):
        sd = G.direct_product(G.cyclic(1), G.cyclic(2))
        e = split_from_semidirect(sd)
        theta = G.isomorphisms_between(e.pi_big, z2)[0]
        p = E.from_theta(translation_carrier(z2, theta))
        assert not has_trivial_action(p)
        assert D.is_type_pi(p, e)

    def test_translation_by_gamma_fails(self, ext_z6, theta_z6, z6):
        p = E.from_theta(translation_carrier(z6, theta_z6))
        assert not D.is_type_pi(p, ext_z6)

    def test_signature_guard(self, ext_s3, ext_z6, z6, theta_z6):
        p = E.from_theta(translation_carrier(z6, theta_z6))
        with pytest.raises(B.SignatureMismatch):
            D.is_type_pi(p, ext_s3)


class TestTypeGamma:
    def test_trivial_carrier_witness_over_trivial_group(self, ext_z6, z2):
        p = E.from_theta(translation_carrier(z2, trivial_theta(ext_z6.pi_big, z2)))
        w = D.is_type_gamma(p, ext_z6)
        assert w is not None
        assert w.sub.bitorsor.left_group.order == 1
        assert w.gamma_surjection.dst.order == 1
        assert w.inclusion.inner.is_injective()

    def test_full_translation_has_no_witness(self, ext_z6, theta_z6, z6):
        p = E.from_theta(translation_carrier(z6, theta_z6))
        assert D.is_type_gamma(p, ext_z6) is None

    def test_decompose_y_passes_the_search(self, ext_s3, d_s3):
        _, d = d_s3
        w = D.is_type_gamma(d.y, ext_s3)
        assert w is not None
        assert w.gamma_surjection.is_surjective()


class TestDecomposeSymmetric:
    def test_h_prime_is_the_alternating_part(self, d_s3, s3):
        _, d = d_s3
        assert sorted(d.certificate.h_prime.members) == [0, 3, 4]
        assert d.certificate.quotient_map.dst.order == 2

    def test_theta_tilde_factors_through_the_sign(self, ext_s3, d_s3):
        _, d = d_s3
        tt = d.certificate.theta_tilde
        assert all(tt.map[c] == ext_s3.pi_big.identity for c in ext_s3.gamma.members)
        assert len(set(tt.map)) == 2

    def test_z_is_the_sign_class(self, ext_s3, d_s3, s3):
        t, d = d_s3
        classes = E.h1(ext_s3.pi_big, s3)
        zi = E.classify(E.to_theta(d.z), classes)
        via_hom = E.classify(
            E.ThetaBitorsor(B.trivial_bitorsor(s3), d.certificate.theta_tilde), classes
        )
        assert zi == via_hom
        assert zi != E.trivial_class_index(ext_s3.pi_big, s3)
        assert len(set(classes[zi].theta.map)) == 2

    def test_y_witness_carries_the_order_three_part(self, d_s3):
        _, d = d_s3
        assert d.certificate.w_witness.bitorsor.left_group.order == 3
        assert d.certificate.gamma_surjection.is_bijective()

    def test_verify_passes(self, ext_s3, d_s3):
        t, d = d_s3
        res = D.verify_decomposition(t, d, ext_s3)
        assert res
        assert bool(res) is True
        assert res.diagnosis == "all checks passed"

    def test_every_class_decomposes(self, ext_s3, s3):
        for rep in E.h1(ext_s3.pi_big, s3):
            d = D.decompose(rep, ext_s3)
            assert D.verify_decomposition(rep, d, ext_s3)


class TestDecomposeCyclic:
    def test_unramified_image(self, d_z6):
        _, d = d_z6
        assert set(d.certificate.theta_tilde.map) == {0, 3}
        assert sorted(d.certificate.h_prime.members) == [0, 2, 4]

    def test_z_lands_in_the_order_two_class(self, ext_z6, d_z6, z6):
        _, d = d_z6
        classes = E.h1(ext_z6.pi_big, z6)
        assert len(classes) == 6
        zi = E.classify(E.to_theta(d.z), classes)
        assert zi == 3
        assert set(classes[zi].theta.map) == {0, 3}

    def test_y_witness_carries_the_order_three_part(self, d_z6):
        _, d = d_z6
        assert d.certificate.w_witness.bitorsor.left_group.order == 3

    def test_verify_passes(self, ext_z6, d_z6):
        t, d = d_z6
        assert D.verify_decomposition(t, d, ext_z6)

    def test_gamma_in_kernel_gives_a_trivial_y(self, ext_z6, z2):
        pi = ext_z6.pi_big
        theta = G.GroupHom(pi, z2, tuple(x % 2 for x in pi.elements))
        t = translation_carrier(z2, theta)
        d = D.decompose(t, ext_z6)
        assert d.certificate.w_witness.bitorsor.left_group.order == 1
        assert D.is_type_pi(d.y, ext_z6)
        classes = E.h1(pi, z2)
        assert E.classify(E.to_theta(d.z), classes) == E.classify(t, classes)
        assert D.verify_decomposition(t, d, ext_z6)


class TestDisconnected:
    def test_trivial_theta_factors_trivially(self, ext_z6, d_trivial):
        t, d = d_trivial
        assert d.y.bitorsor.size == 4 and d.z.bitorsor.size == 4
        assert D.is_type_pi(d.y, ext_z6) and D.is_type_pi(d.z, ext_z6)
        assert d.certificate.w_witness.bitorsor.left_group.order == 1
        assert D.verify_decomposition(t, d, ext_z6)

    def test_partial_image_keeps_the_gamma_part(self, ext_z6, z6):
        pi = ext_z6.pi_big
        theta = G.GroupHom(pi, z6, tuple(2 * (x // 2) % 6 for x in pi.elements))
        assert not E.is_connected(translation_carrier(z6, theta))
        t = translation_carrier(z6, theta)
        d = D.decompose(t, ext_z6)
        assert d.y.bitorsor.size == 6
        assert d.certificate.w_witness.bitorsor.left_group.order == 3
        assert D.is_type_pi(d.z, ext_z6)
        assert D.verify_decomposition(t, d, ext_z6)

    def test_scrambled_carrier_decomposes(self, ext_s3, theta_s3, s3, rng):
        t = E.ThetaBitorsor(scrambled_trivial(s3, rng), theta_s3)
        d = D.decompose(t, ext_s3)
        assert D.verify_decomposition(t, d, ext_s3)

    def test_scrambled_disconnected_carrier(self, ext_z6, z6, rng):
        pi = ext_z6.pi_big
        theta = G.GroupHom(pi, z6, tuple(2 * (x // 2) % 6 for x in pi.elements))
        t = E.ThetaBitorsor(scrambled_trivial(z6, rng), theta)
        d = D.decompose(t, ext_z6)
        assert D.verify_decomposition(t, d, ext_z6)


class TestSections:
    def test_every_section_yields_a_valid_decomposition(self, ext_s3, theta_s3, s3):
        sections = G.sections_of(ext_s3.p)
        assert len(sections) == 3
        t = translation_carrier(s3, theta_s3)
        for s in sections:
            e = D.SplitExtension(
                ext_s3.pi_big, ext_s3.gamma, ext_s3.pi_small, ext_s3.p, s
            )
            d = D.decompose(t, e)
            assert D.verify_decomposition(t, d, e)


class TestLifts:
    def test_alternative_lift_gives_a_valid_split(self, ext_s3, theta_s3, s3):
        t = translation_carrier(s3, theta_s3)
        default = G.compose_homs(theta_s3, ext_s3.s)
        other = next(
            g
            for g in s3.elements
            if s3.element_order(g) == 2 and g != default.map[1]
        )
        lift = lambda theta_bar: G.GroupHom(ext_s3.pi_small, s3, (s3.identity, other))  # noqa: E731
        d = D.decompose_with_lift(t, ext_s3, lift)
        assert D.verify_decomposition(t, d, ext_s3)
        classes = E.h1(ext_s3.pi_big, s3)
        base = D.decompose(t, ext_s3)
        assert E.classify(E.to_theta(d.z), classes) == E.classify(
            E.to_theta(base.z), classes
        )

    def test_lift_missing_the_collapsed_theta_is_rejected(self, ext_s3, theta_s3, s3):
        t = translation_carrier(s3, theta_s3)
        lift = lambda theta_bar: trivial_theta(ext_s3.pi_small, s3)  # noqa: E731
        with pytest.raises(D.DevissageError):
            D.decompose_with_lift(t, ext_s3, lift)

    def test_lift_with_wrong_signature_is_rejected(self, ext_s3, theta_s3, s3, z6):
        t = translation_carrier(s3, theta_s3)
        lift = lambda theta_bar: trivial_theta(ext_s3.pi_small, z6)  # noqa: E731
        with pytest.raises(B.SignatureMismatch):
            D.decompose_with_lift(t, ext_s3, lift)


class TestVerifyNegatives:
    def test_swapped_factors_fail_to_glue(self, ext_s3, d_s3):
        t, d = d_s3
        bad = dataclasses.replace(d, y=d.z, z=d.y)
        res = D.verify_decomposition(t, bad, ext_s3)
        assert not res
        assert res.diagnosis.startswith("factors do not glue")

    def test_swapped_factors_fail_the_type_check(self, ext_z6, d_z6):
        t, d = d_z6
        bad = dataclasses.replace(d, y=d.z, z=d.y)
        res = D.verify_decomposition(t, bad, ext_z6)
        assert not res
        assert res.diagnosis in (
            "witness iso does not connect the wedge to the input",
            "z factor is not of type pi",
        )

    def test_witness_with_wrong_endpoints_does_not_connect(self, ext_s3, d_s3):
        t, d = d_s3
        bad = dataclasses.replace(d, witness_iso=E.pi_identity_morphism(d.y))
        res = D.verify_decomposition(t, bad, ext_s3)
        assert not res
        assert res.diagnosis == "witness iso does not connect the wedge to the input"

    def test_collapsing_witness_is_not_bijective(self, ext_z6, d_trivial):
        t, d = d_trivial
        x = E.from_theta(t)
        wedge = E.compose_pi(d.y, d.z)
        collapse = B.BitorsorMorphism(
            wedge.bitorsor,
            x.bitorsor,
            trivial_theta(wedge.bitorsor.left_group, x.bitorsor.left_group),
            tuple(0 for _ in wedge.bitorsor.points),
            trivial_theta(wedge.bitorsor.right_group, x.bitorsor.right_group),
        )
        bad = dataclasses.replace(
            d, witness_iso=E.PiMorphism(wedge, x, collapse)
        )
        res = D.verify_decomposition(t, bad, ext_z6)
        assert not res
        assert res.diagnosis == "witness iso is not bijective"

    def test_collapsed_gamma_surjection_is_not_onto(self, ext_s3, d_s3):
        t, d = d_s3
        gs = d.certificate.gamma_surjection
        cert = dataclasses.replace(
            d.certificate,
            gamma_surjection=trivial_theta(gs.src, gs.dst),
        )
        res = D.verify_decomposition(t, dataclasses.replace(d, certificate=cert), ext_s3)
        assert not res
        assert res.diagnosis == "gamma surjection is not onto"

    def test_gamma_surjection_with_wrong_target(self, ext_s3, d_s3):
        t, d = d_s3
        cert = dataclasses.replace(
            d.certificate,
            gamma_surjection=trivial_theta(
                d.certificate.gamma_surjection.src, ext_s3.pi_small
            ),
        )
        res = D.verify_decomposition(t, dataclasses.replace(d, certificate=cert), ext_s3)
        assert not res
        assert res.diagnosis == "gamma surjection has the wrong signature"

    def test_mismatched_witness_morphism(self, ext_s3, d_s3):
        t, d = d_s3
        cert = dataclasses.replace(d.certificate, w_witness=d.z)
        res = D.verify_decomposition(t, dataclasses.replace(d, certificate=cert), ext_s3)
        assert not res
        assert res.diagnosis == "stored witness morphism does not map into the y factor"

    def _tampered(self, t, d, e, **fields):
        cert = dataclasses.replace(d.certificate, **fields)
        return D.verify_decomposition(t, dataclasses.replace(d, certificate=cert), e)

    def test_h_prime_must_be_the_image_of_gamma(self, ext_s3, d_s3, s3):
        t, d = d_s3
        res = self._tampered(t, d, ext_s3, h_prime=G.trivial_subgroup(s3))
        assert not res
        assert res.diagnosis == "h_prime is not the image of gamma under theta"

    def test_quotient_map_must_collapse_h_prime(self, ext_s3, d_s3, s3):
        t, d = d_s3
        res = self._tampered(t, d, ext_s3, quotient_map=G.identity_hom(s3))
        assert not res
        assert res.diagnosis == "quotient_map is not the quotient by h_prime"

    def test_s_low_must_cover_the_collapsed_theta(self, ext_s3, d_s3, s3):
        t, d = d_s3
        res = self._tampered(t, d, ext_s3, s_low=trivial_theta(ext_s3.pi_small, s3))
        assert not res
        assert res.diagnosis == "s_low does not cover the collapsed theta"

    def test_s_low_with_wrong_signature(self, ext_s3, d_s3, z6):
        t, d = d_s3
        res = self._tampered(t, d, ext_s3, s_low=trivial_theta(ext_s3.pi_small, z6))
        assert not res
        assert res.diagnosis == "s_low has the wrong signature"

    def test_theta_tilde_must_be_s_low_after_p(self, ext_s3, d_s3, s3):
        t, d = d_s3
        res = self._tampered(t, d, ext_s3, theta_tilde=trivial_theta(ext_s3.pi_big, s3))
        assert not res
        assert res.diagnosis == "theta_tilde is not s_low after p"

    def test_disconnected_fields_are_checked_on_the_component(self, ext_z6, z6):
        pi = ext_z6.pi_big
        theta = G.GroupHom(pi, z6, tuple(2 * (x // 2) % 6 for x in pi.elements))
        t = translation_carrier(z6, theta)
        d = D.decompose(t, ext_z6)
        comp, _ = E.connected_component(t, basepoint=0)
        assert d.certificate.h_prime.parent == comp.bitorsor.left_group
        assert D.verify_decomposition(t, d, ext_z6)
        trivial = G.trivial_subgroup(comp.bitorsor.left_group)
        res = self._tampered(t, d, ext_z6, h_prime=trivial)
        assert not res
        assert res.diagnosis == "h_prime is not the image of gamma under theta"


class TestImageLemmas:
    def test_gamma_factor_image_stays_gamma(self, ext_z6, d_z6, z6):
        _, d = d_z6
        pi = ext_z6.pi_big
        doubling = G.GroupHom(z6, z6, tuple(2 * x % 6 for x in z6.elements))
        pushed, can = E.pushforward_pi(d.y, doubling, E.constant_pi_group(pi, z6))
        _, _, img = E.factor_morphism_pi(can)
        assert D.is_type_gamma(img, ext_z6) is not None

    def test_gamma_factor_left_extension_stays_gamma(self, ext_z6, d_z6, z6):
        _, d = d_z6
        pi = ext_z6.pi_big
        doubling = G.GroupHom(z6, z6, tuple(2 * x % 6 for x in z6.elements))
        pushed, can = E.pushforward_left_pi(d.y, doubling, E.constant_pi_group(pi, z6))
        _, _, img = E.factor_morphism_pi(can)
        assert D.is_type_gamma(img, ext_z6) is not None

    def test_pi_factor_extension_iff_target_unmoved(self, ext_s3, theta_s3, s3, z2):
        pi = ext_s3.pi_big
        z = E.from_theta(translation_carrier(z2, trivial_theta(pi, z2)))
        assert D.is_type_pi(z, ext_s3)
        good_hom = G.GroupHom(z2, s3, (s3.identity, 1))
        good, _ = E.pushforward_pi(z, good_hom, E.constant_pi_group(pi, s3))
        assert D.is_type_pi(good, ext_s3)
        twisted = E.conjugation_pi_group(theta_s3)
        bad_hom = trivial_theta(z2, s3)
        bad, _ = E.pushforward_pi(z, bad_hom, twisted)
        assert not D.is_type_pi(bad, ext_s3)


class TestMembership:
    def test_accepting_oracles_certify_every_class(self, ext_s3, s3):
        accept = lambda p: True  # noqa: E731
        for rep in E.h1(ext_s3.pi_big, s3):
            cert = D.th_ppal_membership(rep, ext_s3, accept, accept)
            assert D.verify_decomposition(rep, cert.decomposition, ext_s3)
            assert cert.factorization.length == 2
            assert cert.factorization.target == E.from_theta(rep)

    def test_pi_oracle_rejecting_the_sign_class(self, ext_s3, theta_s3, s3):
        t = translation_carrier(s3, theta_s3)
        with pytest.raises(D.OracleRefused) as exc:
            D.th_ppal_membership(t, ext_s3, has_trivial_action, lambda p: True)
        assert exc.value.factor == "z"

    def test_trivial_only_oracles_accept_only_the_trivial_class(self, ext_z6, z6):
        pi = ext_z6.pi_big
        classes = E.h1(pi, z6)
        trivial = E.trivial_class_index(pi, z6)
        for i, rep in enumerate(classes):
            if i == trivial:
                cert = D.th_ppal_membership(
                    rep, ext_z6, has_trivial_action, has_trivial_action
                )
                assert D.verify_decomposition(rep, cert.decomposition, ext_z6)
            else:
                with pytest.raises(D.OracleRefused) as exc:
                    D.th_ppal_membership(
                        rep, ext_z6, has_trivial_action, has_trivial_action
                    )
                assert exc.value.factor in ("y", "z")
