"""Tame-quotient parameters, the split extension they generate, and the
per-class decomposition survey."""

from __future__ import annotations

import json

import pytest

from bitorsor_kit import devissage as D
from bitorsor_kit import groups as G
from bitorsor_kit import local_model as L


class TestParams:
    def test_valid_params_accepted(self):
        p = L.TameParams(q=3, n=4, m=2)
        assert (p.q, p.n, p.m) == (3, 4, 2)

    def test_q_below_two_rejected(self):
        with pytest.raises(L.BadParams, match="at least 2"):
            L.TameParams(q=1, n=4, m=2)

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(L.BadParams, match="at least 1"):
            L.TameParams(q=3, n=0, m=2)

    def test_shared_factor_rejected(self):
        with pytest.raises(L.BadParams, match=r"gcd\(n, q\) = gcd\(4, 2\) = 2"):
            L.TameParams(q=2, n=4, m=2)

    def test_open_twist_rejected(self):
        # 2**3 = 8 = 3 mod 5, so the twist never closes up.
        with pytest.raises(L.BadParams, match=r"2\*\*3 is not 1 mod n = 5"):
            L.TameParams(q=2, n=5, m=3)

    def test_trivial_inertia_always_closes(self):
        p = L.TameParams(q=5, n=1, m=3)
        assert p.n == 1


class TestBuild:
    def test_dihedral_shape(self):
        e = L.build_tame_quotient(L.TameParams(q=3, n=4, m=2))
        assert e.pi_big.order == 8
        assert not e.pi_big.is_abelian()
        assert len(e.gamma.members) == 4
        assert e.pi_small.order == 2

    def test_conjugation_raises_inertia_to_the_q(self):
        q, n, m = 3, 4, 2
        e = L.build_tame_quotient(L.TameParams(q=q, n=n, m=m))
        gen = next(c for c in e.gamma.members if c != e.pi_big.identity)
        frob = e.s.map[1]
        conj = e.pi_big.conjugate(frob, gen)
        powered = gen
        for _ in range(q - 1):
            powered = e.pi_big.mul[powered][gen]
        assert conj == powered

    def test_symmetric_shape(self, s3):
        e = L.build_tame_quotient(L.TameParams(q=2, n=3, m=2))
        assert e.pi_big.order == 6
        assert G.isomorphisms_between(e.pi_big, s3)

    def test_degenerate_quotient(self):
        e = L.build_tame_quotient(L.TameParams(q=5, n=4, m=1))
        assert e.pi_big.order == 4
        assert e.pi_big.is_cyclic()
        assert len(e.gamma.members) == 4


@pytest.fixture(scope="module")
def dihedral_report(z2):
    return L.survey(L.TameParams(q=3, n=4, m=2), z2)


class TestSurvey:
    def test_every_class_appears_once(self, dihedral_report):
        assert sorted(r.class_index for r in dihedral_report.rows) == [0, 1, 2, 3]

    def test_every_row_verified(self, dihedral_report):
        for r in dihedral_report.rows:
            assert r.verified
            assert r.diagnosis == "all checks passed"
            assert r.z_is_type_pi

    def test_rows_sorted_by_image_then_theta(self, dihedral_report):
        keys = [(r.image_size, r.theta) for r in dihedral_report.rows]
        assert keys == sorted(keys)

    def test_witness_trivial_exactly_off_inertia(self, dihedral_report):
        for r in dihedral_report.rows:
            assert (r.witness_order == 1) == r.gamma_in_kernel
        assert sum(r.gamma_in_kernel for r in dihedral_report.rows) == 2
        assert {r.witness_order for r in dihedral_report.rows} == {1, 2}

    def test_no_warning_when_orders_coprime(self, dihedral_report):
        assert dihedral_report.warnings == ()

    def test_symmetric_witness_orders(self, s3):
        rep = L.survey(L.TameParams(q=2, n=3, m=2), s3)
        assert len(rep.rows) == 3
        assert all(r.verified for r in rep.rows)
        assert sorted(r.witness_order for r in rep.rows) == [1, 1, 3]
        assert sum(r.gamma_in_kernel for r in rep.rows) == 2
        assert rep.warnings and "factor 2" in rep.warnings[0]

    def test_trivial_group_single_row(self, dihedral_report):
        rep = L.survey(L.TameParams(q=3, n=4, m=2), G.cyclic(1))
        row = rep.rows[0]
        assert len(rep.rows) == 1
        assert row.verified and row.connected and row.witness_order == 1


class TestDegenerateSurveys:
    def test_trivial_quotient_means_no_moving_z(self, z4):
        rep = L.survey(L.TameParams(q=5, n=4, m=1), z4)
        assert len(rep.rows) == 4
        assert all(r.verified and r.z_is_type_pi for r in rep.rows)

    def test_trivial_inertia_means_all_type_pi(self, z2):
        rep = L.survey(L.TameParams(q=3, n=1, m=2), z2)
        assert len(rep.rows) == 2
        assert all(r.verified and r.gamma_in_kernel for r in rep.rows)
        assert all(r.witness_order == 1 for r in rep.rows)


class TestDeterminism:
    def test_reports_byte_identical(self, s3):
        p = L.TameParams(q=2, n=3, m=2)
        a = json.dumps(L.survey(p, s3).to_dict(), sort_keys=True)
        b = json.dumps(L.survey(p, s3).to_dict(), sort_keys=True)
        assert a == b


class TestDecompositionAccess:
    def test_rows_match_survey(self, s3):
        p = L.TameParams(q=2, n=3, m=2)
        pairs = L.survey_decompositions(p, s3)
        rows = {r for r, _ in pairs}
        assert rows == set(L.survey(p, s3).rows)

    @pytest.mark.parametrize("qnm", [(2, 1, 1), (3, 1, 2), (2, 3, 2), (3, 4, 2), (2, 7, 3)])
    def test_pi_order_is_the_model_order(self, z2, qnm):
        p = L.TameParams(*qnm)
        assert L.survey(p, z2).pi_order == L.build_tame_quotient(p).pi_big.order

    def test_decompositions_verify(self, s3):
        p = L.TameParams(q=2, n=3, m=2)
        e = L.build_tame_quotient(p)
        from bitorsor_kit import equivariant as E

        classes = E.h1(e.pi_big, s3)
        for row, d in L.survey_decompositions(p, s3):
            assert D.verify_decomposition(classes[row.class_index], d, e)
