"""Hom search by backtracking with element-order pruning, and first-hit
isomorphism search: every search returns exactly what the unpruned, eager
references in reference_checks return, in the same order."""

from __future__ import annotations

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checks as ref
from bitorsor_kit import bitorsors as B
from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import formats as F
from bitorsor_kit import groups as G
from bitorsor_kit import local_model as L
from bitorsor_kit.errors import by_formula

from conftest import cli_in_fresh_process, scrambled_trivial
from test_bitorsors import product_map
from test_validators import relabel


def maps(homs) -> list[tuple[int, ...]]:
    return [h.map for h in homs]


def _universe() -> list[G.FiniteGroup]:
    """C1-C12, S3, D4, D6 and S4, plus C2xC2 and C2xC6: only there do some
    same-order generator images give a hom that is not injective."""
    c2 = G.cyclic(2)
    return [G.cyclic(n) for n in range(1, 13)] + [
        G.symmetric(3), G.dihedral(4), G.dihedral(6), G.symmetric(4),
        G.direct_product(c2, c2).group, G.direct_product(c2, G.cyclic(6)).group,
    ]


UNIVERSE = _universe()


def relabel_off_zero(g: G.FiniteGroup, rnd: random.Random) -> G.FiniteGroup:
    """A relabelled copy whose identity is not 0 (when the order allows)."""
    perm = list(g.elements)
    rnd.shuffle(perm)
    if g.order > 1 and perm[g.identity] == 0:
        j = (g.identity + 1) % g.order
        perm[g.identity], perm[j] = perm[j], perm[g.identity]
    return relabel(g, perm)


def _relabelled() -> list[G.FiniteGroup]:
    rnd = random.Random(3)
    out = [relabel_off_zero(UNIVERSE[i], rnd) for i in (5, 7, 11, 12, 13, 14, 15)]
    assert all(g.identity != 0 for g in out)
    return out


RELABELLED = _relabelled()


def _redundant() -> list[G.FiniteGroup]:
    """D4 listing r, s and rs, a relabelled copy listing rs, r and s, and D4
    listing r, s and r^2: the last generator lies in the span of the
    earlier ones, so the search gives it only its forced image.  Only r^2's
    order does not restate the relation s r s = r^-1, so only there a
    search that skipped a relation before the last generator would pass
    on a map that is no hom."""
    d4 = G.dihedral(4)
    r, s = d4.generators
    rs, r2 = d4.mul[r][s], d4.mul[r][r]
    out = [
        G.make_group(d4.mul, (r, s, rs), "D4[r,s,rs]"),
        relabel_off_zero(G.make_group(d4.mul, (rs, r, s), "D4[rs,r,s]"), random.Random(5)),
        G.make_group(d4.mul, (r, s, r2), "D4[r,s,r2]"),
    ]
    assert all(G.closure(g.mul, g.generators[:2], g.identity) == set(g.elements) for g in out)
    return out


REDUNDANT = _redundant()


def assert_searches_agree(a: G.FiniteGroup, b: G.FiniteGroup) -> None:
    assert maps(G.enumerate_homs(a, b)) == maps(ref.enumerate_homs(a, b))
    assert maps(G.isomorphisms_between(a, b)) == maps(ref.isomorphisms_between(a, b))


def test_searches_agree_with_reference_on_every_pair():
    for a in UNIVERSE:
        for b in UNIVERSE:
            assert_searches_agree(a, b)


def test_searches_agree_with_reference_on_relabelled_groups():
    for a in RELABELLED:
        for b in UNIVERSE + RELABELLED:
            assert_searches_agree(a, b)
            assert_searches_agree(b, a)


def test_searches_agree_with_reference_on_redundant_generators():
    """Generators the earlier ones span, as source and as target, and with
    pools that hold the forced image twice or not at all."""
    rnd = random.Random(11)
    for a in REDUNDANT:
        for b in UNIVERSE + RELABELLED + REDUNDANT:
            assert_searches_agree(a, b)
            assert_searches_agree(b, a)
        for b in (a, UNIVERSE[7], RELABELLED[3]):
            for _ in range(20):
                pools = [rnd.choices(b.elements, k=rnd.randrange(b.order + 3)) for _ in a.generators]
                got = G.enumerate_homs(a, b, candidates=pools)
                assert maps(got) == maps(ref.enumerate_homs(a, b, candidates=pools))


def test_h1_from_seven_generators_runs_at_once(tmp_path):
    """h1 from D4 listing all seven non-identity elements prints what h1
    from dihedral:4 prints, in a new interpreter given 10 s: the five
    generators past the first two take forced images, where a search over
    every 7-tuple of images would not finish."""
    d4 = G.dihedral(4)
    seven = G.make_group(d4.mul, [x for x in d4.elements if x != d4.identity], d4.label)
    path = tmp_path / "d4_seven.grp"
    path.write_text(F.format_group(seven))
    h1 = [("h1", "--pi", pi, "--group", "dihedral:10") for pi in (str(path), "dihedral:4")]
    _, runs = cli_in_fresh_process(h1, check="full", timeout=10)
    assert runs[0] == runs[1] and runs[0][1].startswith("16 classes of maps from D4 into D10\n")


def _surjections() -> list[G.GroupHom]:
    """Projections of split extensions and quotient maps, canonical and
    relabelled, some of which have no section."""
    out = []
    for n, m, k in [(3, 2, 2), (4, 2, 3), (5, 4, 2), (7, 3, 2), (4, 2, 1), (6, 2, 5)]:
        out.append(G.semidirect_product(*G.cyclic_power_action(n, m, k)).projection)
    out.append(G.direct_product(G.symmetric(3), G.cyclic(2)).projection)
    for g in (G.symmetric(4), G.dihedral(4), G.cyclic(8), RELABELLED[3], RELABELLED[6]):
        for h in G.all_subgroups(g):
            if h.is_normal:
                out.append(G.quotient(g, h)[1])
    return out


def test_sections_agree_with_reference():
    saw_sections = saw_none = 0
    for q in _surjections():
        got = G.sections_of(q)
        assert maps(got) == maps(ref.sections_of(q))
        saw_sections += bool(got)
        saw_none += not got
    assert saw_sections and saw_none


def test_fiber_pools_agree_with_reference():
    """Candidate pools that are fibers of a surjection, in element order and
    reversed: every hom picking one image per fiber."""
    for q in _surjections():
        fibers = [
            tuple(x for x in q.src.elements if q.map[x] == g) for g in q.dst.generators
        ]
        for pools in (fibers, [f[::-1] for f in fibers]):
            got = G.enumerate_homs(q.dst, q.src, candidates=pools)
            assert maps(got) == maps(ref.enumerate_homs(q.dst, q.src, candidates=pools))


def test_misaligned_pools_refused():
    z6 = UNIVERSE[5]
    with pytest.raises(G.MixedSignatures):
        G.enumerate_homs(z6, z6, candidates=[(0,), (1,)])


@settings(max_examples=200, deadline=None)
@given(
    i=st.integers(0, len(UNIVERSE) - 1),
    j=st.integers(0, len(UNIVERSE) - 1),
    seed=st.integers(0, 10**6),
)
def test_random_relabellings_and_pools_agree_with_reference(i, j, seed):
    rnd = random.Random(seed)
    a = relabel(UNIVERSE[i], rnd.sample(range(UNIVERSE[i].order), UNIVERSE[i].order))
    b = relabel(UNIVERSE[j], rnd.sample(range(UNIVERSE[j].order), UNIVERSE[j].order))
    assert_searches_agree(a, b)
    # Pools in any order, with repeats: the same tuples survive in the same order.
    pools = [rnd.choices(b.elements, k=rnd.randrange(b.order + 3)) for _ in a.generators]
    got = G.enumerate_homs(a, b, candidates=pools)
    assert maps(got) == maps(ref.enumerate_homs(a, b, candidates=pools))


class TestIsomorphismSearch:
    def test_automorphisms_of_s5(self):
        s5 = G.symmetric(5)
        autos = G.isomorphisms_between(s5, s5)
        assert len(autos) == 120
        assert len({h.map for h in autos}) == 120
        assert all(h.is_bijective() for h in autos)

    def test_iteration_is_lazy_and_in_list_order(self):
        s5 = G.symmetric(5)
        it = G.iter_isomorphisms(s5, s5)
        assert inspect.isgenerator(it)
        assert next(it) == G.isomorphisms_between(s5, s5)[0]

    def test_order_mismatch_yields_nothing(self):
        assert list(G.iter_isomorphisms(G.cyclic(4), G.cyclic(6))) == []
        assert G.isomorphisms_between(G.cyclic(4), G.dihedral(2)) == []


# ------------------------------------------------------- first-hit callers


def _plain_wedge_cases(rnd: random.Random):
    """(morphism, left factor, right factor) triples from test_bitorsors, plus
    scrambled carriers over groups with several automorphisms."""
    s3 = G.symmetric(3)
    cases = []
    for g in (G.cyclic(4), s3, G.dihedral(4), G.cyclic(6)):
        m, _ = product_map(g)
        t = B.trivial_bitorsor(g)
        cases.append((m, t, t))
    a3 = G.subgroup(s3, [g for g in s3.elements if s3.element_order(g) != 2])
    gq, q = G.quotient(s3, a3)
    m, _ = product_map(s3)
    t = B.trivial_bitorsor(s3)
    tq = B.trivial_bitorsor(gq)
    collapse = B.BitorsorMorphism(t, tq, q, q.map, q)
    cases.append((ref.compose_bimorphisms(collapse, m), t, t))
    for g in (G.cyclic(5), s3):
        b1, b2 = scrambled_trivial(g, rnd), scrambled_trivial(g, rnd)
        wedge = B.contracted_product(b1, b2)
        iso = B.are_isomorphic(wedge, B.trivial_bitorsor(g))
        cases.append((iso, b1, b2))
    return cases


def _pi_wedge_cases():
    """(morphism, left factor, right factor) triples of Pi-carriers over C4
    and S3, each morphism out of the glued factors; the first collapses its
    target's right group."""
    z4, s3 = G.cyclic(4), G.symmetric(3)
    m_ens, _ = product_map(z4)
    a = E.from_theta(E.h1(z4, z4)[1])
    wedge = E.compose_pi(a, a)
    dst = E.from_theta(E.h1(z4, z4)[2])
    m = E.PiMorphism(wedge, dst, B.BitorsorMorphism(
        wedge.bitorsor, dst.bitorsor, m_ens.phi_left, m_ens.point_map, m_ens.phi_right
    ))
    _, q = G.quotient(z4, G.subgroup(z4, [0, 2]))
    _, mq = E.pushforward_pi(dst, q, E.constant_pi_group(z4, q.dst))
    cases = [(E.PiMorphism(m.src, mq.dst, ref.compose_bimorphisms(mq.inner, m.inner)), a, a)]
    triv_theta = G.GroupHom(s3, s3, tuple(s3.identity for _ in s3.elements))
    t = E.from_theta(E.ThetaBitorsor(B.trivial_bitorsor(s3), triv_theta))
    wedge = E.compose_pi(t, t)
    m_ens, _ = product_map(s3)
    cases.append((E.PiMorphism(wedge, t, B.BitorsorMorphism(
        wedge.bitorsor, t.bitorsor, m_ens.phi_left, m_ens.point_map, m_ens.phi_right
    )), t, t))
    return cases


_decompose_component = D._decompose_connected


def _record_transports(monkeypatch, work) -> list:
    """Run `work` and return (m, inner, d) for every disconnected decompose
    it makes: m is the inclusion of the component of point 0, as a morphism
    out of the component's carrier, which is the glued factors of inner,
    and d is the transported decomposition.  decompose builds only the
    component's factors; inner, the component's whole decomposition, is
    built here by _decompose_connected, as bound at import, so a test that
    records _decompose_connected does not see it."""
    calls = []
    lib = D._transport_disconnected

    def record(t, incl, comp, e):
        d = lib(t, incl, comp, e)
        m = by_formula(E.PiMorphism, E.from_theta(comp), E.from_theta(t), incl)
        calls.append((m, _decompose_component(comp, e), d))
        return d

    with monkeypatch.context() as mp:
        mp.setattr(D, "_transport_disconnected", record)
        work()
    return calls


def canonical_extensions(m, y0, z0) -> tuple[E.PiMorphism, E.PiMorphism]:
    """The extensions of y0 on the right and of z0 on the left along the
    middle map of the rewrite of m: z0's left hom extended along m's right
    hom."""
    pushed, can = E.pushforward_pi(z0, m.inner.phi_right, m.dst.right)
    phi, middle = can.inner.phi_left, pushed.left
    return E.pushforward_pi(y0, phi, middle)[1], E.pushforward_left_pi(z0, phi, middle)[1]


def assert_transport_is_rewrite(d, fac) -> None:
    """d's factors are the targets of the canonical extensions of the
    rewrite fac, and d's witness is fac's isomorphism."""
    assert (d.y, d.z, d.witness_iso) == (
        fac.left_canonical.dst, fac.right_canonical.dst, fac.iso
    )


def test_survey_wedge_factorizations_match_reference(monkeypatch):
    """Every disconnected class of the (3,4,2) survey over S4 transports its
    component's decomposition through the rewrite the list-then-filter
    reference finds."""
    report = []
    calls = _record_transports(
        monkeypatch, lambda: report.append(L.survey(L.TameParams(3, 4, 2), G.symmetric(4)))
    )
    disconnected = sum(not r.connected for r in report[0].rows)
    assert disconnected > 0 and len(calls) == disconnected
    for m, inner, d in calls:
        assert_transport_is_rewrite(d, ref.pi_factor_through_pushforwards(m, inner.y, inner.z))


def sweep_c3_c2() -> None:
    """Decompose every class over S3 and D4 along C3 x| C2, for each
    section: several right isomorphisms pass there."""
    sd = G.semidirect_product(*G.cyclic_power_action(3, 2, 2))
    for s in G.sections_of(sd.projection):
        e = D.SplitExtension(sd.group, G.kernel(sd.projection), sd.projection.dst,
                             sd.projection, s)
        for g in (G.symmetric(3), G.dihedral(4)):
            for t in E.h1(e.pi_big, g):
                D.decompose(t, e)


def test_sweep_wedge_factorizations_match_reference(monkeypatch):
    """Every class over S3 and D4 along C3 x| C2, for each section.  Here
    most rewrites have several isomorphisms that pass every check, so the
    transport's must be the reference's first, in both layers."""
    calls = _record_transports(monkeypatch, sweep_c3_c2)
    assert calls
    for m, inner, d in calls:
        y0, z0 = inner.y, inner.z
        assert_transport_is_rewrite(d, ref.pi_factor_through_pushforwards(m, y0, z0))
        plain = ref.factor_through_pushforwards(m.inner, y0.bitorsor, z0.bitorsor)
        assert (d.y.bitorsor, d.z.bitorsor, d.witness_iso.inner) == (
            plain.left_canonical.dst, plain.right_canonical.dst, plain.iso
        )
