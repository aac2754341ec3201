"""The shared restriction (bitorsors.orbit_restriction,
equivariant.restrict_pi) and the merged orbit partition: every caller
returns exactly what its former hand-built copy in reference_checks
returns, group labels included, on the inputs of test_search; the
induction criterion reads the reference's flags; and the type-gamma
witness decompose builds is the one the search it replaced finds."""

from __future__ import annotations

import random

import pytest

import reference_checks as ref
from bitorsor_kit import bitorsors as B
from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import groups as G
from bitorsor_kit import local_model as L

from conftest import RNG_SEED, over_c1, scrambled_trivial
from test_acceptance import _acceptance_extensions, induction_fixtures
from test_search import UNIVERSE, _record_transports, canonical_extensions


def labels(x) -> list[str]:
    """Every group label inside a value, in field order: value equality
    ignores labels, but labels reach the output."""
    if isinstance(x, G.FiniteGroup):
        return [x.label]
    if hasattr(type(x), "__match_args__"):
        return [s for f in x.__match_args__ for s in labels(getattr(x, f))]
    if isinstance(x, tuple) and x and not isinstance(x[0], int):
        return [s for v in x for s in labels(v)]
    return []


def assert_same(got, want) -> None:
    assert got == want
    assert labels(got) == labels(want)


def test_labels_walks_the_fields_of_a_record(rng):
    """A PiBitorsor over C1: each side is (group, pi), its action rows of
    ints carrying no label, then the carrier's two groups."""
    p = over_c1(scrambled_trivial(G.symmetric(3), rng))
    side = ["S3", "C1"]
    assert labels(p) == side + side + ["S3", "S3"]


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


def test_induced_conditions_match_reference(z2, z4, s3, group_universe):
    """On every criterion-4 fixture, the four flags and the class are those
    the reference reads off the plain carrier, its quotient and its
    checked sub-bitorsors, counting a class only when pi keeps it."""
    checked = 0
    for t, h in induction_fixtures((z2, z4, s3), group_universe, random.Random(4)):
        stable = ref.stable_class_predicate(E.from_theta(t))
        assert E.induced_conditions(t, h) == ref.induced_conditions(t.bitorsor, h, stable)
        checked += 1
    assert checked > 300


def test_type_gamma_witness_is_the_class_of_its_point(rng):
    """At every point p of scrambled carriers over S3, D4, D6 and S4, seen
    over C1, and for every normal subgroup of the right group, with h' its
    transport to the left, the type-gamma witness of h' at p is the
    sub-bitorsor on the class of p, as the reference sub_bitorsor_on_class
    builds it, with h' mapped onto itself."""
    checked = 0
    for g in UNIVERSE[12:16]:
        b = scrambled_trivial(g, rng)
        y = over_c1(b)
        for k in G.all_subgroups(b.right_group):
            if not k.is_normal:
                continue
            h = B.corresponding_normal_subgroup(b, k)
            h_grp, _ = G.subgroup_as_group(b.left_group, h.members)
            for cls in B.orbit_partition(b, k.members, left=False):
                for p in cls:
                    w, w_incl, gs = D._type_gamma_witness(y, p, list(h.members), h_grp)
                    assert_same((w.bitorsor, w_incl.inner), ref.sub_bitorsor_on_class(b, k, cls))
                    assert gs == G.identity_hom(h_grp)
                    checked += p != 0
    assert checked > 100


SURVEYS = (
    ((3, 4, 2), G.symmetric(4)),
    ((2, 3, 2), G.symmetric(4)),
    ((2, 7, 3), G.symmetric(4)),
    ((5, 4, 1), G.symmetric(4)),
    ((2, 5, 4), G.symmetric(4)),
    ((2, 3, 2), G.symmetric(5)),
)


def survey_id(params, group) -> str:
    return "-".join(map(str, params)) + "-" + group.label


def _carriers_to_decompose(rng):
    """(case, carrier, extension) for every class of the criterion-6 sweep,
    every class of the S4 and S5 surveys of the benchmark, and every theta
    from S3 into S3, D4 and C6 over scrambled and automorphism-twisted
    carriers, along C3 x| C2 for each section; case is "criterion-6", the
    survey's survey_id or "scrambled"."""
    for e in _acceptance_extensions():
        for g in (G.cyclic(2), G.cyclic(3), G.cyclic(4), G.cyclic(6), G.symmetric(3), G.dihedral(4)):
            for t in E.h1(e.pi_big, g):
                yield "criterion-6", t, e
    for params, g in SURVEYS:
        e = L.build_tame_quotient(L.TameParams(*params))
        for t in E.h1(e.pi_big, g):
            yield survey_id(params, g), t, e
    for e in _acceptance_extensions()[:2]:
        for g in (G.symmetric(3), G.dihedral(4), G.cyclic(6)):
            autos = G.isomorphisms_between(g, g)
            carriers = (scrambled_trivial(g, rng), scrambled_trivial(g, rng, autos[len(autos) // 2]))
            for b in carriers:
                for theta in G.enumerate_homs(e.pi_big, g):
                    yield "scrambled", E.ThetaBitorsor(b, theta), e


def decompose_recorded(cases) -> tuple[list, list, list]:
    """Decompose each (t, e) of `cases` in turn and return (rows, connected,
    transports): rows holds (t, e, d, transport), with transport the (m,
    inner) that _record_transports records for d, or None; connected holds
    ((t, e), inner) for every _decompose_connected call, one per connected
    input (a component is only factored); transports is _record_transports's
    list."""
    rows, connected = [], []
    lib = D._decompose_connected

    def record(t, e):
        out = lib(t, e)
        connected.append(((t, e), out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D, "_decompose_connected", record)
        transports = _record_transports(
            mp, lambda: rows.extend((t, e, D.decompose(t, e)) for t, e in cases)
        )
    recorded = {id(d): (m, inner) for m, inner, d in transports}
    return [(t, e, d, recorded.get(id(d))) for t, e, d in rows], connected, transports


def decompose_the_sweep() -> tuple[dict, list, list]:
    """The carriers of _carriers_to_decompose decomposed once: (rows by
    case, connected, transports) from decompose_recorded.  conftest's
    session fixture sweep_decompositions holds it for this module and for
    test_construction."""
    cases = list(_carriers_to_decompose(random.Random(RNG_SEED)))
    rows, connected, transports = decompose_recorded([(t, e) for _, t, e in cases])
    by_case: dict[str, list] = {}
    for (case, _, _), row in zip(cases, rows):
        by_case.setdefault(case, []).append(row)
    return by_case, connected, transports


def test_sweep_restrictions_match_reference(sweep_decompositions):
    """Each type-gamma witness decompose builds for a connected input, and
    the one _decompose_connected builds for each component, is the first
    pi-stable induced class that the reference search finds, and each
    transported witness is the image of the component's under y's canonical
    extension, as the reference image factorization builds it; each y
    factor passes the reference type-gamma search, and each component of
    point 0 is the reference's."""
    by_case, connected, transports = sweep_decompositions
    rows = [row for rows in by_case.values() for row in rows]
    decomposed = disconnected = 0
    for t, e, d, _ in rows:
        disconnected += not E.is_connected(t)
        assert_same(E.connected_component(t), ref.connected_component(t))
        assert ref.is_type_gamma(d.y, e) is not None
        decomposed += 1
    assert decomposed > 400 and disconnected > 0 and len(transports) == disconnected
    assert len(connected) == decomposed - disconnected
    components = [
        ((E.connected_component(t)[0], e), transport[1]) for t, e, _, transport in rows if transport
    ]
    for (t, e), inner in connected + components:
        y = inner.y
        h = G.subgroup(y.bitorsor.right_group, {t.theta.map[c] for c in e.gamma.members})
        w = ref.pi_induced_witness(y, h)
        cert = inner.certificate
        assert_same((cert.w_witness, cert.w_inclusion), (w.sub, w.inclusion))
    for m, inner, d in transports:
        can_y, _ = canonical_extensions(m, inner.y, inner.z)
        w = inner.certificate
        w_incl = E.PiMorphism(
            w.w_witness, d.y, ref.compose_bimorphisms(can_y.inner, w.w_inclusion.inner)
        )
        alpha, beta, img = ref.factor_morphism_pi(w_incl)
        cert = d.certificate
        assert_same((cert.w_witness, cert.w_inclusion), (img, beta))
        gamma_surj = G.compose_homs(alpha.inner.phi_left, w.gamma_surjection)
        assert_same(cert.gamma_surjection, gamma_surj)
