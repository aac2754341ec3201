"""Values built by construction: every torsor completion, every contracted
product and pushforward built in base-point coordinates, every Pi-action
on a pushed group, every isomorphism built at a base point and every
disconnected decomposition transported along its component's inclusion
at canonical labels returns exactly what the closing,
orbit-sorting, conjugating, filtering, unforced and rewriting references
in reference_checks return, group labels and generators included."""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import reference_checks as ref
from bitorsor_kit import bitorsors as B
from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import groups as G
from bitorsor_kit import local_model as L
from bitorsor_kit.errors import by_formula

from conftest import scrambled_trivial
from test_restrict import assert_same, decompose_recorded, labels, survey_id
from test_acceptance import _acceptance_extensions
from test_search import (
    RELABELLED, UNIVERSE, _pi_wedge_cases, _plain_wedge_cases, _record_transports,
    canonical_extensions, sweep_c3_c2,
)


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
    (B, "isom_canonical_iso", ref.isom_canonical_iso),
    (B, "identity_morphism", ref.identity_morphism),
)


@pytest.fixture(scope="session")
def closed_permutation_groups() -> dict:
    """The groups the reference completions close permutations into, once
    per session for each (permutations, side, label): the closure is the
    slow step of every reference completion and pushforward, and one survey
    meets each torsor in several of them (the S5 survey: 5 of 20 calls)."""
    return {}


@pytest.fixture
def checked(monkeypatch, closed_permutation_groups):
    """Route each CHECKED function through a comparison with its reference
    (value and labels; group equality compares generators), once per
    distinct argument list, labels included.  Yields the number of
    comparisons made per function.  The references close each distinct
    set of permutations once per session."""
    counts: Counter = Counter()
    close = ref._permutation_group_from_perms

    def closed(perms, compose_left, label):
        key = (tuple(sorted(set(perms))), compose_left, label)
        if key not in closed_permutation_groups:
            closed_permutation_groups[key] = close(perms, compose_left, label)
        return closed_permutation_groups[key]

    monkeypatch.setattr(ref, "_permutation_group_from_perms", closed)

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
        fac = ref.factor_through_pushforwards(m, b1, b2)
        carriers += [b1, b2, m.src, m.dst, fac.wedge]
        carriers += [fac.left_canonical.dst, fac.right_canonical.dst]
    for m, p1, p2 in _pi_wedge_cases():
        fac = ref.pi_factor_through_pushforwards(m, p1, p2)
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
    identification and the identity morphism, on twisted and scrambled
    carriers over groups whose identity is not 0, under a nontrivial
    theta."""
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
        B.identity_morphism(p.bitorsor)
        B.identity_morphism(q.bitorsor)
    names = ("compose_pi", "isom_canonical_iso", "identity_morphism")
    assert min(checked[name] for name in names) > 5


def test_wedge_rewrites_match_unforced_search(checked, monkeypatch):
    """Each transport of the C3 x| C2 sweep is the rewrite of the
    component's inclusion that the unforced search completes, and each
    pushforward it makes is its reference's."""
    calls = _record_transports(monkeypatch, sweep_c3_c2)
    for m, inner, d in calls:
        fac = ref.unforced_pi_factor_through_pushforwards(m, inner.y, inner.z)
        assert_same(
            (d.y, d.z, d.witness_iso), (fac.left_canonical.dst, fac.right_canonical.dst, fac.iso)
        )
    assert len(calls) > 5 and checked["pushforward_left_pi"] > 5


# The S4 surveys of the survey ladder and the S5 (2,3,2) survey.
SURVEY_CASES = [
    ((3, 4, 2), G.symmetric(4)),
    ((2, 3, 2), G.symmetric(4)),
    ((2, 7, 3), G.symmetric(4)),
    ((5, 4, 1), G.symmetric(4)),
    ((2, 5, 4), G.symmetric(4)),
    ((2, 3, 2), G.symmetric(5)),
]
SURVEYS = pytest.mark.parametrize(
    "params, group",
    SURVEY_CASES,
    ids=lambda v: getattr(v, "label", None) or "-".join(map(str, v)),
)


@SURVEYS
def test_survey_classes_match_reference(checked, monkeypatch, params, group):
    """Every class of the S4 surveys of the survey ladder and of the S5
    (2,3,2) survey: each completion and pushed Pi-action as its reference
    builds it, and each transport as the unforced search's rewrite."""
    report = []
    calls = _record_transports(
        monkeypatch, lambda: report.append(L.survey(L.TameParams(*params), group))
    )
    assert all(r.verified for r in report[0].rows)
    assert checked["_complete_right"] > 0
    assert calls and len(calls) == sum(not r.connected for r in report[0].rows)
    for m, inner, d in calls:
        fac = ref.unforced_pi_factor_through_pushforwards(m, inner.y, inner.z)
        assert_same(
            (d.y, d.z, d.witness_iso), (fac.left_canonical.dst, fac.right_canonical.dst, fac.iso)
        )


def _decompose_cases(case):
    """(carrier, extension) for every class of the criterion-6 sweep, of a
    survey in SURVEYS, or of the criterion-6 extensions over the relabelled
    groups of test_search, whose identities are not 0."""
    if case in ("criterion-6", "relabelled"):
        groups = RELABELLED if case == "relabelled" else (
            G.cyclic(2), G.cyclic(3), G.cyclic(4), G.cyclic(6), G.symmetric(3), G.dihedral(4),
        )
        for e in _acceptance_extensions():
            for g in groups:
                for t in E.h1(e.pi_big, g):
                    yield t, e
        return
    params, group = case
    e = L.build_tame_quotient(L.TameParams(*params))
    for t in E.h1(e.pi_big, group):
        yield t, e


def _case_id(case) -> str:
    return case if isinstance(case, str) else survey_id(*case)


@pytest.fixture(scope="session")
def relabelled_decompositions():
    """The relabelled cases decomposed once, as decompose_recorded's rows."""
    return decompose_recorded(list(_decompose_cases("relabelled")))[0]


@pytest.mark.parametrize("case", ["criterion-6", "relabelled", *SURVEY_CASES], ids=_case_id)
def test_decompose_matches_wedge_rewrite(case, request):
    """decompose returns what the transport through the wedge rewrite
    (reference_checks.rewrite_decompose) returns: the factors, the witness
    isomorphism and every certificate field, labels included.  Over the
    relabelled groups the rewrite's first right isomorphism depends on how
    elements are numbered, so there a disconnected input's witness is one
    of the rewrite's completions, over the left-torsor identification.
    The decompositions come from session fixtures that other tests share."""
    if case == "relabelled":
        rows = request.getfixturevalue("relabelled_decompositions")
    else:
        rows = request.getfixturevalue("sweep_decompositions")[0][_case_id(case)]
    assert [(t, e) for t, e, _, _ in rows] == list(_decompose_cases(case))
    disconnected = 0
    for t, e, d, transport in rows:
        want = ref.rewrite_decompose(t, e)
        if case == "relabelled" and not E.is_connected(t):
            assert_same((d.y, d.z, d.certificate), (want.y, want.z, want.certificate))
            assert_witness_is_left_identification(*transport, d)
        else:
            assert_same(d, want)
        disconnected += not E.is_connected(t)
    assert disconnected > 0


@pytest.mark.parametrize("case", ["criterion-6", *SURVEY_CASES], ids=_case_id)
def test_decompose_runs_no_hom_search(monkeypatch, case):
    """decompose builds every piece by formula: with the classes listed
    first, it never enters the hom search."""
    cases = list(_decompose_cases(case))

    def refuse(*args, **kwargs):
        raise AssertionError("decompose searched for a hom")

    monkeypatch.setattr(G, "_iter_homs", refuse)
    disconnected = 0
    for t, e in cases:
        D.decompose(t, e)
        disconnected += not E.is_connected(t)
    assert disconnected > 0


# The functions that build a Pi-group's action.  _gamma_structure builds
# none of its own: it restricts conjugation_pi_group's action.
PI_BUILDERS = (
    "constant_pi_group", "conjugation_pi_group", "restrict_pi_group",
    "pushforward_pi", "pushforward_left_pi",
)


@pytest.mark.parametrize("case", ["criterion-6", *SURVEY_CASES], ids=_case_id)
def test_pi_actions_are_rows_not_homs(monkeypatch, case):
    """A Pi-action is a table of rows: over decompose and verify of every
    class, with the memos that would hide a builder cleared, no Pi builder
    builds a GroupHom by formula, and every builder builds its Pi-group."""
    built = Counter()

    def counting(cls, *values):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's frame
            frame = frame.f_back
        built[cls.__name__, frame.f_code.co_name] += 1
        return by_formula(cls, *values)

    for mod in (E, D):
        monkeypatch.setattr(mod, "by_formula", counting)
    D._gamma_structure.cache_clear()
    for t, e in _decompose_cases(case):
        d = D.decompose(t, e)
        assert D.verify_decomposition(t, d, e).ok
    assert [k for k in built if k[0] == "GroupHom" and k[1] in PI_BUILDERS] == []
    assert {name for cls, name in built if cls == "PiGroup"} >= set(PI_BUILDERS)


@pytest.mark.parametrize("case", ["criterion-6", *SURVEY_CASES], ids=_case_id)
def test_every_morphism_is_built_at_a_base_point(monkeypatch, case):
    """A carrier morphism is fixed by the image of one point and its right
    hom: over decompose and verify of every class, with the memos that would
    hide a builder cleared, and one Isom identification, every
    BitorsorMorphism, built by formula or checked, is built by
    bitorsors.base_point_morphism, except orbit_restriction's inclusion."""
    built = Counter()

    def caller():
        frame = sys._getframe(2)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's frame
            frame = frame.f_back
        return frame.f_globals["__name__"].rpartition(".")[2], frame.f_code.co_name

    def counting(cls, *values):
        if cls is B.BitorsorMorphism:
            built[caller()] += 1
        return by_formula(cls, *values)

    init = B.BitorsorMorphism.__init__

    def checked_init(self, *values):
        built[caller()] += 1
        init(self, *values)

    for mod in (B, E, D):
        monkeypatch.setattr(mod, "by_formula", counting)
    monkeypatch.setattr(B.BitorsorMorphism, "__init__", checked_init)
    D._gamma_structure.cache_clear()
    cases = list(_decompose_cases(case))
    B.isom_canonical_iso(cases[0][0].bitorsor, cases[0][0].bitorsor)
    for t, e in cases:
        d = D.decompose(t, e)
        assert D.verify_decomposition(t, d, e).ok
    assert set(built) == {
        ("bitorsors", "base_point_morphism"), ("bitorsors", "orbit_restriction"),
    }


@pytest.mark.parametrize("case", ["criterion-6", *SURVEY_CASES], ids=_case_id)
def test_decompose_builds_nothing_it_throws_away(monkeypatch, case):
    """With the memos cleared, decompose inverts one carrier per input, the
    z of the connected carrier it factors (the input or its component), and
    none other to transport a disconnected one (rho is read from two point
    conjugations), builds one type-gamma witness per input
    and the identity witness only for a connected one (a disconnected input
    only factors its component), and equivariant never materializes a
    subgroup: a restriction reads its groups off the inclusion it is given."""
    stacks, materialized, built = [], [], Counter()
    inverse = B.inverse

    def counting_inverse(b):
        frame, callers = sys._getframe(1), set()
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        stacks.append(callers)
        return inverse(b)

    def tracking(lib):
        def wrapped(*args, **kwargs):
            materialized.append(sys._getframe(1).f_globals["__name__"])
            return lib(*args, **kwargs)
        return wrapped

    def counting(mod, name):
        lib = getattr(mod, name)

        def wrapped(*args):
            built[name] += 1
            return lib(*args)
        monkeypatch.setattr(mod, name, wrapped)

    monkeypatch.setattr(B, "inverse", counting_inverse)
    for mod in (G, B, E, D):
        if hasattr(mod, "subgroup_as_group"):
            monkeypatch.setattr(mod, "subgroup_as_group", tracking(mod.subgroup_as_group))
    counting(D, "_type_gamma_witness")
    counting(E, "pi_identity_morphism")
    D._gamma_structure.cache_clear()
    decompositions = connected = 0
    for t, e in _decompose_cases(case):
        before = built.copy()
        d = D.decompose(t, e)
        assert built - before == Counter(
            {"_type_gamma_witness": 1, "pi_identity_morphism": E.is_connected(t)}
        )
        assert D.verify_decomposition(t, d, e).ok
        decompositions += 1
        connected += E.is_connected(t)
    assert len(stacks) == decompositions
    assert [callers for callers in stacks if "_factors" not in callers] == []
    assert built == Counter({"_type_gamma_witness": decompositions, "pi_identity_morphism": connected})
    assert materialized and "bitorsor_kit.equivariant" not in materialized


def _sweep_cases(seed, work):
    """(carrier, extension) for every decompose of perfbench's
    decompose-sweep at `seed`, read from the files that seed writes."""
    from bitorsor_kit import formats as F
    from test_golden import GOLDEN, load_inputs

    inputs = load_inputs().generate("decompose-sweep", seed, work, GOLDEN["class_counts"])
    for op in inputs.ops:
        if op.kind == "decompose":
            args = dict(zip(op.argv[1::2], op.argv[2::2]))
            path = Path(args["--extension"])
            e = F.parse_extension(path.read_text(), base_dir=path.parent)
            yield E.h1(e.pi_big, F.resolve_group_spec(args["--group"]))[int(args["--class"])], e


@pytest.mark.parametrize(
    "case", [0, 1, 2, *SURVEY_CASES], ids=lambda c: f"sweep-seed{c}" if c in (0, 1, 2) else _case_id(c)
)
def test_values_read_off_built_ones_equal_the_previous_constructions(monkeypatch, tmp_path, case):
    """rho, every Pi-restriction and every Gamma-action equal the previous
    constructions (reference_checks), labels included, over every decompose
    of the seeded sweep and every class of a survey: rho read from two point
    conjugations is the identification of the two inverse carriers, a
    restriction read off its inclusion is the one that rebuilt the subgroup,
    and the restricted conjugation action is the row-by-row one."""
    transports, restrictions, extensions = [], [], {}
    transport, restrict = D._transport_disconnected, E.restrict_pi_group

    def checked_transport(t, incl, comp, e):
        d = transport(t, incl, comp, e)
        want, got = ref.transport_rho(t, incl, comp, e), d.witness_iso.inner.phi_right
        assert (got, got.src.label, got.dst.label) == (want, want.src.label, want.dst.label)
        transports.append(got)
        return d

    def checked_restriction(pg, incl):
        got = restrict(pg, incl)
        if sys._getframe(1).f_code.co_name != "restrict_pi":  # the Gamma-action, checked below
            return got
        want, want_incl = ref.restrict_pi_group(pg, incl.map)
        assert (got, got.group.label) == (want, want.group.label)
        assert (incl, incl.src.label) == (want_incl, want_incl.src.label)
        restrictions.append(got)
        return got

    monkeypatch.setattr(D, "_transport_disconnected", checked_transport)
    monkeypatch.setattr(E, "restrict_pi_group", checked_restriction)
    D._gamma_structure.cache_clear()
    if isinstance(case, int):
        cases = _sweep_cases(case, tmp_path)
    else:
        e = L.build_tame_quotient(L.TameParams(*case[0]))
        cases = ((t, e) for t in E.h1(e.pi_big, case[1]))
    decompositions = 0
    for t, e in cases:
        D.decompose(t, e)
        extensions[e, e.pi_big.label] = e
        decompositions += 1
    # two per type-gamma witness, which each decompose builds once
    assert transports and len(restrictions) == 2 * decompositions
    for e in extensions.values():
        got, want = D.gamma_conjugation_structure(e), ref.gamma_structure(e)
        assert (got.action, got.group, got.group.label, got.pi.label) == (
            want.action, want.group, "Gamma", want.pi.label
        )


def left_identification(b1: B.Bitorsor, p1: int, b2: B.Bitorsor, p2: int) -> tuple[int, ...]:
    """The right hom of the map of left torsors b1 -> b2 sending g.p1 to
    g.p2 (same left group): r goes to the s with p2.s = g.p2, where
    p1.r = g.p1."""
    left_of = {b1.left_act[g][p1]: g for g in b1.left_group.elements}
    right_of = {b2.right_act[p2][s]: s for s in b2.right_group.elements}
    return tuple(
        right_of[b2.left_act[left_of[b1.right_act[p1][r]]][p2]]
        for r in b1.right_group.elements
    )


def assert_witness_is_left_identification(m, inner, d) -> None:
    """d's witness is one of the wedge rewrite's completions over the forced
    pools, and its right hom identifies d.z with z0 extended on the right
    along the component's inclusion m, as left torsors under the middle
    group, at the images of point 0; inner is the component's
    decomposition."""
    can_y, can_z = canonical_extensions(m, inner.y, inner.z)
    glued = _glued(m, d, can_y, can_z)
    pools = ref.rewrite_rho_pools(glued, m.inner)
    right_isos = ref.rewrite_pi_equivariant_isos(d.witness_iso.src.right, m.dst.right, pools)
    assert d.witness_iso.inner in list(ref.wedge_completions(glued, m.inner, right_isos))
    pushed, can = E.pushforward_pi(inner.z, m.inner.phi_right, m.dst.right)
    assert d.witness_iso.inner.phi_right.map == left_identification(
        d.z.bitorsor, can_z(0), pushed.bitorsor, can(0)
    )


def _glued(m, d, can_y, can_z):
    """The glued map of the canonical extensions can_y and can_z of the
    factors of m's component, from their glued carrier to d's."""
    return ref.rewrite_wedge_of_morphisms(
        can_y.inner, can_z.inner, m.src.bitorsor, d.witness_iso.src.bitorsor
    )


def test_forced_pools_drop_only_rejected_right_homs(monkeypatch):
    """Over the forced pools of each transport of the C3 x| C2 sweep, every
    right isomorphism passes rho o glued.phi_right = m.phi_right, the ones
    that pass are the unforced search's, in its order, the transport's is
    the first, and the pools cut the search in some transport."""
    cut = 0
    for m, inner, d in _record_transports(monkeypatch, sweep_c3_c2):
        glued = _glued(m, d, *canonical_extensions(m, inner.y, inner.z))
        a, b = glued.dst.right_group, m.inner.dst.right_group

        def passing(homs):
            return [r.map for r in homs if G.compose_homs(r, glued.phi_right) == m.inner.phi_right]

        unforced = list(G.iter_isomorphisms(a, b))
        forced = list(G.iter_isomorphisms(a, b, ref.rewrite_rho_pools(glued, m.inner)))
        assert passing(forced) == [r.map for r in forced] == passing(unforced) != []
        assert d.witness_iso.inner.phi_right == forced[0]
        cut += len(forced) < len(unforced)
    assert cut > 0


def test_isomorphisms_match_reference_on_test_carriers(rng):
    """are_isomorphic is the first hit of the checked search over the
    identity right hom, on scrambled and twisted carriers over every group of
    test_search, the relabelled ones included, and None between different
    right groups; so is the isomorphism from the trivial carrier sending the
    identity to each point."""
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
                got = B.base_point_morphism(B.trivial_bitorsor(g), g.identity, b1, x, G.identity_hom(g))
                assert got == ref.trivialize(b1, x)[1]
        previous = carriers[1]
    assert found == 4 * len(UNIVERSE + RELABELLED)


def _assert_rewrites_complete_as_reference(monkeypatch, work) -> None:
    """The witness of each transport `work` makes is the first completion of
    the rewrite of its component's inclusion that the checked search keeps
    over the forced pools."""
    calls = _record_transports(monkeypatch, work)
    assert calls
    for m, inner, d in calls:
        glued = _glued(m, d, *canonical_extensions(m, inner.y, inner.z))
        wedge = d.witness_iso.src
        pools = ref.rewrite_rho_pools(glued, m.inner)
        right_isos = ref.rewrite_pi_equivariant_isos(wedge.right, m.dst.right, pools)
        completions = ref.wedge_completions(glued, m.inner, right_isos)
        assert d.witness_iso == ref._first_pi_morphism(wedge, m.dst, completions)


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
