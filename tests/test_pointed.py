"""Pointed carriers: a bitorsor is its two groups, the coordinates
coords[r] = 0.r of its points and u: L -> R with l.0 = 0.u(l); a Pi-carrier
adds its cocycle c.0 = 0.a(c).  Its action tables are derived on first use.
The checked table entries accept and diagnose exactly what the table
validators did, every value built agrees table for table with the
builders that built the tables (reference_checks' table_ copies), and the
local-survey path derives no table at all."""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import reference_checks as ref
from bitorsor_kit import bitorsors as B
from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import groups as G
from bitorsor_kit import local_model as L
from bitorsor_kit.errors import DomainError

from conftest import scrambled_trivial
from test_acceptance import _acceptance_extensions, induction_fixtures
from test_construction import _sweep_cases
from test_formats import s3_extension
from test_golden import load_inputs
from test_restrict import assert_same, labels
from test_search import RELABELLED, UNIVERSE, relabel_off_zero
from test_validators import replace_at


def _values_in(value, kinds) -> list:
    """Every record of one of `kinds` inside a value, in field order."""
    out = [value] if isinstance(value, kinds) else []
    if hasattr(type(value), "__match_args__") and not isinstance(value, G.FiniteGroup):
        out += [v for f in value.__match_args__ for v in _values_in(getattr(value, f), kinds)]
    elif isinstance(value, tuple):
        out += [v for x in value for v in _values_in(x, kinds)]
    return out


def _certificate_values(kinds) -> list:
    """The distinct records of `kinds` in the decomposition of the last
    class over each group of the criterion-6 sweep along each extension,
    and in the S3 certificate of test_formats."""
    found = []
    groups = (G.cyclic(2), G.cyclic(3), G.cyclic(4), G.cyclic(6), G.symmetric(3), G.dihedral(4))
    for e in _acceptance_extensions():
        for g in groups:
            t = E.h1(e.pi_big, g)[-1]
            found += _values_in((t, D.decompose(t, e)), kinds)
    e = s3_extension()
    t = E.h1(e.pi_big, G.symmetric(3))[-1]
    found += _values_in((t, D.decompose(t, e)), kinds)
    return list(dict.fromkeys(found))


def test_no_field_holds_a_table():
    """Each field of a built carrier or Pi-carrier is a group, a Pi-group,
    a carrier or one flat row of ints: coords and u have one entry per
    element of the right and of the left group, the cocycle one per
    element of pi."""
    values = _certificate_values((B.Bitorsor, E.PiBitorsor))
    for v in values:
        for name in v.__match_args__:
            field = getattr(v, name)
            if not isinstance(field, (G.FiniteGroup, E.PiGroup, B.Bitorsor)):
                assert type(field) is tuple and {*map(type, field)} <= {int}, (v, name)
        if isinstance(v, B.Bitorsor):
            assert (len(v.coords), len(v.u)) == (v.right_group.order, v.left_group.order)
        else:
            assert len(v.cocycle) == v.pi.order
    assert sum(isinstance(v, E.PiBitorsor) for v in values) > 50


def _outcome(check, *args):
    try:
        check(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    return None


def _tampers(rows, k: int):
    """Every single-entry tamper of a table, to each value from -1 to k,
    and every swap of two rows."""
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            for w in range(-1, k + 1):
                if w != v:
                    yield replace_at(rows, i, replace_at(row, j, w))
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if rows[i] != rows[j]:
                yield replace_at(replace_at(rows, i, rows[j]), j, rows[i])


def test_table_entries_agree_with_the_table_validators():
    """Bitorsor.from_tables and PiBitorsor.from_tables, on every tamper of
    left_act, right_act and the point action of the carriers of the
    criterion-6 and S3 certificates, accept, or raise the same exception
    type with the same message, as the validators of the records that
    stored the tables; an accepted table is kept as the derived one."""
    values = _certificate_values((B.Bitorsor, E.PiBitorsor))
    tampers = 0
    for v in values:
        if isinstance(v, B.Bitorsor):
            gl, gr, la, ra = v.left_group, v.right_group, v.left_act, v.right_act
            assert B.Bitorsor.from_tables(gl, gr, la, ra) == v
            cases = [(bad, ra) for bad in _tampers(la, v.size)] + [(la, bad) for bad in _tampers(ra, v.size)]
            for case in cases:
                got = _outcome(B.Bitorsor.from_tables, gl, gr, *case)
                assert got == _outcome(ref.table_bitorsor_check, gl, gr, *case)
                if got is None:
                    b = B.Bitorsor.from_tables(gl, gr, *case)
                    assert (b.left_act, b.right_act) == case and b.left_act is case[0]
            tampers += len(cases)
        else:
            args, pa = (v.left, v.right, v.bitorsor), v.pi_action_on_points
            assert E.PiBitorsor.from_tables(*args, pa) == v
            for bad in _tampers(pa, v.bitorsor.size):
                got = _outcome(E.PiBitorsor.from_tables, *args, bad)
                assert got == _outcome(ref.table_pi_bitorsor_check, *args, bad)
                if got is None:
                    assert E.PiBitorsor.from_tables(*args, bad).pi_action_on_points is bad
                tampers += 1
    assert tampers > 40_000


# (module, builder, the builder that built tables) for every builder of a
# carrier, Pi-carrier or morphism on the decompose and verify paths.
BUILDERS = (
    (B, "trivial_bitorsor", ref.table_trivial_bitorsor),
    (B, "contracted_product", ref.table_contracted_product),
    (B, "inverse", ref.table_inverse),
    (B, "pushforward", ref.table_pushforward),
    (B, "pushforward_left", ref.table_pushforward_left),
    (B, "base_point_morphism", ref.table_base_point_morphism),
    (B, "point_conjugation", ref.table_point_conjugation),
    (B, "orbit_restriction", ref.table_orbit_restriction),
    (E, "from_theta", ref.table_from_theta),
    (E, "to_theta", ref.table_to_theta),
    (E, "compose_pi", ref.table_compose_pi),
    (E, "inverse_pi", ref.table_inverse_pi),
    (E, "pushforward_pi", ref.table_pushforward_pi),
    (E, "pushforward_left_pi", ref.table_pushforward_left_pi),
    (E, "restrict_pi", ref.table_restrict_pi),
    (E, "_theta_at_zero", ref.table_theta_at_zero),
    (D, "is_type_pi", ref.table_is_type_pi),
)


def assert_same_tables(got, want) -> None:
    """got and want derive the same tables, record by record."""
    if isinstance(got, B.Bitorsor):
        assert (got.left_act, got.right_act) == (want.left_act, want.right_act)
    elif isinstance(got, E.PiBitorsor):
        assert got.pi_action_on_points == want.pi_action_on_points
        assert_same_tables(got.bitorsor, want.bitorsor)
    elif isinstance(got, (B.BitorsorMorphism, E.PiMorphism)):
        assert_same_tables(got.src, want.src)
        assert_same_tables(got.dst, want.dst)
    elif isinstance(got, E.ThetaBitorsor):
        assert_same_tables(got.bitorsor, want.bitorsor)
    elif isinstance(got, tuple):
        for g, w in zip(got, want):
            assert_same_tables(g, w)


def _memo_clear() -> None:
    for memo in (D._gamma_structure, B._completion, B._left_completion):
        memo.cache_clear()


def _survey_ladder() -> list:
    return [(params, spec) for params, spec in load_inputs().SURVEYS]


@pytest.mark.parametrize(
    "case", [0, 1, 2, *_survey_ladder()],
    ids=lambda c: f"sweep-seed{c}" if c in (0, 1, 2) else "-".join(map(str, c[0])) + "-" + c[1],
)
def test_every_value_built_is_the_table_builders(monkeypatch, tmp_path, case):
    """Over decompose and verify of every decompose of the seeded sweep and
    every class of each survey of the survey ladder, with the memos
    cleared, each builder returns what the builder that built tables
    returns on the same arguments: value, labels and every table."""
    calls = {name: 0 for _, name, _ in BUILDERS}

    def wrap(module, name, reference):
        lib, seen = getattr(module, name), set()

        def check(*args):
            out = lib(*args)
            key = (tuple(tuple(a) if type(a) is list else a for a in args), tuple(labels(args)))
            if key not in seen:
                seen.add(key)
                want = reference(*args)
                assert_same(out, want)
                assert_same_tables(out, want)
                calls[name] += 1
            return out

        monkeypatch.setattr(module, name, check)

    for module, name, reference in BUILDERS:
        wrap(module, name, reference)
    _memo_clear()
    if isinstance(case, int):
        cases = list(_sweep_cases(case, tmp_path))
    else:
        from bitorsor_kit import formats as F

        (q, n, m), spec = case
        e = L.build_tame_quotient(L.TameParams(q, n, m))
        cases = [(t, e) for t in E.h1(e.pi_big, F.resolve_group_spec(spec))]
    for t, e in cases:
        d = D.decompose(t, e)
        assert D.verify_decomposition(t, d, e).ok
    _memo_clear()
    assert calls["orbit_restriction"] and calls["compose_pi"] and calls["base_point_morphism"]
    if any(not E.is_connected(t) for t, _ in cases):
        assert calls["pushforward_left_pi"] and calls["point_conjugation"]


def test_gluing_and_inversion_are_the_table_builders(rng):
    """Contracted products both ways, inverses, Isom carriers and both
    pushforwards of carriers twisted by two different automorphisms over
    groups whose identity is not 0, where the two u do not commute, are
    what the builders of tables build: value, labels and every table."""
    checked = noncommuting = 0
    for g in RELABELLED:
        autos = G.isomorphisms_between(g, g)
        if len(autos) < 3:
            continue
        b1 = scrambled_trivial(g, rng, autos[1])
        b2 = scrambled_trivial(g, rng, autos[-1])
        noncommuting += B.contracted_product(b1, b2).u != B.contracted_product(b2, b1).u
        for got, want in (
            (B.contracted_product(b1, b2), ref.table_contracted_product(b1, b2)),
            (B.contracted_product(b2, b1), ref.table_contracted_product(b2, b1)),
            (B.inverse(b1), ref.table_inverse(b1)),
            (B.isom_bitorsor(b1, b2), ref.table_isom_bitorsor(b1, b2)),
            (B.pushforward(b1, autos[1]), ref.table_pushforward(b1, autos[1])),
            (B.pushforward_left(b2, autos[-1]), ref.table_pushforward_left(b2, autos[-1])),
        ):
            assert_same(got, want)
            assert_same_tables(got, want)
            checked += 1
    assert checked >= 18 and noncommuting > 0


def test_induced_conditions_are_the_table_readings(z2, z4, s3, group_universe):
    """On every criterion-4 fixture, the four flags and the first stable
    class are those read off the tables."""
    checked = 0
    for t, h in induction_fixtures((z2, z4, s3), group_universe, random.Random(4)):
        assert E.induced_conditions(t, h) == ref.table_induced_conditions(t, h)
        checked += 1
    assert checked > 300


_NO_TABLES = """
import contextlib, functools, importlib, io, json, pkgutil, sys
import bitorsor_kit
from bitorsor_kit import bitorsors as B, cli, equivariant as E, errors
modules = [importlib.import_module(f"bitorsor_kit.{m.name}") for m in pkgutil.iter_modules(bitorsor_kit.__path__)]
memos = [o for mod in modules for o in vars(mod).values() if isinstance(o, functools._lru_cache_wrapper)]
derived = []
for cls, name in ((B.Bitorsor, "left_act"), (B.Bitorsor, "right_act"), (E.PiBitorsor, "pi_action_on_points")):
    derive = vars(cls)[name].func
    def counting(self, derive=derive, name=name):
        derived.append(name)
        return derive(self)
    prop = functools.cached_property(counting)
    prop.__set_name__(cls, name)
    setattr(cls, name, prop)
codes = []
for argv in json.load(sys.stdin):
    for memo in memos:
        memo.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
json.dump({"full_check": errors.FULL_CHECK, "memos": len(memos), "codes": codes, "derived": derived}, sys.stdout)
"""


def test_the_survey_ladder_derives_no_table():
    """The seven local-survey commands of the survey ladder, in a fresh
    process with BITORSOR_CHECK unset and every memo cleared before each:
    no carrier's action table and no Pi-carrier's point action is derived."""
    argvs = [
        ["local-survey", "--q", str(q), "--n", str(n), "--m", str(m), "--group", spec]
        for (q, n, m), spec in _survey_ladder()
    ]
    env = {k: v for k, v in os.environ.items() if k != "BITORSOR_CHECK"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_TABLES], input=json.dumps(argvs),
        capture_output=True, text=True, env=env, check=True,
    )
    doc = json.loads(proc.stdout)
    assert not doc["full_check"] and doc["memos"] > 10
    assert doc["codes"] == [0] * 7
    assert doc["derived"] == []


def test_trivial_carrier_reuses_the_product_table():
    """Both tables trivial_bitorsor derives are the group's own table."""
    for g in (G.dihedral(100), *RELABELLED):
        t = B.trivial_bitorsor(g)
        assert t.left_act == g.mul and t.right_act == g.mul


def test_equivariant_map_y_sends_zero_to_y(rng):
    """On relabelled carriers, whose right identity is not 0, map y of
    the reference equivariant_maps sends 0 to y and 0.g to y.g."""
    checked = 0
    for g in RELABELLED:
        b1, b2 = scrambled_trivial(g, rng), scrambled_trivial(g, rng)
        maps = ref.equivariant_maps(b1, b2)
        assert len(maps) == b2.size
        for y, f in enumerate(maps):
            assert f[0] == y
            assert all(f[b1.right_act[0][a]] == b2.right_act[y][a] for a in g.elements)
            checked += 1
    assert checked > 50


def _conjugacy_classes(g: G.FiniteGroup) -> list[frozenset[int]]:
    classes, seen = [], set()
    for x in g.elements:
        if x not in seen:
            cls = frozenset(g.conjugate(a, x) for a in g.elements)
            classes.append(cls)
            seen |= cls
    return classes


def _h1_oracle_groups() -> list[G.FiniteGroup]:
    """The cold ladder's groups and their relabelled copies, then the hom
    search tests' groups (C1-C12, S3, D4, D6, S4, C2xC2, C2xC6) and theirs."""
    from bitorsor_kit import formats as F

    specs = ("dihedral:60", "dihedral:100", "symmetric:5", "symmetric:4", "dihedral:12", "semidirect:13:3:3")
    canonical = [F.resolve_group_spec(s) for s in specs]
    rnd = random.Random(13)
    return canonical + [relabel_off_zero(g, rnd) for g in canonical] + UNIVERSE + RELABELLED


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_cyclic_h1_counts_the_classes_of_admissible_order(n):
    """H1(C_n, G) for the trivial action: a map C_n -> G is the image of
    the generator, any element whose order divides n, and conjugate maps
    are conjugate images.  So h1 has one class per conjugacy class of G of
    such elements, and the images of the generator under its
    representatives meet each of those classes exactly once."""
    pi = G.cyclic(n)
    (gen,) = pi.generators
    for g in _h1_oracle_groups():
        admissible = [c for c in _conjugacy_classes(g) if n % g.element_order(next(iter(c))) == 0]
        reps = E.h1_representatives(pi, g)
        assert len(reps) == len(admissible), (n, g.label)
        hits = sorted(next(i for i, c in enumerate(admissible) if rep.map[gen] in c) for rep in reps)
        assert hits == list(range(len(admissible))), (n, g.label)


def _square_roots_of_one(g: G.FiniteGroup) -> list[int]:
    return [x for x in g.elements if g.mul[x][x] == g.identity]


def _commutes(g: G.FiniteGroup, x: int, t: tuple[int, ...]) -> bool:
    return all(g.mul[x][y] == g.mul[y][x] for y in t)


def _dihedral_pairs(n: int, g: G.FiniteGroup) -> list[tuple[int, int]]:
    """The pairs (a, b) of g with a^n = b^2 = 1 and b a b^-1 = a^-1: by the
    presentation of D_n, the images of its generators under the homs
    D_n -> g."""
    mul, inv = g.mul, g.inv
    return [
        (a, b) for a in g.elements if n % g.element_order(a) == 0
        for b in _square_roots_of_one(g) if mul[mul[b][a]][b] == inv[a]
    ]


def _commuting_tuples(k: int, g: G.FiniteGroup) -> list[tuple[int, ...]]:
    """The k-tuples of pairwise commuting elements of g whose square is 1:
    the images of a basis under the homs (C_2)^k -> g."""
    tuples: list[tuple[int, ...]] = [()]
    for _ in range(k):
        tuples = [t + (x,) for t in tuples for x in _square_roots_of_one(g) if _commutes(g, x, t)]
    return tuples


def _burnside_orbits(g: G.FiniteGroup, tuples: list[tuple[int, ...]]) -> int:
    """The orbits of g on `tuples` under simultaneous conjugation, by the
    Cauchy-Frobenius lemma: x fixes the tuples inside its centralizer, and
    x is taken once per conjugacy class, weighted by the class size."""
    fixed = sum(len(c) * sum(_commutes(g, min(c), t) for t in tuples) for c in _conjugacy_classes(g))
    assert fixed % g.order == 0
    return fixed // g.order


def _assert_h1_is_the_orbits(pi: G.FiniteGroup, basis: tuple[int, ...], g: G.FiniteGroup, tuples) -> None:
    """h1(pi, g) for the trivial action is Hom(pi, g) up to conjugation
    (Giraud 1971).  `tuples` are the images of pi's generators `basis` under
    all homs, so the representatives must be homs onto tuples of that set,
    in pairwise distinct conjugation orbits, as many as Burnside counts."""
    assert G.closure(pi.mul, basis, pi.identity) == set(pi.elements)
    reps, admissible, orbits = E.h1_representatives(pi, g), set(tuples), set()
    for rep in reps:
        f = rep.map
        assert all(f[pi.mul[x][y]] == g.mul[f[x]][f[y]] for x in pi.elements for y in pi.elements)
        images = tuple(f[s] for s in basis)
        assert images in admissible, (pi.label, g.label)
        orbits.add(min(tuple(g.conjugate(h, y) for y in images) for h in g.elements))
    assert len(reps) == len(orbits) == _burnside_orbits(g, tuples), (pi.label, g.label)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dihedral_h1_counts_the_orbits_of_presentation_pairs(n):
    """H1(D_n, G) for the trivial action, against Burnside over the pairs
    (a, b) with a^n = b^2 = 1 and b a b^-1 = a^-1; a and b are found in
    D_n itself, not read off its generators."""
    pi = G.dihedral(n)
    a, b = next(
        (a, b) for a in pi.elements if pi.element_order(a) == n
        for b in pi.elements if pi.element_order(b) == 2 and b != a
        and pi.conjugate(b, a) == pi.inv[a] and G.closure(pi.mul, (a, b), pi.identity) == set(pi.elements)
    )
    for g in _h1_oracle_groups():
        _assert_h1_is_the_orbits(pi, (a, b), g, _dihedral_pairs(n, g))


@pytest.mark.parametrize(
    "k, specs",
    [
        pytest.param(2, ("dihedral:10", "symmetric:5"), id="2"),
        pytest.param(3, ("dihedral:10", "symmetric:5", "dihedral:60", "dihedral:100"), id="3"),
        pytest.param(5, ("dihedral:100",), id="E32-D100", marks=pytest.mark.xfail(
            run=False, reason="ROADMAP item 1: h1 takes about 10 s, above the oracles' 5 s "
            "budget, enumerating all 1,024 classes' homs; the oracle counts 1,024 classes")),
    ],
)
def test_elementary_abelian_h1_counts_the_orbits_of_commuting_involutions(k, specs):
    """H1((C_2)^k, G) for the trivial action, against Burnside over the
    centralizers: x fixes the commuting k-tuples of square roots of 1 in
    its centralizer.  E4 goes into D10 and S5, E8 into those and D60 and
    D100, each also into the hom search tests' groups and relabelled
    copies.  E32 into D100 is recorded but not run until h1 enumerates up
    to conjugation (ROADMAP item 1): h1 takes about 10 s there."""
    from bitorsor_kit import formats as F

    c2 = G.cyclic(2)
    pi = c2
    for _ in range(k - 1):
        pi = G.direct_product(pi, c2).group
    basis = pi.generators
    assert len(basis) == k and all(pi.element_order(s) == 2 for s in basis)
    canonical = [F.resolve_group_spec(s) for s in specs]
    rnd = random.Random(17)
    for g in canonical + [relabel_off_zero(g, rnd) for g in canonical] + UNIVERSE + RELABELLED:
        _assert_h1_is_the_orbits(pi, basis, g, _commuting_tuples(k, g))
