"""Validators checked on generators: seeded corruptions of every checked
type must be rejected, and on random inputs each library constructor
accepts exactly what the exhaustive reference loops in reference_checks
accept."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checks as ref
from bitorsor_kit import bitorsors as B
from bitorsor_kit import devissage as D
from bitorsor_kit import equivariant as E
from bitorsor_kit import groups as G
from bitorsor_kit.errors import DomainError

from conftest import scrambled_trivial
from test_formats import s3_extension

CORRUPTIONS_PER_GROUP = 100

# A loop (identity 0, two-sided inverses) that is not associative.  Its
# middle nucleus, the b with (a.b).c = a.(b.c) for all a and c, is {0, 1}:
# every failing triple has 2, 3, 4 or 5 in the middle slot.
LOOP6 = (
    (0, 1, 2, 3, 4, 5),
    (1, 0, 3, 2, 5, 4),
    (2, 3, 4, 5, 0, 1),
    (3, 2, 5, 4, 1, 0),
    (4, 5, 0, 1, 3, 2),
    (5, 4, 1, 0, 2, 3),
)


def outcome(build, *args) -> tuple[str, str] | None:
    """None if `build` accepts, else the exception type and the message
    with its numbers masked."""
    try:
        build(*args)
    except DomainError as exc:
        return type(exc).__name__, re.sub(r"-?\d+", "#", str(exc))
    return None


def rejects(build, *args) -> bool:
    return outcome(build, *args) is not None


def relabel_table(table, perm):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def relabel(g: G.FiniteGroup, perm, label: str | None = None) -> G.FiniteGroup:
    return G.make_group(
        relabel_table(g.mul, perm), tuple(perm[x] for x in g.generators), label or f"{g.label}~"
    )


def other_value(rnd: random.Random, n: int, old: int) -> int:
    v = rnd.randrange(n - 1)
    return v + 1 if v >= old else v


def replace_at(seq, i, v) -> tuple:
    out = list(seq)
    out[i] = v
    return tuple(out)


def automorphisms(g: G.FiniteGroup) -> list[G.GroupHom]:
    return G.isomorphisms_between(g, g)


def left_mult_morphism(g: G.FiniteGroup, h: int, alpha: G.GroupHom, phi_left, phi_right):
    """Fields of the candidate morphism x |-> h.alpha(x) of trivial carriers;
    it is a morphism exactly for phi_left = conj_h o alpha, phi_right = alpha."""
    t = B.trivial_bitorsor(g)
    u = tuple(g.mul[h][alpha.map[x]] for x in g.elements)
    return t, t, phi_left, u, phi_right


def conj_after(g: G.FiniteGroup, h: int, alpha: G.GroupHom) -> G.GroupHom:
    return G.GroupHom(g, g, tuple(g.conjugate(h, alpha.map[x]) for x in g.elements))


# ---------------------------------------------------------------- mutations


def _relabelled_d6() -> G.FiniteGroup:
    g = G.dihedral(6)
    perm = list(g.elements)
    random.Random(6).shuffle(perm)
    if perm[g.identity] == 0:
        perm[g.identity], perm[1] = perm[1], perm[g.identity]
    out = relabel(g, perm, "D6~")
    assert out.identity != 0
    return out


@pytest.fixture(scope="module")
def mutation_groups(z6, s3, d4):
    return {"C6": z6, "S3": s3, "D4": d4, "D6~": _relabelled_d6()}


GROUP_NAMES = ["C6", "S3", "D4", "D6~"]


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_hom_map_corruptions_rejected(mutation_groups, name):
    g = mutation_groups[name]
    rnd = random.Random(f"hom-{name}")
    homs = [h for dst in mutation_groups.values() for h in G.enumerate_homs(g, dst)]
    for _ in range(CORRUPTIONS_PER_GROUP):
        f = rnd.choice(homs)
        a = rnd.randrange(g.order)
        bad = replace_at(f.map, a, other_value(rnd, f.dst.order, f.map[a]))
        assert rejects(G.GroupHom, g, f.dst, bad)
        assert rejects(ref.group_hom, g, f.dst, bad)


def _carrier_corruption(rnd: random.Random, b: B.Bitorsor):
    """One corrupted (left_act, right_act) pair.  Single entries break the
    permutation property; whole-row or whole-column swaps keep every action
    free and transitive, so only the action laws can reject them."""
    la = [list(r) for r in b.left_act]
    ra = [list(r) for r in b.right_act]
    k = b.size
    kind = rnd.randrange(4)
    if kind == 0:
        gp, x = rnd.randrange(len(la)), rnd.randrange(k)
        la[gp][x] = other_value(rnd, k, la[gp][x])
    elif kind == 1:
        x, g = rnd.randrange(k), rnd.randrange(len(ra[0]))
        ra[x][g] = other_value(rnd, k, ra[x][g])
    elif kind == 2:
        g1, g2 = rnd.sample(range(len(la)), 2)
        la[g1], la[g2] = la[g2], la[g1]
    else:
        g1, g2 = rnd.sample(range(len(ra[0])), 2)
        for row in ra:
            row[g1], row[g2] = row[g2], row[g1]
    return tuple(map(tuple, la)), tuple(map(tuple, ra))


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_carrier_action_corruptions_rejected(mutation_groups, name):
    g = mutation_groups[name]
    rnd = random.Random(f"carrier-{name}")
    twists = [None] + automorphisms(g)[1:3]
    carriers = [scrambled_trivial(g, rnd, twist=t) for t in twists] + [B.trivial_bitorsor(g)]
    for _ in range(CORRUPTIONS_PER_GROUP):
        b = rnd.choice(carriers)
        la, ra = _carrier_corruption(rnd, b)
        assert rejects(B.Bitorsor.from_tables, g, g, la, ra)
        assert rejects(ref.bitorsor, g, g, la, ra)


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_morphism_point_map_corruptions_rejected(mutation_groups, name):
    g = mutation_groups[name]
    rnd = random.Random(f"morphism-{name}")
    morphisms = []
    for t in [None] + automorphisms(g)[1:3]:
        b = scrambled_trivial(g, rnd, twist=t)
        morphisms += [
            B.base_point_morphism(B.trivial_bitorsor(g), g.identity, b, x, G.identity_hom(g))
            for x in (0, g.order - 1)
        ]
    for alpha in automorphisms(g)[:4]:
        h = rnd.randrange(g.order)
        morphisms.append(B.BitorsorMorphism(*left_mult_morphism(g, h, alpha, conj_after(g, h, alpha), alpha)))
    for _ in range(CORRUPTIONS_PER_GROUP):
        m = rnd.choice(morphisms)
        x = rnd.randrange(m.src.size)
        u = replace_at(m.point_map, x, other_value(rnd, m.dst.size, m.point_map[x]))
        args = (m.src, m.dst, m.phi_left, u, m.phi_right)
        assert rejects(B.BitorsorMorphism, *args)
        assert rejects(ref.bitorsor_morphism, *args)


def _pi_groups(mutation_groups, pi: G.FiniteGroup, rnd: random.Random) -> list[E.PiGroup]:
    out = []
    for grp in mutation_groups.values():
        thetas = G.enumerate_homs(pi, grp)
        out += [E.conjugation_pi_group(t) for t in rnd.sample(thetas, min(3, len(thetas)))]
    return out


def _build_pi_group(group, pi, maps):
    return E.PiGroup(group, pi, tuple(G.GroupHom(group, group, m).map for m in maps))


def _ref_pi_group(group, pi, maps):
    for m in maps:
        ref.group_hom(group, group, m)
    ref.pi_group(group, pi, tuple(G.GroupHom(group, group, m) for m in maps))


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_pi_group_action_corruptions_rejected(mutation_groups, name):
    pi = mutation_groups[name]
    rnd = random.Random(f"pigroup-{name}")
    structures = _pi_groups(mutation_groups, pi, rnd)
    auts = {pg.group: [f.map for f in automorphisms(pg.group)] for pg in structures}
    for _ in range(CORRUPTIONS_PER_GROUP):
        pg = rnd.choice(structures)
        maps = list(pg.action)
        c = rnd.randrange(pi.order)
        if rnd.randrange(2):
            # one entry of one automorphism
            x = rnd.randrange(pg.group.order)
            maps[c] = replace_at(maps[c], x, other_value(rnd, pg.group.order, maps[c][x]))
        else:
            # one symmetry sent to a different automorphism
            choices = [m for m in auts[pg.group] if m != maps[c]]
            maps[c] = rnd.choice(choices)
        assert rejects(_build_pi_group, pg.group, pi, maps)
        assert rejects(_ref_pi_group, pg.group, pi, maps)


def _pi_groups_in(value) -> list[E.PiGroup]:
    """Every Pi-group inside a record, in field order."""
    if isinstance(value, E.PiGroup):
        return [value]
    if hasattr(type(value), "__match_args__"):
        return [pg for f in value.__match_args__ for pg in _pi_groups_in(getattr(value, f))]
    if isinstance(value, tuple):
        return [pg for v in value for pg in _pi_groups_in(v)]
    return []


def _kind(build, *args) -> str | None:
    try:
        build(*args)
    except DomainError as exc:
        return type(exc).__name__
    return None


def test_pi_group_constructor_agrees_with_the_hom_builder(mutation_groups, s3):
    """PiGroup(group, pi, rows) accepts and rejects, with the same exception
    type, exactly what pi_group_from_rows, the reader's builder over one
    GroupHom per element of pi, did: on the Pi-groups of the corruption
    fixtures above and of test_formats' S3 certificate, on every
    single-entry tamper of each, to every value from -1 to the order, and
    on each row replaced by another row of the table."""
    structures = []
    for name in GROUP_NAMES:
        structures += _pi_groups(mutation_groups, mutation_groups[name], random.Random(f"pigroup-{name}"))
    e = s3_extension()
    rep = E.h1(e.pi_big, s3)[-1]
    structures += _pi_groups_in(D.decompose(rep, e))
    distinct, tampers = dict.fromkeys(structures), 0
    for pg in distinct:
        g, pi, rows = pg.group, pg.pi, pg.action
        built = ref.pi_group_from_rows(g, pi, rows)
        assert E.PiGroup(g, pi, rows) == pg and tuple(f.map for f in built.action) == rows
        for c, row in enumerate(rows):
            tampered = [replace_at(rows, c, other) for other in set(rows) - {row}]
            for x, v in enumerate(row):
                tampered += [replace_at(rows, c, replace_at(row, x, w)) for w in range(-1, g.order + 1) if w != v]
            for bad in tampered:
                assert _kind(E.PiGroup, g, pi, bad) == _kind(ref.pi_group_from_rows, g, pi, bad)
            tampers += len(tampered)
    assert len(distinct) >= 40 and tampers > 20_000


@pytest.mark.parametrize("name", GROUP_NAMES)
def test_pi_point_action_corruptions_rejected(mutation_groups, name):
    pi = mutation_groups[name]
    rnd = random.Random(f"pibitorsor-{name}")
    structures = []
    for grp in mutation_groups.values():
        carrier = scrambled_trivial(grp, rnd)
        for theta in rnd.sample(G.enumerate_homs(pi, grp), 2):
            structures.append(E.from_theta(E.ThetaBitorsor(carrier, theta)))
    for _ in range(CORRUPTIONS_PER_GROUP):
        p = rnd.choice(structures)
        k = p.bitorsor.size
        rows = [list(r) for r in p.pi_action_on_points]
        c = rnd.randrange(pi.order)
        kind = rnd.randrange(3)
        if kind == 0:
            x = rnd.randrange(k)
            rows[c][x] = other_value(rnd, k, rows[c][x])
        elif kind == 1:
            x, y = rnd.sample(range(k), 2)
            rows[c][x], rows[c][y] = rows[c][y], rows[c][x]
        else:
            rows[c] = list(rnd.choice([r for r in p.bitorsor.left_act if list(r) != rows[c]]))
        pa = tuple(map(tuple, rows))
        args = (p.left, p.right, p.bitorsor, pa)
        assert rejects(E.PiBitorsor.from_tables, *args)
        assert rejects(ref.pi_bitorsor, *args)


def test_associativity_failure_off_the_generators_rejected():
    n = len(LOOP6)
    failing = [
        (a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if LOOP6[LOOP6[a][b]][c] != LOOP6[a][LOOP6[b][c]]
    ]
    assert failing and all(b not in (0, 1) for _, b, _ in failing)
    # with 1 as the only declared generator, every checked middle slot
    # associates; the table is still refused because 1 does not generate
    with pytest.raises(G.GeneratorsDoNotGenerate):
        G.make_group(LOOP6, (1,))
    with pytest.raises(G.NotAssociative):
        G.make_group(LOOP6, (1, 2))
    perm = (3, 0, 5, 1, 4, 2)
    with pytest.raises(DomainError):
        G.make_group(relabel_table(LOOP6, perm), (perm[1],))
    for gens in [(1,), (1, 2)]:
        with pytest.raises(G.NotAssociative):
            ref.make_group(LOOP6, gens)


# ----------------------------------------------------- reference cross-check
#
# Outcomes are compared, not just acceptance.  Each rewritten validator keeps
# the order of its checks, so the first failing check must match the
# exhaustive loop's.  Three orders changed, and those comparisons are
# coarser: FiniteGroup proves generation before associativity,
# from_right_torsor checks the identity at every point before the action
# law, and PiBitorsor no longer takes left and right compatibility symmetry
# by symmetry over all of pi.


def _pool() -> list[G.FiniteGroup]:
    c2 = G.cyclic(2)
    return [
        G.cyclic(1), c2, G.cyclic(3), G.cyclic(4), G.cyclic(5), G.cyclic(6), G.cyclic(8),
        G.direct_product(c2, c2).group, G.symmetric(3), G.dihedral(4), G.dihedral(5),
        G.dihedral(6), G.symmetric(4),
        G.semidirect_product(*G.cyclic_power_action(7, 3, 2)).group,
    ]


POOL = _pool()
SMALL = [g for g in POOL if g.order <= 8]


def random_relabel(g: G.FiniteGroup, rnd: random.Random) -> G.FiniteGroup:
    perm = list(g.elements)
    rnd.shuffle(perm)
    return relabel(g, perm)


def first_generator_map(src: G.FiniteGroup, dst: G.FiniteGroup, rnd: random.Random, y: int | None = None):
    """A map f with f(e) = e and f(a.g) = f(a).y for g = src.generators[0]
    and every a, random elsewhere: a hom on the first generator only."""
    g0 = src.generators[0]
    m = src.element_order(g0)
    if y is None:
        y = rnd.choice([v for v in dst.elements if m % dst.element_order(v) == 0])
    f: list[int | None] = [None] * src.order
    for a in [src.identity, *src.elements]:
        if f[a] is not None:
            continue
        x, w = a, dst.identity if a == src.identity else rnd.randrange(dst.order)
        for _ in range(m):
            f[x] = w
            x, w = src.mul[x][g0], dst.mul[w][y]
    return tuple(f)


def first_generator_twist(g: G.FiniteGroup, rnd: random.Random, left: bool) -> list[int]:
    """A random permutation s of g commuting with translation by the first
    generator g0, on the left (s(g0.x) = g0.s(x)) or on the right: it
    permutes the orbits of that translation and rotates each one."""
    g0 = g.generators[0]
    step = (lambda x: g.mul[g0][x]) if left else (lambda x: g.mul[x][g0])
    orbits = []
    seen: set[int] = set()
    for x in g.elements:
        if x not in seen:
            orbit = [x]
            while step(orbit[-1]) != x:
                orbit.append(step(orbit[-1]))
            seen.update(orbit)
            orbits.append(orbit)
    targets = orbits[:]
    rnd.shuffle(targets)
    s = [0] * g.order
    for orbit, target in zip(orbits, targets):
        shift = rnd.randrange(len(orbit))
        for i, x in enumerate(orbit):
            s[x] = target[(i + shift) % len(orbit)]
    return s


def first_generator_carrier(g: G.FiniteGroup, rnd: random.Random, left: bool):
    """(left_act, right_act) on g whose actions are both valid, free and
    transitive, with one side's translations conjugated by a permutation
    that commutes with the other side's translation by the first generator
    only: they commute for that generator, and often for no other."""
    s = first_generator_twist(g, rnd, left)
    s_inv = [0] * g.order
    for x, v in enumerate(s):
        s_inv[v] = x
    if left:
        return g.mul, tuple(tuple(s[g.mul[s_inv[x]][h]] for h in g.elements) for x in g.elements)
    return tuple(tuple(s[g.mul[h][s_inv[x]]] for x in g.elements) for h in g.elements), g.mul


def _corrupt_table(table, rnd: random.Random):
    rows = [list(r) for r in table]
    n = len(rows)
    kind = rnd.randrange(4) if n > 1 else 0
    if kind == 1:
        i, j = rnd.randrange(n), rnd.randrange(n)
        rows[i][j] = other_value(rnd, n, rows[i][j])
    elif kind == 2:
        a, b = rnd.sample(range(n), 2)
        rows[a], rows[b] = rows[b], rows[a]
    elif kind == 3:
        a, b = rnd.sample(range(n), 2)
        for r in rows:
            r[a], r[b] = r[b], r[a]
    return rows


@settings(max_examples=150, deadline=None)
@given(index=st.integers(0, len(POOL)), seed=st.integers(0, 10**6))
def test_group_tables_agree_with_reference(index, seed):
    rnd = random.Random(seed)
    if index == len(POOL):
        table, gens = LOOP6, rnd.choice([(1,), (1, 2), (2, 1), (2,), (3, 4)])
    else:
        g = random_relabel(POOL[index], rnd)
        table, gens = _corrupt_table(g.mul, rnd), g.generators
    n = len(table)
    perm = list(range(n))
    rnd.shuffle(perm)
    table = relabel_table(table, perm)
    gens = tuple(perm[x] for x in gens)
    if rnd.randrange(3) == 0:
        gens = tuple(rnd.sample(range(n), rnd.randrange(n + 1)))
    got, want = outcome(G.make_group, table, gens), outcome(ref.make_group, table, gens)
    if want is not None and want[0] == "NotAssociative":
        assert got is not None and got[0] in ("NotAssociative", "GeneratorsDoNotGenerate")
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(i=st.integers(0, len(SMALL) - 1), j=st.integers(0, len(POOL) - 1), seed=st.integers(0, 10**6))
def test_homs_and_normality_agree_with_reference(i, j, seed):
    rnd = random.Random(seed)
    src, dst = random_relabel(SMALL[i], rnd), random_relabel(POOL[j], rnd)
    kind = rnd.randrange(4)
    if kind < 2:
        m = rnd.choice(G.enumerate_homs(src, dst)).map
        if kind:
            a = rnd.randrange(src.order)
            m = replace_at(m, a, rnd.randrange(dst.order))
    elif kind == 2:
        m = first_generator_map(src, dst, rnd)
    else:
        m = tuple(dst.identity if a == src.identity else rnd.randrange(dst.order) for a in src.elements)
    assert outcome(G.GroupHom, src, dst, m) == outcome(ref.group_hom, src, dst, m)
    members = tuple(sorted(G.closure(dst.mul, rnd.sample(dst.elements, rnd.randrange(min(3, dst.order + 1))), dst.identity)))
    normal = ref.is_normal(dst, members)
    assert G.subgroup(dst, members).is_normal == G.Subgroup(dst, members).is_normal == normal
    assert outcome(G.Subgroup, dst, members) == outcome(ref.subgroup, dst, members, normal)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), m=st.integers(2, 6), k=st.integers(0, 8), seed=st.integers(0, 10**6))
def test_semidirect_actions_agree_with_reference(n, m, k, seed):
    rnd = random.Random(seed)
    n_grp, q_grp, acts = G.cyclic_power_action(n, m, k)
    if rnd.randrange(2):
        auts = automorphisms(n_grp)
        c = rnd.randrange(m)
        acts = replace_at(acts, c, rnd.choice(auts))
    acts = list(acts)
    assert outcome(G.semidirect_product, n_grp, q_grp, acts) == outcome(
        ref.semidirect_action, n_grp, q_grp, acts
    )


@settings(max_examples=150, deadline=None)
@given(index=st.integers(0, len(POOL) - 1), seed=st.integers(0, 10**6))
def test_carriers_agree_with_reference(index, seed):
    rnd = random.Random(seed)
    g = random_relabel(POOL[index], rnd)
    auts = automorphisms(g) if g.order <= 12 else [G.identity_hom(g)]
    b = scrambled_trivial(g, rnd, twist=rnd.choice(auts))
    kind = rnd.randrange(6) if g.order > 1 else 0
    if kind == 0:
        la, ra = b.left_act, b.right_act
    elif kind == 1:
        # two valid actions taken from unrelated carriers
        la, ra = b.left_act, scrambled_trivial(g, rnd).right_act
    elif kind in (2, 3):
        la, ra = first_generator_carrier(g, rnd, left=kind == 2)
    else:
        la, ra = _carrier_corruption(rnd, b)
    assert outcome(B.Bitorsor.from_tables, g, g, la, ra) == outcome(ref.bitorsor, g, g, la, ra)
    # from_right_torsor now checks the identity at every point before the
    # action law, so only the exception types are compared
    got, want = outcome(B.from_right_torsor, g.order, g, ra), outcome(ref.right_torsor, g.order, g, ra)
    assert (got and got[0]) == (want and want[0])


@settings(max_examples=150, deadline=None)
@given(index=st.integers(0, len(SMALL) - 1), seed=st.integers(0, 10**6))
def test_morphisms_agree_with_reference(index, seed):
    rnd = random.Random(seed)
    g = random_relabel(SMALL[index], rnd)
    auts = automorphisms(g)
    h, alpha = rnd.randrange(g.order), rnd.choice(auts)
    phi_left = conj_after(g, rnd.choice([h, rnd.randrange(g.order)]), rnd.choice([alpha, rnd.choice(auts)]))
    phi_right = rnd.choice([alpha, rnd.choice(auts)])
    src, dst, _, u, _ = left_mult_morphism(g, h, alpha, phi_left, phi_right)
    if rnd.randrange(3) == 0:
        x = rnd.randrange(g.order)
        u = replace_at(u, x, rnd.randrange(g.order))
    args = (src, dst, phi_left, u, phi_right)
    assert outcome(B.BitorsorMorphism, *args) == outcome(ref.bitorsor_morphism, *args)


@settings(max_examples=200, deadline=None)
@given(i=st.integers(0, len(SMALL) - 1), j=st.integers(0, len(SMALL) - 1), seed=st.integers(0, 10**6))
def test_pi_layer_agrees_with_reference(i, j, seed):
    rnd = random.Random(seed)
    pi, g = random_relabel(SMALL[i], rnd), random_relabel(SMALL[j], rnd)
    c0 = pi.generators[0]
    thetas = G.enumerate_homs(pi, g)
    t1 = rnd.choice(thetas)
    h = rnd.randrange(g.order)
    # half the time t2 agrees with h.t1.h^-1 on the first generator of pi
    near = [t for t in thetas if t.map[c0] == g.conjugate(h, t1.map[c0])]
    t2 = rnd.choice(near if rnd.randrange(2) else thetas)
    auts = [f.map for f in automorphisms(g)]

    # PiGroup: conjugation through a hom, or through a map that is a hom on
    # pi's first generator only, perhaps with one slot replaced
    f = t1.map if rnd.randrange(2) else first_generator_map(pi, g, rnd)
    maps = [tuple(g.conjugate(f[c], x) for x in g.elements) for c in pi.elements]
    if rnd.randrange(3) == 0:
        maps[rnd.randrange(pi.order)] = rnd.choice(auts)
    assert outcome(_build_pi_group, g, pi, maps) == outcome(_ref_pi_group, g, pi, maps)

    # is_pi_equivariant_hom between two conjugation structures
    a, b = E.conjugation_pi_group(t1), E.conjugation_pi_group(t2)
    phi = G.GroupHom(g, g, rnd.choice([tuple(g.elements), *auts]))
    assert E.is_pi_equivariant_hom(phi, a, b) == ref.is_pi_equivariant_hom(phi, a, b)

    # PiBitorsor: the theta presentation's point action, perhaps tampered
    p = E.from_theta(E.ThetaBitorsor(scrambled_trivial(g, rnd), t1))
    rows = [list(r) for r in p.pi_action_on_points]
    kind = rnd.randrange(4) if g.order > 1 else 0
    c = rnd.randrange(pi.order)
    if kind == 1:
        x, y = rnd.sample(range(g.order), 2)
        rows[c][x], rows[c][y] = rows[c][y], rows[c][x]
    elif kind == 2:
        rows[c] = list(rnd.choice(p.bitorsor.left_act))
    elif kind == 3:
        f = first_generator_map(pi, g, rnd, y=t1.map[c0])
        rows = [list(p.bitorsor.left_act[f[c]]) for c in pi.elements]
    # twisted structures, often compatible on first generators only
    g0 = g.generators[0]

    def centralizes_g0(x: int) -> bool:
        return g.mul[x][g0] == g.mul[g0][x]

    left_pool = [
        thetas,
        [t for t in thetas if t.map[c0] == t1.map[c0]],
        [t for t in thetas if all(centralizes_g0(g.mul[g.inv[t.map[c]]][t1.map[c]]) for c in pi.elements)],
    ]
    right_pool = [thetas, [t for t in thetas if all(centralizes_g0(t.map[c]) for c in pi.elements)]]
    left = rnd.choice([p.left, E.conjugation_pi_group(rnd.choice(rnd.choice(left_pool)))])
    right = rnd.choice([p.right, E.conjugation_pi_group(rnd.choice(rnd.choice(right_pool)))])
    args = (left, right, p.bitorsor, tuple(map(tuple, rows)))
    # the old loop took left and right compatibility symmetry by symmetry,
    # so which side is reported first may change
    got, want = (
        o and (o[0], re.sub(r"^(left|right) ", "", o[1]))
        for o in (outcome(E.PiBitorsor.from_tables, *args), outcome(ref.pi_bitorsor, *args))
    )
    assert got == want

    # PiMorphism: x |-> h.x between two theta presentations on one carrier
    triv = B.trivial_bitorsor(g)
    src = E.from_theta(E.ThetaBitorsor(triv, t1))
    dst = E.from_theta(E.ThetaBitorsor(triv, t2))
    ident = G.identity_hom(g)
    inner = B.BitorsorMorphism(*left_mult_morphism(g, h, ident, conj_after(g, h, ident), ident))
    assert outcome(E.PiMorphism, src, dst, inner) == outcome(ref.pi_morphism, src, dst, inner)


def _multi_generator_groups() -> list[G.FiniteGroup]:
    rnd = random.Random(3)
    c2 = G.cyclic(2)
    return [
        random_relabel(g, rnd)
        for g in (G.symmetric(3), G.dihedral(4), G.direct_product(c2, c2).group)
    ]


def test_laws_on_the_first_generator_only_agree_with_reference():
    """Inputs that satisfy each law for the first generator of every group
    involved, and often fail it for the second: a validator that checked
    fewer generators than all would accept some of them."""
    rnd = random.Random(20261017)
    multi = _multi_generator_groups()
    for g in multi:
        for left in (True, False):
            for _ in range(15):
                la, ra = first_generator_carrier(g, rnd, left)
                assert outcome(B.Bitorsor.from_tables, g, g, la, ra) == outcome(ref.bitorsor, g, g, la, ra)
    for pi in multi:
        c0 = pi.generators[0]
        for g in multi:
            g0 = g.generators[0]
            thetas = G.enumerate_homs(pi, g)
            triv = B.trivial_bitorsor(g)
            for t1 in rnd.sample(thetas, min(6, len(thetas))):
                f = first_generator_map(pi, g, rnd, y=t1.map[c0])
                assert outcome(G.GroupHom, pi, g, f) == outcome(ref.group_hom, pi, g, f)
                maps = [tuple(g.conjugate(f[c], x) for x in g.elements) for c in pi.elements]
                assert outcome(_build_pi_group, g, pi, maps) == outcome(_ref_pi_group, g, pi, maps)
                p = E.from_theta(E.ThetaBitorsor(triv, t1))
                same_c0 = [t for t in thetas if t.map[c0] == t1.map[c0]]
                centralize_quotient = [
                    t for t in thetas
                    if all(g.mul[g.mul[g.inv[t.map[c]]][t1.map[c]]][g0] == g.mul[g0][g.mul[g.inv[t.map[c]]][t1.map[c]]]
                           for c in pi.elements)
                ]
                centralize_g0 = [
                    t for t in thetas if all(g.mul[t.map[c]][g0] == g.mul[g0][t.map[c]] for c in pi.elements)
                ]
                lefts = [p.left] + [E.conjugation_pi_group(rnd.choice(pool)) for pool in (same_c0, centralize_quotient)]
                rights = [p.right, E.conjugation_pi_group(rnd.choice(centralize_g0))]
                row_sets = [p.pi_action_on_points, tuple(triv.left_act[f[c]] for c in pi.elements)]
                for left in lefts:
                    for right in rights:
                        for rows in row_sets:
                            args = (left, right, triv, rows)
                            got, want = (
                                o and (o[0], re.sub(r"^(left|right) ", "", o[1]))
                                for o in (outcome(E.PiBitorsor.from_tables, *args), outcome(ref.pi_bitorsor, *args))
                            )
                            assert got == want
                for t2 in rnd.sample(same_c0, min(3, len(same_c0))):
                    a, b = E.conjugation_pi_group(t1), E.conjugation_pi_group(t2)
                    ident = G.identity_hom(g)
                    assert E.is_pi_equivariant_hom(ident, a, b) == ref.is_pi_equivariant_hom(ident, a, b)
                    dst = E.from_theta(E.ThetaBitorsor(triv, t2))
                    inner = B.identity_morphism(triv)
                    assert outcome(E.PiMorphism, p, dst, inner) == outcome(ref.pi_morphism, p, dst, inner)


def test_small_cases_agree_with_reference():
    """Deterministic sweeps over small inputs for the remaining validators:
    normality of every subgroup, semidirect actions, left-multiplication
    morphisms, and right torsors with two columns swapped or one entry
    changed."""
    rnd = random.Random(17)
    multi = _multi_generator_groups() + [_relabelled_d6()]
    for g in multi:
        for h in G.all_subgroups(g):
            normal = ref.is_normal(g, h.members)
            assert h.is_normal == G.Subgroup(g, h.members).is_normal == normal
            assert outcome(G.Subgroup, g, h.members) == outcome(ref.subgroup, g, h.members, normal)
    for n in range(2, 8):
        for m in range(2, 5):
            for k in range(n):
                n_grp, q_grp, acts = G.cyclic_power_action(n, m, k)
                assert outcome(G.semidirect_product, n_grp, q_grp, acts) == outcome(
                    ref.semidirect_action, n_grp, q_grp, acts
                )
    for g in multi:
        auts = automorphisms(g)
        for alpha in rnd.sample(auts, min(3, len(auts))):
            h = rnd.randrange(g.order)
            for phi_left in (conj_after(g, h, alpha), conj_after(g, h, rnd.choice(auts))):
                for phi_right in (alpha, rnd.choice(auts)):
                    args = left_mult_morphism(g, h, alpha, phi_left, phi_right)
                    assert outcome(B.BitorsorMorphism, *args) == outcome(ref.bitorsor_morphism, *args)
        for a in g.elements:
            for b in range(a + 1, g.order):
                ra = tuple(
                    tuple(row[b] if x == a else row[a] if x == b else row[x] for x in g.elements)
                    for row in g.mul
                )
                x, y = rnd.randrange(g.order), rnd.randrange(g.order)
                bad = replace_at(g.mul, x, replace_at(g.mul[x], y, other_value(rnd, g.order, g.mul[x][y])))
                for table in (ra, bad):
                    got = outcome(B.from_right_torsor, g.order, g, table)
                    want = outcome(ref.right_torsor, g.order, g, table)
                    assert (got and got[0]) == (want and want[0])
