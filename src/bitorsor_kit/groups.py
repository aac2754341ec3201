"""Finite groups on index sets 0..n-1, stored as dense multiplication tables.

A group stores its table, generators and label; its identity and inverses
are read off the table, and a subgroup's normality off the parent's
generators.  make_group, the named constructors and the public
constructors check every axiom in full, each law on a generating set by
Light's associativity test (Clifford & Preston, The Algebraic Theory of
Semigroups I, 1961, section 1.2).  Values computed by formula from checked
ones (identity, composite and conjugate homs, the homs the hom search
extends from generator images, kernels and images, subgroups as groups,
quotients) skip the check through errors.by_formula, unless
BITORSOR_CHECK=full, as in the tests.  make_group's memo is the FiniteGroup
constructor itself, keeping 512 groups per process on (table, generators,
label), since labels reach the output and group equality ignores them;
subgroup_as_group keeps 1,024 subgroups on (parent, its label, members,
label) for the same reason; failures are not cached.  A hom's class under
conjugation in its codomain is named by one invariant, its canonical
conjugate: the conjugate with the lexicographically least map.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, by_formula, record


class GroupError(DomainError):
    """Base for failures in the group layer."""


class MalformedTable(GroupError):
    pass


class NoIdentity(GroupError):
    pass


class NoInverse(GroupError):
    pass


class NotAssociative(GroupError):
    pass


class GeneratorsDoNotGenerate(GroupError):
    pass


class NotAHomomorphism(GroupError):
    pass


class NotASubgroup(GroupError):
    pass


class NotNormal(GroupError):
    pass


class NotAnAction(GroupError):
    pass


class NotSurjective(GroupError):
    pass


class MixedSignatures(GroupError):
    pass


SYMMETRIC_MAX_DEGREE = 5
# The largest group order the command line accepts.
MAX_ORDER = 200


def closure(mul: Sequence[Sequence[int]], seed: Iterable[int], identity: int) -> set[int]:
    """Subgroup generated by `seed` (finite, so products alone suffice)."""
    seen = {identity}
    gens = [g for g in seed]
    frontier = [identity]
    for g in gens:
        if g not in seen:
            seen.add(g)
            frontier.append(g)
    while frontier:
        a = frontier.pop()
        row = mul[a]
        for g in gens:
            b = row[g]
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def generating_set(mul: Sequence[Sequence[int]], identity: int) -> tuple[int, ...]:
    """Greedy generating set, deterministic in element order."""
    n = len(mul)
    gens: list[int] = []
    have = {identity}
    for g in range(n):
        if g not in have:
            gens.append(g)
            have = closure(mul, gens, identity)
            if len(have) == n:
                break
    return tuple(gens) if gens else (identity,)


def check_ints(values: Sequence, error: type[DomainError], what: str = "entry", table: bool = True):
    """`values`, each entry of which (a table's rows or, with table=False,
    one row) is an int: a bool or a float would pass a range check for one.
    The types are tested in one pass; a failure raises `error` naming the
    first bad entry, as `what` (row,column) or as `what`[index]."""
    rows = values if table else (values,)
    if not {int}.issuperset(map(type, itertools.chain.from_iterable(rows))):
        i, j, v = next((i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if type(v) is not int)
        raise error(f"{what} ({i},{j}) = {v!r} is not an int" if table else f"{what}[{j}] = {v!r} is not an int")
    return values


def as_int(v):
    """v as an int if it equals its int (a bool, 1.0), else as given for check_ints to refuse."""
    try:
        return int(v) if int(v) == v else v
    except (TypeError, ValueError, OverflowError):
        return v


def _check_square(mul: Sequence[Sequence[int]]) -> None:
    """Every row has length n and every entry lies in 0..n-1: each row
    whole, then the first bad entry of a failed check by itself."""
    n = len(mul)
    if n == 0:
        raise MalformedTable("empty multiplication table")
    valid = frozenset(range(n))
    for i, row in enumerate(mul):
        if len(row) != n:
            raise MalformedTable(f"row {i} has length {len(row)}, expected {n}")
        if not valid.issuperset(row):
            j, v = next((j, v) for j, v in enumerate(row) if not (0 <= v < n))
            raise MalformedTable(f"entry ({i},{j}) = {v} out of range")


@record(uncompared=("label",))
class FiniteGroup:
    """A finite group on indices 0..order-1 given by its full product table.

    The identity and the inverses are read off the table, not stored, so
    no caller can state them wrongly; the identity need not sit at 0.
    """

    mul: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...]
    label: str

    def __post_init__(self) -> None:
        """Complete by Light's test: once the generators are known to
        generate, the elements g with (a.g).c = a.(g.c) for all a, c contain
        the identity and are closed under products, so checking g over the
        generators proves associativity for every g.  Each law is compared
        a whole row at a time; the first failing element or triple is then
        found in the row that failed."""
        mul = self.mul
        check_ints(mul, MalformedTable)
        check_ints(self.generators, GeneratorsDoNotGenerate, "generators", table=False)
        _check_square(mul)
        n = len(mul)
        e, _ = self.identity, self.inv  # reading them checks that they exist
        if not self.generators:
            raise GeneratorsDoNotGenerate("empty generator list")
        for g in self.generators:
            if not (0 <= g < n):
                raise GeneratorsDoNotGenerate(f"generator {g} out of range")
        got = closure(mul, self.generators, e)
        if len(got) != n:
            missing = min(set(range(n)) - got)
            raise GeneratorsDoNotGenerate(f"element {missing} not generated")
        # row a of a.(b.c) is row a read through row b; order 1 is associative
        through = [(b, itemgetter(*mul[b])) for b in self.generators] if n > 1 else []
        for a, ra in enumerate(mul):
            for b, read in through:
                if read(ra) != tuple(mul[ra[b]]):
                    c = next(c for c in range(n) if mul[ra[b]][c] != ra[mul[b][c]])
                    raise NotAssociative(f"first violating triple (a,b,c)=({a},{b},{c})")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:  # computed once: groups key most memos
        return hash((self.mul, self.generators))

    @cached_property
    def identity(self) -> int:
        """The first element whose row and column are the identity
        permutation."""
        mul = self.mul
        ident = tuple(range(len(mul)))
        for e, row in enumerate(mul):
            if tuple(row) == ident and tuple(map(itemgetter(e), mul)) == ident:
                return e
        raise NoIdentity("no two-sided neutral element")

    @cached_property
    def inv(self) -> tuple[int, ...]:
        """For each a, the first b in its row with a.b = b.a = identity."""
        mul, e = self.mul, self.identity
        inv = []
        for a, row in enumerate(mul):
            try:
                b = row.index(e)
                while mul[b][a] != e:
                    b = row.index(e, b + 1)
            except ValueError:
                raise NoInverse(f"element {a} has no two-sided inverse") from None
            inv.append(b)
        return tuple(inv)

    @cached_property
    def order(self) -> int:
        return len(self.mul)

    @cached_property
    def elements(self) -> range:
        return range(self.order)

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul[x][a]
            k += 1
        return k

    def is_abelian(self) -> bool:
        return all(r[j] == self.mul[j][i] for i, r in enumerate(self.mul) for j in range(i))

    def is_cyclic(self) -> bool:
        return any(self.element_order(a) == self.order for a in self.elements)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"


def make_group(mul_table: Sequence[Sequence[int]], generators: Iterable[int], label: str = "G") -> FiniteGroup:
    """Validate a raw table and package it; FiniteGroup reads off its
    identity and inverses."""
    mul = tuple(mul_table)
    if {*map(type, mul)} != {tuple} or {*map(type, itertools.chain.from_iterable(mul))} != {int}:
        mul = tuple(tuple(map(as_int, row)) for row in mul)
    return _make_group(mul, tuple(map(as_int, generators)), label)


_make_group = lru_cache(maxsize=512)(FiniteGroup)


@record
class GroupHom:
    """A homomorphism given pointwise; validated on construction."""

    src: FiniteGroup
    dst: FiniteGroup
    map: tuple[int, ...]

    def __post_init__(self) -> None:
        """Complete on generators: the b with f(a.b) = f(a).f(b) for every a
        contain the identity and are closed under products."""
        check_ints(self.map, NotAHomomorphism, "map", table=False)
        if len(self.map) != self.src.order:
            raise NotAHomomorphism("map length differs from source order")
        for v in self.map:
            if not (0 <= v < self.dst.order):
                raise NotAHomomorphism(f"image {v} out of range")
        if self.map[self.src.identity] != self.dst.identity:
            raise NotAHomomorphism("identity not preserved")
        smul, dmul, m = self.src.mul, self.dst.mul, self.map
        for a in range(self.src.order):
            ma = m[a]
            row = smul[a]
            drow = dmul[ma]
            for b in self.src.generators:
                if m[row[b]] != drow[m[b]]:
                    raise NotAHomomorphism(f"first violating pair (a,b)=({a},{b})")

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.src.order

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.dst.order

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def __repr__(self) -> str:
        return f"GroupHom({self.src.label} -> {self.dst.label}, {self.map})"


def identity_hom(g: FiniteGroup) -> GroupHom:
    return by_formula(GroupHom, g, g, tuple(g.elements))


def compose_homs(outer: GroupHom, inner: GroupHom) -> GroupHom:
    """outer after inner."""
    if inner.dst != outer.src:
        raise MixedSignatures("inner codomain differs from outer domain")
    return by_formula(GroupHom, inner.src, outer.dst, tuple(outer.map[v] for v in inner.map))


@record
class Subgroup:
    """A subgroup as a sorted member list of the parent's indices."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        check_ints(self.members, NotASubgroup, "members", table=False)
        if not self.members:
            raise NotASubgroup("empty member list")
        if list(self.members) != sorted(set(self.members)):
            raise NotASubgroup("members must be sorted and duplicate-free")
        mul = self.parent.mul
        inside = set(self.members)
        if self.parent.identity not in inside:
            raise NotASubgroup("identity missing")
        for a in self.members:
            if not (0 <= a < self.parent.order):
                raise NotASubgroup(f"member {a} out of range")
            if self.parent.inv[a] not in inside:
                raise NotASubgroup(f"inverse of {a} missing")
            for b in self.members:
                if mul[a][b] not in inside:
                    raise NotASubgroup(f"product of ({a},{b}) escapes the subgroup")

    @cached_property
    def is_normal(self) -> bool:
        """Decided by the parent's generators: the g with g.H.g^-1 inside H
        are closed under products."""
        p, inside = self.parent, set(self.members)
        return all(p.conjugate(g, h) in inside for g in p.generators for h in self.members)


def _members(members: Iterable[int]) -> tuple[int, ...]:
    ms = tuple(members)
    if not {int}.issuperset(map(type, ms)):
        ms = check_ints(tuple(map(as_int, ms)), NotASubgroup, "members", table=False)
    return tuple(sorted(set(ms)))


def subgroup(parent: FiniteGroup, members: Iterable[int]) -> Subgroup:
    return Subgroup(parent, _members(members))


def kernel(f: GroupHom) -> Subgroup:
    """A normal subgroup by construction, built by formula."""
    e = f.dst.identity
    return _subgroup_by_formula(f.src, (a for a in f.src.elements if f.map[a] == e))


def image(f: GroupHom, sub: Subgroup | None = None) -> Subgroup:
    """f's image of the subgroup `sub` of its source (all of it by default),
    a subgroup by construction, built by formula."""
    if sub is not None and sub.parent != f.src:
        raise MixedSignatures("subgroup belongs to a different group")
    members = f.map if sub is None else map(f.map.__getitem__, sub.members)
    return _subgroup_by_formula(f.dst, members)


def _subgroup_by_formula(parent: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """`subgroup` with the validator skipped."""
    return by_formula(Subgroup, parent, tuple(sorted(set(members))))


def quotient(g: FiniteGroup, n: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup; cosets indexed by their minimal element."""
    if n.parent != g:
        raise MixedSignatures("subgroup belongs to a different group")
    if not n.is_normal:
        raise NotNormal(f"subgroup {n.members} is not normal in {g.label}")
    cosets: list[tuple[int, ...]] = []
    idx_of: dict[int, int] = {}
    for x in g.elements:
        if x in idx_of:
            continue
        cs = tuple(sorted(g.mul[x][h] for h in n.members))
        for y in cs:
            idx_of[y] = len(cosets)
        cosets.append(cs)
    k = len(cosets)
    table = tuple(
        tuple(idx_of[g.mul[cosets[i][0]][cosets[j][0]]] for j in range(k)) for i in range(k)
    )
    gens = tuple(dict.fromkeys(idx_of[a] for a in g.generators))  # g has a generator
    label = f"{g.label}/[{','.join(map(str, n.members))}]"
    q = by_formula(FiniteGroup, table, gens, label)
    return q, by_formula(GroupHom, g, q, tuple(idx_of[x] for x in g.elements))


def subgroup_as_group(parent: FiniteGroup, members: Iterable[int], label: str | None = None) -> tuple[FiniteGroup, GroupHom]:
    """Materialize a subgroup as a standalone group plus its inclusion."""
    return _subgroup_as_group(parent, parent.label, _members(members), label)


@lru_cache(maxsize=1024)  # a seed-1 decompose-sweep pass meets 402 keys; a warm one makes 2,512 calls
def _subgroup_as_group(parent: FiniteGroup, parent_label: str, ms: tuple[int, ...], label: str | None) -> tuple[FiniteGroup, GroupHom]:
    """Both labels key the memo: they reach the output, and group equality
    ignores them."""
    pos = {m: i for i, m in enumerate(ms)}
    for a in ms:
        for b in ms:
            if parent.mul[a][b] not in pos:
                raise NotASubgroup(f"product of ({a},{b}) escapes the subgroup")
    table = tuple(tuple(pos[parent.mul[a][b]] for b in ms) for a in ms)
    if parent.identity not in pos:
        raise NotASubgroup("identity missing")
    name = label or f"{parent_label}<{','.join(map(str, ms))}>"
    sub = by_formula(FiniteGroup, table, generating_set(table, pos[parent.identity]), name)
    return sub, by_formula(GroupHom, sub, parent, ms)


def all_subgroups(g: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every subgroup of g, its label kept, sorted by (order, member list)."""
    return tuple(by_formula(Subgroup, g, ms) for ms in _subgroup_members(g))


@lru_cache(maxsize=64)
def _subgroup_members(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """all_subgroups' member lists, keyed on g without its label: they carry none."""
    found: set[frozenset[int]] = {frozenset({g.identity})}
    frontier = [frozenset({g.identity})]
    while frontier:
        base = frontier.pop()
        for x in g.elements:
            if x in base:
                continue
            grown = frozenset(closure(g.mul, list(base) + [x], g.identity))
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    return tuple(sorted((tuple(sorted(s)) for s in found), key=lambda t: (len(t), t)))


all_subgroups.cache_info = _subgroup_members.cache_info  # the hit ratio a traced run reports


def _iter_homs(src: FiniteGroup, dst: FiniteGroup, candidates: Sequence[Sequence[int]] | None) -> Iterator[GroupHom]:
    """Homomorphisms in lexicographic order of generator images, each pool
    cut to images whose order divides the generator's, by backtracking
    (Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005):
    m is kept on `span`, the subgroup the generators placed so far span.  A
    new generator g extends m along the edges it adds, from the span along g
    and from each new element along every placed generator, and a choice is
    dropped at the first relation it breaks; a generator already in the
    span takes only its forced image, once each time its pool holds it.  A
    finished m has m[a.g] = m[a].m[g] for all a and generators g, which is
    GroupHom's check, so each hom is built by formula."""
    gens = src.generators
    if candidates is None:
        candidates = [dst.elements] * len(gens)
    elif len(candidates) != len(gens):
        raise MixedSignatures("candidate pools must align with source generators")
    orders = [dst.element_order(x) for x in dst.elements]
    pools = [[x for x in pool if k % orders[x] == 0] for k, pool in zip(map(src.element_order, gens), candidates)]
    smul, dmul = src.mul, dst.mul
    m: list = [None] * src.order
    m[src.identity] = dst.identity
    span, edges = [src.identity], []

    def place(k: int) -> Iterator[GroupHom]:
        if k == len(gens):
            yield by_formula(GroupHom, src, dst, tuple(m))
            return
        g, size = gens[k], len(span)
        if m[g] is not None:
            for _ in range(pools[k].count(m[g])):
                yield from place(k + 1)
            return
        for x in pools[k]:
            edges.append((g, x))
            i, ok = 0, True
            while ok and i < len(span):
                a = span[i]
                i += 1
                row, drow = smul[a], dmul[m[a]]
                for h, y in edges[-1:] if i <= size else edges:
                    b, v = row[h], drow[y]
                    if m[b] is None:
                        m[b] = v
                        span.append(b)
                    elif m[b] != v:
                        ok = False
                        break
            if ok:
                yield from place(k + 1)
            for b in span[size:]:
                m[b] = None
            del span[size:]
            edges.pop()

    return place(0)


def enumerate_homs(
    src: FiniteGroup,
    dst: FiniteGroup,
    candidates: Sequence[Sequence[int]] | None = None,
) -> list[GroupHom]:
    """All homomorphisms, ordered lexicographically by generator images.

    `candidates` optionally restricts the image pool per source generator.
    The search (_iter_homs) drops only the choices no hom extends, so the
    list is exactly what the full product over the pools would give.
    """
    return list(_iter_homs(src, dst, candidates))


def iter_isomorphisms(
    a: FiniteGroup,
    b: FiniteGroup,
    candidates: Sequence[Sequence[int]] | None = None,
) -> Iterator[GroupHom]:
    """Yield the isomorphisms a -> b lazily, in lexicographic order of
    generator images: the bijective homs of enumerate_homs's search, with
    `candidates` restricting the image pool per generator of a as there."""
    if a.order == b.order:
        yield from filter(GroupHom.is_bijective, _iter_homs(a, b, candidates))


def isomorphisms_between(a: FiniteGroup, b: FiniteGroup) -> list[GroupHom]:
    """Every isomorphism a -> b, in lexicographic order of generator images."""
    return list(iter_isomorphisms(a, b))


def sections_of(q: GroupHom) -> list[GroupHom]:
    """All homomorphic sections s with q(s(a)) = a on q's codomain: each
    generator goes into its fibre, so the hom q o s fixes every generator."""
    if not q.is_surjective():
        raise NotSurjective(f"{q.src.label} -> {q.dst.label} is not onto")
    fibers = [
        tuple(x for x in q.src.elements if q.map[x] == g) for g in q.dst.generators
    ]
    return enumerate_homs(q.dst, q.src, candidates=fibers)


def conjugate_hom(g: int, f: GroupHom) -> GroupHom:
    """x |-> g f(x) g^-1 with g in the codomain."""
    d = f.dst
    return by_formula(GroupHom, f.src, d, tuple(d.mul[d.mul[g][v]][d.inv[g]] for v in f.map))


def canonical_conjugate(f: GroupHom) -> GroupHom:
    """The conjugate of f with the lexicographically least map, which names
    f's class under codomain conjugation (Jefferson, Jonauskyte, Pfeiffer &
    Waldecker, Minimal and canonical images, J. Algebra 521, 2019).

    Any of its conjugators (_canonical_conjugators) gives it."""
    return conjugate_hom(_canonical_conjugators(f)[0], f)


def _canonical_conjugators(f: GroupHom) -> Sequence[int]:
    """Every c, in element order, with c f c^-1 the canonical conjugate: a
    coset of the centralizer of f's image.

    Position by position, only the conjugators c that minimise c f(x) c^-1
    are kept; an identity image cuts nothing.  Past the last generator the
    survivors agree on every generator, so they give one and the same map,
    and a conjugator giving that map survives every cut."""
    d = f.dst
    mul, inv, e = d.mul, d.inv, d.identity
    keep: Sequence[int] = d.elements
    for v in f.map[: max(f.src.generators) + 1]:
        if v == e:
            continue
        images = [mul[mul[c][v]][inv[c]] for c in keep]
        low = min(images)
        keep = [c for c, w in zip(keep, images) if w == low]
    return keep


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise MalformedTable("cyclic group needs order >= 1")
    row = tuple(range(n))
    mul = tuple(row[i:] + row[:i] for i in range(n))
    return make_group(mul, (1 % n,), f"C{n}")


def symmetric(n: int) -> FiniteGroup:
    """Permutations of 0..n-1 in lexicographic order; (s.t)(i) = s(t(i))."""
    if not (1 <= n <= SYMMETRIC_MAX_DEGREE):
        raise MalformedTable(f"symmetric group supported for 1 <= n <= {SYMMETRIC_MAX_DEGREE}")
    perms = sorted(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    mul = tuple(tuple(pos[tuple(map(p.__getitem__, q))] for q in perms) for p in perms)
    if n == 1:
        gens: tuple[int, ...] = (0,)
    else:
        swap = tuple([1, 0] + list(range(2, n)))
        cycle = tuple(list(range(1, n)) + [0])
        gens = tuple(dict.fromkeys((pos[swap], pos[cycle])))
    return make_group(mul, gens, f"S{n}")


@record
class SemidirectProduct:
    group: FiniteGroup
    inclusion: GroupHom  # N -> group
    projection: GroupHom  # group -> Q
    section: GroupHom  # Q -> group


def semidirect_product(
    n_grp: FiniteGroup,
    q_grp: FiniteGroup,
    act: Sequence[GroupHom],
    label: str | None = None,
) -> SemidirectProduct:
    """Build N x| Q with law (n1,q1)(n2,q2) = (n1 . act(q1)(n2), q1 q2).

    The action is checked to be a hom on Q's generators in the second slot,
    which is complete: those q2 form a set closed under products."""
    if len(act) != q_grp.order:
        raise NotAnAction("one automorphism per element of the acting group required")
    for q, a in enumerate(act):
        if a.src != n_grp or a.dst != n_grp or not a.is_bijective():
            raise NotAnAction(f"entry {q} is not an automorphism of {n_grp.label}")
    if act[q_grp.identity].map != tuple(range(n_grp.order)):
        raise NotAnAction("identity of the acting group must act trivially")
    for q1 in q_grp.elements:
        for q2 in q_grp.generators:
            want = act[q_grp.mul[q1][q2]].map
            if want != tuple(map(act[q1].map.__getitem__, act[q2].map)):
                raise NotAnAction(f"action fails to be a homomorphism at ({q1},{q2})")
    qn = q_grp.order
    enc = lambda n, q: n * qn + q  # noqa: E731
    # Row (n1, q1) runs over (n2, q2) as n1.act(q1)(n2) in N, then q1.q2 in
    # Q: blocks[q1][x] is the run of encoded entries (x, q1.q2) over q2.
    blocks = [tuple(tuple(enc(x, q) for q in q_row) for x in n_grp.elements) for q_row in q_grp.mul]
    table = tuple(
        tuple(itertools.chain.from_iterable(
            map(blocks[q1].__getitem__, map(n_grp.mul[n1].__getitem__, act[q1].map))
        ))
        for n1 in n_grp.elements
        for q1 in q_grp.elements
    )
    size = n_grp.order * qn
    enc_id = enc(n_grp.identity, q_grp.identity)
    gens = list(dict.fromkeys(
        g for g in (
            [enc(g, q_grp.identity) for g in n_grp.generators]
            + [enc(n_grp.identity, g) for g in q_grp.generators]
        )
        if g != enc_id
    )) or [enc_id]
    grp = make_group(table, gens, label or f"{n_grp.label}:{q_grp.label}")
    inclusion = GroupHom(n_grp, grp, tuple(enc(n, q_grp.identity) for n in n_grp.elements))
    projection = GroupHom(grp, q_grp, tuple(i % qn for i in range(size)))
    section = GroupHom(q_grp, grp, tuple(enc(n_grp.identity, q) for q in q_grp.elements))
    return SemidirectProduct(grp, inclusion, projection, section)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> SemidirectProduct:
    acts = [identity_hom(a)] * b.order
    return semidirect_product(a, b, acts, f"{a.label}x{b.label}")


def cyclic_power_action(n: int, m: int, k: int) -> tuple[FiniteGroup, FiniteGroup, list[GroupHom]]:
    """C_m acting on C_n, the j-th power of the generator sending t to k^j t."""
    n_grp, q_grp = cyclic(n), cyclic(m)
    acts = [
        GroupHom(n_grp, n_grp, tuple((c * t) % n for t in range(n)))
        for c in (pow(k, j, n) for j in range(m))
    ]
    return n_grp, q_grp, acts


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (rotations twisted by inversion)."""
    n_grp, q_grp, acts = cyclic_power_action(n, 2, (n - 1) % n if n > 1 else 0)
    return semidirect_product(n_grp, q_grp, acts, f"D{n}").group
