"""Two-sided torsors: a point set with commuting free transitive left and
right group actions, plus the calculus on them (contracted products,
inverses, pushforwards along group homomorphisms, Isom carriers, and
orbit_restriction, the one restriction to the orbit of a point).

A carrier is stored pointed (Breen, Bitorseurs et cohomologie non
abelienne, 1990): coords[r] = 0.r and the isomorphism u: L -> R with
l.0 = 0.u(l), so l.(0.r) = 0.u(l).r.  Builders are hom algebra on that
data; the tables left_act[g'][x] and right_act[x][g] are derived on first
use.  The checked entries check each law on generators (Light's test,
Clifford & Preston I, section 1.2), freeness and transitivity at point 0.
Values built by formula skip the check (errors.by_formula) unless
BITORSOR_CHECK=full, which checks their derived tables too.
base_point_morphism builds every morphism but orbit_restriction's
inclusion.  A completed torsor's group is its translations (Giraud,
Cohomologie non abelienne, 1971).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable

from .errors import DomainError, by_formula, formula_check, record
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    as_int,
    check_ints,
    generating_set,
    identity_hom,
    image,
    subgroup_as_group,
)
from .groups import NotAnAction, NotNormal


class BitorsorError(DomainError):
    """Base for bitorsor-layer failures."""


class InvalidBitorsor(BitorsorError):
    pass


class NotFree(BitorsorError):
    pass


class NotTransitive(BitorsorError):
    pass


class SignatureMismatch(BitorsorError):
    pass


class NotComposable(BitorsorError):
    pass


class InvalidMorphism(BitorsorError):
    pass


@record
class Bitorsor:
    """Points 0..k-1 carrying commuting free transitive left and right
    actions, stored through point 0: coords[r] = 0.r and l.0 = 0.u(l)."""

    left_group: FiniteGroup
    right_group: FiniteGroup
    coords: tuple[int, ...]
    u: tuple[int, ...]

    def __post_init__(self) -> None:
        """coords is a bijection sending 1 to 0 and u an isomorphism, so they
        define a bitorsor; BITORSOR_CHECK=full checks its derived tables too."""
        check_ints(self.coords, InvalidBitorsor, "coords", table=False)
        gr = self.right_group
        if sorted(self.coords) != list(gr.elements) or self.coords[gr.identity] != 0:
            raise InvalidBitorsor("coords must number the points by the right group, 0 at its identity")
        if not GroupHom(self.left_group, gr, self.u).is_bijective():
            raise InvalidBitorsor("u must be an isomorphism")
        formula_check("Bitorsor", lambda: self.right_act)

    @classmethod
    def from_tables(cls, left_group: FiniteGroup, right_group: FiniteGroup, left_act, right_act) -> Bitorsor:
        """The checked entry from action tables (_check_tables): the pointed
        data is read at point 0, and the checked tables are kept as the
        derived ones, so BITORSOR_CHECK=full does not check them again."""
        at = _check_tables(left_group, right_group, left_act, right_act)
        coords, u = tuple(right_act[0]), tuple(at[row[0]] for row in left_act)
        return by_formula(cls, left_group, right_group, coords, u, left_act=left_act, right_act=right_act)

    @cached_property
    def left_act(self) -> tuple[tuple[int, ...], ...]:
        """Row l is the point 0.u(l).r at each point x = 0.r."""
        c, mul = self.coords, self.right_group.mul
        rows = tuple(tuple(map(c.__getitem__, map(mul[a].__getitem__, self.coord_of))) for a in self.u)
        formula_check("Bitorsor", lambda: _check_tables(self.left_group, self.right_group, rows, _right_rows(self)))
        return rows

    @cached_property
    def right_act(self) -> tuple[tuple[int, ...], ...]:
        rows = _right_rows(self)
        formula_check("Bitorsor", lambda: _check_tables(self.left_group, self.right_group, self.left_act, rows))
        return rows

    @cached_property
    def coord_of(self) -> tuple[int, ...]:
        """The right element r with x = 0.r, for each point x."""
        return tuple(sorted(self.right_group.elements, key=self.coords.__getitem__))

    @cached_property
    def u_inv(self) -> tuple[int, ...]:
        return tuple(sorted(self.left_group.elements, key=self.u.__getitem__))

    @cached_property
    def size(self) -> int:
        return len(self.coords)

    @cached_property
    def points(self) -> range:
        return range(self.size)

    def __repr__(self) -> str:
        return f"Bitorsor({self.left_group.label}|{self.size} pts|{self.right_group.label})"


def _right_rows(b: Bitorsor) -> tuple[tuple[int, ...], ...]:
    """Row x = 0.r is the point 0.r.g at each right g."""
    c, mul = b.coords, b.right_group.mul
    return tuple(tuple(map(c.__getitem__, mul[r])) for r in b.coord_of)


def _check_tables(gl: FiniteGroup, gr: FiniteGroup, la, ra) -> list[int]:
    """Every invariant of a carrier's action tables, complete on generators:
    once the identities act trivially, the g2 satisfying an action law are
    closed under products, as are the elements commuting with the other
    side's generators; freeness and transitivity are then decided at point
    0 (_orbit_at_zero).  Returns the right element carrying 0 to each
    point."""
    check_ints(la, InvalidBitorsor, "left action entry")
    check_ints(ra, InvalidBitorsor, "right action entry")
    k = len(ra)
    if len(la) != gl.order:
        raise InvalidBitorsor("left action needs one row per left group element")
    if any(len(r) != k for r in la):
        raise InvalidBitorsor("left action rows must cover all points")
    if any(len(r) != gr.order for r in ra):
        raise InvalidBitorsor("right action rows must cover the right group")
    if k == 0:
        raise InvalidBitorsor("empty point set")
    if not all(0 <= v < k for row in la for v in row):
        raise InvalidBitorsor("left action leaves the point set")
    if not all(0 <= v < k for row in ra for v in row):
        raise InvalidBitorsor("right action leaves the point set")
    el, er = gl.identity, gr.identity
    for x in range(k):
        if la[el][x] != x:
            raise NotAnAction(f"left identity moves point {x}")
        if ra[x][er] != x:
            raise NotAnAction(f"right identity moves point {x}")
    for g1 in gl.elements:
        for g2 in gl.generators:
            row, r1, r2 = la[gl.mul[g1][g2]], la[g1], la[g2]
            for x in range(k):
                if row[x] != r1[r2[x]]:
                    raise NotAnAction(f"left action breaks at ({g1},{g2},{x})")
    for g1 in gr.elements:
        for g2 in gr.generators:
            g12 = gr.mul[g1][g2]
            for x in range(k):
                if ra[x][g12] != ra[ra[x][g1]][g2]:
                    raise NotAnAction(f"right action breaks at ({x},{g1},{g2})")
    for gp in gl.generators:
        for x in range(k):
            for g in gr.generators:
                if ra[la[gp][x]][g] != la[gp][ra[x][g]]:
                    raise InvalidBitorsor(f"actions fail to commute at ({gp},{x},{g})")
    _orbit_at_zero((row[0] for row in la), k, "left")
    return _orbit_at_zero(ra[0], k, "right")


@record
class BitorsorMorphism:
    """A triple (left hom, point map, right hom), equivariant on both sides."""

    src: Bitorsor
    dst: Bitorsor
    phi_left: GroupHom
    point_map: tuple[int, ...]
    phi_right: GroupHom

    def __post_init__(self) -> None:
        """Complete on generators: both actions and both homs are already
        validated, so the group elements along which the point map is
        equivariant are closed under products."""
        check_ints(self.point_map, InvalidMorphism, "point_map", table=False)
        if self.phi_left.src != self.src.left_group or self.phi_left.dst != self.dst.left_group:
            raise SignatureMismatch("left hom does not match the left groups")
        if self.phi_right.src != self.src.right_group or self.phi_right.dst != self.dst.right_group:
            raise SignatureMismatch("right hom does not match the right groups")
        u = self.point_map
        if len(u) != self.src.size:
            raise InvalidMorphism("point map length differs from source size")
        if bad := [v for v in u if not (0 <= v < self.dst.size)]:
            raise InvalidMorphism(f"point image {bad[0]} out of range")
        for gp in self.src.left_group.generators:
            for x in self.src.points:
                if u[self.src.left_act[gp][x]] != self.dst.left_act[self.phi_left.map[gp]][u[x]]:
                    raise InvalidMorphism(f"left equivariance fails at ({gp},{x})")
        for x in self.src.points:
            for g in self.src.right_group.generators:
                if u[self.src.right_act[x][g]] != self.dst.right_act[u[x]][self.phi_right.map[g]]:
                    raise InvalidMorphism(f"right equivariance fails at ({x},{g})")

    def __call__(self, x: int) -> int:
        return self.point_map[x]

    def is_injective(self) -> bool:
        return len(set(self.point_map)) == self.src.size

    def is_surjective(self) -> bool:
        return len(set(self.point_map)) == self.dst.size

    def is_isomorphism(self) -> bool:
        return self.is_injective() and self.is_surjective() and self.phi_left.is_bijective() and self.phi_right.is_bijective()


def base_point_morphism(b1: Bitorsor, x0: int, b2: Bitorsor, y0: int, rho: GroupHom) -> BitorsorMorphism:
    """The morphism b1 -> b2 sending x0.g to y0.rho(g), for a hom rho of the
    right groups; every morphism with right hom rho and x0 -> y0 is this one.
    Its left hom is rho transported through the two points (Giraud,
    Cohomologie non abelienne, 1971): with x0 = 0.r0 and y0 = 0.s0, 0.r goes
    to 0.s0.rho(r0^-1 r), and l to the l' with u(l') = s0 rho(r0^-1 u(l) r0) s0^-1."""
    r0, s0 = b1.coord_of[x0], b2.coord_of[y0]
    m1, m2, inv1, inv2 = b1.right_group.mul, b2.right_group.mul, b1.right_group.inv, b2.right_group.inv
    f = rho.map
    v = [0] * b1.size
    for g in b1.right_group.elements:
        v[b1.coords[m1[r0][g]]] = b2.coords[m2[s0][f[g]]]
    back, into = m1[inv1[r0]], b2.u_inv
    lam = tuple(into[m2[m2[s0][f[m1[back[a]][r0]]]][inv2[s0]]] for a in b1.u)
    lam = by_formula(GroupHom, b1.left_group, b2.left_group, lam)
    return by_formula(BitorsorMorphism, b1, b2, lam, tuple(v), rho)


def identity_morphism(b: Bitorsor) -> BitorsorMorphism:
    return base_point_morphism(b, 0, b, 0, identity_hom(b.right_group))


def trivial_bitorsor(g: FiniteGroup) -> Bitorsor:
    """The group acting on itself by translations on both sides: point 0 is
    element 0, u(l) = 0^-1.l.0, and both derived tables are its table."""
    mul, start = g.mul, g.mul[g.inv[0]]
    return by_formula(Bitorsor, g, g, mul[0], tuple(mul[start[l]][0] for l in g.elements))


def _orbit_at_zero(orbit: Iterable[int], k: int, side: str) -> list[int]:
    """Invert the orbit map g -> 0.g (or g.0) of a group action on k points:
    the element carrying 0 to each point.  Raises unless it is a bijection.
    For an action this decides freeness and transitivity everywhere: at
    x = 0.a the orbit map is the one at 0 after a translation, so the check
    raises exactly the error that checking each point in order raises first."""
    coord: dict[int, int] = {}
    for g, y in enumerate(orbit):
        if y in coord:
            raise NotFree(f"{side} action is not free at point 0")
        coord[y] = g
    if len(coord) != k:
        raise NotTransitive(f"{side} orbit of point 0 misses points")
    return [coord[x] for x in range(k)]


def from_right_torsor(num_points: int, right_group: FiniteGroup, right_act) -> Bitorsor:
    """Complete a free transitive right action to a bitorsor, its left group
    the symmetries commuting with the action, Aut_G(P), the inner twist of G
    by P (Giraud 1971), tabled through point 0 (_complete_right).  The action
    law is checked on generators, freeness and transitivity at point 0."""
    ra = check_ints(tuple(tuple(map(as_int, row)) for row in right_act), InvalidBitorsor, "right action entry")
    if len(ra) != num_points or any(len(r) != right_group.order for r in ra):
        raise InvalidBitorsor("right action table has the wrong shape")
    for x in range(num_points):
        if ra[x][right_group.identity] != x:
            raise NotAnAction(f"right identity moves point {x}")
    for x in range(num_points):
        for g1 in right_group.elements:
            for g2 in right_group.generators:
                if ra[x][right_group.mul[g1][g2]] != ra[ra[x][g1]][g2]:
                    raise NotAnAction(f"right action breaks at ({x},{g1},{g2})")
    return _complete_right(right_group, ra)


def _translation_group(table: tuple[tuple[int, ...], ...], label: str) -> FiniteGroup:
    """The translations completing a one-sided torsor over the group called
    `label`, numbered by where they send point 0: `table` is their product."""
    return by_formula(FiniteGroup, table, generating_set(table, 0), f"Aut({label})")


def _complete_right(group: FiniteGroup, ra: tuple[tuple[int, ...], ...]) -> Bitorsor:
    """The bitorsor completing a right action of `group`, by formula; only
    freeness and transitivity are checked, at point 0.  With y = 0.a_y, left
    element y is the symmetry p_y(0.g) = y.g, so u(y) = a_y, and p_y o p_y'
    sends 0 to p_y(y'): the product table is the left action table, which
    the carrier derives again on first use."""
    a = _orbit_at_zero(ra[0], len(ra), "right")
    left_act = tuple(tuple(map(row.__getitem__, a)) for row in ra)
    return by_formula(Bitorsor, _translation_group(left_act, group.label), group, ra[0], tuple(a))


def _complete_left(group: FiniteGroup, la: tuple[tuple[int, ...], ...]) -> Bitorsor:
    """Mirror of _complete_right: right element y sends x = b_x.0 to b_x.y,
    so 0.y = y, u(g) = g.0, and the product table is the right action's,
    which the carrier derives again on first use."""
    b = _orbit_at_zero((row[0] for row in la), len(la[0]), "left")
    right_act = tuple(la[g] for g in b)
    right = _translation_group(right_act, group.label)
    return by_formula(Bitorsor, group, right, tuple(right.elements), tuple(row[0] for row in la))


@lru_cache(maxsize=256)  # a warm seed-1 decompose-sweep pass meets 130 keys in 598 calls
def _completion(g: FiniteGroup, label: str) -> Bitorsor:
    """g acting on itself on the right, completed: the carrier every
    pushforward into g builds, memoized on g and its label."""
    return _complete_right(g, g.mul)


@lru_cache(maxsize=256)  # a warm seed-1 decompose-sweep pass meets 140 keys in 299 calls
def _left_completion(g: FiniteGroup, label: str, points: tuple[int, ...]) -> Bitorsor:
    """g acting on the left on `points`, a list of its elements, completed:
    the carrier a pushforward along the left builds, memoized on g, its
    label and the list."""
    pos = sorted(g.elements, key=points.__getitem__)
    at = itemgetter(*points, 0)  # one item more, so that it returns a tuple
    return _complete_left(g, tuple(tuple(map(pos.__getitem__, at(row)[:-1])) for row in g.mul))


def point_conjugation(b: Bitorsor, x: int) -> GroupHom:
    """The right-to-left transport through a point x = 0.r: the left element
    sending x to x.g, the l with u(l) = r g r^-1, for each right g."""
    r, mul, inv, into = b.coord_of[x], b.right_group.mul, b.right_group.inv, b.u_inv
    conj = tuple(into[mul[a][inv[r]]] for a in mul[r])
    return by_formula(GroupHom, b.right_group, b.left_group, conj)


def corresponding_normal_subgroup(b: Bitorsor, h: Subgroup) -> Subgroup:
    """The left-group subgroup matching a normal right-group subgroup,
    transported through point 0; through x = 0.a it is the same subgroup,
    conjugated by a."""
    if h.parent != b.right_group:
        raise SignatureMismatch("subgroup lives in a different group")
    if not h.is_normal:
        raise NotNormal("only normal subgroups transport unambiguously")
    return image(point_conjugation(b, 0), h)


def orbit_partition(b: Bitorsor, members: Iterable[int], left: bool) -> list[tuple[int, ...]]:
    """The orbits of the given left (or right) group elements, each sorted,
    in order of their smallest point: the orbit of 0.r is the points
    0.u(h).r (or 0.r.h)."""
    c, mul = b.coords, b.right_group.mul
    moves = [b.u[h] for h in members] if left else list(members)
    classes: list[tuple[int, ...]] = []
    for x, r in enumerate(b.coord_of):
        if not any(x in cls for cls in classes):
            classes.append(tuple(sorted({c[mul[a][r] if left else mul[r][a]] for a in moves})))
    return classes


def orbit_restriction(b: Bitorsor, p: int, members: Iterable[int]) -> BitorsorMorphism:
    """The inclusion of the sub-bitorsor of b on the orbit of point p = 0.r
    under the left subgroup `members` (repeats allowed), the points 0.u(h).r,
    over the right elements r^-1 u(h) r that keep p inside it.  Its point 0
    is the orbit's least point 0.q, and its u sends h to q^-1 u(h) q."""
    g, c, u, r = b.right_group, b.coords, b.u, b.coord_of[p]
    mul, inv = g.mul, g.inv
    _, l_incl = subgroup_as_group(b.left_group, members)
    points = tuple(sorted(c[mul[u[h]][r]] for h in l_incl.map))
    _, r_incl = subgroup_as_group(g, (mul[mul[inv[r]][u[h]]][r] for h in l_incl.map))
    q, pos = b.coord_of[points[0]], {x: i for i, x in enumerate(points)}
    rpos = {a: i for i, a in enumerate(r_incl.map)}
    coords = tuple(pos[c[mul[q][a]]] for a in r_incl.map)
    sub = by_formula(Bitorsor, l_incl.src, r_incl.src, coords, tuple(rpos[mul[mul[inv[q]][u[h]]][q]] for h in l_incl.map))
    return by_formula(BitorsorMorphism, sub, b, l_incl, points, r_incl)


def glued_point(b1: Bitorsor, b2: Bitorsor, y: int, z: int) -> int:
    """The point of b1 glued with b2 that is the class of (y, z), class i
    being that of (0, i): with y = 0.c, (0.c, z) is the class of (0, c.z)."""
    mul = b2.right_group.mul
    return b2.coords[mul[b2.u[b1.coord_of[y]]][b2.coord_of[z]]]


def contracted_product(b1: Bitorsor, b2: Bitorsor) -> Bitorsor:
    """Glue two carriers over the shared middle group: class i is that of
    (0, i), so the points and coordinates are b2's, and l.(0, 0) is
    (0.u1(l), 0), the class of (0, 0.u2(u1(l))): u is u2 o u1."""
    if b1.right_group != b2.left_group:
        raise NotComposable("middle groups differ")
    return by_formula(Bitorsor, b1.left_group, b2.right_group, b2.coords, tuple(map(b2.u.__getitem__, b1.u)))


def inverse(b: Bitorsor) -> Bitorsor:
    """Same points, sides swapped: g acts on the left through the old right
    inverse and vice versa.  So 0 moved by old left l is 0.u(l)^-1 and the
    new u is the old one's inverse."""
    inv, c = b.right_group.inv, b.coords
    return by_formula(Bitorsor, b.right_group, b.left_group, tuple(c[inv[a]] for a in b.u), b.u_inv)


def isom_bitorsor(b1: Bitorsor, b2: Bitorsor) -> Bitorsor:
    """Carrier of right-equivariant bijections b1 -> b2, the map sending
    0.g to y.g at point y; b2's left group post-composes, b1's pre-composes.
    Map 0 after l1, or l2 after map 0, sends 0 to 0.u1(l1), or 0.u2(l2)."""
    if b1.right_group != b2.right_group:
        raise SignatureMismatch("carriers live over different right groups")
    coords, u = tuple(map(b2.coords.__getitem__, b1.u)), tuple(map(b1.u_inv.__getitem__, b2.u))
    return by_formula(Bitorsor, b2.left_group, b1.left_group, coords, u)


def isom_canonical_iso(b1: Bitorsor, b2: Bitorsor) -> BitorsorMorphism:
    """The identification of b2 glued to the inverse of b1 with the carrier
    of equivariant maps: the class of (0, x) becomes the map x.g -> 0.g, so
    the class of (0, 0) goes to map 0, over the identity of b1's left group."""
    wedge = contracted_product(b2, inverse(b1))
    return base_point_morphism(wedge, 0, isom_bitorsor(b1, b2), 0, identity_hom(b1.left_group))


def pushforward(b: Bitorsor, phi: GroupHom) -> tuple[Bitorsor, BitorsorMorphism]:
    """Extend the right structure group along phi.  With x = 0.c_x, the
    class of (x, t) is that of (0, phi(c_x).t), so point t is the class of
    (0, t): the new group acts on itself, completed (_completion).  The
    canonical morphism over phi sends point 0 to the class of (0, 1)."""
    if phi.src != b.right_group:
        raise SignatureMismatch("hom does not start at the right structure group")
    pushed = _completion(phi.dst, phi.dst.label)
    return pushed, base_point_morphism(b, 0, pushed, phi.dst.identity, phi)


def pushforward_left(b: Bitorsor, phi_left: GroupHom) -> tuple[Bitorsor, BitorsorMorphism]:
    """Mirror extension of the left structure group along phi_left.  With
    x = c_x.0, the class of (t, x) is that of (t.phi_left(c_x), 0), so the
    points are the elements s = t.phi_left(c_x), numbered in order of first
    appearance over (t, x): each left coset of the image as t first meets it.
    An old right element moving 0 to y maps to the symmetry sending the
    class of (0, 0) to that of (0, y), and the canonical morphism over that
    right hom sends point 0 to the class of (1, 0)."""
    if phi_left.src != b.left_group:
        raise SignatureMismatch("hom does not start at the left structure group")
    g2 = phi_left.dst
    v = [phi_left.map[a] for a in map(b.u_inv.__getitem__, b.coord_of)]
    idx: dict[int, int] = {}
    for t in g2.elements:
        if t not in idx:
            row = g2.mul[t]
            for vx in v:
                idx.setdefault(row[vx], len(idx))
    pushed = _left_completion(g2, g2.label, tuple(idx))
    phi_right = tuple(idx[g2.mul[0][v[y]]] for y in b.coords)
    phi_right = by_formula(GroupHom, b.right_group, pushed.right_group, phi_right)
    return pushed, base_point_morphism(b, 0, pushed, idx[v[0]], phi_right)


def are_isomorphic(b1: Bitorsor, b2: Bitorsor) -> BitorsorMorphism | None:
    """The isomorphism over the identity of the right group sending point 0
    to point 0, or None when the right groups differ."""
    if b1.right_group != b2.right_group:
        return None
    return base_point_morphism(b1, 0, b2, 0, identity_hom(b1.right_group))
