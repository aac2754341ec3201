"""Two-sided torsors: a point set with commuting free transitive left and
right group actions, plus the calculus on them (contracted products,
inverses, pushforwards along group homomorphisms, Isom carriers, and
orbit_restriction, the one restriction to the orbit of a point).

All actions are dense index tables: left_act[g'][x] and right_act[x][g].
The public constructors check every invariant in full, each law on the
generators of the groups involved (the closure argument of Light's
associativity test, Clifford & Preston I, section 1.2), and freeness and
transitivity at point 0 only, which decides them everywhere once the action
laws hold.  Carriers and morphisms computed by formula from checked ones
skip the check through errors.by_formula.  A morphism is fixed by the image
of one point and its right hom, and base_point_morphism builds every one but
orbit_restriction's inclusion from those: the identity, the pushforwards'
canonical morphisms, the Isom identification, and are_isomorphic, which
sends point 0 to point 0.

Gluing is written in base-point coordinates (Giraud, Cohomologie non
abelienne, 1971): with x = 0.c, the class of (x, z) is that of (0, c.z), so
a contracted product is the second factor with a twisted left action, and
a pushforward's points are the elements of the new group.  The group
completing a one-sided torsor is its translations, with the product table
read off the action at point 0.  from_right_torsor is the checked entry;
the pushforwards complete by formula (_complete_right, _complete_left), and
the transport of a normal subgroup is read through point 0 alone.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .errors import DomainError, by_formula, record
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
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
    """Points 0..k-1 carrying a left and a right group action that commute,
    each free and transitive."""

    left_group: FiniteGroup
    right_group: FiniteGroup
    left_act: tuple[tuple[int, ...], ...]
    right_act: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        """Complete on generators: once the identities act trivially, the
        second factors g2 satisfying an action law form a set closed under
        products, and so do the left and right elements commuting with all
        generators of the other side.  Both sides are then group actions, so
        freeness and transitivity are decided at point 0 (_orbit_at_zero)."""
        check_ints(self.left_act, InvalidBitorsor, "left action entry")
        check_ints(self.right_act, InvalidBitorsor, "right action entry")
        gl, gr = self.left_group, self.right_group
        k = len(self.right_act)
        if len(self.left_act) != gl.order:
            raise InvalidBitorsor("left action needs one row per left group element")
        if any(len(r) != k for r in self.left_act):
            raise InvalidBitorsor("left action rows must cover all points")
        if any(len(r) != gr.order for r in self.right_act):
            raise InvalidBitorsor("right action rows must cover the right group")
        if k == 0:
            raise InvalidBitorsor("empty point set")
        la, ra = self.left_act, self.right_act
        for row in la:
            for v in row:
                if not (0 <= v < k):
                    raise InvalidBitorsor("left action leaves the point set")
        for row in ra:
            for v in row:
                if not (0 <= v < k):
                    raise InvalidBitorsor("right action leaves the point set")
        el, er = gl.identity, gr.identity
        for x in range(k):
            if la[el][x] != x:
                raise NotAnAction(f"left identity moves point {x}")
            if ra[x][er] != x:
                raise NotAnAction(f"right identity moves point {x}")
        for g1 in gl.elements:
            for g2 in gl.generators:
                row = la[gl.mul[g1][g2]]
                r2 = la[g2]
                r1 = la[g1]
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
                gx = la[gp][x]
                for g in gr.generators:
                    if ra[gx][g] != la[gp][ra[x][g]]:
                        raise InvalidBitorsor(f"actions fail to commute at ({gp},{x},{g})")
        _orbit_at_zero((row[0] for row in la), k, "left")
        _orbit_at_zero(ra[0], k, "right")

    @cached_property
    def size(self) -> int:
        return len(self.right_act)

    @cached_property
    def points(self) -> range:
        return range(self.size)

    def __repr__(self) -> str:
        return f"Bitorsor({self.left_group.label}|{self.size} pts|{self.right_group.label})"


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
        for v in u:
            if not (0 <= v < self.dst.size):
                raise InvalidMorphism(f"point image {v} out of range")
        for gp in self.src.left_group.generators:
            fgp = self.phi_left.map[gp]
            for x in self.src.points:
                if u[self.src.left_act[gp][x]] != self.dst.left_act[fgp][u[x]]:
                    raise InvalidMorphism(f"left equivariance fails at ({gp},{x})")
        for x in self.src.points:
            ux = u[x]
            for g in self.src.right_group.generators:
                if u[self.src.right_act[x][g]] != self.dst.right_act[ux][self.phi_right.map[g]]:
                    raise InvalidMorphism(f"right equivariance fails at ({x},{g})")

    def __call__(self, x: int) -> int:
        return self.point_map[x]

    def is_injective(self) -> bool:
        return len(set(self.point_map)) == self.src.size

    def is_surjective(self) -> bool:
        return len(set(self.point_map)) == self.dst.size

    def is_isomorphism(self) -> bool:
        return (
            self.is_injective()
            and self.is_surjective()
            and self.phi_left.is_bijective()
            and self.phi_right.is_bijective()
        )


def base_point_morphism(
    b1: Bitorsor, x0: int, b2: Bitorsor, y0: int, rho: GroupHom
) -> BitorsorMorphism:
    """The morphism b1 -> b2 sending x0.g to y0.rho(g), for a hom rho of the
    right groups; every morphism with right hom rho and x0 -> y0 is this one.
    Its left hom is rho transported through the two points: a left element
    of a bitorsor is a symmetry of its right torsor, and the point map
    carries each symmetry of b1 to one of b2 (Giraud, Cohomologie non
    abelienne, 1971)."""
    v = [0] * b1.size
    for g in b1.right_group.elements:
        v[b1.right_act[x0][g]] = b2.right_act[y0][rho.map[g]]
    into = {b2.left_act[gp][y0]: gp for gp in b2.left_group.elements}
    lam = by_formula(
        GroupHom, b1.left_group, b2.left_group,
        tuple(into[v[row[x0]]] for row in b1.left_act),
    )
    return by_formula(BitorsorMorphism, b1, b2, lam, tuple(v), rho)


def identity_morphism(b: Bitorsor) -> BitorsorMorphism:
    return base_point_morphism(b, 0, b, 0, identity_hom(b.right_group))


def trivial_bitorsor(g: FiniteGroup) -> Bitorsor:
    """The group acting on itself by translations on both sides."""
    return by_formula(Bitorsor, g, g, g.mul, g.mul)


def _orbit_at_zero(orbit: Iterable[int], k: int, side: str) -> list[int]:
    """Invert the orbit map g -> 0.g (or g.0) of a group action on k points:
    the element carrying 0 to each point.  Raises unless it is a bijection.

    For an action this decides freeness and transitivity at every point: if
    x = 0.a, the orbit map at x is the one at 0 composed with a translation
    of the group, so every stabilizer is conjugate to the one at 0 and every
    orbit is the orbit of 0.  The check therefore raises exactly the error
    that checking each point in order raises first."""
    coord: dict[int, int] = {}
    for g, y in enumerate(orbit):
        if y in coord:
            raise NotFree(f"{side} action is not free at point 0")
        coord[y] = g
    if len(coord) != k:
        raise NotTransitive(f"{side} orbit of point 0 misses points")
    return [coord[x] for x in range(k)]


def from_right_torsor(
    num_points: int, right_group: FiniteGroup, right_act
) -> Bitorsor:
    """Complete a free transitive right action to a bitorsor.

    The left group is the group of symmetries commuting with the right
    action: Aut_G(P), the inner twist of G by P (Giraud, Cohomologie non
    abelienne, 1971), made an explicit table by the base point 0 (see
    _complete_right).

    The action law is checked with g2 over the generators, as in Bitorsor,
    and freeness and transitivity at point 0 (see _orbit_at_zero)."""
    ra = tuple(tuple(map(int, row)) for row in right_act)
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
    `label`, numbered by where they send point 0, with `table` as product
    table: its identity is 0."""
    return by_formula(FiniteGroup, table, generating_set(table, 0), f"Aut({label})")


def _complete_right(group: FiniteGroup, ra: tuple[tuple[int, ...], ...]) -> Bitorsor:
    """The bitorsor completing a right action of `group`, by formula; only
    freeness and transitivity are checked, at point 0.

    Writing y = 0.a_y, the symmetry p_y sending 0 to y is left
    multiplication by a_y in base-point coordinates, p_y(0.g) = y.g, so
    p_y o p_y' is the symmetry sending 0 to p_y(y').  Left element y is p_y:
    sorted as tuples the p_y fall in this order, since p_y(0) = y, and the
    product table is the left action table itself."""
    a = _orbit_at_zero(ra[0], len(ra), "right")
    left_act = tuple(tuple(map(row.__getitem__, a)) for row in ra)
    return by_formula(Bitorsor, _translation_group(left_act, group.label), group, left_act, ra)


def _complete_left(group: FiniteGroup, la: tuple[tuple[int, ...], ...]) -> Bitorsor:
    """Mirror of _complete_right: with y = b_y.0, the symmetry sending 0 to y
    is right multiplication by b_y, composed the other way round.  Right
    element y sends x = b_x.0 to b_x.y, and the product table is the right
    action table itself."""
    b = _orbit_at_zero((row[0] for row in la), len(la[0]), "left")
    right_act = tuple(la[g] for g in b)
    return by_formula(Bitorsor, group, _translation_group(right_act, group.label), la, right_act)


def point_conjugation(b: Bitorsor, x: int) -> GroupHom:
    """The right-to-left transport through a chosen point: the unique left
    element sending x to x.g, for each right g."""
    into = {b.left_act[gp][x]: gp for gp in b.left_group.elements}
    return by_formula(
        GroupHom, b.right_group, b.left_group,
        tuple(into[b.right_act[x][g]] for g in b.right_group.elements),
    )


def corresponding_normal_subgroup(b: Bitorsor, h: Subgroup) -> Subgroup:
    """The left-group subgroup matching a normal right-group subgroup,
    transported through point 0.

    Any point gives the same: for x = 0.a, the transport through x is the
    one through 0 after conjugation by a, which fixes a normal subgroup."""
    if h.parent != b.right_group:
        raise SignatureMismatch("subgroup lives in a different group")
    if not h.is_normal:
        raise NotNormal("only normal subgroups transport unambiguously")
    return image(point_conjugation(b, 0), h)


def orbit_partition(
    b: Bitorsor, members: Iterable[int], left: bool
) -> list[tuple[int, ...]]:
    """The orbits of the given left (or right) group elements, each sorted,
    in order of their smallest point."""
    classes: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for x in b.points:
        if x in seen:
            continue
        if left:
            cls = tuple(sorted({b.left_act[h][x] for h in members}))
        else:
            cls = tuple(sorted({b.right_act[x][h] for h in members}))
        classes.append(cls)
        seen.update(cls)
    return classes


def orbit_restriction(b: Bitorsor, p: int, members: Iterable[int]) -> BitorsorMorphism:
    """The inclusion of the sub-bitorsor of b on the orbit of point p under
    the left subgroup `members` (repeats allowed), over the right elements
    that keep p inside that orbit."""
    _, l_incl = subgroup_as_group(b.left_group, members)
    points = tuple(sorted({b.left_act[a][p] for a in l_incl.map}))
    pos = {x: i for i, x in enumerate(points)}
    _, r_incl = subgroup_as_group(
        b.right_group, (a for a in b.right_group.elements if b.right_act[p][a] in pos)
    )
    left_rows = tuple(tuple(pos[b.left_act[a][x]] for x in points) for a in l_incl.map)
    right_rows = tuple(tuple(pos[b.right_act[x][a]] for a in r_incl.map) for x in points)
    sub = by_formula(Bitorsor, l_incl.src, r_incl.src, left_rows, right_rows)
    return by_formula(BitorsorMorphism, sub, b, l_incl, points, r_incl)


def glued_rows(b1: Bitorsor, b2: Bitorsor, ys: Iterable[int]) -> list[tuple[int, ...]]:
    """For each point y of b1, the row sending z to the class of (y, z) in
    b1 glued with b2, where class i is that of (0, i): writing y = 0.c, the
    class of (0.c, z) is that of (0, c.z), so the row is left translation
    by c on b2."""
    c = _orbit_at_zero(b1.right_act[0], b1.size, "right")
    return [b2.left_act[c[y]] for y in ys]


def contracted_product(b1: Bitorsor, b2: Bitorsor) -> Bitorsor:
    """Glue two carriers over the shared middle group: b2's points with b2's
    right action, and b1's left action moved across by glued_rows."""
    if b1.right_group != b2.left_group:
        raise NotComposable("middle groups differ")
    left_rows = tuple(glued_rows(b1, b2, (row[0] for row in b1.left_act)))
    return by_formula(Bitorsor, b1.left_group, b2.right_group, left_rows, b2.right_act)


def inverse(b: Bitorsor) -> Bitorsor:
    """Same points, sides swapped: g acts on the left through the old right
    inverse and vice versa."""
    gl, gr = b.right_group, b.left_group
    left_rows = tuple(
        tuple(b.right_act[x][gl.inv[g]] for x in b.points) for g in gl.elements
    )
    right_rows = tuple(
        tuple(b.left_act[gr.inv[gp]][x] for gp in gr.elements) for x in b.points
    )
    return by_formula(Bitorsor, gl, gr, left_rows, right_rows)


def equivariant_maps(b1: Bitorsor, b2: Bitorsor) -> list[tuple[int, ...]]:
    """All right-equivariant bijections between two carriers over the same
    right group; there are exactly as many as points."""
    if b1.right_group != b2.right_group:
        raise SignatureMismatch("carriers live over different right groups")
    g = b1.right_group
    maps = []
    for y in b2.points:
        f = [0] * b1.size
        for gg in g.elements:
            f[b1.right_act[0][gg]] = b2.right_act[y][gg]
        maps.append(tuple(f))
    return sorted(maps)


def isom_bitorsor(b1: Bitorsor, b2: Bitorsor) -> Bitorsor:
    """Carrier of right-equivariant bijections b1 -> b2; the left group of b2
    post-composes, the left group of b1 pre-composes."""
    maps = equivariant_maps(b1, b2)
    pos = {f: i for i, f in enumerate(maps)}
    left_rows = tuple(
        tuple(pos[tuple(b2.left_act[gp][v] for v in f)] for f in maps)
        for gp in b2.left_group.elements
    )
    right_rows = tuple(
        tuple(pos[tuple(f[b1.left_act[gp][x]] for x in b1.points)] for gp in b1.left_group.elements)
        for f in maps
    )
    return by_formula(Bitorsor, b2.left_group, b1.left_group, left_rows, right_rows)


def isom_canonical_iso(b1: Bitorsor, b2: Bitorsor) -> BitorsorMorphism:
    """The identification of b2 glued to the inverse of b1 with the carrier
    of equivariant maps: the glued class of (0, x) becomes the map
    x.g -> 0.g.  So it sends the class of (0, 0) to map 0, the map
    0.g -> 0.g (equivariant_maps lists the map sending 0 to y at y), over
    the identity of b1's left group."""
    wedge = contracted_product(b2, inverse(b1))
    return base_point_morphism(wedge, 0, isom_bitorsor(b1, b2), 0, identity_hom(b1.left_group))


def pushforward(b: Bitorsor, phi: GroupHom) -> tuple[Bitorsor, BitorsorMorphism]:
    """Extend the right structure group along phi.

    Points are classes of (point, new group element) pairs glued over the
    old group.  Writing x = 0.c_x, the class of (x, t) is that of
    (0, phi(c_x).t), so point t is the class of (0, t): the new group acts
    by right multiplication, and the left group completes that action.  The
    canonical morphism over phi sends point 0 to the class of (0, 1), the
    identity of the new group (base_point_morphism).
    """
    if phi.src != b.right_group:
        raise SignatureMismatch("hom does not start at the right structure group")
    pushed = _complete_right(phi.dst, phi.dst.mul)
    return pushed, base_point_morphism(b, 0, pushed, phi.dst.identity, phi)


def pushforward_left(b: Bitorsor, phi_left: GroupHom) -> tuple[Bitorsor, BitorsorMorphism]:
    """Mirror extension of the left structure group along phi_left.

    Writing x = c_x.0, the class of (t, x) is that of (t.phi_left(c_x), 0),
    so the points are the elements s = t.phi_left(c_x) of the new group,
    numbered in order of first appearance over (t, x).  The new group acts
    on them by left multiplication.  Point 0 is the class of (0, 0), and an
    old right element moving 0 to y maps to the symmetry sending it to the
    class of (0, y).  The canonical morphism over that right hom sends
    point 0 to the class of (1, 0), 1 the identity of the new group
    (base_point_morphism)."""
    if phi_left.src != b.left_group:
        raise SignatureMismatch("hom does not start at the left structure group")
    g2 = phi_left.dst
    c = _orbit_at_zero((row[0] for row in b.left_act), b.size, "left")
    v = [phi_left.map[a] for a in c]
    idx: dict[int, int] = {}
    for t in g2.elements:
        for vx in v:
            idx.setdefault(g2.mul[t][vx], len(idx))
    left_rows = tuple(tuple(idx[g2.mul[h][s]] for s in idx) for h in g2.elements)
    pushed = _complete_left(g2, left_rows)
    phi_right = by_formula(
        GroupHom, b.right_group, pushed.right_group,
        tuple(idx[g2.mul[0][v[y]]] for y in b.right_act[0]),
    )
    return pushed, base_point_morphism(b, 0, pushed, idx[v[0]], phi_right)


def are_isomorphic(b1: Bitorsor, b2: Bitorsor) -> BitorsorMorphism | None:
    """An isomorphism over the identity of the right group, the one sending
    point 0 to point 0, or None when the right groups differ."""
    if b1.right_group != b2.right_group:
        return None
    return base_point_morphism(b1, 0, b2, 0, identity_hom(b1.right_group))
