"""Carriers with a symmetry group Pi acting compatibly on everything.

A PiGroup is a group with a Pi-action by automorphisms, one row per
element of pi.  A PiBitorsor is a carrier with PiGroups on both sides and a
compatible action on points, stored as its cocycle at point 0 (Giraud,
Cohomologie non abelienne, 1971), c.0 = 0.a(c); the Pi-aware calculus is
hom algebra on cocycles, and the point action is derived on first use.
With a constant right group it is a carrier plus theta: pi -> left group
(ThetaBitorsor), a = u o theta.  A carrier is classified by the canonical
conjugate of a (_class_maps), is connected exactly when theta is onto, and
its component is bt.orbit_restriction at point 0.  The checked entries
check every law on generators (Light's test, Clifford & Preston I, section
1.2); values computed by formula skip it through errors.by_formula.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from . import bitorsors as bt
from .bitorsors import (
    Bitorsor,
    BitorsorMorphism,
    NotComposable,
    SignatureMismatch,
)
from .errors import DomainError, by_formula, formula_check, record
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    _canonical_conjugators,
    canonical_conjugate,
    check_ints,
    conjugate_hom,
    enumerate_homs,
    identity_hom,
    isomorphisms_between,  # noqa: F401  (perfbench/test_perfbench.py reads it here)
    quotient,
)
from .groups import NotAnAction


class EquivariantError(DomainError):
    """Base for symmetry-layer failures."""


class RightGroupNotConstant(EquivariantError):
    pass


class NotPiStable(EquivariantError):
    pass


class NotPiEquivariant(EquivariantError):
    pass


@record
class PiGroup:
    """A group together with an action of pi on it by automorphisms: row c
    of the action is the permutation of the group that c acts by."""

    group: FiniteGroup
    pi: FiniteGroup
    action: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        """Rows at pi's generators are homs and every row a permutation.
        Complete on generators: with the identity acting trivially, the c2
        with action[c1.c2] = action[c1] o action[c2] for every c1 are
        closed under products, so every row is an automorphism."""
        check_ints(self.action, EquivariantError, "action entry")
        g, pi, maps = self.group, self.pi, self.action
        for c in pi.generators:
            if c < len(maps):
                GroupHom(g, g, maps[c])
        if len(maps) != pi.order:
            raise NotAnAction("need one automorphism per symmetry element")
        ident = tuple(g.elements)
        if any(tuple(sorted(m)) != ident for m in maps):
            raise NotAnAction("action entries must be automorphisms")
        if tuple(maps[pi.identity]) != ident:
            raise NotAnAction("identity symmetry must act trivially")
        for c1, m1 in enumerate(maps):
            for c2 in pi.generators:
                if tuple(maps[pi.mul[c1][c2]]) != tuple(map(m1.__getitem__, maps[c2])):
                    raise NotAnAction(f"action breaks at symmetry pair ({c1},{c2})")

    @property
    def is_constant(self) -> bool:
        ident = tuple(self.group.elements)
        return all(row == ident for row in self.action)

    def __repr__(self) -> str:
        kind = "const" if self.is_constant else "twisted"
        return f"PiGroup({self.pi.label} on {self.group.label}, {kind})"


def constant_pi_group(pi: FiniteGroup, g: FiniteGroup) -> PiGroup:
    return by_formula(PiGroup, g, pi, (tuple(g.elements),) * pi.order)


def conjugation_pi_group(theta: GroupHom) -> PiGroup:
    """Pi acting on theta's codomain by inner automorphisms through theta;
    one row is built per distinct image theta(c)."""
    g = theta.dst
    inner = {h: tuple(map(_column(g.mul, g.inv[h]), g.mul[h])) for h in set(theta.map)}
    return by_formula(PiGroup, g, theta.src, tuple(inner[h] for h in theta.map))


def is_pi_equivariant_hom(f: GroupHom, src: PiGroup, dst: PiGroup) -> bool:
    """Decided on generators of pi and of the group: for each c both sides
    are homs, and the c where they agree are closed under products."""
    if f.src != src.group or f.dst != dst.group or src.pi != dst.pi:
        raise SignatureMismatch("hom does not connect the two structures")
    return all(
        f.map[src.action[c][g]] == dst.action[c][f.map[g]]
        for c in src.pi.generators
        for g in src.group.generators
    )


def restrict_pi_group(pg: PiGroup, incl: GroupHom) -> PiGroup:
    """The induced action on a stable subgroup, given its inclusion into
    pg's group: row c is row c of pg read on the subgroup's elements."""
    pos = {v: i for i, v in enumerate(incl.map)}
    acts = []
    for c, outer in enumerate(pg.action):
        try:
            acts.append(tuple(pos[outer[v]] for v in incl.map))
        except KeyError:
            raise NotPiStable(
                f"subgroup {tuple(incl.map)} is moved by symmetry element {c}"
            ) from None
    return by_formula(PiGroup, incl.src, pg.pi, tuple(acts))


@record
class PiBitorsor:
    """A bitorsor whose structure groups and points carry compatible
    Pi-actions, the points' through the cocycle a: pi -> right group with
    c.(0.r) = 0.a(c).c(r).  The right structure is stored even when constant,
    so that twisted right actions (as inversion makes) stay first-class."""

    left: PiGroup
    right: PiGroup
    bitorsor: Bitorsor
    cocycle: tuple[int, ...]

    def __post_init__(self) -> None:
        """The cocycle law a(c1.c2) = a(c1).c1(a(c2)) makes the point action an
        action compatible with the right one, and the left action is
        compatible when u(c.l) = a(c).c(u(l)).a(c)^-1; each is checked on
        generators, the elements where it holds being closed under products."""
        check_ints(self.cocycle, EquivariantError, "cocycle", table=False)
        _check_signature(self.left, self.right, self.bitorsor)
        pi, b, a, g = self.left.pi, self.bitorsor, self.cocycle, self.bitorsor.right_group
        if len(a) != pi.order or not all(0 <= v < g.order for v in a):
            raise EquivariantError("the cocycle needs one right group element per symmetry")
        if a[pi.identity] != g.identity:
            raise NotAnAction("identity symmetry moves point 0")
        mul, act = g.mul, self.right.action
        for c1 in pi.elements:
            for c2 in pi.generators:
                if a[pi.mul[c1][c2]] != mul[a[c1]][act[c1][a[c2]]]:
                    raise NotAnAction(f"cocycle law breaks at ({c1},{c2})")
        for c in pi.generators:
            row = _induced(b, (act[c],), (a[c],), left=True)[0]
            if bad := [gp for gp in b.left_group.generators if self.left.action[c][gp] != row[gp]]:
                raise EquivariantError(f"left compatibility fails at ({c},{bad[0]})")
        formula_check("PiBitorsor", lambda: self.pi_action_on_points)

    @classmethod
    def from_tables(cls, left: PiGroup, right: PiGroup, bitorsor: Bitorsor, pi_action_on_points) -> PiBitorsor:
        """The checked entry from a point action table (_check_point_action):
        the cocycle is read at point 0, and the checked table is kept as the
        derived one, so BITORSOR_CHECK=full does not check it again."""
        _check_point_action(left, right, bitorsor, pi_action_on_points)
        cocycle = tuple(bitorsor.coord_of[row[0]] for row in pi_action_on_points)
        return by_formula(cls, left, right, bitorsor, cocycle, pi_action_on_points=pi_action_on_points)

    @cached_property
    def pi_action_on_points(self) -> tuple[tuple[int, ...], ...]:
        """Row c is the point 0.a(c).c(r) at each point 0.r."""
        b, act = self.bitorsor, self.right.action
        c, mul, at = b.coords, b.right_group.mul, b.coord_of
        rows = tuple(tuple(map(c.__getitem__, map(mul[a].__getitem__, map(act[i].__getitem__, at)))) for i, a in enumerate(self.cocycle))
        formula_check("PiBitorsor", _check_point_action, self.left, self.right, b, rows)
        return rows

    @property
    def pi(self) -> FiniteGroup:
        return self.left.pi

    @property
    def right_constant(self) -> bool:
        return self.right.is_constant

    def __repr__(self) -> str:
        return f"PiBitorsor({self.pi.label} acting, {self.bitorsor!r})"


def _check_signature(left: PiGroup, right: PiGroup, b: Bitorsor) -> None:
    if left.pi != right.pi:
        raise SignatureMismatch("left and right structures disagree on pi")
    if left.group != b.left_group:
        raise SignatureMismatch("left structure group differs from the carrier's")
    if right.group != b.right_group:
        raise SignatureMismatch("right structure group differs from the carrier's")


def _check_point_action(left: PiGroup, right: PiGroup, b: Bitorsor, pa) -> None:
    """Every law of a point action table, complete on generators: with the
    groups, their actions and the carrier valid, the elements along which
    each law holds are closed under products."""
    check_ints(pa, EquivariantError, "point action entry")
    _check_signature(left, right, b)
    pi, k = left.pi, b.size
    if len(pa) != pi.order or any(len(row) != k for row in pa):
        raise EquivariantError("point action table has the wrong shape")
    if any(sorted(row) != list(range(k)) for row in pa):
        raise EquivariantError("point action rows must be permutations")
    if pa[pi.identity] != tuple(range(k)):
        raise NotAnAction("identity symmetry moves points")
    for c1, row1 in enumerate(pa):
        for c2 in pi.generators:
            row = tuple(pa[pi.mul[c1][c2]])
            if row != tuple(map(row1.__getitem__, pa[c2])):
                x = next(x for x in range(k) if row[x] != row1[pa[c2][x]])
                raise NotAnAction(f"point action breaks at ({c1},{c2},{x})")
    la, ra = b.left_act, b.right_act
    for c in pi.generators:
        al = left.action[c]
        ar = right.action[c]
        for gp in left.group.generators:
            for x in range(k):
                if pa[c][la[gp][x]] != la[al[gp]][pa[c][x]]:
                    raise EquivariantError(f"left compatibility fails at ({c},{gp},{x})")
        for x in range(k):
            for g in right.group.generators:
                if pa[c][ra[x][g]] != ra[pa[c][x]][ar[g]]:
                    raise EquivariantError(f"right compatibility fails at ({c},{x},{g})")


def _induced(b: Bitorsor, action, cocycle, left: bool) -> tuple[tuple[int, ...], ...]:
    """The rows of the pi-action on b's left (or right) group that the
    cocycle and the action on the other group induce, by c.(l.0) =
    (c.l).(c.0): u(c.l) = a(c).c(u(l)).a(c)^-1, or c(r) =
    a(c)^-1.u(c.u^-1(r)).a(c); one row per distinct (a(c), row)."""
    mul, inv, u, ui = b.right_group.mul, b.right_group.inv, b.u, b.u_inv
    rows: dict[tuple[int, int], tuple[int, ...]] = {}
    for a, act in zip(cocycle, action):
        if (a, id(act)) not in rows:
            if left:
                row = map(ui.__getitem__, map(_column(mul, inv[a]), map(mul[a].__getitem__, map(act.__getitem__, u))))
            else:
                row = map(_column(mul, a), map(mul[inv[a]].__getitem__, map(u.__getitem__, map(act.__getitem__, ui))))
            rows[a, id(act)] = tuple(row)
    return tuple(rows[a, id(act)] for a, act in zip(cocycle, action))


def _column(mul, a: int):
    """x -> x.a, for map."""
    return [row[a] for row in mul].__getitem__


@record
class ThetaBitorsor:
    """A carrier plus a homomorphism theta from pi into its left group;
    the compact presentation of a PiBitorsor with constant right group."""

    bitorsor: Bitorsor
    theta: GroupHom

    def __post_init__(self) -> None:
        if self.theta.dst != self.bitorsor.left_group:
            raise SignatureMismatch("theta must land in the carrier's left group")

    @property
    def pi(self) -> FiniteGroup:
        return self.theta.src

    def __repr__(self) -> str:
        return f"ThetaBitorsor({self.pi.label} -> {self.bitorsor!r})"


def from_theta(t: ThetaBitorsor) -> PiBitorsor:
    """Expand the compact presentation, by formula: pi moves points through
    theta and the left action, twists the left group by conjugation, and
    leaves the right group alone; the cocycle is u o theta."""
    b = t.bitorsor
    left, right = conjugation_pi_group(t.theta), constant_pi_group(t.pi, b.right_group)
    out = by_formula(PiBitorsor, left, right, b, tuple(map(b.u.__getitem__, t.theta.map)))
    assert out.right_constant
    return out


def to_theta(p: PiBitorsor) -> ThetaBitorsor:
    """Collapse a constant-right PiBitorsor back to its theta presentation,
    by formula: each point permutation commutes with the right action, so it
    is the left translation u^-1(a(c)), and a is a hom for the trivial
    action."""
    if not p.right_constant:
        raise RightGroupNotConstant("the right structure group is twisted")
    b = p.bitorsor
    theta_map = tuple(map(b.u_inv.__getitem__, p.cocycle))
    return by_formula(ThetaBitorsor, b, by_formula(GroupHom, p.pi, b.left_group, theta_map))


@record
class PiMorphism:
    """A carrier morphism whose three components commute with the
    Pi-actions on both sides."""

    src: PiBitorsor
    dst: PiBitorsor
    inner: BitorsorMorphism

    def __post_init__(self) -> None:
        """Complete on generators: the symmetries c that the point map
        intertwines are closed under products."""
        if self.src.pi != self.dst.pi:
            raise SignatureMismatch("sides disagree on pi")
        if self.inner.src != self.src.bitorsor or self.inner.dst != self.dst.bitorsor:
            raise SignatureMismatch("inner morphism does not connect the carriers")
        pi = self.src.pi
        u = self.inner.point_map
        for c in pi.generators:
            sa = self.src.pi_action_on_points[c]
            da = self.dst.pi_action_on_points[c]
            for x in self.src.bitorsor.points:
                if u[sa[x]] != da[u[x]]:
                    raise NotPiEquivariant(f"point map breaks symmetry {c} at {x}")
        if not is_pi_equivariant_hom(self.inner.phi_left, self.src.left, self.dst.left):
            raise NotPiEquivariant("left hom breaks the symmetry")
        if not is_pi_equivariant_hom(self.inner.phi_right, self.src.right, self.dst.right):
            raise NotPiEquivariant("right hom breaks the symmetry")

    def __call__(self, x: int) -> int:
        return self.inner.point_map[x]

    def is_isomorphism(self) -> bool:
        return self.inner.is_isomorphism()


def pi_identity_morphism(p: PiBitorsor) -> PiMorphism:
    return by_formula(PiMorphism, p, p, bt.identity_morphism(p.bitorsor))


def compose_pi(p1: PiBitorsor, p2: PiBitorsor) -> PiBitorsor:
    """Glue two equivariant carriers; the middle structures must be equal
    as PiGroups, not merely isomorphic, for the diagonal action to descend.
    c sends the class of (0, 0) to that of (0.a1(c), 0.a2(c)), the class of
    (0, 0.u2(a1(c)).a2(c))."""
    if p1.pi != p2.pi:
        raise SignatureMismatch("factors disagree on pi")
    if p1.right != p2.left:
        raise NotComposable("middle Pi-structures differ")
    b1, b2 = p1.bitorsor, p2.bitorsor
    mul, u2 = b2.right_group.mul, b2.u
    cocycle = tuple(mul[u2[a1]][a2] for a1, a2 in zip(p1.cocycle, p2.cocycle))
    return by_formula(PiBitorsor, p1.left, p2.right, bt.contracted_product(b1, b2), cocycle)


def inverse_pi(p: PiBitorsor) -> PiBitorsor:
    """Sides swapped, points and point action unchanged: c.0 = 0.a(c) is
    0 moved by the inverse carrier's right element u^-1(a(c)^-1)."""
    b = p.bitorsor
    inv, into = b.right_group.inv, b.u_inv
    cocycle = tuple(into[inv[a]] for a in p.cocycle)
    return by_formula(PiBitorsor, p.right, p.left, bt.inverse(b), cocycle)


def pushforward_pi(p: PiBitorsor, phi: GroupHom, target: PiGroup) -> tuple[PiBitorsor, PiMorphism]:
    """Extend the right structure group along an equivariant hom: c sends
    point 0, the class of (0, 0), to that of (0.a(c), c(0)), point
    phi(a(c)).c(0); the new left group's action is the induced one."""
    if target.pi != p.pi or target.group != phi.dst:
        raise SignatureMismatch("target structure does not match the hom")
    if not is_pi_equivariant_hom(phi, p.right, target):
        raise NotPiEquivariant("the extension hom breaks the symmetry")
    pushed, can = bt.pushforward(p.bitorsor, phi)
    mul, at, f = phi.dst.mul, pushed.coord_of, phi.map
    cocycle = tuple(at[mul[f[a]][act[0]]] for a, act in zip(p.cocycle, target.action))
    left_pg = by_formula(PiGroup, pushed.left_group, p.pi, _induced(pushed, target.action, cocycle, left=True))
    out = by_formula(PiBitorsor, left_pg, target, pushed, cocycle)
    return out, by_formula(PiMorphism, p, out, can)


def pushforward_left_pi(p: PiBitorsor, phi_left: GroupHom, target: PiGroup) -> tuple[PiBitorsor, PiMorphism]:
    """Mirror extension of the left structure group: c sends point 0, the
    class of (0, 0), to that of (c(0), 0.a(c)), c(0) moving can(0) = 0.k0
    moved by psi(a(c)), psi the canonical right hom: 0.u(c(0)).k0.psi(a(c)).
    The new right group's action is the induced one."""
    if target.pi != p.pi or target.group != phi_left.dst:
        raise SignatureMismatch("target structure does not match the hom")
    if not is_pi_equivariant_hom(phi_left, p.left, target):
        raise NotPiEquivariant("the extension hom breaks the symmetry")
    pushed, can = bt.pushforward_left(p.bitorsor, phi_left)
    mul, u, psi = pushed.right_group.mul, pushed.u, can.phi_right.map
    k0 = pushed.coord_of[can(0)]
    cocycle = tuple(mul[mul[u[act[0]]][k0]][psi[a]] for a, act in zip(p.cocycle, target.action))
    right_pg = by_formula(PiGroup, pushed.right_group, p.pi, _induced(pushed, target.action, cocycle, left=False))
    out = by_formula(PiBitorsor, target, right_pg, pushed, cocycle)
    return out, by_formula(PiMorphism, p, out, can)


def restrict_pi(p: PiBitorsor, incl: BitorsorMorphism) -> tuple[PiBitorsor, PiMorphism]:
    """The symmetry structure p induces on a stable sub-carrier, given the
    carrier's inclusion (from bt.orbit_restriction), with the equivariant
    inclusion.  The sub-carrier's point 0 is 0.q in p, which c sends to
    0.a(c).c(q): its cocycle is q^-1.a(c).c(q), in the right subgroup."""
    left_pg = restrict_pi_group(p.left, incl.phi_left)
    right_pg = restrict_pi_group(p.right, incl.phi_right)
    g = p.bitorsor.right_group
    mul, q = g.mul, p.bitorsor.coord_of[incl.point_map[0]]
    back, pos = mul[g.inv[q]], {v: i for i, v in enumerate(incl.phi_right.map)}
    cocycle = tuple(pos[mul[back[a]][act[q]]] for a, act in zip(p.cocycle, p.right.action))
    sub = by_formula(PiBitorsor, left_pg, right_pg, incl.src, cocycle)
    return sub, by_formula(PiMorphism, sub, p, incl)


def pi_isomorphism(p1: PiBitorsor, p2: PiBitorsor) -> PiMorphism | None:
    """The equivariant isomorphism over the identity of the right group
    that sends point 0 to the least point it can, or None, by lookup.  With
    the cocycles a1, a2, one sending 0 to 0.h commutes with pi exactly when
    a2 = h a1 h^-1: if k2 a2 k2^-1 is the canonical conjugate, h is k2^-1 k
    over the conjugators k taking a1 to it.  A twisted right structure
    raises RightGroupNotConstant."""
    if p1.pi != p2.pi or p1.right != p2.right:
        return None
    a1, a2 = _theta_at_zero(to_theta(p1)), _theta_at_zero(to_theta(p2))
    survivors, k2 = _canonical_conjugators(a1), _canonical_conjugators(a2)[0]
    if conjugate_hom(survivors[0], a1) != conjugate_hom(k2, a2):
        return None
    b1, b2, g = p1.bitorsor, p2.bitorsor, p1.bitorsor.right_group
    y0 = min(b2.coords[g.mul[g.inv[k2]][k]] for k in survivors)
    return by_formula(PiMorphism, p1, p2, bt.base_point_morphism(b1, 0, b2, y0, identity_hom(g)))


def is_connected(t: ThetaBitorsor) -> bool:
    """Surjectivity of theta: pi moves point 0 through theta's image, and the
    left action is free and transitive, so the orbit of 0 is every point
    exactly when theta is onto.  Pi moves points by left translations, which
    commute with the right action, so every orbit has the size of that one."""
    return t.theta.is_surjective()


def connected_component(t: ThetaBitorsor) -> tuple[ThetaBitorsor, BitorsorMorphism]:
    """Restrict to the symmetry orbit of point 0, by formula: the orbit
    restriction at point 0 under theta's image (bt.orbit_restriction), with
    theta corestricted to that image, and the inclusion."""
    incl = bt.orbit_restriction(t.bitorsor, 0, t.theta.map)
    pos = {v: i for i, v in enumerate(incl.phi_left.map)}
    theta_sub = by_formula(GroupHom, t.pi, incl.phi_left.src, tuple(pos[v] for v in t.theta.map))
    return by_formula(ThetaBitorsor, incl.src, theta_sub), incl


def h1_representatives(pi: FiniteGroup, g: FiniteGroup) -> tuple[GroupHom, ...]:
    """The canonical conjugate of each conjugacy class, in order of map."""
    return tuple(t.theta for t in h1(pi, g))


@lru_cache(maxsize=256)  # a seed-1 decompose-sweep pass meets 120 (pi, group) pairs
def _class_maps(pi: FiniteGroup, g: FiniteGroup) -> dict[tuple[int, ...], int]:
    """Each class's canonical map, in sorted order, to its index.  Maps
    carry no labels, so neither does the key."""
    maps = sorted({canonical_conjugate(h).map for h in enumerate_homs(pi, g)})
    return {m: i for i, m in enumerate(maps)}


def class_index_of_hom(theta: GroupHom) -> int:
    return _class_maps(theta.src, theta.dst)[canonical_conjugate(theta).map]


def h1(pi: FiniteGroup, g: FiniteGroup) -> tuple[ThetaBitorsor, ...]:
    """Canonical class representatives, each over the trivial carrier.

    Memoized on both groups and their labels: group equality ignores labels,
    but labels reach the output."""
    return _h1(pi, g, (pi.label, g.label))


@lru_cache(maxsize=256)
def _h1(pi: FiniteGroup, g: FiniteGroup, labels: tuple[str, str]) -> tuple[ThetaBitorsor, ...]:
    triv = bt.trivial_bitorsor(g)
    return tuple(ThetaBitorsor(triv, by_formula(GroupHom, pi, g, m)) for m in _class_maps(pi, g))


h1.cache_info = _h1.cache_info


def classify(t: ThetaBitorsor) -> int:
    """Index in h1(pi, right group) of t's class, by lookup: an isomorphism
    from a representative rep on the trivial carrier sends 0 to some x, and
    commutes with pi exactly when theta is rep carried through x, so theta
    carried back through point 0 is conjugate to rep (Giraud 1971)."""
    return class_index_of_hom(_theta_at_zero(t))


def _theta_at_zero(t: ThetaBitorsor) -> GroupHom:
    """Theta carried back to the right group through point 0: c moves 0 to
    0.a(c)."""
    b = t.bitorsor
    return by_formula(GroupHom, t.pi, b.right_group, tuple(map(b.u.__getitem__, t.theta.map)))


def induced_conditions(t: ThetaBitorsor, h: Subgroup) -> tuple[bool, bool, bool, bool, tuple[int, ...] | None]:
    """Four independent descriptions of t reducing to the normal subgroup h
    of its right group G (Giraud, Cohomologie non abelienne, 1971): (i) the
    collapse along G -> G/h has a pi-fixed point; (ii) some right h-class
    is pi-stable; (iii) some left orbit of h', h transported to the left
    group, is pi-stable; (iv) theta carried back through point 0 lands in h.
    Returns the four flags and the first stable right class, or None.

    Pi moves 0.r to 0.a(c).r, commuting with the right action, and h is
    normal, so one class is stable exactly when all are, and a point of the
    collapse is fixed by c exactly when the collapse's a(c) is 1."""
    b, p = t.bitorsor, from_theta(t)
    hp = bt.corresponding_normal_subgroup(b, h)
    c, at, mul = b.coords, b.coord_of, b.right_group.mul
    moves = [mul[p.cocycle[g]] for g in t.pi.generators]

    def stable(cls: tuple[int, ...]) -> bool:
        inside = set(cls)
        return all(c[row[at[x]]] in inside for row in moves for x in cls)

    _, q = quotient(b.right_group, h)
    collapse, _ = pushforward_pi(p, q, constant_pi_group(t.pi, q.dst))
    cond_i = all(collapse.cocycle[g] == q.dst.identity for g in t.pi.generators)
    right = [cls for cls in bt.orbit_partition(b, h.members, left=False) if stable(cls)]
    cond_iii = any(map(stable, bt.orbit_partition(b, hp.members, left=True)))
    cond_iv = set(_theta_at_zero(t).map) <= set(h.members)
    return cond_i, bool(right), cond_iii, cond_iv, right[0] if right else None


def trivial_class_index(pi: FiniteGroup, g: FiniteGroup) -> int:
    """The constant-identity map is its own canonical conjugate."""
    return _class_maps(pi, g)[(g.identity,) * pi.order]
