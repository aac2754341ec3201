"""Carriers with a symmetry group Pi acting compatibly on everything.

A PiGroup is a group with a Pi-action by automorphisms; a PiBitorsor is a
bitorsor whose two structure groups are PiGroups and whose points carry a
compatible Pi-action.  When the right group is constant (Pi acts trivially
on it) the whole structure is equivalent to a plain carrier plus a single
homomorphism theta from Pi into the left group; ThetaBitorsor holds that
presentation, and from_theta/to_theta realize the equivalence in both
directions.  The first cohomology set h1 lives here too; a carrier is
classified by looking up the canonical conjugate of theta carried back
through point 0 in one label-free table from each class's canonical map
to its index (_class_maps), not by searching for an isomorphism to each
representative, and an isomorphism of two carriers is built at the point
named by the conjugators taking both to that map.  So do the Pi-aware
versions of the product calculus (gluing, inversion and extension of
either structure group), which read each glued or pushed point action,
and the action on a pushed group, at point 0 in the base-point
coordinates of the plain layer; a carrier is connected exactly when theta
is onto, and its connected component is bt.orbit_restriction at point 0.
A pi-stable sub-carrier takes its structure from its plain inclusion
(restrict_pi); the caller names the class, so none is searched for here.
Whether a carrier reduces to a normal subgroup of its right group is read
off the pi-action four independent ways (induced_conditions).
The public constructors check every compatibility law in full, on the
generators of pi and of the structure groups (the closure argument of
Light's associativity test, Clifford & Preston I, section 1.2); values
computed by formula from checked ones skip the check through
errors.by_formula.  A Pi-action is a table, one row per element of pi; the
checked PiGroup constructor checks rows as homs only at pi's generators:
its composition law makes every other row a product of those.
"""

from __future__ import annotations

from functools import lru_cache
from . import bitorsors as bt
from .bitorsors import (
    Bitorsor,
    BitorsorMorphism,
    NotComposable,
    SignatureMismatch,
)
from .errors import DomainError, by_formula, record
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
    inner = {h: tuple(g.conjugate(h, x) for x in g.elements) for h in set(theta.map)}
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
    Pi-actions.  The right structure is stored explicitly even when
    constant, so that twisted right actions (as produced by inversion)
    stay first-class."""

    left: PiGroup
    right: PiGroup
    bitorsor: Bitorsor
    pi_action_on_points: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        """Complete on generators: with the groups, their pi-actions and the
        carrier already validated, the symmetries and group elements along
        which each law holds are closed under products."""
        check_ints(self.pi_action_on_points, EquivariantError, "point action entry")
        if self.left.pi != self.right.pi:
            raise SignatureMismatch("left and right structures disagree on pi")
        if self.left.group != self.bitorsor.left_group:
            raise SignatureMismatch("left structure group differs from the carrier's")
        if self.right.group != self.bitorsor.right_group:
            raise SignatureMismatch("right structure group differs from the carrier's")
        pi = self.left.pi
        k = self.bitorsor.size
        pa = self.pi_action_on_points
        if len(pa) != pi.order or any(len(row) != k for row in pa):
            raise EquivariantError("point action table has the wrong shape")
        for row in pa:
            if sorted(row) != list(range(k)):
                raise EquivariantError("point action rows must be permutations")
        if pa[pi.identity] != tuple(range(k)):
            raise NotAnAction("identity symmetry moves points")
        for c1, row1 in enumerate(pa):
            for c2 in pi.generators:
                row = tuple(pa[pi.mul[c1][c2]])
                if row != tuple(map(row1.__getitem__, pa[c2])):
                    x = next(x for x in range(k) if row[x] != row1[pa[c2][x]])
                    raise NotAnAction(f"point action breaks at ({c1},{c2},{x})")
        la, ra = self.bitorsor.left_act, self.bitorsor.right_act
        for c in pi.generators:
            al = self.left.action[c]
            ar = self.right.action[c]
            for gp in self.left.group.generators:
                for x in range(k):
                    if pa[c][la[gp][x]] != la[al[gp]][pa[c][x]]:
                        raise EquivariantError(
                            f"left compatibility fails at ({c},{gp},{x})"
                        )
            for x in range(k):
                for g in self.right.group.generators:
                    if pa[c][ra[x][g]] != ra[pa[c][x]][ar[g]]:
                        raise EquivariantError(
                            f"right compatibility fails at ({c},{x},{g})"
                        )

    @property
    def pi(self) -> FiniteGroup:
        return self.left.pi

    @property
    def right_constant(self) -> bool:
        return self.right.is_constant

    def __repr__(self) -> str:
        return f"PiBitorsor({self.pi.label} acting, {self.bitorsor!r})"


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


# Expansions from_theta keeps, and components connected_component keeps.  A
# decompose or verify command expands at most three distinct inputs (the
# input, its connected component and the unramified factor) and meets at
# most one component; a fixed bound keeps memory flat over long runs.
FROM_THETA_CACHE = 32


def _labels(t: ThetaBitorsor) -> tuple[str, ...]:
    """Group equality ignores labels, but labels reach the output, so the
    labels of every group involved are part of a memo's key."""
    b = t.bitorsor
    return (t.pi.label, t.theta.dst.label, b.left_group.label, b.right_group.label)


def from_theta(t: ThetaBitorsor) -> PiBitorsor:
    """Expand the compact presentation: pi moves points through theta and
    the left action, twists the left group by conjugation, and leaves the
    right group alone.  Expansions are memoized on t and its labels."""
    return _expand_theta(t, _labels(t))


@lru_cache(maxsize=FROM_THETA_CACHE)
def _expand_theta(t: ThetaBitorsor, labels: tuple[str, ...]) -> PiBitorsor:
    b = t.bitorsor
    left = conjugation_pi_group(t.theta)
    right = constant_pi_group(t.pi, b.right_group)
    pa = tuple(b.left_act[t.theta.map[c]] for c in t.pi.elements)
    out = by_formula(PiBitorsor, left, right, b, pa)
    assert out.right_constant
    return out


def to_theta(p: PiBitorsor) -> ThetaBitorsor:
    """Collapse a constant-right PiBitorsor back to its theta presentation,
    by formula.  Pi acting trivially on the right group, each point
    permutation commutes with the free transitive right action, so it is
    the left translation by the element sending 0 where it does; theta is a
    hom because the point action is an action and the left action is free."""
    if not p.right_constant:
        raise RightGroupNotConstant("the right structure group is twisted")
    b = p.bitorsor
    into = {b.left_act[gp][0]: gp for gp in b.left_group.elements}
    theta_map = tuple(into[row[0]] for row in p.pi_action_on_points)
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
        if not is_pi_equivariant_hom(
            self.inner.phi_right, self.src.right, self.dst.right
        ):
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
    Glued point i is the class of (0, i), which c sends to the class of
    (c.0, c.i)."""
    if p1.pi != p2.pi:
        raise SignatureMismatch("factors disagree on pi")
    if p1.right != p2.left:
        raise NotComposable("middle Pi-structures differ")
    b1, b2 = p1.bitorsor, p2.bitorsor
    slides = bt.glued_rows(b1, b2, (pa[0] for pa in p1.pi_action_on_points))
    rows = tuple(
        tuple(row[z] for z in pa) for row, pa in zip(slides, p2.pi_action_on_points)
    )
    return by_formula(PiBitorsor, p1.left, p2.right, bt.contracted_product(b1, b2), rows)


def inverse_pi(p: PiBitorsor) -> PiBitorsor:
    """Sides swapped, points and point action unchanged."""
    return by_formula(
        PiBitorsor, p.right, p.left, bt.inverse(p.bitorsor), p.pi_action_on_points
    )


def pushforward_pi(
    p: PiBitorsor, phi: GroupHom, target: PiGroup
) -> tuple[PiBitorsor, PiMorphism]:
    """Extend the right structure group along an equivariant hom.

    Pushed point t is the class of (0, t), so c sends it to the class of
    (c.0, c(t)), point u(c.0).c(t).  The recomputed left group inherits its
    action by conjugating each commuting permutation with the point action,
    read at point 0, which fixes such a permutation: left element y is the
    symmetry sending 0 to y, so the conjugate of perm is the element
    pa[perm[z]], with z the point that pa sends to 0."""
    if target.pi != p.pi or target.group != phi.dst:
        raise SignatureMismatch("target structure does not match the hom")
    if not is_pi_equivariant_hom(phi, p.right, target):
        raise NotPiEquivariant("the extension hom breaks the symmetry")
    pushed, can = bt.pushforward(p.bitorsor, phi)
    pi = p.pi
    u, mul = can.point_map, phi.dst.mul
    rows = tuple(
        tuple(mul[u[pa[0]]][t] for t in at)
        for at, pa in zip(target.action, p.pi_action_on_points)
    )
    acts = []
    for pa in rows:
        z = pa.index(0)
        acts.append(tuple(pa[perm[z]] for perm in pushed.left_act))
    left_pg = by_formula(PiGroup, pushed.left_group, pi, tuple(acts))
    out = by_formula(PiBitorsor, left_pg, target, pushed, tuple(rows))
    return out, by_formula(PiMorphism, p, out, can)


def pushforward_left_pi(
    p: PiBitorsor, phi_left: GroupHom, target: PiGroup
) -> tuple[PiBitorsor, PiMorphism]:
    """Mirror extension of the left structure group: c sends the class of
    (t, 0) to the class of (c(t), c.0), both read off the pushed left
    action at the images of points 0 and c.0.  Right row 0 of the pushed
    carrier is the identity, so right element r goes to pa[row[r]], with row
    the right row at the point that pa sends to 0."""
    if target.pi != p.pi or target.group != phi_left.dst:
        raise SignatureMismatch("target structure does not match the hom")
    if not is_pi_equivariant_hom(phi_left, p.left, target):
        raise NotPiEquivariant("the extension hom breaks the symmetry")
    pushed, can = bt.pushforward_left(p.bitorsor, phi_left)
    pi = p.pi
    u, la = can.point_map, pushed.left_act
    rows = []
    for at, pa in zip(target.action, p.pi_action_on_points):
        row = [0] * pushed.size
        for t in phi_left.dst.elements:
            row[la[t][u[0]]] = la[at[t]][u[pa[0]]]
        rows.append(tuple(row))
    ra = pushed.right_act
    acts = tuple(tuple(map(pa.__getitem__, ra[pa.index(0)])) for pa in rows)
    right_pg = by_formula(PiGroup, pushed.right_group, pi, acts)
    out = by_formula(PiBitorsor, target, right_pg, pushed, tuple(rows))
    return out, by_formula(PiMorphism, p, out, can)


def restrict_pi(p: PiBitorsor, incl: BitorsorMorphism) -> tuple[PiBitorsor, PiMorphism]:
    """The symmetry structure p induces on a stable sub-carrier, given the
    carrier's inclusion (from bt.orbit_restriction), with the equivariant
    inclusion; the sub-carrier's groups are the sources of its two homs."""
    left_pg = restrict_pi_group(p.left, incl.phi_left)
    right_pg = restrict_pi_group(p.right, incl.phi_right)
    pos = {x: i for i, x in enumerate(incl.point_map)}
    rows = tuple(
        tuple(pos[row[x]] for x in incl.point_map) for row in p.pi_action_on_points
    )
    sub = by_formula(PiBitorsor, left_pg, right_pg, incl.src, rows)
    return sub, by_formula(PiMorphism, sub, p, incl)


def pi_isomorphism(p1: PiBitorsor, p2: PiBitorsor) -> PiMorphism | None:
    """The equivariant isomorphism over the identity of the right group
    that sends point 0 to the least point it can, or None, by lookup.

    With theta carried back through point 0 (a1, a2, as classify does),
    an isomorphism sending 0 to 0.h commutes with pi exactly when
    a2 = h a1 h^-1.  If k2 a2 k2^-1 is the canonical conjugate, the valid h
    are k2^-1 k over the conjugators k taking a1 to it; there are none when
    the canonical conjugates differ.  A twisted right structure raises
    RightGroupNotConstant."""
    if p1.pi != p2.pi or p1.right != p2.right:
        return None
    a1, a2 = _theta_at_zero(to_theta(p1)), _theta_at_zero(to_theta(p2))
    survivors, k2 = _canonical_conjugators(a1), _canonical_conjugators(a2)[0]
    if conjugate_hom(survivors[0], a1) != conjugate_hom(k2, a2):
        return None
    b1, b2, g = p1.bitorsor, p2.bitorsor, p1.bitorsor.right_group
    y0 = min(b2.right_act[0][g.mul[g.inv[k2]][k]] for k in survivors)
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
    theta corestricted to that image, and the inclusion.  Memoized like
    from_theta: decompose, its own check and a later verify of the same
    input share one component."""
    return _component(t, _labels(t))


@lru_cache(maxsize=FROM_THETA_CACHE)
def _component(t: ThetaBitorsor, labels: tuple[str, ...]) -> tuple[ThetaBitorsor, BitorsorMorphism]:
    incl = bt.orbit_restriction(t.bitorsor, 0, t.theta.map)
    pos = {v: i for i, v in enumerate(incl.phi_left.map)}
    theta_sub = by_formula(GroupHom, t.pi, incl.phi_left.src, tuple(pos[v] for v in t.theta.map))
    return by_formula(ThetaBitorsor, incl.src, theta_sub), incl


def h1_representatives(pi: FiniteGroup, g: FiniteGroup) -> tuple[GroupHom, ...]:
    """The canonical conjugate of each conjugacy class, in order of map."""
    return tuple(t.theta for t in h1(pi, g))


@lru_cache(maxsize=256)  # a decompose-sweep pass meets 120 (pi, group) pairs
def _class_maps(pi: FiniteGroup, g: FiniteGroup) -> dict[tuple[int, ...], int]:
    """Each class's canonical map, in sorted order, to its index.  Maps
    carry no labels, so neither does the key."""
    maps = sorted({canonical_conjugate(h).map for h in enumerate_homs(pi, g)})
    return {m: i for i, m in enumerate(maps)}


def class_index_of_hom(theta: GroupHom) -> int:
    return _class_maps(theta.src, theta.dst)[canonical_conjugate(theta).map]


def h1(pi: FiniteGroup, g: FiniteGroup) -> tuple[ThetaBitorsor, ...]:
    """Canonical class representatives, each over the trivial carrier.

    Memoized like from_theta, with the labels of both groups in the key."""
    return _h1(pi, g, (pi.label, g.label))


@lru_cache(maxsize=256)
def _h1(pi: FiniteGroup, g: FiniteGroup, labels: tuple[str, str]) -> tuple[ThetaBitorsor, ...]:
    triv = bt.trivial_bitorsor(g)
    return tuple(ThetaBitorsor(triv, by_formula(GroupHom, pi, g, m)) for m in _class_maps(pi, g))


h1.cache_info = _h1.cache_info


def classify(t: ThetaBitorsor) -> int:
    """Index in h1(pi, right group) of t's class, by lookup.

    A class representative rep lives on the trivial carrier, and an
    isomorphism from it to t over the identity of the right group sends
    point 0 to some x = 0.a; it commutes with pi exactly when theta is rep
    carried through x.  Carrying theta back through point 0 instead gives a
    conjugate of rep, so its canonical conjugate is rep (Giraud,
    Cohomologie non abelienne, 1971)."""
    return class_index_of_hom(_theta_at_zero(t))


def _theta_at_zero(t: ThetaBitorsor) -> GroupHom:
    """Theta carried back to the right group through point 0: c moves 0 to
    0.a(c)."""
    b = t.bitorsor
    back = {v: g for g, v in enumerate(bt.point_conjugation(b, 0).map)}
    return by_formula(GroupHom, t.pi, b.right_group, tuple(back[v] for v in t.theta.map))


def induced_conditions(
    t: ThetaBitorsor, h: Subgroup
) -> tuple[bool, bool, bool, bool, tuple[int, ...] | None]:
    """Four independent descriptions of t reducing to the normal subgroup h
    of its right group G (Giraud, Cohomologie non abelienne, 1971): (i) the
    collapse along G -> G/h has a pi-fixed point; (ii) some right h-class
    is pi-stable; (iii) some left orbit of h', h transported to the left
    group, is pi-stable; (iv) theta carried back through point 0 lands in h.
    Returns the four flags and the first stable right class, or None.

    Pi moves points by left translations, which commute with the right
    action, and h is normal, so one class is stable exactly when all are."""
    b, p = t.bitorsor, from_theta(t)
    hp = bt.corresponding_normal_subgroup(b, h)
    moves = [p.pi_action_on_points[c] for c in t.pi.generators]

    def stable(cls: tuple[int, ...]) -> bool:
        inside = set(cls)
        return all(row[x] in inside for row in moves for x in cls)

    _, q = quotient(b.right_group, h)
    collapse, _ = pushforward_pi(p, q, constant_pi_group(t.pi, q.dst))
    fixed = [collapse.pi_action_on_points[c] for c in t.pi.generators]
    cond_i = any(all(row[x] == x for row in fixed) for x in collapse.bitorsor.points)
    right = [cls for cls in bt.orbit_partition(b, h.members, left=False) if stable(cls)]
    cond_iii = any(map(stable, bt.orbit_partition(b, hp.members, left=True)))
    cond_iv = set(_theta_at_zero(t).map) <= set(h.members)
    return cond_i, bool(right), cond_iii, cond_iv, right[0] if right else None


def trivial_class_index(pi: FiniteGroup, g: FiniteGroup) -> int:
    """The constant-identity map is its own canonical conjugate."""
    return _class_maps(pi, g)[(g.identity,) * pi.order]
