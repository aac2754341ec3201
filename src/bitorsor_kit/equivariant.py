"""Carriers with a symmetry group Pi acting compatibly on everything.

A PiGroup is a group with a Pi-action by automorphisms; a PiBitorsor is a
bitorsor whose two structure groups are PiGroups and whose points carry a
compatible Pi-action.  When the right group is constant (Pi acts trivially
on it) the whole structure is equivalent to a plain carrier plus a single
homomorphism theta from Pi into the left group; ThetaBitorsor holds that
presentation, and from_theta/to_theta realize the equivalence in both
directions.  The first cohomology set h1 and its classification live here
too, as do the Pi-aware versions of the product calculus.  Constructors
check every compatibility law in full, on the generators of pi and of the
structure groups (the closure argument of Light's associativity test,
Clifford & Preston I, section 1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from . import bitorsors as bt
from .bitorsors import (
    Bitorsor,
    BitorsorMorphism,
    InvalidMorphism,
    NotComposable,
    SignatureMismatch,
)
from .errors import DomainError
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    conjugacy_classes_of_homs,
    enumerate_homs,
    identity_hom,
    isomorphisms_between,  # noqa: F401  (perfbench/test_perfbench.py reads it here)
    iter_isomorphisms,
    quotient,
    subgroup_as_group,
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


class NoMatch(EquivariantError):
    pass


@dataclass(frozen=True)
class PiGroup:
    """A group together with an action of pi on it by automorphisms."""

    group: FiniteGroup
    pi: FiniteGroup
    action: tuple[GroupHom, ...]

    def __post_init__(self) -> None:
        """Complete on generators: with the identity acting trivially, the
        c2 with action[c1.c2] = action[c1] o action[c2] for every c1 are
        closed under products."""
        if len(self.action) != self.pi.order:
            raise NotAnAction("need one automorphism per symmetry element")
        for f in self.action:
            if f.src != self.group or f.dst != self.group:
                raise NotAnAction("action entries must be endomorphisms of the group")
            if not f.is_bijective():
                raise NotAnAction("action entries must be automorphisms")
        ident = tuple(self.group.elements)
        if self.action[self.pi.identity].map != ident:
            raise NotAnAction("identity symmetry must act trivially")
        for c1 in self.pi.elements:
            for c2 in self.pi.generators:
                composed = tuple(
                    self.action[c1].map[self.action[c2].map[g]]
                    for g in self.group.elements
                )
                if self.action[self.pi.mul[c1][c2]].map != composed:
                    raise NotAnAction(f"action breaks at symmetry pair ({c1},{c2})")

    @property
    def is_constant(self) -> bool:
        ident = tuple(self.group.elements)
        return all(f.map == ident for f in self.action)

    def __repr__(self) -> str:
        kind = "const" if self.is_constant else "twisted"
        return f"PiGroup({self.pi.label} on {self.group.label}, {kind})"


def constant_pi_group(pi: FiniteGroup, g: FiniteGroup) -> PiGroup:
    return PiGroup(g, pi, (identity_hom(g),) * pi.order)


def conjugation_pi_group(theta: GroupHom) -> PiGroup:
    """Pi acting on theta's codomain by inner automorphisms through theta;
    one automorphism is built per distinct image theta(c)."""
    g = theta.dst
    inner = {
        h: GroupHom(g, g, tuple(g.conjugate(h, x) for x in g.elements))
        for h in set(theta.map)
    }
    return PiGroup(g, theta.src, tuple(inner[h] for h in theta.map))


def is_pi_equivariant_hom(f: GroupHom, src: PiGroup, dst: PiGroup) -> bool:
    """Decided on generators of pi and of the group: for each c both sides
    are homs, and the c where they agree are closed under products."""
    if f.src != src.group or f.dst != dst.group or src.pi != dst.pi:
        raise SignatureMismatch("hom does not connect the two structures")
    return all(
        f.map[src.action[c].map[g]] == dst.action[c].map[f.map[g]]
        for c in src.pi.generators
        for g in src.group.generators
    )


def pi_equivariant_isos(a: PiGroup, b: PiGroup) -> Iterator[GroupHom]:
    """Yield the Pi-equivariant isomorphisms lazily, in lexicographic order
    of generator images."""
    for f in iter_isomorphisms(a.group, b.group):
        if is_pi_equivariant_hom(f, a, b):
            yield f


def restrict_pi_group(pg: PiGroup, members) -> tuple[PiGroup, GroupHom]:
    """A stable subgroup with the induced action, plus its inclusion."""
    sub, incl = subgroup_as_group(pg.group, members)
    pos = {v: i for i, v in enumerate(incl.map)}
    acts = []
    for c in pg.pi.elements:
        outer = pg.action[c].map
        try:
            acts.append(
                GroupHom(sub, sub, tuple(pos[outer[incl.map[a]]] for a in sub.elements))
            )
        except KeyError:
            raise NotPiStable(
                f"subgroup {tuple(incl.map)} is moved by symmetry element {c}"
            ) from None
    return PiGroup(sub, pg.pi, tuple(acts)), incl


def quotient_pi_group(pg: PiGroup, h: Subgroup) -> tuple[PiGroup, GroupHom]:
    """Quotient by a stable normal subgroup with the induced action."""
    for c in pg.pi.elements:
        if any(pg.action[c].map[m] not in set(h.members) for m in h.members):
            raise NotPiStable(f"subgroup is moved by symmetry element {c}")
    gq, q = quotient(pg.group, h)
    rep = [0] * gq.order
    for x in reversed(pg.group.elements):
        rep[q.map[x]] = x
    acts = tuple(
        GroupHom(gq, gq, tuple(q.map[pg.action[c].map[rep[a]]] for a in gq.elements))
        for c in pg.pi.elements
    )
    return PiGroup(gq, pg.pi, acts), q


@dataclass(frozen=True)
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
        for c1 in pi.elements:
            for c2 in pi.generators:
                row = pa[pi.mul[c1][c2]]
                for x in range(k):
                    if row[x] != pa[c1][pa[c2][x]]:
                        raise NotAnAction(f"point action breaks at ({c1},{c2},{x})")
        la, ra = self.bitorsor.left_act, self.bitorsor.right_act
        for c in pi.generators:
            al = self.left.action[c].map
            ar = self.right.action[c].map
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


@dataclass(frozen=True)
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


# Expansions from_theta keeps.  A decompose or verify command expands at
# most three distinct inputs (the input, its connected component and the
# unramified factor); a fixed bound keeps memory flat over long runs.
FROM_THETA_CACHE = 32


def from_theta(t: ThetaBitorsor) -> PiBitorsor:
    """Expand the compact presentation: pi moves points through theta and
    the left action, twists the left group by conjugation, and leaves the
    right group alone.

    Expansions are memoized.  Group equality ignores labels, but labels
    reach the output, so the labels of every group involved are part of
    the key."""
    b = t.bitorsor
    labels = (t.pi.label, t.theta.dst.label, b.left_group.label, b.right_group.label)
    return _expand_theta(t, labels)


@lru_cache(maxsize=FROM_THETA_CACHE)
def _expand_theta(t: ThetaBitorsor, labels: tuple[str, ...]) -> PiBitorsor:
    b = t.bitorsor
    left = conjugation_pi_group(t.theta)
    right = constant_pi_group(t.pi, b.right_group)
    pa = tuple(b.left_act[t.theta.map[c]] for c in t.pi.elements)
    out = PiBitorsor(left, right, b, pa)
    assert out.right_constant
    return out


def to_theta(p: PiBitorsor) -> ThetaBitorsor:
    """Collapse a constant-right PiBitorsor back to its theta presentation."""
    if not p.right_constant:
        raise RightGroupNotConstant("the right structure group is twisted")
    b = p.bitorsor
    into = {b.left_act[gp][0]: gp for gp in b.left_group.elements}
    theta_map = tuple(into[p.pi_action_on_points[c][0]] for c in p.pi.elements)
    for c in p.pi.elements:
        if p.pi_action_on_points[c] != b.left_act[theta_map[c]]:
            raise EquivariantError(
                f"point action of symmetry {c} is not a left translation"
            )
    return ThetaBitorsor(b, GroupHom(p.pi, b.left_group, theta_map))


@dataclass(frozen=True)
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
    return PiMorphism(p, p, bt.identity_morphism(p.bitorsor))


def compose_pi_morphisms(outer: PiMorphism, inner: PiMorphism) -> PiMorphism:
    return PiMorphism(
        inner.src, outer.dst, bt.compose_bimorphisms(outer.inner, inner.inner)
    )


def invert_pi_morphism(m: PiMorphism) -> PiMorphism:
    return PiMorphism(m.dst, m.src, bt.invert_bimorphism(m.inner))


def contracted_product_pi(
    p1: PiBitorsor, p2: PiBitorsor
) -> tuple[PiBitorsor, dict[tuple[int, int], int]]:
    """Glue two equivariant carriers; the middle structures must be equal
    as PiGroups, not merely isomorphic, for the diagonal action to descend."""
    if p1.pi != p2.pi:
        raise SignatureMismatch("factors disagree on pi")
    if p1.right != p2.left:
        raise NotComposable("middle Pi-structures differ")
    wedge, idx = bt.contracted_product(p1.bitorsor, p2.bitorsor)
    reps: dict[int, tuple[int, int]] = {}
    for pair, i in idx.items():
        if i not in reps or pair < reps[i]:
            reps[i] = pair
    rows = []
    for c in p1.pi.elements:
        a1 = p1.pi_action_on_points[c]
        a2 = p2.pi_action_on_points[c]
        rows.append(
            tuple(idx[(a1[reps[i][0]], a2[reps[i][1]])] for i in wedge.points)
        )
    out = PiBitorsor(p1.left, p2.right, wedge, tuple(rows))
    return out, idx


def compose_pi(p1: PiBitorsor, p2: PiBitorsor) -> PiBitorsor:
    return contracted_product_pi(p1, p2)[0]


def inverse_pi(p: PiBitorsor) -> PiBitorsor:
    """Sides swapped, points and point action unchanged."""
    return PiBitorsor(
        p.right, p.left, bt.inverse(p.bitorsor), p.pi_action_on_points
    )


def pushforward_pi(
    p: PiBitorsor, phi: GroupHom, target: PiGroup
) -> tuple[PiBitorsor, PiMorphism]:
    """Extend the right structure group along an equivariant hom.

    The recomputed left group inherits its action by conjugating each
    commuting permutation with the point action."""
    if target.pi != p.pi or target.group != phi.dst:
        raise SignatureMismatch("target structure does not match the hom")
    if not is_pi_equivariant_hom(phi, p.right, target):
        raise NotPiEquivariant("the extension hom breaks the symmetry")
    pushed, can = bt.pushforward(p.bitorsor, phi)
    pi = p.pi
    g2 = phi.dst
    rows = []
    for c in pi.elements:
        row: list[int | None] = [None] * pushed.size
        pa = p.pi_action_on_points[c]
        at = target.action[c].map
        for x in p.bitorsor.points:
            base = can.point_map[x]
            moved = can.point_map[pa[x]]
            for t in g2.elements:
                cls = pushed.right_act[base][t]
                val = pushed.right_act[moved][at[t]]
                if row[cls] is None:
                    row[cls] = val
                elif row[cls] != val:
                    raise EquivariantError("point action fails to descend")
        rows.append(tuple(row))
    perm_index = {perm: i for i, perm in enumerate(pushed.left_act)}
    acts = []
    lg = pushed.left_group
    for c in pi.elements:
        pa = rows[c]
        pa_inv = [0] * pushed.size
        for i, v in enumerate(pa):
            pa_inv[v] = i
        images = []
        for perm in pushed.left_act:
            conj = tuple(pa[perm[pa_inv[y]]] for y in range(pushed.size))
            if conj not in perm_index:
                raise EquivariantError("left symmetries fail to descend")
            images.append(perm_index[conj])
        acts.append(GroupHom(lg, lg, tuple(images)))
    left_pg = PiGroup(lg, pi, tuple(acts))
    out = PiBitorsor(left_pg, target, pushed, tuple(rows))
    return out, PiMorphism(p, out, can)


def pushforward_left_pi(
    p: PiBitorsor, phi_left: GroupHom, target: PiGroup
) -> tuple[PiBitorsor, PiMorphism]:
    """Mirror extension of the left structure group."""
    if target.pi != p.pi or target.group != phi_left.dst:
        raise SignatureMismatch("target structure does not match the hom")
    if not is_pi_equivariant_hom(phi_left, p.left, target):
        raise NotPiEquivariant("the extension hom breaks the symmetry")
    pushed, can = bt.pushforward_left(p.bitorsor, phi_left)
    pi = p.pi
    g2 = phi_left.dst
    rows = []
    for c in pi.elements:
        row: list[int | None] = [None] * pushed.size
        pa = p.pi_action_on_points[c]
        at = target.action[c].map
        for x in p.bitorsor.points:
            base = can.point_map[x]
            moved = can.point_map[pa[x]]
            for t in g2.elements:
                cls = pushed.left_act[t][base]
                val = pushed.left_act[at[t]][moved]
                if row[cls] is None:
                    row[cls] = val
                elif row[cls] != val:
                    raise EquivariantError("point action fails to descend")
        rows.append(tuple(row))
    rg = pushed.right_group
    col = {
        tuple(pushed.right_act[x][r] for x in pushed.points): r for r in rg.elements
    }
    acts = []
    for c in pi.elements:
        pa = rows[c]
        pa_inv = [0] * pushed.size
        for i, v in enumerate(pa):
            pa_inv[v] = i
        images = []
        for r in rg.elements:
            conj = tuple(pa[pushed.right_act[pa_inv[x]][r]] for x in pushed.points)
            if conj not in col:
                raise EquivariantError("right symmetries fail to descend")
            images.append(col[conj])
        acts.append(GroupHom(rg, rg, tuple(images)))
    right_pg = PiGroup(rg, pi, tuple(acts))
    out = PiBitorsor(target, right_pg, pushed, tuple(rows))
    return out, PiMorphism(p, out, can)


def quotient_pi(p: PiBitorsor, h: Subgroup) -> tuple[PiBitorsor, PiMorphism]:
    """Collapse a stable normal subgroup of the right structure group."""
    hp = bt.corresponding_normal_subgroup(p.bitorsor, h)
    bq, m = bt.quotient_bitorsor(p.bitorsor, h)
    right_pg, _ = quotient_pi_group(p.right, h)
    left_pg, _ = quotient_pi_group(p.left, hp)
    rows = []
    for c in p.pi.elements:
        row = [0] * bq.size
        pa = p.pi_action_on_points[c]
        for x in p.bitorsor.points:
            row[m.point_map[x]] = m.point_map[pa[x]]
        rows.append(tuple(row))
    out = PiBitorsor(left_pg, right_pg, bq, tuple(rows))
    return out, PiMorphism(p, out, m)


def stable_class_predicate(p: PiBitorsor):
    pa = p.pi_action_on_points

    def stable(cls: tuple[int, ...]) -> bool:
        s = set(cls)
        return all(pa[c][x] in s for c in p.pi.elements for x in cls)

    return stable


@dataclass(frozen=True)
class PiInducedWitness:
    sub: PiBitorsor
    inclusion: PiMorphism
    point_class: tuple[int, ...]


def pi_induced_conditions(p: PiBitorsor, h: Subgroup) -> tuple[bool, bool, bool, bool]:
    """The four equivalent descriptions of being induced from an h-torsor,
    each computed independently at the symmetry-aware level."""
    return bt.induced_conditions(p.bitorsor, h, stable_class_predicate(p))[:4]


def pi_induced_witness(p: PiBitorsor, h: Subgroup) -> PiInducedWitness | None:
    *flags, cls = bt.induced_conditions(p.bitorsor, h, stable_class_predicate(p))
    if cls is None:
        return None
    hp = bt.corresponding_normal_subgroup(p.bitorsor, h)
    sub, incl = bt.sub_bitorsor_on_class(p.bitorsor, h, cls)
    left_pg, _ = restrict_pi_group(p.left, hp.members)
    right_pg, _ = restrict_pi_group(p.right, h.members)
    pos = {x: i for i, x in enumerate(cls)}
    rows = tuple(
        tuple(pos[p.pi_action_on_points[c][x]] for x in cls) for c in p.pi.elements
    )
    sub_pi = PiBitorsor(left_pg, right_pg, sub, rows)
    return PiInducedWitness(sub_pi, PiMorphism(sub_pi, p, incl), cls)


def pi_isomorphism(
    p1: PiBitorsor, p2: PiBitorsor, fix_right: bool = True
) -> PiMorphism | None:
    """Equivariant isomorphism search; deterministic first hit or absence."""
    if p1.pi != p2.pi or p1.bitorsor.size != p2.bitorsor.size:
        return None
    b1, b2 = p1.bitorsor, p2.bitorsor
    if fix_right:
        if p1.right != p2.right:
            return None
        candidates = [identity_hom(b1.right_group)]
    else:
        candidates = pi_equivariant_isos(p1.right, p2.right)
    for rho in candidates:
        for y0 in b2.points:
            v = [0] * b1.size
            for g in b1.right_group.elements:
                v[b1.right_act[0][g]] = b2.right_act[y0][rho.map[g]]
            into = {}
            for gp in b2.left_group.elements:
                into[b2.left_act[gp][y0]] = gp
            try:
                lam = GroupHom(
                    b1.left_group,
                    b2.left_group,
                    tuple(into[v[b1.left_act[gp][0]]] for gp in b1.left_group.elements),
                )
                m = BitorsorMorphism(b1, b2, lam, tuple(v), rho)
                if not m.is_isomorphism():
                    continue
                return PiMorphism(p1, p2, m)
            except DomainError:
                continue
    return None


def factor_morphism_pi(
    m: PiMorphism,
) -> tuple[PiMorphism, PiMorphism, PiBitorsor]:
    """Image factorization with the inherited symmetry structure."""
    alpha, beta, img = bt.factor_morphism(m.inner)
    left_pg, _ = restrict_pi_group(m.dst.left, set(m.inner.phi_left.map))
    right_pg, _ = restrict_pi_group(m.dst.right, set(m.inner.phi_right.map))
    img_points = beta.point_map
    pos = {x: i for i, x in enumerate(img_points)}
    rows = tuple(
        tuple(pos[m.dst.pi_action_on_points[c][x]] for x in img_points)
        for c in m.src.pi.elements
    )
    img_pi = PiBitorsor(left_pg, right_pg, img, rows)
    return (
        PiMorphism(m.src, img_pi, alpha),
        PiMorphism(img_pi, m.dst, beta),
        img_pi,
    )


@dataclass(frozen=True)
class PiWedgeFactorization:
    """An equivariant morphism out of a glued pair, rewritten as canonical
    middle-group extensions of both factors followed by an isomorphism."""

    middle_hom: GroupHom
    middle: PiGroup
    left_canonical: PiMorphism
    right_canonical: PiMorphism
    wedge: PiBitorsor
    iso: PiMorphism


def pi_factor_through_pushforwards(
    m: PiMorphism, p1: PiBitorsor, p2: PiBitorsor
) -> PiWedgeFactorization:
    src_wedge, src_idx = contracted_product_pi(p1, p2)
    if m.src != src_wedge:
        raise SignatureMismatch("morphism does not start at the glued carrier")
    pushed2, can2r = pushforward_pi(p2, m.inner.phi_right, m.dst.right)
    phi2 = can2r.inner.phi_left
    middle = pushed2.left
    pushed1, can1 = pushforward_pi(p1, phi2, middle)
    pushed2l, can2 = pushforward_left_pi(p2, phi2, middle)
    dst_wedge, dst_idx = contracted_product_pi(pushed1, pushed2l)
    glued_inner = bt.wedge_of_morphisms(
        can1.inner, can2.inner, src_idx, dst_idx, src_wedge.bitorsor, dst_wedge.bitorsor
    )
    glued = PiMorphism(src_wedge, dst_wedge, glued_inner)
    dw = dst_wedge.bitorsor
    target = m.dst.bitorsor
    w0 = glued_inner.point_map[0]
    c0 = m.inner.point_map[0]
    into = {}
    for hp in target.left_group.elements:
        into[target.left_act[hp][c0]] = hp
    for rho in pi_equivariant_isos(dst_wedge.right, m.dst.right):
        v = [0] * dw.size
        for r in dw.right_group.elements:
            v[dw.right_act[w0][r]] = target.right_act[c0][rho.map[r]]
        try:
            lam = GroupHom(
                dw.left_group,
                target.left_group,
                tuple(
                    into[v[dw.left_act[lp][w0]]] for lp in dw.left_group.elements
                ),
            )
            psi_inner = BitorsorMorphism(dw, target, lam, tuple(v), rho)
        except DomainError:
            continue
        if not psi_inner.is_isomorphism():
            continue
        composite = bt.compose_bimorphisms(psi_inner, glued_inner)
        if (
            composite.point_map != m.inner.point_map
            or composite.phi_left != m.inner.phi_left
            or composite.phi_right != m.inner.phi_right
        ):
            continue
        try:
            psi = PiMorphism(dst_wedge, m.dst, psi_inner)
        except DomainError:
            continue
        return PiWedgeFactorization(phi2, middle, can1, can2, dst_wedge, psi)
    raise InvalidMorphism("no equivariant isomorphism completes the rewrite")


def is_connected(t: ThetaBitorsor) -> bool:
    """Surjectivity of theta, checked against both orbit characterizations."""
    p = from_theta(t)
    k = t.bitorsor.size
    by_theta = t.theta.is_surjective()
    orbit0 = {p.pi_action_on_points[c][0] for c in t.pi.elements}
    by_basepoint = len(orbit0) == k
    by_all = all(
        len({p.pi_action_on_points[c][x] for c in t.pi.elements}) == k
        for x in t.bitorsor.points
    )
    if not (by_theta == by_basepoint == by_all):
        raise EquivariantError("connectivity characterizations disagree")
    return by_theta


def connected_component(
    t: ThetaBitorsor, basepoint: int = 0
) -> tuple[ThetaBitorsor, BitorsorMorphism]:
    """Restrict to the symmetry orbit of a basepoint: the carrier over
    (image of theta, orbit, transporter subgroup), with its inclusion."""
    b = t.bitorsor
    h_prime = sorted(set(t.theta.map))
    orbit = sorted({b.left_act[gp][basepoint] for gp in h_prime})
    h = [g for g in b.right_group.elements if b.right_act[basepoint][g] in set(orbit)]
    hp_grp, hp_incl = subgroup_as_group(b.left_group, h_prime)
    h_grp, h_incl = subgroup_as_group(b.right_group, h)
    pos = {x: i for i, x in enumerate(orbit)}
    left_rows = tuple(
        tuple(pos[b.left_act[hp_incl.map[a]][x]] for x in orbit)
        for a in hp_grp.elements
    )
    right_rows = tuple(
        tuple(pos[b.right_act[x][h_incl.map[a]]] for a in h_grp.elements)
        for x in orbit
    )
    sub = Bitorsor(hp_grp, h_grp, left_rows, right_rows)
    hp_pos = {v: i for i, v in enumerate(hp_incl.map)}
    theta_sub = GroupHom(t.pi, hp_grp, tuple(hp_pos[v] for v in t.theta.map))
    component = ThetaBitorsor(sub, theta_sub)
    inclusion = BitorsorMorphism(sub, b, hp_incl, tuple(orbit), h_incl)
    if not inclusion.is_injective():
        raise EquivariantError("component inclusion failed to be injective")
    return component, inclusion


@lru_cache(maxsize=None)
def h1_representatives(pi: FiniteGroup, g: FiniteGroup) -> tuple[GroupHom, ...]:
    """One homomorphism per conjugacy class, smallest-map first."""
    classes = conjugacy_classes_of_homs(enumerate_homs(pi, g))
    return tuple(cls[0] for cls in classes)


@lru_cache(maxsize=None)
def h1(pi: FiniteGroup, g: FiniteGroup) -> tuple[ThetaBitorsor, ...]:
    """Canonical class representatives, each over the trivial carrier."""
    triv = bt.trivial_bitorsor(g)
    return tuple(ThetaBitorsor(triv, rep) for rep in h1_representatives(pi, g))


def classify(t: ThetaBitorsor, classes) -> int:
    """Index of the unique representative equivariantly isomorphic to t."""
    target = from_theta(t)
    for i, rep in enumerate(classes):
        if rep.pi != t.pi or rep.bitorsor.right_group != t.bitorsor.right_group:
            raise SignatureMismatch("class list does not match the input's signature")
        if pi_isomorphism(from_theta(rep), target, fix_right=True) is not None:
            return i
    raise NoMatch("no listed class matches; the list is not a full enumeration")


def trivial_class_index(pi: FiniteGroup, g: FiniteGroup) -> int:
    ident = GroupHom(pi, g, tuple(g.identity for _ in pi.elements))
    reps = h1_representatives(pi, g)
    for i, rep in enumerate(reps):
        if rep.map == ident.map:
            return i
    raise NoMatch("trivial class missing from the enumeration")
