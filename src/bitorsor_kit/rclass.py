"""Closure algebra over declared elementary classes: a registry of
(group, class) pairs validated for trivials, inverses, and morphism images,
plus shortest wedge factorizations inside the closure it generates.  Every
class index here is the lookup of a canonical conjugate (equivariant.classify
and class_index_of_hom), the class of a glued pair included, and the
witness of a factorization is built from the same conjugates
(equivariant.pi_isomorphism), not searched for."""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from . import bitorsors as bt
from . import equivariant as eq
from .bitorsors import SignatureMismatch
from .equivariant import PiBitorsor, PiMorphism, ThetaBitorsor, class_index_of_hom
from .errors import DomainError, by_formula, record
from .groups import FiniteGroup, GroupHom, compose_homs, enumerate_homs


class RClassError(DomainError):
    pass


class InvalidRegistry(RClassError):
    pass


class UnknownGroup(RClassError):
    pass


class InvalidFactorization(RClassError):
    pass


@record
class ElementaryClassRegistry:
    """An explicit finite stand-in for the class of elementary carriers:
    members are (universe index, class index) pairs into the h1 enumeration
    of each declared group."""

    pi: FiniteGroup
    universe: tuple[FiniteGroup, ...]
    members: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if len(self.universe) == 0:
            raise InvalidRegistry("the group universe is empty")
        if len(set(self.universe)) != len(self.universe):
            raise InvalidRegistry("the group universe repeats a group")
        for ui, ci in self.members:
            if not 0 <= ui < len(self.universe):
                raise InvalidRegistry(f"group index {ui} outside the universe")
            if not 0 <= ci < len(eq.h1(self.pi, self.universe[ui])):
                raise InvalidRegistry(
                    f"class index {ci} outside h1 of {self.universe[ui].label}"
                )

    def group_index(self, g: FiniteGroup) -> int:
        for ui, known in enumerate(self.universe):
            if known == g:
                return ui
        raise UnknownGroup(f"{g.label} is not in the declared universe")

    def contains(self, t: ThetaBitorsor) -> bool:
        if t.pi != self.pi:
            raise SignatureMismatch("carrier symmetry group differs from the registry's")
        return (self.group_index(t.bitorsor.right_group), eq.classify(t)) in self.members


@record
class RegistryCheck:
    ok: bool
    violation: str

    def __bool__(self) -> bool:
        return self.ok


def _has_central_image(theta: GroupHom) -> bool:
    g = theta.dst
    return all(
        g.mul[v][w] == g.mul[w][v] for v in set(theta.map) for w in g.elements
    )


# 64 keys: a closure command of perfbench's cold ladder meets at most 10
# distinct (pi, G, a, b), a default scripts/registry_closures.py run 20.
@lru_cache(maxsize=64)
def wedge_class_index(pi: FiniteGroup, g: FiniteGroup, a: int, b: int) -> int:
    """Class of the glued pair of two class representatives over g; the
    second factor must have a central image so the gluing is equivariant.
    Glued trivial carriers are trivial, (x, y) going to x.y, which c moves
    to theta_a(c).theta_b(c).x.y: the class of the pointwise product."""
    reps = eq.h1_representatives(pi, g)
    if not _has_central_image(reps[b]):
        raise bt.NotComposable(
            "second factor twists its left structure away from the constant one"
        )
    product = tuple(g.mul[u][v] for u, v in zip(reps[a].map, reps[b].map))
    return class_index_of_hom(by_formula(GroupHom, pi, g, product))


def validate_registry(
    r: ElementaryClassRegistry, universe: Sequence[FiniteGroup] | None = None
) -> RegistryCheck:
    """Containment of trivials, stability under inverse, and stability under
    every homomorphism image, each reported at the first violation.

    The inverse of a class's carrier has a constant right group exactly when
    theta's image is central (conjugation through theta is how pi acts on
    it); its class is then that of c |-> theta(c)^-1, a hom since the image
    is abelian.  Other inverses are skipped."""
    groups = tuple(universe) if universe is not None else r.universe
    indexed = []
    for g in groups:
        indexed.append((r.group_index(g), g))
    for ui, g in indexed:
        if (ui, eq.trivial_class_index(r.pi, g)) not in r.members:
            return RegistryCheck(False, f"missing the trivial class over {g.label}")
    for ui, g in indexed:
        reps = eq.h1_representatives(r.pi, g)
        for mi, ci in sorted(r.members):
            if mi != ui or not _has_central_image(reps[ci]):
                continue
            inv = tuple(g.inv[v] for v in reps[ci].map)
            inv_ci = class_index_of_hom(by_formula(GroupHom, r.pi, g, inv))
            if (ui, inv_ci) not in r.members:
                return RegistryCheck(
                    False,
                    f"inverse of class {ci} over {g.label} lands outside (class {inv_ci})",
                )
    for ui, g in indexed:
        for mi, ci in sorted(r.members):
            if mi != ui:
                continue
            theta = eq.h1_representatives(r.pi, g)[ci]
            for uj, g2 in indexed:
                for phi in enumerate_homs(g, g2):
                    img_ci = class_index_of_hom(compose_homs(phi, theta))
                    if (uj, img_ci) not in r.members:
                        return RegistryCheck(
                            False,
                            f"image of class {ci} over {g.label} under a hom into "
                            f"{g2.label} lands outside (class {img_ci})",
                        )
    return RegistryCheck(True, "")


@record
class Factorization:
    """A target rewritten as a wedge of composable factors, with the
    connecting isomorphism checked by the public constructor.  in_closure
    and devissage.th_ppal_membership glue the wedge themselves and build
    theirs by formula."""

    factors: tuple[PiBitorsor, ...]
    target: PiBitorsor
    iso: PiMorphism

    def __post_init__(self) -> None:
        if not self.factors:
            raise InvalidFactorization("a factorization needs at least one factor")
        wedge = self.factors[0]
        for nxt in self.factors[1:]:
            wedge = eq.compose_pi(wedge, nxt)
        if self.iso.src != wedge or self.iso.dst != self.target:
            raise InvalidFactorization(
                "the isomorphism does not connect the wedge to the target"
            )
        if not self.iso.is_isomorphism():
            raise InvalidFactorization("the connecting morphism is not bijective")

    @property
    def length(self) -> int:
        return len(self.factors)


def in_closure(
    t: ThetaBitorsor, r: ElementaryClassRegistry, max_n: int
) -> Factorization | None:
    """Shortest chain of registry members over t's group whose wedge is
    isomorphic to t, breadth-first with lexicographic tie-breaking, or None
    when no chain of length <= max_n exists."""
    if max_n < 1:
        raise RClassError("the search bound must be at least 1")
    if t.pi != r.pi:
        raise SignatureMismatch("carrier symmetry group differs from the registry's")
    ui = r.group_index(t.bitorsor.right_group)
    g = r.universe[ui]
    classes = eq.h1(r.pi, g)
    target_ci = eq.classify(t)
    members_here = sorted(ci for mi, ci in r.members if mi == ui)
    appendable = [ci for ci in members_here if _has_central_image(classes[ci].theta)]
    paths: dict[int, tuple[int, ...]] = {}
    frontier: list[int] = []
    for ci in members_here:
        if ci not in paths:
            paths[ci] = (ci,)
            frontier.append(ci)
    depth = 1
    while target_ci not in paths and frontier and depth < max_n:
        nxt: list[int] = []
        for state in frontier:
            for ci in appendable:
                ns = wedge_class_index(r.pi, g, state, ci)
                if ns not in paths:
                    paths[ns] = paths[state] + (ci,)
                    nxt.append(ns)
        frontier = nxt
        depth += 1
    if target_ci not in paths:
        return None
    chain = paths[target_ci]
    for ci in chain:
        if (ui, ci) not in r.members:
            raise RClassError("search escaped the registry")
    factors = tuple(eq.from_theta(classes[ci]) for ci in chain)
    wedge = factors[0]
    for nxt_factor in factors[1:]:
        wedge = eq.compose_pi(wedge, nxt_factor)
    target = eq.from_theta(t)
    iso = eq.pi_isomorphism(wedge, target)
    if iso is None:
        raise RClassError("classified chain failed to reproduce the target")
    return by_formula(Factorization, factors, target, iso)


def fixed_point_closure(r: ElementaryClassRegistry) -> frozenset[tuple[int, int]]:
    """The least superset of the registry closed under gluing, computed by
    saturation; an independent cross-check for in_closure."""
    closed = set(r.members)
    changed = True
    while changed:
        changed = False
        for ui, a in sorted(closed):
            g = r.universe[ui]
            for uj, b in sorted(closed):
                if uj != ui:
                    continue
                if not _has_central_image(eq.h1(r.pi, g)[b].theta):
                    continue
                pair = (ui, wedge_class_index(r.pi, g, a, b))
                if pair not in closed:
                    closed.add(pair)
                    changed = True
    return frozenset(closed)


def requiv_related(
    x: ThetaBitorsor,
    y: ThetaBitorsor,
    r: ElementaryClassRegistry,
    max_n: int,
) -> tuple[Factorization, PiMorphism] | None:
    """Witness that y differs from x by a closure element: factor
    z0 = y (glued with) x-inverse inside the closure and return it with the
    isomorphism from z0 (glued with) x back to y.

    x's theta must have a central image: pi acts on z0's right group by
    conjugation through x's theta, so otherwise that group is twisted and
    z0 has no theta presentation.  Such an x raises RightGroupNotConstant
    before anything is glued."""
    if x.bitorsor.right_group != y.bitorsor.right_group:
        raise SignatureMismatch("the two carriers have different structure groups")
    if x.pi != y.pi or x.pi != r.pi:
        raise SignatureMismatch("carrier symmetry group differs from the registry's")
    if not _has_central_image(x.theta):
        raise eq.RightGroupNotConstant(
            "x's theta must have a central image, or y glued with x-inverse has a twisted right group"
        )
    x_pi = eq.from_theta(x)
    y_pi = eq.from_theta(y)
    z0 = eq.compose_pi(y_pi, eq.inverse_pi(x_pi))
    z0_theta = eq.to_theta(z0)
    fac = in_closure(z0_theta, r, max_n)
    if fac is None:
        return None
    glued = eq.compose_pi(fac.target, x_pi)
    iso = eq.pi_isomorphism(glued, y_pi)
    if iso is None:
        raise RClassError("closure witness failed to recombine with the base carrier")
    return fac, iso
