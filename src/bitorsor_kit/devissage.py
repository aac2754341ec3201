"""Decomposition of an equivariant carrier along a split extension
1 -> gamma -> pi_big -> pi_small -> 1: every constant-right carrier splits
as (type-gamma factor) glued with (type-pi factor), and the split is
certified so an independent checker can re-validate it from the stored
pieces alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import bitorsors as bt
from . import equivariant as eq
from .bitorsors import Bitorsor, BitorsorMorphism
from .equivariant import (
    PiBitorsor,
    PiGroup,
    PiInducedWitness,
    PiMorphism,
    ThetaBitorsor,
)
from .errors import DomainError
from .rclass import Factorization
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    all_subgroups,
    compose_homs,
    enumerate_homs,
    kernel,
    quotient,
    subgroup,
    subgroup_as_group,
)


class DevissageError(DomainError):
    """An internal decomposition step that the theory guarantees failed;
    always a bug, never a property of the input."""


class OracleRefused(DomainError):
    def __init__(self, factor: str, message: str) -> None:
        super().__init__(message)
        self.factor = factor


@dataclass(frozen=True)
class SplitExtension:
    """A surjection p with kernel gamma and a homomorphic section s."""

    pi_big: FiniteGroup
    gamma: Subgroup
    pi_small: FiniteGroup
    p: GroupHom
    s: GroupHom

    def __post_init__(self) -> None:
        if self.gamma.parent != self.pi_big:
            raise bt.SignatureMismatch("gamma must live inside pi_big")
        if self.p.src != self.pi_big or self.p.dst != self.pi_small:
            raise bt.SignatureMismatch("p must map pi_big onto pi_small")
        if self.s.src != self.pi_small or self.s.dst != self.pi_big:
            raise bt.SignatureMismatch("s must map pi_small into pi_big")
        if not self.p.is_surjective():
            raise bt.InvalidMorphism("p is not surjective")
        if kernel(self.p).members != self.gamma.members:
            raise bt.InvalidMorphism("gamma is not the kernel of p")
        for a in self.pi_small.elements:
            if self.p.map[self.s.map[a]] != a:
                raise bt.InvalidMorphism(f"s fails to split p at element {a}")

    def __repr__(self) -> str:
        return (
            f"SplitExtension({self.gamma.members} -> {self.pi_big.label}"
            f" -> {self.pi_small.label})"
        )


def gamma_as_group(e: SplitExtension) -> tuple[FiniteGroup, GroupHom]:
    return subgroup_as_group(e.pi_big, e.gamma.members, label="Gamma")


def gamma_conjugation_structure(e: SplitExtension) -> PiGroup:
    """pi_big acting on gamma by conjugation; gamma is normal so this is
    well defined."""
    g_grp, incl = gamma_as_group(e)
    pos = {v: i for i, v in enumerate(incl.map)}
    acts = tuple(
        GroupHom(
            g_grp,
            g_grp,
            tuple(pos[e.pi_big.conjugate(c, incl.map[a])] for a in g_grp.elements),
        )
        for c in e.pi_big.elements
    )
    return PiGroup(g_grp, e.pi_big, acts)


def is_type_pi(p: PiBitorsor, e: SplitExtension) -> bool:
    """True when every element of gamma fixes every point."""
    if p.pi != e.pi_big:
        raise bt.SignatureMismatch("carrier symmetry group differs from pi_big")
    ident = tuple(p.bitorsor.points)
    return all(p.pi_action_on_points[c] == ident for c in e.gamma.members)


@dataclass(frozen=True)
class TypeGammaWitness:
    """An injective equivariant morphism whose source has a left structure
    group surjected onto by gamma, compatibly with conjugation."""

    sub: PiBitorsor
    inclusion: PiMorphism
    gamma_surjection: GroupHom


def _gamma_surjections(e: SplitExtension, target: PiGroup) -> list[GroupHom]:
    """Equivariant surjections from gamma (with conjugation action) onto a
    stable subgroup's structure, in deterministic order."""
    gamma_pg = gamma_conjugation_structure(e)
    out = []
    for f in enumerate_homs(gamma_pg.group, target.group):
        if not f.is_surjective():
            continue
        if eq.is_pi_equivariant_hom(f, gamma_pg, target):
            out.append(f)
    return out


def is_type_gamma(p: PiBitorsor, e: SplitExtension) -> TypeGammaWitness | None:
    """Search for a sub-carrier witnessing type gamma.

    Candidates: stable subgroups of the left structure group receiving an
    equivariant surjection from gamma, restricted to a stable point class
    whose right transporter is also stable.  First hit in deterministic
    order wins; None when the exhaustive scan finds nothing."""
    if p.pi != e.pi_big:
        raise bt.SignatureMismatch("carrier symmetry group differs from pi_big")
    b = p.bitorsor
    for cand in all_subgroups(b.left_group):
        try:
            left_pg, left_incl = eq.restrict_pi_group(p.left, cand.members)
        except eq.NotPiStable:
            continue
        surjections = _gamma_surjections(e, left_pg)
        if not surjections:
            continue
        stable = eq.stable_class_predicate(p)
        seen: set[int] = set()
        for x in b.points:
            if x in seen:
                continue
            cls = tuple(sorted({b.left_act[a][x] for a in cand.members}))
            seen.update(cls)
            if not stable(cls):
                continue
            inside = set(cls)
            h_members = [g for g in b.right_group.elements if b.right_act[cls[0]][g] in inside]
            if any(b.right_act[y][g] not in inside for y in cls for g in h_members):
                continue
            try:
                right_pg, right_incl = eq.restrict_pi_group(p.right, h_members)
            except (eq.NotPiStable, DomainError):
                continue
            try:
                pos = {y: i for i, y in enumerate(cls)}
                left_rows = tuple(
                    tuple(pos[b.left_act[left_incl.map[a]][y]] for y in cls)
                    for a in left_pg.group.elements
                )
                right_rows = tuple(
                    tuple(pos[b.right_act[y][right_incl.map[a]]] for a in right_pg.group.elements)
                    for y in cls
                )
                sub_b = Bitorsor(left_pg.group, right_pg.group, left_rows, right_rows)
                rows = tuple(
                    tuple(pos[p.pi_action_on_points[c][y]] for y in cls)
                    for c in p.pi.elements
                )
                sub_pi = PiBitorsor(left_pg, right_pg, sub_b, rows)
                incl = PiMorphism(
                    sub_pi, p, BitorsorMorphism(sub_b, b, left_incl, cls, right_incl)
                )
            except DomainError:
                continue
            return TypeGammaWitness(sub_pi, incl, surjections[0])
    return None


@dataclass(frozen=True)
class DecompositionCertificate:
    """The intermediate data of the decomposition, kept so a checker can
    replay every step."""

    h_prime: Subgroup
    quotient_map: GroupHom
    s_low: GroupHom
    theta_tilde: GroupHom
    w_witness: PiBitorsor
    w_inclusion: PiMorphism
    gamma_surjection: GroupHom


@dataclass(frozen=True)
class Decomposition:
    y: PiBitorsor
    z: PiBitorsor
    witness_iso: PiMorphism
    certificate: DecompositionCertificate


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    diagnosis: str

    def __bool__(self) -> bool:
        return self.ok


def _decompose_connected(
    t: ThetaBitorsor,
    e: SplitExtension,
    lift: Callable[[GroupHom], GroupHom] | None,
) -> Decomposition:
    b = t.bitorsor
    theta = t.theta
    if not theta.is_surjective():
        raise DevissageError("connected decomposition needs a surjective theta")
    h_prime_members = sorted({theta.map[c] for c in e.gamma.members})
    h_prime = subgroup(b.left_group, h_prime_members)
    if not h_prime.is_normal:
        raise DevissageError("image of gamma failed to be normal in the left group")
    g_bar, q = quotient(b.left_group, h_prime)
    theta_bar = GroupHom(
        e.pi_small,
        g_bar,
        tuple(q.map[theta.map[e.s.map[a]]] for a in e.pi_small.elements),
    )
    if lift is None:
        s_low = compose_homs(theta, e.s)
    else:
        s_low = lift(theta_bar)
        if s_low.src != e.pi_small or s_low.dst != b.left_group:
            raise bt.SignatureMismatch("lift has the wrong signature")
    for a in e.pi_small.elements:
        if q.map[s_low.map[a]] != theta_bar.map[a]:
            raise DevissageError("the lift does not cover the collapsed theta")
    theta_tilde = compose_homs(s_low, e.p)
    for c in e.gamma.members:
        if theta_tilde.map[c] != b.left_group.identity:
            raise DevissageError("gamma escaped the kernel of theta tilde")
    z_theta = ThetaBitorsor(b, theta_tilde)
    z = eq.from_theta(z_theta)
    x = eq.from_theta(t)
    y = eq.compose_pi(x, eq.inverse_pi(z))
    wedge_back, _ = eq.contracted_product_pi(y, z)
    witness_iso = eq.pi_isomorphism(wedge_back, x, fix_right=True)
    if witness_iso is None:
        raise DevissageError("the glued factors failed to reproduce the input")
    h_in_y = subgroup(y.bitorsor.right_group, h_prime_members)
    w = eq.pi_induced_witness(y, h_in_y)
    if w is None:
        raise DevissageError("no stable class witnesses the type-gamma factor")
    gamma_grp, gamma_incl = gamma_as_group(e)
    w_left = w.sub.bitorsor.left_group
    incl_map = w.inclusion.inner.phi_left.map
    pos = {v: i for i, v in enumerate(incl_map)}
    try:
        gamma_surj = GroupHom(
            gamma_grp,
            w_left,
            tuple(pos[theta.map[gamma_incl.map[a]]] for a in gamma_grp.elements),
        )
    except KeyError:
        raise DevissageError(
            "gamma does not surject onto the witness structure group"
        ) from None
    if not gamma_surj.is_surjective():
        raise DevissageError("gamma covers only part of the witness structure group")
    cert = DecompositionCertificate(
        h_prime, q, s_low, theta_tilde, w.sub, w.inclusion, gamma_surj
    )
    return Decomposition(y, z, witness_iso, cert)


def _transport_disconnected(
    t: ThetaBitorsor, e: SplitExtension, inner: Decomposition, incl: BitorsorMorphism
) -> Decomposition:
    """Push a component's decomposition forward along its inclusion."""
    x = eq.from_theta(t)
    comp_theta = ThetaBitorsor(incl.src, _component_theta(t, incl))
    incl_pi = PiMorphism(eq.from_theta(comp_theta), x, incl)
    full = eq.compose_pi_morphisms(incl_pi, inner.witness_iso)
    fac = eq.pi_factor_through_pushforwards(full, inner.y, inner.z)
    y = fac.left_canonical.dst
    z = fac.right_canonical.dst
    witness_iso = fac.iso
    w_incl = eq.compose_pi_morphisms(fac.left_canonical, inner.certificate.w_inclusion)
    alpha, beta, w_img = eq.factor_morphism_pi(w_incl)
    gamma_surj = compose_homs(alpha.inner.phi_left, inner.certificate.gamma_surjection)
    if not gamma_surj.is_surjective():
        raise DevissageError("transported witness lost gamma coverage")
    cert = DecompositionCertificate(
        inner.certificate.h_prime,
        inner.certificate.quotient_map,
        inner.certificate.s_low,
        inner.certificate.theta_tilde,
        w_img,
        beta,
        gamma_surj,
    )
    return Decomposition(y, z, witness_iso, cert)


def _component_theta(t: ThetaBitorsor, incl: BitorsorMorphism) -> GroupHom:
    """theta reindexed into the component's structure group."""
    pos = {v: i for i, v in enumerate(incl.phi_left.map)}
    return GroupHom(
        t.pi, incl.src.left_group, tuple(pos[v] for v in t.theta.map)
    )


def decompose(t: ThetaBitorsor, e: SplitExtension) -> Decomposition:
    return decompose_with_lift(t, e, None)


def decompose_with_lift(
    t: ThetaBitorsor,
    e: SplitExtension,
    lift: Callable[[GroupHom], GroupHom] | None,
) -> Decomposition:
    """Split t into a type-gamma and a type-pi factor.

    `lift` optionally supplies a hom pi_small -> left group covering the
    collapsed theta, replacing the default theta-after-section choice."""
    if t.pi != e.pi_big:
        raise bt.SignatureMismatch("carrier symmetry group differs from pi_big")
    if eq.is_connected(t):
        return _decompose_connected(t, e, lift)
    comp, incl = eq.connected_component(t, basepoint=0)
    inner = _decompose_connected(comp, e, lift)
    return _transport_disconnected(t, e, inner, incl)


def verify_decomposition(
    t: ThetaBitorsor, d: Decomposition, e: SplitExtension
) -> VerificationResult:
    """Re-validate every decomposition invariant from the stored pieces."""
    try:
        x = eq.from_theta(t)
    except DomainError as exc:
        return VerificationResult(False, f"input does not expand: {exc}")
    try:
        wedge, _ = eq.contracted_product_pi(d.y, d.z)
    except DomainError as exc:
        return VerificationResult(False, f"factors do not glue: {exc}")
    iso = d.witness_iso
    if iso.src != wedge or iso.dst != x:
        return VerificationResult(False, "witness iso does not connect the wedge to the input")
    if not iso.is_isomorphism():
        return VerificationResult(False, "witness iso is not bijective")
    try:
        if not is_type_pi(d.z, e):
            return VerificationResult(False, "z factor is not of type pi")
    except DomainError as exc:
        return VerificationResult(False, f"z factor type check failed: {exc}")
    cert = d.certificate
    try:
        if cert.w_inclusion.src != cert.w_witness or cert.w_inclusion.dst != d.y:
            return VerificationResult(
                False, "stored witness morphism does not map into the y factor"
            )
        if not cert.w_inclusion.inner.is_injective():
            return VerificationResult(False, "stored witness morphism is not injective")
    except DomainError as exc:
        return VerificationResult(False, f"witness morphism invalid: {exc}")
    try:
        gamma_pg = gamma_conjugation_structure(e)
        w_left_pg = cert.w_witness.left
        gs = cert.gamma_surjection
        if gs.src != gamma_pg.group or gs.dst != w_left_pg.group:
            return VerificationResult(False, "gamma surjection has the wrong signature")
        if not gs.is_surjective():
            return VerificationResult(False, "gamma surjection is not onto")
        if not eq.is_pi_equivariant_hom(gs, gamma_pg, w_left_pg):
            return VerificationResult(False, "gamma surjection breaks the conjugation action")
    except DomainError as exc:
        return VerificationResult(False, f"gamma surjection invalid: {exc}")
    try:
        if eq.is_connected(t):
            base = t
        else:
            base, _ = eq.connected_component(t, basepoint=0)
        bad = _check_collapse(base, cert, e)
    except DomainError as exc:
        return VerificationResult(False, f"collapse data invalid: {exc}")
    if bad is not None:
        return VerificationResult(False, bad)
    return VerificationResult(True, "all checks passed")


def _check_collapse(
    base: ThetaBitorsor, cert: DecompositionCertificate, e: SplitExtension
) -> str | None:
    """Check h_prime, quotient_map, s_low and theta_tilde against the
    connected carrier the decomposition started from (the input, or the
    component of its basepoint); a diagnosis, or None when all hold."""
    g = base.bitorsor.left_group
    theta = base.theta
    h = cert.h_prime
    if h.parent != g or list(h.members) != sorted({theta.map[c] for c in e.gamma.members}):
        return "h_prime is not the image of gamma under theta"
    if not h.is_normal:
        return "h_prime is not normal"
    q = cert.quotient_map
    if q.src != g or not q.is_surjective() or kernel(q).members != h.members:
        return "quotient_map is not the quotient by h_prime"
    s_low = cert.s_low
    if s_low.src != e.pi_small or s_low.dst != g:
        return "s_low has the wrong signature"
    if any(
        q.map[s_low.map[a]] != q.map[theta.map[e.s.map[a]]] for a in e.pi_small.elements
    ):
        return "s_low does not cover the collapsed theta"
    tt = cert.theta_tilde
    if tt.src != e.pi_big or tt.dst != g or tt.map != tuple(s_low.map[a] for a in e.p.map):
        return "theta_tilde is not s_low after p"
    if any(tt.map[c] != g.identity for c in e.gamma.members):
        return "theta_tilde does not kill gamma"
    return None


@dataclass(frozen=True)
class MembershipCertificate:
    """The decomposition plus the two-factor wedge it induces."""

    decomposition: Decomposition
    factorization: Factorization


def th_ppal_membership(
    t: ThetaBitorsor,
    e: SplitExtension,
    pi_oracle: Callable[[PiBitorsor], bool],
    gamma_oracle: Callable[[PiBitorsor], bool],
) -> MembershipCertificate:
    """Decompose and consult the two membership oracles; the wedge then
    exhibits t inside the closure generated by what the oracles accept."""
    d = decompose(t, e)
    if not gamma_oracle(d.y):
        raise OracleRefused("y", "the type-gamma oracle rejected the y factor")
    if not pi_oracle(d.z):
        raise OracleRefused("z", "the type-pi oracle rejected the z factor")
    fac = Factorization((d.y, d.z), eq.from_theta(t), d.witness_iso)
    return MembershipCertificate(d, fac)
