"""Decomposition of an equivariant carrier along a split extension
1 -> gamma -> pi_big -> pi_small -> 1: every constant-right carrier splits
as (type-gamma factor) glued with (type-pi factor), and the split is
certified so an independent checker can re-validate it from the stored
pieces alone.

For a connected carrier x with type-pi factor z, from s_low = theta o s,
the type-gamma factor is y = x glued with z-inverse, and y glued with z is
x again through the identity on points, so the witness isomorphism is the
identity.  The type-gamma witness is y restricted to the class of point 0
under h' = theta(gamma), which is pi-stable since h' is normal and y's
transport through point 0 is the identity (Giraud, Cohomologie non
abelienne, 1971).  A disconnected carrier's factors are those of the
component of point 0, which gets no witness, extended back along the
component's inclusion; its witness is built at a base point over rho, read
from two point conjugations, and its type-gamma witness is the same orbit
restriction at the image of point 0; decompose runs no search.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from . import bitorsors as bt
from . import equivariant as eq
from .bitorsors import BitorsorMorphism
from .equivariant import (
    PiBitorsor,
    PiGroup,
    PiMorphism,
    ThetaBitorsor,
)
from .errors import DomainError, by_formula, record
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    compose_homs,
    identity_hom,
    image,
    kernel,
    quotient,
    subgroup_as_group,
)

if TYPE_CHECKING:
    from .rclass import Factorization


class DevissageError(DomainError):
    """An internal decomposition step that the theory guarantees failed;
    always a bug, never a property of the input."""


class OracleRefused(DomainError):
    def __init__(self, factor: str, message: str) -> None:
        super().__init__(message)
        self.factor = factor


@record
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
    """pi_big acting on gamma by conjugation, its conjugation action on
    itself restricted to gamma, which is normal.  Memoized on e and pi_big's
    label, which the value carries; a decompose-sweep pass meets 20."""
    return _gamma_structure(e, e.pi_big.label)


@lru_cache(maxsize=32)
def _gamma_structure(e: SplitExtension, label: str) -> PiGroup:
    return eq.restrict_pi_group(eq.conjugation_pi_group(identity_hom(e.pi_big)), gamma_as_group(e)[1])


def is_type_pi(p: PiBitorsor, e: SplitExtension) -> bool:
    """True when every element of gamma fixes every point: c moves 0.r to
    0.a(c).c(r), so a(c) = 1 and c acts trivially on the right group."""
    if p.pi != e.pi_big:
        raise bt.SignatureMismatch("carrier symmetry group differs from pi_big")
    ident, one = tuple(p.right.group.elements), p.right.group.identity
    return all(p.cocycle[c] == one and p.right.action[c] == ident for c in e.gamma.members)


@record
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


@record
class Decomposition:
    y: PiBitorsor
    z: PiBitorsor
    witness_iso: PiMorphism
    certificate: DecompositionCertificate


@record
class VerificationResult:
    ok: bool
    diagnosis: str

    def __bool__(self) -> bool:
        return self.ok


def _factors(t: ThetaBitorsor, e: SplitExtension) -> tuple:
    """(x, y, z, images, h_prime, quotient_map, s_low, theta_tilde) of a
    connected carrier t, images the image of each element of gamma in turn."""
    theta = t.theta
    if not theta.is_surjective():
        raise DevissageError("connected decomposition needs a surjective theta")
    images = [theta.map[c] for c in e.gamma.members]
    h_prime = image(theta, e.gamma)
    if not h_prime.is_normal:
        raise DevissageError("image of gamma failed to be normal in the left group")
    _, q = quotient(t.bitorsor.left_group, h_prime)
    s_low = compose_homs(theta, e.s)
    theta_tilde = compose_homs(s_low, e.p)
    z = eq.from_theta(ThetaBitorsor(t.bitorsor, theta_tilde))
    x = eq.from_theta(t)
    y = eq.compose_pi(x, eq.inverse_pi(z))
    if eq.compose_pi(y, z) != x:
        raise DevissageError("the glued factors failed to reproduce the input")
    return x, y, z, images, h_prime, q, s_low, theta_tilde


def _decompose_connected(t: ThetaBitorsor, e: SplitExtension) -> Decomposition:
    x, y, z, images, *collapse = _factors(t, e)
    witness = _type_gamma_witness(y, 0, images, gamma_conjugation_structure(e).group)
    return Decomposition(y, z, eq.pi_identity_morphism(x), DecompositionCertificate(*collapse, *witness))


def _type_gamma_witness(y: PiBitorsor, p: int, images: list[int], gamma: FiniteGroup) -> tuple[PiBitorsor, PiMorphism, GroupHom]:
    """y restricted to the class of point p under the left subgroup h of
    `images`, the image of each element of gamma in turn (bt.orbit_restriction);
    with its inclusion and gamma's surjection onto h."""
    incl = bt.orbit_restriction(y.bitorsor, p, images)
    w_sub, w_incl = eq.restrict_pi(y, incl)
    h = incl.phi_left
    pos = {v: i for i, v in enumerate(h.map)}
    return w_sub, w_incl, by_formula(GroupHom, gamma, h.src, tuple(pos[v] for v in images))


def _transport_disconnected(t: ThetaBitorsor, incl: BitorsorMorphism, comp: ThetaBitorsor, e: SplitExtension) -> Decomposition:
    """Extend the factors y0 and z0 of comp, the component of point 0 of t,
    back along the component's inclusion: y0 glued with z0 is comp, and
    extension commutes with gluing (Giraud, Cohomologie non abelienne, 1971).
    The middle map phi is z0's left hom extended along the inclusion's right
    hom; y and z are y0 and z0 extended along phi on the right and on the
    left.  z and z0's right extension are left torsors under the middle
    group; rho identifies them at the images of point 0: z's point
    conjugation there, then the inverse of the other's.  The witness sends
    the glued point of (can_y(0), can_z(0)) to the image of point 0 over rho,
    which commutes with pi when z's right structure is constant, as x's is.
    The type-gamma witness is the class of can_y(0) under the image of gamma
    through comp's theta and can_y."""
    x = eq.from_theta(t)
    _, y0, z0, images0, *collapse = _factors(comp, e)
    pushed, can = eq.pushforward_pi(z0, incl.phi_right, x.right)
    phi, middle = can.inner.phi_left, pushed.left
    y, can_y = eq.pushforward_pi(y0, phi, middle)
    z, can_z = eq.pushforward_left_pi(z0, phi, middle)
    if not z.right.is_constant:
        raise DevissageError("the transported type-pi factor has a twisted right group")
    back = {v: r for r, v in enumerate(bt.point_conjugation(pushed.bitorsor, can(0)).map)}
    rho = tuple(back[v] for v in bt.point_conjugation(z.bitorsor, can_z(0)).map)
    rho = by_formula(GroupHom, z.bitorsor.right_group, pushed.bitorsor.right_group, rho)
    wedge = eq.compose_pi(y, z)
    glued = bt.glued_point(y.bitorsor, z.bitorsor, can_y(0), can_z(0))
    psi = bt.base_point_morphism(wedge.bitorsor, glued, x.bitorsor, incl(0), rho)
    witness_iso = by_formula(PiMorphism, wedge, x, psi)
    images = [can_y.inner.phi_left.map[v] for v in images0]
    witness = _type_gamma_witness(y, can_y(0), images, gamma_conjugation_structure(e).group)
    return Decomposition(y, z, witness_iso, DecompositionCertificate(*collapse, *witness))


def decompose(t: ThetaBitorsor, e: SplitExtension) -> Decomposition:
    """Split t into a type-gamma and a type-pi factor; a disconnected t
    from the factors of its component of point 0 (_transport_disconnected)."""
    if t.pi != e.pi_big:
        raise bt.SignatureMismatch("carrier symmetry group differs from pi_big")
    if eq.is_connected(t):
        return _decompose_connected(t, e)
    comp, incl = eq.connected_component(t)
    return _transport_disconnected(t, incl, comp, e)


def verify_decomposition(
    t: ThetaBitorsor, d: Decomposition, e: SplitExtension
) -> VerificationResult:
    """Re-validate every decomposition invariant from the stored pieces."""
    try:
        x = eq.from_theta(t)
    except DomainError as exc:
        return VerificationResult(False, f"input does not expand: {exc}")
    try:
        wedge = eq.compose_pi(d.y, d.z)
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
        connected = eq.is_connected(t)
        base = t if connected else eq.connected_component(t)[0]
        bad = _check_collapse(base, cert, e)
    except DomainError as exc:
        return VerificationResult(False, f"collapse data invalid: {exc}")
    if bad is not None:
        return VerificationResult(False, bad)
    if connected and d.z != eq.from_theta(ThetaBitorsor(t.bitorsor, cert.theta_tilde)):
        return VerificationResult(False, "z is not the expansion of theta_tilde")
    psi_left, w_left = iso.inner.phi_left.map, cert.w_inclusion.inner.phi_left.map
    if tuple(psi_left[w_left[v]] for v in cert.gamma_surjection.map) != tuple(
        t.theta.map[c] for c in e.gamma.members
    ):
        return VerificationResult(False, "the witness's left group is not the image of gamma")
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


@record
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
    from .rclass import Factorization

    d = decompose(t, e)
    if not gamma_oracle(d.y):
        raise OracleRefused("y", "the type-gamma oracle rejected the y factor")
    if not pi_oracle(d.z):
        raise OracleRefused("z", "the type-pi oracle rejected the z factor")
    fac = by_formula(Factorization, (d.y, d.z), eq.from_theta(t), d.witness_iso)
    return MembershipCertificate(d, fac)
