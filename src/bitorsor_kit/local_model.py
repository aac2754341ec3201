"""Finite tame-quotient model: a cyclic inertia part twisted by a power
Frobenius, the split extension it generates, and a per-class survey of
decompositions over a chosen structure group."""

from __future__ import annotations

import math

from . import devissage as dv
from . import equivariant as eq
from .devissage import SplitExtension
from .errors import DomainError, record
from .groups import MAX_ORDER, FiniteGroup, cyclic_power_action, kernel, semidirect_product


class LocalModelError(DomainError):
    pass


class BadParams(LocalModelError):
    pass


@record
class TameParams:
    """q: residue size analogue; n: inertia order, coprime to q; m: degree
    of the unramified part, with q**m = 1 mod n so the twist closes up.  The
    model's group has order n*m, at most MAX_ORDER."""

    q: int
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise BadParams(f"q = {self.q} must be at least 2")
        if self.n < 1 or self.m < 1:
            raise BadParams(f"n = {self.n} and m = {self.m} must be at least 1")
        if self.n * self.m > MAX_ORDER:
            raise BadParams(
                f"n*m = {self.n * self.m} is above the supported maximum order {MAX_ORDER}"
            )
        g = math.gcd(self.n, self.q)
        if g != 1:
            raise BadParams(f"gcd(n, q) = gcd({self.n}, {self.q}) = {g}, not 1")
        if pow(self.q, self.m, self.n) != 1 % self.n:
            raise BadParams(
                f"q**m = {self.q}**{self.m} is not 1 mod n = {self.n}"
            )


def build_tame_quotient(p: TameParams) -> SplitExtension:
    """The split extension with inertia Z/n, quotient Z/m, and the
    generator of the quotient conjugating inertia by q-th powers."""
    n_grp, m_grp, acts = cyclic_power_action(p.n, p.m, p.q)
    sd = semidirect_product(n_grp, m_grp, acts)
    return SplitExtension(
        sd.group, kernel(sd.projection), m_grp, sd.projection, sd.section
    )


@record
class SurveyRow:
    class_index: int
    theta: tuple[int, ...]
    image_size: int
    connected: bool
    gamma_in_kernel: bool
    z_is_type_pi: bool
    witness_order: int
    verified: bool
    diagnosis: str


@record
class SurveyReport:
    params: TameParams
    group_label: str
    group_order: int
    pi_order: int
    rows: tuple[SurveyRow, ...]
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        """Params and each row by field; a tuple is written as a list."""
        return {
            "params": {k: getattr(self.params, k) for k in TameParams.__match_args__},
            "group": {"label": self.group_label, "order": self.group_order},
            "pi_order": self.pi_order,
            "rows": [{k: getattr(r, k) for k in SurveyRow.__match_args__} for r in self.rows],
            "warnings": list(self.warnings),
        }


def _survey_class(
    p: TameParams, e: SplitExtension, g: FiniteGroup, index: int, rep: eq.ThetaBitorsor
) -> tuple[SurveyRow, dv.Decomposition]:
    d = dv.decompose(rep, e)
    res = dv.verify_decomposition(rep, d, e)
    witness_group = d.certificate.w_witness.bitorsor.left_group
    if not witness_group.is_cyclic():
        raise LocalModelError("a survey witness group failed to be cyclic")
    if p.n % witness_group.order != 0:
        raise LocalModelError("a survey witness order does not divide n")
    gamma_in_kernel = all(
        rep.theta.map[c] == g.identity for c in e.gamma.members
    )
    if p.m == 1 and not dv.is_type_pi(d.z, e):
        raise LocalModelError("degenerate m=1 produced a moving z factor")
    if p.n == 1 and not dv.is_type_pi(eq.from_theta(rep), e):
        raise LocalModelError("degenerate n=1 produced a moving class")
    row = SurveyRow(
        class_index=index,
        theta=rep.theta.map,
        image_size=len(set(rep.theta.map)),
        connected=eq.is_connected(rep),
        gamma_in_kernel=gamma_in_kernel,
        z_is_type_pi=dv.is_type_pi(d.z, e),
        witness_order=witness_group.order,
        verified=bool(res),
        diagnosis=res.diagnosis,
    )
    return row, d


def survey(p: TameParams, g: FiniteGroup) -> SurveyReport:
    """Decompose and verify every class over g, sorted by (image size,
    theta) for stable output."""
    pairs = survey_decompositions(p, g)
    rows = tuple(
        sorted((row for row, _ in pairs), key=lambda r: (r.image_size, r.theta))
    )
    warnings = []
    shared = math.gcd(g.order, p.q)
    if shared > 1:
        warnings.append(
            f"group order {g.order} shares the factor {shared} with q = {p.q}; "
            "the model decomposes anyway"
        )
    return SurveyReport(
        params=p,
        group_label=g.label,
        group_order=g.order,
        pi_order=p.n * p.m,  # the order of Z/n x| Z/m
        rows=rows,
        warnings=tuple(warnings),
    )


def survey_decompositions(
    p: TameParams, g: FiniteGroup
) -> list[tuple[SurveyRow, dv.Decomposition]]:
    """The survey rows paired with the decompositions behind them, in h1
    class order."""
    e = build_tame_quotient(p)
    return [_survey_class(p, e, g, i, rep) for i, rep in enumerate(eq.h1(e.pi_big, g))]
