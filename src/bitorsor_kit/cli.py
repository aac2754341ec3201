"""Command-line front door: validate groups, list classes, decompose and
verify along split extensions, search registry closures, and survey tame
local models.

Exit codes: 0 success, 1 usage error, 2 validation failure (the domain
diagnostic is printed verbatim).  Output is deterministic for identical
inputs and seed.  Everything runs in a single thread.  Each command
imports the calculus modules it runs inside its handler, so a fresh
process loads only those."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import formats as fm
from .errors import DomainError

if TYPE_CHECKING:
    from . import devissage as dv
    from . import equivariant as eq
    from . import local_model as lm

FORMATS = ("text", "json", "dot")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"{value!r} must be at least 1")
    return n


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused: parsing
    leaves it unchanged."""
    parser = _Parser(prog="bitorsor-kit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def formats(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("validate-group", help="parse and validate a single group")
    p.add_argument("--group", required=True, help="constructor name or file path")
    formats(p)

    p = sub.add_parser("h1", help="list the twisting classes of maps pi -> G")
    p.add_argument("--pi", required=True)
    p.add_argument("--group", required=True)
    formats(p)

    p = sub.add_parser("decompose", help="split a class along an extension")
    p.add_argument("--extension", required=True, type=Path)
    p.add_argument("--group", required=True)
    p.add_argument("--class", dest="class_index", required=True, type=int)
    formats(p, FORMATS)

    p = sub.add_parser("verify", help="re-check an emitted certificate")
    p.add_argument("--certificate", required=True, type=Path)
    formats(p, FORMATS)

    p = sub.add_parser("closure", help="search a registry closure for a class")
    p.add_argument("--pi", required=True)
    p.add_argument("--registry", required=True, type=Path)
    p.add_argument("--group", required=True)
    p.add_argument("--class", dest="class_index", required=True, type=int)
    p.add_argument("--max-n", dest="max_n", type=_positive_int, default=4)
    formats(p)

    p = sub.add_parser("local-survey", help="decompose every class of a tame model")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--group", required=True)
    formats(p)

    p = sub.add_parser("demo", help="run a seeded end-to-end example")
    p.add_argument("--seed", type=int, default=0)
    formats(p)
    return parser


def _emit_json(doc: dict) -> None:
    print(fm.dumps_indented(doc))


def _hom_pair(m: eq.PiMorphism) -> str:
    return f"({m.inner.phi_left.map}, {m.inner.phi_right.map})"


def _dot_node(name: str, title: str, p: eq.PiBitorsor) -> str:
    label = (
        f"{title}\\n{p.bitorsor.size} points\\n"
        f"left {p.left.group.label}, right {p.right.group.label}"
    )
    return f'  {name} [shape=box, label="{label}"];'


def _dot_decomposition(t: eq.ThetaBitorsor, d: dv.Decomposition) -> str:
    from . import equivariant as eq

    x = eq.from_theta(t)
    wedge = eq.compose_pi(d.y, d.z)
    lines = ["digraph decomposition {"]
    lines.append(_dot_node("Y", "Y (ramified factor)", d.y))
    lines.append(_dot_node("Z", "Z (unramified factor)", d.z))
    lines.append(_dot_node("YZ", "Y wedge Z", wedge))
    lines.append(_dot_node("X", "X (input)", x))
    lines.append(_dot_node("W", "W (witness)", d.certificate.w_witness))
    lines.append('  Y -> YZ [style=dashed, label="glue"];')
    lines.append('  Z -> YZ [style=dashed, label="glue"];')
    lines.append(f'  YZ -> X [label="{_hom_pair(d.witness_iso)}"];')
    lines.append(f'  W -> Y [label="{_hom_pair(d.certificate.w_inclusion)}"];')
    lines.append("}")
    return "\n".join(lines)


def _cmd_validate_group(ns: argparse.Namespace) -> int:
    g = fm.resolve_group_spec(ns.group)
    if ns.format == "json":
        _emit_json(
            {
                "schema": fm.SCHEMA,
                "kind": "group",
                "group": fm.group_to_json(g),
                "abelian": g.is_abelian(),
                "cyclic": g.is_cyclic(),
            }
        )
    else:
        print(f"valid group {g.label} of order {g.order}")
        print(f"abelian: {'yes' if g.is_abelian() else 'no'}")
        print(f"cyclic: {'yes' if g.is_cyclic() else 'no'}")
        print("generators: " + " ".join(str(v) for v in g.generators))
    return 0


def _cmd_h1(ns: argparse.Namespace) -> int:
    from . import equivariant as eq

    pi = fm.resolve_group_spec(ns.pi)
    g = fm.resolve_group_spec(ns.group)
    classes = eq.h1(pi, g)
    if ns.format == "json":
        _emit_json(
            {
                "schema": fm.SCHEMA,
                "kind": "h1",
                "pi": pi.label,
                "group": g.label,
                "classes": [
                    {"index": i, "theta": list(c.theta.map),
                     "image_size": len(set(c.theta.map))}
                    for i, c in enumerate(classes)
                ],
            }
        )
    else:
        print(f"{len(classes)} classes of maps from {pi.label} into {g.label}")
        for i, c in enumerate(classes):
            size = len(set(c.theta.map))
            print(f"class {i}: theta {c.theta.map} image size {size}")
    return 0


def _class_rep(pi, g, index: int) -> eq.ThetaBitorsor:
    from . import equivariant as eq

    classes = eq.h1(pi, g)
    if not (0 <= index < len(classes)):
        raise fm.ParseError(
            f"class index {index} out of range 0..{len(classes) - 1}"
        )
    return classes[index]


def _cmd_decompose(ns: argparse.Namespace) -> int:
    from . import devissage as dv

    text = fm.read_text(ns.extension, f"extension file {str(ns.extension)!r}")
    e = fm.parse_extension(text, base_dir=ns.extension.parent)
    g = fm.resolve_group_spec(ns.group)
    rep = _class_rep(e.pi_big, g, ns.class_index)
    d = dv.decompose(rep, e)
    res = dv.verify_decomposition(rep, d, e)
    if not res.ok:
        raise dv.DevissageError(f"the decomposition failed its own check: {res.diagnosis}")
    if ns.format == "json":
        _emit_json(fm.decomposition_to_json(rep, e, d))
    elif ns.format == "dot":
        print(_dot_decomposition(rep, d))
    else:
        witness = d.certificate.w_witness.bitorsor.left_group
        print(f"decomposed class {ns.class_index} of {g.label} over {e.pi_big.label}")
        print(f"y factor: {d.y.bitorsor.size} points, witness group order {witness.order}")
        print(f"z factor: {d.z.bitorsor.size} points, type pi {dv.is_type_pi(d.z, e)}")
        print(f"verified: {res.diagnosis}")
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    from . import devissage as dv

    raw = fm.read_text(ns.certificate, f"certificate {str(ns.certificate)!r}")
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise fm.ParseError(f"certificate is not valid JSON: {exc}") from None
    t, e, d = fm.decomposition_from_json(doc)
    res = dv.verify_decomposition(t, d, e)
    if ns.format == "json":
        _emit_json(
            {
                "schema": fm.SCHEMA,
                "kind": "verification",
                "ok": res.ok,
                "diagnosis": res.diagnosis,
            }
        )
    elif ns.format == "dot":
        print(_dot_decomposition(t, d))
    else:
        print(res.diagnosis)
    return 0 if res.ok else 2


def _cmd_closure(ns: argparse.Namespace) -> int:
    from . import equivariant as eq
    from . import rclass as rc

    pi = fm.resolve_group_spec(ns.pi)
    text = fm.read_text(ns.registry, f"registry {str(ns.registry)!r}")
    r = fm.parse_registry(text, pi, base_dir=ns.registry.parent)
    g = fm.resolve_group_spec(ns.group)
    rep = _class_rep(pi, g, ns.class_index)
    fac = rc.in_closure(rep, r, ns.max_n)
    chain = []
    if fac is not None:
        for factor in fac.factors:
            th = eq.to_theta(factor)
            chain.append(
                {
                    "group": th.bitorsor.right_group.label,
                    "class": rc.class_index_of_hom(th.theta),
                }
            )
    if ns.format == "json":
        _emit_json(
            {
                "schema": fm.SCHEMA,
                "kind": "closure",
                "group": g.label,
                "class": ns.class_index,
                "max_n": ns.max_n,
                "found": fac is not None,
                "chain": chain if fac is not None else None,
            }
        )
    else:
        if fac is None:
            print(
                f"class {ns.class_index} of {g.label}: "
                f"not in the closure within {ns.max_n} factors"
            )
        else:
            steps = " ".join(f"({c['group']}, {c['class']})" for c in chain)
            print(
                f"class {ns.class_index} of {g.label}: "
                f"in the closure with {len(chain)} factors: {steps}"
            )
    return 0


def _survey_dict(report: lm.SurveyReport) -> dict:
    return {"schema": fm.SCHEMA, "kind": "local-survey", **report.to_dict()}


def _print_survey(report: lm.SurveyReport) -> None:
    p = report.params
    print(
        f"tame model q={p.q} n={p.n} m={p.m}: group of order {report.pi_order}, "
        f"surveyed over {report.group_label} (order {report.group_order})"
    )
    for w in report.warnings:
        print(f"warning: {w}")
    for r in report.rows:
        print(
            f"class {r.class_index}: theta {r.theta} image {r.image_size} "
            f"decomposed={'true' if r.verified else 'false'} "
            f"witness_order={r.witness_order} z_type_pi={r.z_is_type_pi}"
        )


def _cmd_local_survey(ns: argparse.Namespace) -> int:
    from . import local_model as lm

    params = lm.TameParams(ns.q, ns.n, ns.m)
    g = fm.resolve_group_spec(ns.group)
    report = lm.survey(params, g)
    if ns.format == "json":
        _emit_json(_survey_dict(report))
    else:
        _print_survey(report)
    return 0


DEMO_PARAMS = ((2, 3, 2), (3, 4, 2), (5, 4, 1), (3, 2, 2), (2, 7, 3))
DEMO_GROUPS = ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6", "symmetric:3")


def _cmd_demo(ns: argparse.Namespace) -> int:
    import random

    from . import local_model as lm

    rng = random.Random(ns.seed)
    q, n, m = rng.choice(DEMO_PARAMS)
    spec = rng.choice(DEMO_GROUPS)
    params = lm.TameParams(q, n, m)
    g = fm.resolve_group_spec(spec)
    report = lm.survey(params, g)
    if ns.format == "json":
        _emit_json({"seed": ns.seed, "scenario": spec, **_survey_dict(report)})
    else:
        print(f"demo seed {ns.seed}: tame model ({q}, {n}, {m}) over {spec}")
        _print_survey(report)
    return 0


_DISPATCH = {
    "validate-group": _cmd_validate_group,
    "h1": _cmd_h1,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "closure": _cmd_closure,
    "local-survey": _cmd_local_survey,
    "demo": _cmd_demo,
}


def main(argv: list[str] | None = None) -> int:
    """Parse, then dispatch on the namespace: argparse has already checked
    the command, its --format choices and every typed option."""
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[ns.command](ns)
    except DomainError as exc:
        module = type(exc).__module__.rsplit(".", 1)[-1]
        print(f"{module}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """Run main and exit with its code.  A reader that closes stdout early
    (`| head`) ends the command quietly with 0: stdout is pointed at
    os.devnull so the flush at exit has nowhere left to fail."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
