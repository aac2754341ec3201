"""Text formats for groups, split extensions, and class registries, plus a
versioned JSON encoding of decomposition certificates.

Text files are line-based: blank lines and lines starting with `#` are
skipped.  JSON documents intern groups in a top-level list and embed index
tables inline only up to order 24; larger tables are replaced by a sha256
reference that the reader resolves against caller-supplied sources."""

from __future__ import annotations

import hashlib
import json
import re
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import devissage as dv
from . import equivariant as eq
from .bitorsors import Bitorsor, BitorsorMorphism
from .errors import DomainError
from .groups import (
    SYMMETRIC_MAX_DEGREE,
    FiniteGroup,
    GroupHom,
    Subgroup,
    cyclic,
    cyclic_power_action,
    dihedral,
    make_group,
    semidirect_product,
    subgroup,
    symmetric,
)
from .rclass import ElementaryClassRegistry

SCHEMA = "bitorsor-kit/1"
TABLE_EMBED_LIMIT = 24


class ParseError(DomainError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {col})" if col is not None else ")")
        super().__init__(message + where)


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.strip()
        if body and not body.startswith("#"):
            out.append((no, raw))
    return out


def _tokens(raw: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", raw)]


def _int_token(tok: str, no: int, col: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected an integer {what}, got {tok!r}", no, col) from None


def _take(lines: list[tuple[int, str]], cursor: int, what: str) -> tuple[int, str]:
    if cursor >= len(lines):
        last = lines[-1][0] if lines else 1
        raise ParseError(f"unexpected end of input, expected {what}", last)
    return lines[cursor]


def _int_row(
    toks: Sequence[tuple[str, int]], no: int, bound: int, what: str
) -> tuple[int, ...]:
    row = []
    for tok, col in toks:
        v = _int_token(tok, no, col, what)
        if not (0 <= v < bound):
            raise ParseError(f"{what} {v} out of range 0..{bound - 1}", no, col)
        row.append(v)
    return tuple(row)


def parse_group(text: str) -> FiniteGroup:
    """Read `group <label> order <n>`, n table rows, `generators ...`."""
    lines = _content_lines(text)
    no, raw = _take(lines, 0, "a group header")
    toks = _tokens(raw)
    if toks[0][0] != "group":
        raise ParseError("expected a 'group' header", no, toks[0][1])
    if len(toks) != 4 or toks[2][0] != "order":
        raise ParseError("header must read: group <label> order <n>", no, toks[0][1])
    label = toks[1][0]
    n = _int_token(toks[3][0], no, toks[3][1], "order")
    if n < 1:
        raise ParseError(f"order {n} must be positive", no, toks[3][1])
    rows = []
    for r in range(n):
        no, raw = _take(lines, 1 + r, f"table row {r}")
        toks = _tokens(raw)
        if len(toks) != n:
            raise ParseError(
                f"table row {r} has {len(toks)} entries, expected {n}", no, toks[0][1]
            )
        rows.append(_int_row(toks, no, n, "table entry"))
    no, raw = _take(lines, 1 + n, "a 'generators' line")
    toks = _tokens(raw)
    if toks[0][0] != "generators" or len(toks) < 2:
        raise ParseError("expected: generators <i1> <i2> ...", no, toks[0][1])
    gens = _int_row(toks[1:], no, n, "generator")
    if len(lines) > 2 + n:
        no, raw = lines[2 + n]
        raise ParseError("unexpected trailing content", no, _tokens(raw)[0][1])
    return make_group(tuple(rows), gens, label)


def format_group(g: FiniteGroup) -> str:
    label = re.sub(r"\s+", "-", g.label)
    lines = [f"group {label} order {g.order}"]
    lines.extend(" ".join(str(v) for v in row) for row in g.mul)
    lines.append("generators " + " ".join(str(v) for v in g.generators))
    return "\n".join(lines) + "\n"


def _constructor_ints(spec: str, parts: Sequence[str], count: int) -> list[int]:
    if len(parts) != count:
        raise ParseError(f"constructor {spec!r} takes {count} integer arguments")
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise ParseError(f"bad integer {p!r} in constructor {spec!r}") from None
    return out


def resolve_group_spec(spec: str, base_dir: Path | None = None) -> FiniteGroup:
    """A constructor name (cyclic:n, dihedral:n, symmetric:n, semidirect:N:Q:k)
    or a path to a group file."""
    head, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    if head == "cyclic":
        (n,) = _constructor_ints(spec, parts, 1)
        if n < 1:
            raise ParseError(f"cyclic order {n} must be positive")
        return cyclic(n)
    if head == "dihedral":
        (n,) = _constructor_ints(spec, parts, 1)
        if n < 1:
            raise ParseError(f"dihedral parameter {n} must be positive")
        return dihedral(n)
    if head == "symmetric":
        (n,) = _constructor_ints(spec, parts, 1)
        if not (1 <= n <= SYMMETRIC_MAX_DEGREE):
            raise ParseError(f"symmetric degree {n} must lie in 1..{SYMMETRIC_MAX_DEGREE}")
        return symmetric(n)
    if head == "semidirect":
        big_n, q, k = _constructor_ints(spec, parts, 3)
        if big_n < 1 or q < 1:
            raise ParseError(f"semidirect sizes in {spec!r} must be positive")
        n_grp, q_grp, acts = cyclic_power_action(big_n, q, k)
        return semidirect_product(n_grp, q_grp, acts).group
    path = Path(spec)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read group {spec!r}: {exc}") from None
    return parse_group(text)


def parse_extension(text: str, base_dir: Path | None = None) -> dv.SplitExtension:
    """Read an `extension` header, then pi_big, gamma, p, s lines.  The small
    quotient group is derived from the labels of the p line."""
    lines = _content_lines(text)
    no, raw = _take(lines, 0, "an extension header")
    toks = _tokens(raw)
    if toks[0][0] != "extension" or len(toks) > 2:
        raise ParseError("expected: extension <label>", no, toks[0][1])

    no, raw = _take(lines, 1, "a pi_big line")
    toks = _tokens(raw)
    if toks[0][0] != "pi_big" or len(toks) != 2:
        raise ParseError("expected: pi_big <group-spec>", no, toks[0][1])
    big = resolve_group_spec(toks[1][0], base_dir)

    no, raw = _take(lines, 2, "a gamma line")
    toks = _tokens(raw)
    if toks[0][0] != "gamma" or len(toks) < 2:
        raise ParseError("expected: gamma <i1> <i2> ...", no, toks[0][1])
    gamma_members = _int_row(toks[1:], no, big.order, "gamma element")

    no, raw = _take(lines, 3, "a p line")
    toks = _tokens(raw)
    if toks[0][0] != "p" or len(toks) != 1 + big.order:
        raise ParseError(
            f"expected: p with {big.order} labels, one per element", no, toks[0][1]
        )
    labels = _int_row(toks[1:], no, big.order, "quotient label")
    k = len(set(labels))
    if sorted(set(labels)) != list(range(k)):
        raise ParseError(f"quotient labels must be exactly 0..{k - 1}", no, toks[1][1])
    reps = {}
    for x, a in enumerate(labels):
        reps.setdefault(a, x)
    small_mul = tuple(
        tuple(labels[big.mul[reps[a]][reps[b]]] for b in range(k)) for a in range(k)
    )
    for x in big.elements:
        for y in big.elements:
            if labels[big.mul[x][y]] != small_mul[labels[x]][labels[y]]:
                raise ParseError(
                    f"the p labels are not compatible with the product at ({x}, {y})",
                    no,
                )
    ident = labels[big.identity]
    small_gens = tuple(
        dict.fromkeys(labels[g] for g in big.generators if labels[g] != ident)
    ) or (ident,)
    small = make_group(small_mul, small_gens, "pi_small")

    no, raw = _take(lines, 4, "an s line")
    toks = _tokens(raw)
    if toks[0][0] != "s" or len(toks) != 1 + k:
        raise ParseError(f"expected: s with {k} entries", no, toks[0][1])
    s_map = _int_row(toks[1:], no, big.order, "section entry")
    if len(lines) > 5:
        no, raw = lines[5]
        raise ParseError("unexpected trailing content", no, _tokens(raw)[0][1])
    return dv.SplitExtension(
        big,
        subgroup(big, gamma_members),
        small,
        GroupHom(big, small, labels),
        GroupHom(small, big, s_map),
    )


def format_extension(e: dv.SplitExtension, pi_big_spec: str, label: str = "ext") -> str:
    lines = [
        f"extension {label}",
        f"pi_big {pi_big_spec}",
        "gamma " + " ".join(str(v) for v in e.gamma.members),
        "p " + " ".join(str(v) for v in e.p.map),
        "s " + " ".join(str(v) for v in e.s.map),
    ]
    return "\n".join(lines) + "\n"


def parse_registry(
    text: str, pi: FiniteGroup, base_dir: Path | None = None
) -> ElementaryClassRegistry:
    """Read `elementary <group-spec> <class-index>` lines; the universe is
    ordered by first appearance."""
    specs: list[str] = []
    resolved: dict[str, FiniteGroup] = {}
    members = set()
    for no, raw in _content_lines(text):
        toks = _tokens(raw)
        if toks[0][0] != "elementary" or len(toks) != 3:
            raise ParseError(
                "expected: elementary <group-spec> <class-index>", no, toks[0][1]
            )
        name = toks[1][0]
        idx = _int_token(toks[2][0], no, toks[2][1], "class index")
        if idx < 0:
            raise ParseError(f"class index {idx} must not be negative", no, toks[2][1])
        if name not in resolved:
            resolved[name] = resolve_group_spec(name, base_dir)
            specs.append(name)
        members.add((specs.index(name), idx))
    if not specs:
        raise ParseError("a registry needs at least one 'elementary' line")
    universe = tuple(resolved[name] for name in specs)
    return ElementaryClassRegistry(pi, universe, frozenset(members))


def format_registry(r: ElementaryClassRegistry, specs: Sequence[str]) -> str:
    if len(specs) != len(r.universe):
        raise ParseError("one group spec per universe entry required")
    lines = [f"elementary {specs[ui]} {ci}" for ui, ci in sorted(r.members)]
    return "\n".join(lines) + "\n"


def table_digest(rows: Sequence[Sequence[int]]) -> str:
    payload = json.dumps([list(r) for r in rows], separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def resolver_for_groups(groups: Iterable[FiniteGroup]) -> dict[str, tuple]:
    """Digest -> multiplication table, for re-reading hashed references."""
    return {table_digest(g.mul): g.mul for g in groups}


def _emit_table(rows: Sequence[Sequence[int]], order: int):
    if order <= TABLE_EMBED_LIMIT:
        return [list(r) for r in rows]
    return {"sha256": table_digest(rows)}


def _decode_table(obj, resolver: Mapping[str, Sequence]) -> tuple[tuple[int, ...], ...]:
    if isinstance(obj, dict):
        key = str(obj.get("sha256", ""))
        if key not in resolver:
            raise ParseError(f"unresolved table reference sha256:{key[:12]}")
        obj = resolver[key]
    return tuple(tuple(int(v) for v in row) for row in obj)


def dumps_indented(value) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte, for
    values built from dicts with str keys, lists, tuples and JSON scalars.

    With `indent` set, json.dumps falls back to its pure-Python encoder;
    this writer makes one pass instead, joins each list of plain ints in one
    string operation, and sends every scalar other than an int or a str
    (bools, None, floats, subclasses) through json.dumps."""
    out: list[str] = []
    _write_indented(value, "\n", out)
    return "".join(out)


def _write_indented(v, newline: str, out: list[str]) -> None:
    t = type(v)
    if t is str:
        out.append(_encode_str(v))
    elif t is int:
        out.append(int.__repr__(v))
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k in sorted(v):
            out.append(sep)
            out.append(_encode_str(k))
            out.append(": ")
            _write_indented(v[k], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(x) is int for x in v):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, v)) + newline + "]")
            return
        sep = "[" + inner
        for x in v:
            out.append(sep)
            _write_indented(x, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(v))


def group_to_json(g: FiniteGroup) -> dict:
    return {
        "label": g.label,
        "order": g.order,
        "mul": _emit_table(g.mul, g.order),
        "generators": list(g.generators),
    }


def group_from_json(entry: dict, resolver: Mapping[str, Sequence] | None = None) -> FiniteGroup:
    try:
        mul = _decode_table(entry["mul"], dict(resolver or {}))
        gens = tuple(int(v) for v in entry["generators"])
        label = str(entry["label"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed group document: {exc!r}") from None
    return make_group(mul, gens, label)


class _Writer:
    """Interns groups so the document stores each table once."""

    def __init__(self):
        self.groups: list[dict] = []
        self._ids: dict[FiniteGroup, int] = {}

    def group(self, g: FiniteGroup) -> int:
        if g not in self._ids:
            self._ids[g] = len(self.groups)
            self.groups.append(group_to_json(g))
        return self._ids[g]

    def hom(self, h: GroupHom) -> dict:
        return {"src": self.group(h.src), "dst": self.group(h.dst), "map": list(h.map)}

    def sub(self, s: Subgroup) -> dict:
        return {"parent": self.group(s.parent), "members": list(s.members)}

    def bitorsor(self, b: Bitorsor) -> dict:
        return {
            "left_group": self.group(b.left_group),
            "right_group": self.group(b.right_group),
            "left_act": _emit_table(b.left_act, b.size),
            "right_act": _emit_table(b.right_act, b.size),
        }

    def pi_group(self, pg: eq.PiGroup) -> dict:
        return {
            "group": self.group(pg.group),
            "pi": self.group(pg.pi),
            "action": [list(h.map) for h in pg.action],
        }

    def pi_bitorsor(self, p: eq.PiBitorsor) -> dict:
        return {
            "left": self.pi_group(p.left),
            "right": self.pi_group(p.right),
            "bitorsor": self.bitorsor(p.bitorsor),
            "points_action": _emit_table(p.pi_action_on_points, p.bitorsor.size),
        }

    def pi_morphism(self, m: eq.PiMorphism) -> dict:
        return {
            "src": self.pi_bitorsor(m.src),
            "dst": self.pi_bitorsor(m.dst),
            "phi_left": self.hom(m.inner.phi_left),
            "point_map": list(m.inner.point_map),
            "phi_right": self.hom(m.inner.phi_right),
        }


def _once_per_document(build):
    """Memoize a _Reader method on the text of its sub-document: equal text
    gives an equal value, so each distinct sub-document is built, and so
    validated, once per document."""

    def method(self, d):
        key = (build.__name__, json.dumps(d))
        if key not in self._built:
            self._built[key] = build(self, d)
        return self._built[key]

    return method


class _Reader:
    """Rebuilds the values of one document.  A certificate repeats some
    sub-documents (a factor is also the target of the witness inclusion),
    so bitorsors, pi_groups and pi_bitorsors are built once per text."""

    def __init__(self, doc: dict, resolver: Mapping[str, Sequence] | None):
        self._resolver = dict(resolver or {})
        self._groups = [group_from_json(entry, self._resolver) for entry in doc["groups"]]
        self._built: dict[tuple[str, str], object] = {}

    def table(self, obj) -> tuple[tuple[int, ...], ...]:
        return _decode_table(obj, self._resolver)

    def group(self, i) -> FiniteGroup:
        i = int(i)
        if not (0 <= i < len(self._groups)):
            raise ParseError(f"group reference {i} out of range")
        return self._groups[i]

    def hom(self, d: dict) -> GroupHom:
        return GroupHom(
            self.group(d["src"]), self.group(d["dst"]), tuple(int(v) for v in d["map"])
        )

    def sub(self, d: dict) -> Subgroup:
        return subgroup(self.group(d["parent"]), (int(v) for v in d["members"]))

    @_once_per_document
    def bitorsor(self, d: dict) -> Bitorsor:
        return Bitorsor(
            self.group(d["left_group"]),
            self.group(d["right_group"]),
            self.table(d["left_act"]),
            self.table(d["right_act"]),
        )

    @_once_per_document
    def pi_group(self, d: dict) -> eq.PiGroup:
        g = self.group(d["group"])
        pi = self.group(d["pi"])
        action = tuple(
            GroupHom(g, g, tuple(int(v) for v in row)) for row in d["action"]
        )
        return eq.PiGroup(g, pi, action)

    @_once_per_document
    def pi_bitorsor(self, d: dict) -> eq.PiBitorsor:
        return eq.PiBitorsor(
            self.pi_group(d["left"]),
            self.pi_group(d["right"]),
            self.bitorsor(d["bitorsor"]),
            self.table(d["points_action"]),
        )

    def pi_morphism(self, d: dict) -> eq.PiMorphism:
        src = self.pi_bitorsor(d["src"])
        dst = self.pi_bitorsor(d["dst"])
        inner = BitorsorMorphism(
            src.bitorsor,
            dst.bitorsor,
            self.hom(d["phi_left"]),
            tuple(int(v) for v in d["point_map"]),
            self.hom(d["phi_right"]),
        )
        return eq.PiMorphism(src, dst, inner)


def decomposition_to_json(
    t: eq.ThetaBitorsor, e: dv.SplitExtension, d: dv.Decomposition
) -> dict:
    """A self-contained certificate document: the input, the extension, the
    two factors, and every intermediate the checker replays."""
    w = _Writer()
    ext = {
        "pi_big": w.group(e.pi_big),
        "gamma": list(e.gamma.members),
        "pi_small": w.group(e.pi_small),
        "p": w.hom(e.p),
        "s": w.hom(e.s),
    }
    inp = {"bitorsor": w.bitorsor(t.bitorsor), "theta": w.hom(t.theta)}
    cert = d.certificate
    dec = {
        "y": w.pi_bitorsor(d.y),
        "z": w.pi_bitorsor(d.z),
        "witness_iso": w.pi_morphism(d.witness_iso),
        "certificate": {
            "h_prime": w.sub(cert.h_prime),
            "quotient_map": w.hom(cert.quotient_map),
            "s_low": w.hom(cert.s_low),
            "theta_tilde": w.hom(cert.theta_tilde),
            "w_witness": w.pi_bitorsor(cert.w_witness),
            "w_inclusion": w.pi_morphism(cert.w_inclusion),
            "gamma_surjection": w.hom(cert.gamma_surjection),
        },
    }
    return {
        "schema": SCHEMA,
        "kind": "decomposition-certificate",
        "groups": w.groups,
        "extension": ext,
        "input": inp,
        "decomposition": dec,
    }


def decomposition_from_json(
    doc: dict, resolver: Mapping[str, Sequence] | None = None
) -> tuple[eq.ThetaBitorsor, dv.SplitExtension, dv.Decomposition]:
    """Rebuild and re-validate a certificate document; every constructor on
    the way re-checks its own invariants."""
    try:
        if doc.get("schema") != SCHEMA:
            raise ParseError(f"unsupported schema {doc.get('schema')!r}")
        if doc.get("kind") != "decomposition-certificate":
            raise ParseError(f"unsupported document kind {doc.get('kind')!r}")
        r = _Reader(doc, resolver)
        ed = doc["extension"]
        big = r.group(ed["pi_big"])
        e = dv.SplitExtension(
            big,
            subgroup(big, (int(v) for v in ed["gamma"])),
            r.group(ed["pi_small"]),
            r.hom(ed["p"]),
            r.hom(ed["s"]),
        )
        ind = doc["input"]
        t = eq.ThetaBitorsor(r.bitorsor(ind["bitorsor"]), r.hom(ind["theta"]))
        dd = doc["decomposition"]
        cd = dd["certificate"]
        cert = dv.DecompositionCertificate(
            r.sub(cd["h_prime"]),
            r.hom(cd["quotient_map"]),
            r.hom(cd["s_low"]),
            r.hom(cd["theta_tilde"]),
            r.pi_bitorsor(cd["w_witness"]),
            r.pi_morphism(cd["w_inclusion"]),
            r.hom(cd["gamma_surjection"]),
        )
        d = dv.Decomposition(
            r.pi_bitorsor(dd["y"]),
            r.pi_bitorsor(dd["z"]),
            r.pi_morphism(dd["witness_iso"]),
            cert,
        )
        return t, e, d
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"malformed certificate document: {exc!r}") from None
