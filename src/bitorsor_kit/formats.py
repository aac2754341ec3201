"""Text formats for groups, split extensions, and class registries, plus a
versioned JSON encoding of decomposition certificates.

Text files are line-based: blank lines and lines starting with `#` are
skipped.  JSON documents intern groups in a top-level list and embed index
tables inline only up to order 24; larger tables are replaced by a sha256
reference that the reader resolves against caller-supplied sources.
Per process, a constructor spec is built once (64 specs), parse_group is
memoized on its text (128), and parse_extension after pi_big on the text
and the resolved group with its label (32); a group file is read on every
call, and failures are not cached.  The certificate reader checks each
distinct decoded value once per process (_checked, 4096 keys); the writer
writes a record table as ints, from kept texts of 256 tables and 4096 rows.

Only the group layer is imported with this module: the extension,
registry and certificate readers and writers import the calculus modules
they build."""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import DomainError
from .groups import (
    MAX_ORDER,
    SYMMETRIC_MAX_DEGREE,
    FiniteGroup,
    GroupHom,
    Subgroup,
    check_ints,
    cyclic,
    cyclic_power_action,
    dihedral,
    make_group,
    semidirect_product,
    subgroup,
    symmetric,
)

if TYPE_CHECKING:
    from . import devissage as dv
    from . import equivariant as eq
    from .bitorsors import Bitorsor
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


def read_text(path: Path, what: str) -> str:
    """The text of the file at `path`; a file that cannot be read or is not
    valid text is a ParseError naming `what`."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what}: {exc}") from None


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


def _int_row(words: Sequence[str], raw: str, no: int, bound: int, what: str) -> tuple[int, ...]:
    """`words`, the last tokens of line `raw`, as integers in 0..bound-1.
    The row is converted and bounded whole; only a row that fails is read
    token by token, to report its first bad token and column."""
    try:
        row = tuple(map(int, words))
        if not row or (min(row) >= 0 and max(row) < bound):
            return row
    except ValueError:
        pass
    for tok, col in _tokens(raw)[-len(words):]:
        v = _int_token(tok, no, col, what)
        if not (0 <= v < bound):
            raise ParseError(f"{what} {v} out of range 0..{bound - 1}", no, col)
    raise AssertionError("unreachable: the row failed but every token passed")


@lru_cache(maxsize=128)
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
    if n > MAX_ORDER:
        raise ParseError(f"order {n} exceeds the supported maximum {MAX_ORDER}", no, toks[3][1])
    rows = []
    for r in range(n):
        no, raw = _take(lines, 1 + r, f"table row {r}")
        words = raw.split()
        if len(words) != n:
            raise ParseError(
                f"table row {r} has {len(words)} entries, expected {n}", no, _tokens(raw)[0][1]
            )
        rows.append(_int_row(words, raw, no, n, "table entry"))
    no, raw = _take(lines, 1 + n, "a 'generators' line")
    toks = _tokens(raw)
    if toks[0][0] != "generators" or len(toks) < 2:
        raise ParseError("expected: generators <i1> <i2> ...", no, toks[0][1])
    gens = _int_row(raw.split()[1:], raw, no, n, "generator")
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


def _check_order(spec: str, order: int) -> None:
    if order > MAX_ORDER:
        raise ParseError(f"{spec!r} has order {order}, above the supported maximum {MAX_ORDER}")


_CONSTRUCTORS = ("cyclic", "dihedral", "symmetric", "semidirect")


def resolve_group_spec(spec: str, base_dir: Path | None = None) -> FiniteGroup:
    """A constructor name (cyclic:n, dihedral:n, symmetric:n, semidirect:N:Q:k)
    or a path to a group file.  Orders above MAX_ORDER are refused before
    any table is built.  A constructor spec is built once per process; a
    group file is read on every call, so a changed file is seen."""
    if spec.partition(":")[0] in _CONSTRUCTORS:
        return _constructed(spec)
    path = Path(spec) if base_dir is None else base_dir / spec  # an absolute spec wins
    return parse_group(read_text(path, f"group {spec!r}"))


@lru_cache(maxsize=64)
def _constructed(spec: str) -> FiniteGroup:
    head, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    if head == "cyclic":
        (n,) = _constructor_ints(spec, parts, 1)
        if n < 1:
            raise ParseError(f"cyclic order {n} must be positive")
        _check_order(spec, n)
        return cyclic(n)
    if head == "dihedral":
        (n,) = _constructor_ints(spec, parts, 1)
        if n < 1:
            raise ParseError(f"dihedral parameter {n} must be positive")
        _check_order(spec, 2 * n)
        return dihedral(n)
    if head == "symmetric":
        (n,) = _constructor_ints(spec, parts, 1)
        if not (1 <= n <= SYMMETRIC_MAX_DEGREE):
            raise ParseError(f"symmetric degree {n} must lie in 1..{SYMMETRIC_MAX_DEGREE}")
        _check_order(spec, math.factorial(n))
        return symmetric(n)
    big_n, q, k = _constructor_ints(spec, parts, 3)  # semidirect
    if big_n < 1 or q < 1:
        raise ParseError(f"semidirect sizes in {spec!r} must be positive")
    _check_order(spec, big_n * q)
    n_grp, q_grp, acts = cyclic_power_action(big_n, q, k)
    return semidirect_product(n_grp, q_grp, acts).group


def parse_extension(text: str, base_dir: Path | None = None) -> dv.SplitExtension:
    """Read an `extension` header, then pi_big, gamma, p, s lines.  The small
    quotient group is derived from the labels of the p line.  pi_big is
    resolved on every call, so a changed group file is seen; the rest is
    memoized on the text, the resolved group and its label."""
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
    return _extension_over(text, big, big.label)


@lru_cache(maxsize=32)
def _extension_over(text: str, big: FiniteGroup, label: str) -> dv.SplitExtension:
    lines = _content_lines(text)
    no, raw = _take(lines, 2, "a gamma line")
    toks = _tokens(raw)
    if toks[0][0] != "gamma" or len(toks) < 2:
        raise ParseError("expected: gamma <i1> <i2> ...", no, toks[0][1])
    gamma_members = _int_row(raw.split()[1:], raw, no, big.order, "gamma element")

    no, raw = _take(lines, 3, "a p line")
    toks = _tokens(raw)
    if toks[0][0] != "p" or len(toks) != 1 + big.order:
        raise ParseError(
            f"expected: p with {big.order} labels, one per element", no, toks[0][1]
        )
    labels = _int_row(raw.split()[1:], raw, no, big.order, "quotient label")
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
        row = small_mul[labels[x]]
        if tuple(map(labels.__getitem__, big.mul[x])) != tuple(map(row.__getitem__, labels)):
            y = next(y for y in big.elements if labels[big.mul[x][y]] != row[labels[y]])
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
    s_map = _int_row(raw.split()[1:], raw, no, big.order, "section entry")
    if len(lines) > 5:
        no, raw = lines[5]
        raise ParseError("unexpected trailing content", no, _tokens(raw)[0][1])
    from .devissage import SplitExtension

    return SplitExtension(
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


def parse_registry(text: str, pi: FiniteGroup, base_dir: Path | None = None) -> ElementaryClassRegistry:
    """Read `elementary <group-spec> <class-index>` lines; the universe is
    ordered by first appearance."""
    from .rclass import ElementaryClassRegistry

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
    import hashlib

    payload = json.dumps([list(r) for r in rows], separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def resolver_for_groups(groups: Iterable[FiniteGroup]) -> dict[str, tuple]:
    """Digest -> multiplication table, for re-reading hashed references."""
    return {table_digest(g.mul): g.mul for g in groups}


class _Table(tuple):
    """A checked record's rows, such as a group's product table, so its
    entries are ints: dumps_indented writes it from a memo (_table_text)."""


def _emit_table(rows: Sequence[Sequence[int]], order: int):
    if order <= TABLE_EMBED_LIMIT:
        return _Table(rows)
    return {"sha256": table_digest(rows)}


def _json_rows(rows, what: str) -> tuple[tuple[int, ...], ...]:
    """Rows of JSON integers, type-checked in one pass over the table; equal
    rows are one tuple, so a kept table holds each distinct row once."""
    out = check_ints(tuple(map(tuple, rows)), ParseError, what + " entry")
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    return tuple(seen.setdefault(r, r) for r in out)


def _decode_table(obj, resolver: Mapping[str, Sequence], what: str) -> tuple[tuple[int, ...], ...]:
    """Every table of a document has at most one row per element of a group,
    so one with more than MAX_ORDER rows is refused before it is read."""
    if isinstance(obj, dict):
        key = str(obj.get("sha256", ""))
        if key not in resolver:
            raise ParseError(f"unresolved table reference sha256:{key[:12]}")
        obj = resolver[key]
    if len(obj) > MAX_ORDER:
        raise ParseError(f"table has {len(obj)} rows, above the supported maximum {MAX_ORDER}")
    return _json_rows(obj, what)


def dumps_indented(value) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte, for
    values built from dicts with str keys, lists, tuples and JSON scalars.

    With `indent` set, json.dumps falls back to its pure-Python encoder;
    this writer makes one pass instead.  A list of plain ints is joined in
    one string operation; any other list or tuple is written item by item.
    A record table (_Table), a checked record's rows, is written as ints
    from a text kept once per process and indent (_table_text, joined from
    the texts of its rows, _row_text), with no type check.  An int or str
    value of a dict is written inline; every other scalar (bools, None,
    floats, subclasses) goes through json.dumps."""
    out: list[str] = []
    _write_indented(value, "\n", out)
    return "".join(out)


def _write_indented(v, newline: str, out: list[str]) -> None:
    t = type(v)
    if t is str:
        out.append(_encode_str(v))
    elif t is int:
        out.append(int.__repr__(v))
    elif t is _Table:
        try:
            out.append(_table_text(v, newline))
        except TypeError:  # an unhashable row
            _write_indented([list(r) for r in v], newline, out)
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k in sorted(v):
            x, head = v[k], sep + _encode_str(k) + ": "
            if type(x) is int:
                out.append(head + int.__repr__(x))
            elif type(x) is str:
                out.append(head + _encode_str(x))
            else:
                out.append(head)
                _write_indented(x, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = newline + "  "
        if {int}.issuperset(map(type, v)):
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


@lru_cache(maxsize=256)  # a warm seed-1 decompose-sweep pass renders 15,661 tables and misses 2,149
def _table_text(rows: _Table, newline: str) -> str:
    inner = newline + "  "
    return "[" + inner + ("," + inner).join([_row_text(r, inner) for r in rows]) + newline + "]"


@lru_cache(maxsize=4096)  # those 2,149 tables are joined from 20,146 row texts of 1,798 keys
def _row_text(row: tuple[int, ...], newline: str) -> str:
    return "[" + newline + "  " + ("," + newline + "  ").join(map(int.__repr__, row)) + newline + "]"


def group_to_json(g: FiniteGroup) -> dict:
    return {
        "label": g.label,
        "order": g.order,
        "mul": _emit_table(g.mul, g.order),
        "generators": list(g.generators),
    }


def group_from_json(entry: dict, resolver: Mapping[str, Sequence] | None = None) -> FiniteGroup:
    try:
        mul = _decode_table(entry["mul"], dict(resolver or {}), "mul")
        gens = check_ints(tuple(entry["generators"]), ParseError, "generators", table=False)
        label = str(entry["label"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed group document: {exc!r}") from None
    return make_group(mul, gens, label)


class _Writer:
    """Interns groups by equality, so the document stores each once."""

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
            "action": _Table(pg.action),
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


@lru_cache(maxsize=4096)  # a seed-1 decompose-sweep pass reads 10,411 values, 2,089 distinct
def _checked(build, labels: tuple[str, ...], *args):
    """build(*args), a checked entry of the certificate reader, once per
    process per value and per labels of the groups it reaches: group
    equality ignores labels, and they reach the output.  A failure is not
    kept, so a tampered table is checked and refused on every read."""
    return build(*args)


class _Reader:
    """Rebuilds the values of one document from strictly decoded tables.
    A certificate repeats some sub-documents (a factor is also the target
    of the witness inclusion), and a sweep repeats values across documents,
    so each bitorsor, pi_group and pi_bitorsor is checked once per process
    (_checked)."""

    def __init__(self, doc: dict, resolver: Mapping[str, Sequence] | None, eq):
        self._resolver = dict(resolver or {})
        self._groups = [group_from_json(entry, self._resolver) for entry in doc["groups"]]
        self._eq = eq  # imported once per document, not once per value

    def group(self, i) -> FiniteGroup:
        if type(i) is not int:
            raise ParseError(f"expected a JSON integer, got {i!r}")
        if not (0 <= i < len(self._groups)):
            raise ParseError(f"group reference {i} out of range")
        return self._groups[i]

    def hom(self, d: dict) -> GroupHom:
        return GroupHom(
            self.group(d["src"]), self.group(d["dst"]), check_ints(tuple(d["map"]), ParseError, "map", table=False)
        )

    def sub(self, d: dict) -> Subgroup:
        return subgroup(self.group(d["parent"]), check_ints(tuple(d["members"]), ParseError, "members", table=False))

    def bitorsor(self, d: dict) -> Bitorsor:
        lg, rg = self.group(d["left_group"]), self.group(d["right_group"])
        la, ra = (_decode_table(d[key], self._resolver, key) for key in ("left_act", "right_act"))
        return _checked(self._eq.Bitorsor.from_tables, (lg.label, rg.label), lg, rg, la, ra)

    def pi_group(self, d: dict) -> eq.PiGroup:
        g, pi, rows = self.group(d["group"]), self.group(d["pi"]), _json_rows(d["action"], "action")
        return _checked(self._eq.PiGroup, (g.label, pi.label), g, pi, rows)

    def pi_bitorsor(self, d: dict) -> eq.PiBitorsor:
        left, right = self.pi_group(d["left"]), self.pi_group(d["right"])
        b, pa = self.bitorsor(d["bitorsor"]), _decode_table(d["points_action"], self._resolver, "points_action")
        labels = tuple(g.label for g in (left.group, left.pi, right.group, right.pi, b.left_group, b.right_group))
        return _checked(self._eq.PiBitorsor.from_tables, labels, left, right, b, pa)

    def pi_morphism(self, d: dict) -> eq.PiMorphism:
        src = self.pi_bitorsor(d["src"])
        dst = self.pi_bitorsor(d["dst"])
        inner = self._eq.BitorsorMorphism(
            src.bitorsor,
            dst.bitorsor,
            self.hom(d["phi_left"]),
            check_ints(tuple(d["point_map"]), ParseError, "point_map", table=False),
            self.hom(d["phi_right"]),
        )
        return self._eq.PiMorphism(src, dst, inner)


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
    from . import devissage as dv
    from . import equivariant as eq

    try:
        if doc.get("schema") != SCHEMA:
            raise ParseError(f"unsupported schema {doc.get('schema')!r}")
        if doc.get("kind") != "decomposition-certificate":
            raise ParseError(f"unsupported document kind {doc.get('kind')!r}")
        r = _Reader(doc, resolver, eq)
        ed = doc["extension"]
        big = r.group(ed["pi_big"])
        e = dv.SplitExtension(
            big,
            subgroup(big, check_ints(tuple(ed["gamma"]), ParseError, "gamma", table=False)),
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
