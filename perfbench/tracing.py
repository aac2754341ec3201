"""Outside-in tracing of bitorsor_kit: no file under src/ changes.

`Tracer.install()` wraps every public module-level function of each layer
module and the `__post_init__` validator of every class the module defines,
then rebinds every attribute of every bitorsor_kit module that refers to a
wrapped function (the modules import each other's functions by name, so
`equivariant.isomorphisms_between` is the same object as
`groups.isomorphisms_between`).  `uninstall()` restores every binding.

Each call records one span (name, parent, start, end) in flat arrays kept in
memory; `dump()` writes them out once, `Summary` folds dumps into per-layer
totals and `metrics()` turns those into the per-layer metrics.  A layer's self time is its spans' time minus the
time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("groups", "bitorsors", "equivariant", "devissage", "rclass", "formats", "local_model", "cli")
# Functions memoized with functools.lru_cache whose hit ratio is reported.
CACHED = (
    ("groups", "all_subgroups"),
    ("equivariant", "h1"),
    ("rclass", "wedge_class_index"),
)
PARSE = ("parse_group", "parse_extension", "parse_registry", "resolve_group_spec",
         "group_from_json", "decomposition_from_json")
EMIT = ("format_group", "format_extension", "format_registry", "group_to_json",
        "decomposition_to_json", "table_digest", "resolver_for_groups")


def _modules():
    import bitorsor_kit

    mods = {name: importlib.import_module(f"bitorsor_kit.{name}") for name in LAYERS}
    return bitorsor_kit, mods


def _candidates(args, kwargs) -> int:
    src, dst = args[0], args[1]
    pools = kwargs.get("candidates", args[2] if len(args) > 2 else None)
    if pools is None:
        return dst.order ** len(src.generators)
    return math.prod(len(p) for p in pools)


def _post_enumerate_homs(counters, args, kwargs, result):
    counters["groups.enumerate_homs.candidates"] += _candidates(args, kwargs)
    counters["groups.enumerate_homs.found"] += len(result)


def _post_isomorphisms_between(counters, args, kwargs, result):
    a, b = args[0], args[1]
    if a.order == b.order:
        counters["groups.isomorphisms_between.candidates"] += b.order ** len(a.generators)
    counters["groups.isomorphisms_between.found"] += len(result)


def _post_verify(counters, args, kwargs, result):
    if not result.ok:
        counters["devissage.verify_decomposition.rejects"] += 1


def _post_survey(counters, args, kwargs, result):
    counters["local_model.survey.rows"] += len(result.rows)


POST = {
    "groups.enumerate_homs": _post_enumerate_homs,
    "groups.isomorphisms_between": _post_isomorphisms_between,
    "devissage.verify_decomposition": _post_verify,
    "local_model.survey": _post_survey,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cache_before: dict[str, tuple[int, int]] = {}

    def _wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        parent, name, start, end = self.parent, self.name, self.start, self.end
        stack, clock, counters = self._stack, time.perf_counter, self.counters
        post = POST.get(span)

        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if post is not None:
                post(counters, args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        package, mods = _modules()
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if "__post_init__" in vars(obj):
                        orig = vars(obj)["__post_init__"]
                        self._restore.append((obj, "__post_init__", orig))
                        setattr(obj, "__post_init__", self._wrap(f"{layer}.validate.{obj.__name__}", orig))
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in [package, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, fn in CACHED:
            info = getattr(mods[layer], fn).cache_info()
            self._cache_before[f"{layer}.{fn}"] = (info.hits, info.misses)

    def uninstall(self) -> None:
        _, mods = _modules()
        for layer, fn in CACHED:
            info = getattr(mods[layer], fn).cache_info()
            h0, m0 = self._cache_before[f"{layer}.{fn}"]
            self.counters[f"{layer}.{fn}.cache_hits"] += info.hits - h0
            self.counters[f"{layer}.{fn}.cache_misses"] += info.misses - m0
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        """Write the spans and counters once: `path` holds the arrays,
        `path.json` the names, counters and span count."""
        with open(path, "wb") as fh:
            for arr in (self.parent, self.name, self.start, self.end):
                arr.tofile(fh)
        Path(f"{path}.json").write_text(json.dumps(
            {"names": self.names, "counters": dict(self.counters), "spans": len(self.start)}
        ))


def load(path: Path) -> tuple[list[str], dict, array, array, array, array]:
    meta = json.loads(Path(f"{path}.json").read_text())
    n = meta["spans"]
    arrays = [array("q"), array("q"), array("d"), array("d")]
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return meta["names"], meta["counters"], *arrays


class Summary:
    """Per-layer totals accumulated over any number of span dumps."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.validate_s: dict[str, float] = defaultdict(float)
        self.fn_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.parse_s = 0.0
        self.emit_s = 0.0
        self.decompose_disconnected = 0

    def add(self, path: Path) -> None:
        names, counters, parent, name, start, end = load(path)
        for k, v in counters.items():
            self.counters[k] += v
        n = len(start)
        layer_of = [s.split(".", 1)[0] for s in names]
        fn_of = [s.split(".", 1)[1] for s in names]
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        decompose_ids = {i for i, s in enumerate(names) if s == "devissage.decompose"}
        component_id = names.index("equivariant.connected_component") if "equivariant.connected_component" in names else -1
        disconnected = set()
        for i in range(n):
            nid = name[i]
            layer, fn = layer_of[nid], fn_of[nid]
            self.self_s[layer] += dur[i] - child[i]
            self.calls[names[nid]] += 1
            # Inclusive time counts only outermost calls of a name, and
            # validate/parse/emit time only spans not nested in another
            # span of the same kind in the same layer.
            p, outer_same, outer_validate, outer_io = parent[i], True, True, True
            is_validate = fn.startswith("validate.")
            io = fn in PARSE or fn in EMIT
            while p >= 0:
                pn = name[p]
                if pn == nid:
                    outer_same = False
                if layer_of[pn] == layer and fn_of[pn].startswith("validate."):
                    outer_validate = False
                if layer_of[pn] == "formats" and (fn_of[pn] in PARSE or fn_of[pn] in EMIT):
                    outer_io = False
                if nid == component_id and pn in decompose_ids:
                    disconnected.add(p)
                p = parent[p]
            if outer_same:
                self.fn_s[names[nid]] += dur[i]
            if is_validate and outer_validate:
                self.validate_s[layer] += dur[i]
            if layer == "formats" and io and outer_io:
                if fn in PARSE:
                    self.parse_s += dur[i]
                else:
                    self.emit_s += dur[i]
        self.decompose_disconnected += len(disconnected)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(s: Summary, passes: int, stdout_bytes: int, certificate_bytes: int, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass, as name -> (value, unit)."""
    per = 1.0 / passes
    c, calls, fn_s = s.counters, s.calls, s.fn_s
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (s.self_s[layer] * per, "s")
    for layer, types in (
        ("groups", ("FiniteGroup", "GroupHom", "Subgroup")),
        ("bitorsors", ("Bitorsor", "BitorsorMorphism")),
        ("equivariant", ("PiGroup", "PiBitorsor", "PiMorphism")),
    ):
        out[f"{layer}.validate_s"] = (s.validate_s[layer] * per, "s")
        for t in types:
            out[f"{layer}.validate.{t}.count"] = (calls[f"{layer}.validate.{t}"] * per, "count")
    out["groups.make_group.s"] = (fn_s["groups.make_group"] * per, "s")
    out["groups.enumerate_homs.calls"] = (calls["groups.enumerate_homs"] * per, "count")
    out["groups.enumerate_homs.s"] = (fn_s["groups.enumerate_homs"] * per, "s")
    out["groups.enumerate_homs.candidates"] = (c["groups.enumerate_homs.candidates"] * per, "count")
    out["groups.enumerate_homs.hit_ratio"] = (
        _ratio(c["groups.enumerate_homs.found"], c["groups.enumerate_homs.candidates"]), "ratio")
    out["groups.isomorphisms_between.calls"] = (calls["groups.isomorphisms_between"] * per, "count")
    out["groups.isomorphisms_between.s"] = (fn_s["groups.isomorphisms_between"] * per, "s")
    out["groups.isomorphisms_between.hit_ratio"] = (
        _ratio(c["groups.isomorphisms_between.found"], c["groups.isomorphisms_between.candidates"]), "ratio")
    for fn in ("contracted_product", "pushforward", "from_right_torsor", "trivial_bitorsor"):
        out[f"bitorsors.{fn}.s"] = (fn_s[f"bitorsors.{fn}"] * per, "s")
    out["equivariant.from_theta.calls"] = (calls["equivariant.from_theta"] * per, "count")
    for fn in ("from_theta", "pi_isomorphism", "pi_factor_through_pushforwards", "h1", "classify"):
        out[f"equivariant.{fn}.s"] = (fn_s[f"equivariant.{fn}"] * per, "s")
    out["equivariant.pi_factor_through_pushforwards.calls"] = (
        calls["equivariant.pi_factor_through_pushforwards"] * per, "count")
    decomposes = calls["devissage.decompose"]
    out["devissage.decompose.calls"] = (decomposes * per, "count")
    out["devissage.decompose.s"] = (fn_s["devissage.decompose"] * per, "s")
    out["devissage.verify_decomposition.s"] = (fn_s["devissage.verify_decomposition"] * per, "s")
    out["devissage.verify_decomposition.rejects"] = (c["devissage.verify_decomposition.rejects"] * per, "count")
    out["devissage.connected_share"] = (_ratio(decomposes - s.decompose_disconnected, decomposes), "ratio")
    out["rclass.in_closure.s"] = (fn_s["rclass.in_closure"] * per, "s")
    out["rclass.wedge_class_index.calls"] = (calls["rclass.wedge_class_index"] * per, "count")
    for layer, fn in CACHED:
        hits, misses = c[f"{layer}.{fn}.cache_hits"], c[f"{layer}.{fn}.cache_misses"]
        out[f"{layer}.{fn}.cache_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    out["formats.parse_s"] = (s.parse_s * per, "s")
    out["formats.emit_s"] = (s.emit_s * per, "s")
    out["formats.certificate_bytes"] = (certificate_bytes * per, "bytes")
    out["formats.sha256_refs"] = (calls["formats.table_digest"] * per, "count")
    out["local_model.survey.rows"] = (c["local_model.survey.rows"] * per, "count")
    out["cli.stdout_bytes"] = (stdout_bytes * per, "bytes")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
