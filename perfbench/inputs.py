"""Seeded inputs for the three workloads.

The program under test receives only the files written here and an argv.
Seed 0 passes every group by its canonical constructor spec.  Any other seed
relabels every group by a seeded permutation of its element indices (the
identity never lands on 0) and passes it as a group file, because the greedy
generating sets, and with them the hom-search cost, depend on element order.
The survey ladder is the exception (see `_survey`).  Where a command names a
class by index, the index is either swept (every class runs) or remapped to
the class that the canonical index names, so every seed runs the same work
up to relabelling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Criterion 6 of the acceptance battery: five extension shapes (n, m, k) for
# C_n x| C_m with the generator acting by k-th powers, every section, six
# structure groups, every class.
SWEEP_SHAPES = ((3, 2, 2), (4, 2, 3), (3, 2, 1), (5, 4, 2), (7, 3, 2))
SWEEP_GROUPS = ("cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6", "symmetric:3", "dihedral:4")

# Tame triples (q, n, m) and structure groups for local-survey.
SURVEYS = (
    ((3, 4, 2), "symmetric:4"),
    ((2, 3, 2), "symmetric:4"),
    ((2, 7, 3), "symmetric:4"),
    ((5, 4, 1), "symmetric:4"),
    ((2, 5, 4), "symmetric:4"),
    ((3, 4, 2), "dihedral:4"),
    ((2, 3, 2), "dihedral:12"),
)

# A child that overruns its budget is killed and counts as failed.
COLD_BUDGET_S = 60.0
# The S5 survey ran for more than five minutes uncapped at the commit that
# introduced this benchmark; it runs under this budget as a known failure.
S5_SURVEY_BUDGET_S = 15.0
INPROCESS_BUDGET_S = 30.0


@dataclass(frozen=True)
class Op:
    """One CLI command.  `stdout_to` names the file the command's stdout is
    saved to (a certificate for a later `verify`).  Ops that share a
    `fact_key` are compared, at seeds other than 0, as one multiset of
    label-invariant facts."""

    id: str
    kind: str
    argv: tuple[str, ...]
    fact_key: str
    budget_s: float
    stdout_to: str | None = None


@dataclass
class Inputs:
    workload: str
    seed: int
    ops: list[Op] = field(default_factory=list)
    # True when every op sees the canonical inputs, so stdout must match
    # the recorded sha256 byte for byte.
    exact: bool = True
    # Ops that fail at the commit that introduced the benchmark.  They run
    # after the timed phase and are reported, not gated.
    known_failures: list[tuple[Op, str]] = field(default_factory=list)


def _fm():
    from bitorsor_kit import formats

    return formats


def _permutation(n: int, identity: int, seed: int, name: str) -> list[int]:
    """sigma[old] = new, seeded by (seed, name); the identity avoids 0."""
    sigma = list(range(n))
    random.Random(f"perfbench:{seed}:{name}").shuffle(sigma)
    if n > 1 and sigma[identity] == 0:
        j = (identity + 1) % n
        sigma[identity], sigma[j] = sigma[j], sigma[identity]
    return sigma


def _invert(sigma: list[int]) -> list[int]:
    back = [0] * len(sigma)
    for old, new in enumerate(sigma):
        back[new] = old
    return back


def _group_text(g, sigma: list[int]) -> str:
    """The group file of g with every element index x renamed sigma[x]."""
    back = _invert(sigma)
    lines = [f"group {g.label} order {g.order}"]
    for a in range(g.order):
        row = g.mul[back[a]]
        lines.append(" ".join(str(sigma[row[back[b]]]) for b in range(g.order)))
    lines.append("generators " + " ".join(str(sigma[x]) for x in g.generators))
    return "\n".join(lines) + "\n"


class _Writer:
    """Writes the seed's files into `work` and resolves group specs to the
    argument each command receives."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self._groups: dict[tuple[str, str], tuple[object, list[int], str]] = {}
        self._sections: dict[tuple[int, int, int], tuple] = {}
        work.mkdir(parents=True, exist_ok=True)

    def group(self, spec: str, tag: str = ""):
        """(canonical group, sigma, argument) for a constructor spec; each
        tag gets its own relabelling."""
        key = (spec, tag)
        if key not in self._groups:
            g = _fm().resolve_group_spec(spec)
            if self.seed == 0:
                sigma, arg = list(range(g.order)), spec
            else:
                sigma = _permutation(g.order, g.identity, self.seed, f"{spec}@{tag}")
                path = self.work / f"group-{spec.replace(':', '_')}{'-' if tag else ''}{tag}.txt"
                path.write_text(_group_text(g, sigma))
                arg = str(path)
            self._groups[key] = (g, sigma, arg)
        return self._groups[key]

    def arg(self, spec: str, tag: str = "") -> str:
        return self.group(spec, tag)[2]

    def local(self, spec: str, tag: str = "") -> str:
        """The group as named inside a file in `work`."""
        return spec if self.seed == 0 else Path(self.arg(spec, tag)).name

    def sections(self, shape: tuple[int, int, int]):
        """(semidirect product, all its sections) for C_n x| C_m."""
        if shape not in self._sections:
            from bitorsor_kit import groups as G

            n_grp, q_grp, acts = G.cyclic_power_action(*shape)
            sd = G.semidirect_product(n_grp, q_grp, acts)
            self._sections[shape] = (sd, G.sections_of(sd.projection))
        return self._sections[shape]

    def extension(self, shape: tuple[int, int, int], section_index: int | None = None, tag: str = "") -> str:
        """Write the split extension C_n x| C_m -> C_m with the canonical
        section, or with the section_index-th of all sections; `tag` picks
        the relabelling of C_n x| C_m."""
        from bitorsor_kit import groups as G

        n, m, k = shape
        spec = f"semidirect:{n}:{m}:{k}"
        big, sigma, _ = self.group(spec, tag)
        sd, sections = self.sections(shape)
        s = sd.section if section_index is None else sections[section_index]
        tau = list(range(m)) if self.seed == 0 else _permutation(m, 0, self.seed, f"{spec}@{tag}/small")
        gamma = sorted(sigma[x] for x in G.kernel(sd.projection).members)
        p = [0] * big.order
        for x in range(big.order):
            p[sigma[x]] = tau[sd.projection.map[x]]
        s_map = [0] * m
        for a in range(m):
            s_map[tau[a]] = sigma[s.map[a]]
        path = self.work / f"ext-{n}_{m}_{k}-s{section_index or 0}.txt"
        path.write_text(
            f"extension {n}_{m}_{k}\n"
            f"pi_big {self.local(spec, tag)}\n"
            "gamma " + " ".join(map(str, gamma)) + "\n"
            "p " + " ".join(map(str, p)) + "\n"
            "s " + " ".join(map(str, s_map)) + "\n"
        )
        return str(path)

    def class_index(self, pi_spec: str, g_spec: str, canonical: int) -> int:
        """The class of the relabelled (pi, G) that the canonical class
        index names."""
        if self.seed == 0:
            return canonical
        from bitorsor_kit import equivariant as eq
        from bitorsor_kit import groups as G
        from bitorsor_kit import rclass as rc

        pi, s_pi, pi_arg = self.group(pi_spec)
        g, s_g, g_arg = self.group(g_spec)
        theta = eq.h1(pi, g)[canonical].theta.map
        pi2 = _fm().resolve_group_spec(pi_arg)
        g2 = _fm().resolve_group_spec(g_arg)
        back = _invert(s_pi)
        moved = tuple(s_g[theta[back[a]]] for a in range(pi.order))
        return rc.class_index_of_hom(G.GroupHom(pi2, g2, moved))


def _sweep(w: _Writer, inp: Inputs, class_counts: dict[str, int]) -> None:
    # Each (extension, group) input gets its own relabelling, so a pass
    # averages the element-order effect over about a hundred labellings
    # instead of riding on one.
    for shape in SWEEP_SHAPES:
        tag = "{}_{}_{}".format(*shape)
        for si in range(len(w.sections(shape)[1])):
            ext = w.extension(shape, si, tag=f"s{si}")
            for spec in SWEEP_GROUPS:
                key = f"{tag}|{spec}"
                for ci in range(class_counts[key]):
                    oid = f"{tag}.s{si}|{spec}|c{ci}"
                    cert = str(w.work / f"cert-{tag}-s{si}-{spec.replace(':', '_')}-c{ci}.json")
                    inp.ops.append(Op(
                        "decompose " + oid, "decompose",
                        ("decompose", "--extension", ext, "--group", w.arg(spec, f"{tag}-s{si}"),
                         "--class", str(ci), "--format", "json"),
                        "decompose " + key, INPROCESS_BUDGET_S, stdout_to=cert,
                    ))
                    inp.ops.append(Op(
                        "verify " + oid, "verify", ("verify", "--certificate", cert),
                        "verify " + key, INPROCESS_BUDGET_S,
                    ))


def _survey(inp: Inputs) -> None:
    # Canonical element order at every seed: relabelling S4 and D12 moved a
    # pass between 5.7 s and 16.2 s over seeds 0-7, because the greedy
    # generating sets that size the hom search depend on element order.
    # The seed rotates the order in which the surveys run instead.
    shift = inp.seed % len(SURVEYS)
    for (q, n, m), spec in SURVEYS[shift:] + SURVEYS[:shift]:
        oid = f"local-survey {q},{n},{m}|{spec}"
        inp.ops.append(Op(
            oid, "local-survey",
            ("local-survey", "--q", str(q), "--n", str(n), "--m", str(m), "--group", spec),
            oid, INPROCESS_BUDGET_S,
        ))


def _round_trip(w: _Writer, inp: Inputs, shape: tuple[int, int, int], spec: str, canonical: int) -> Op:
    """Add a `decompose --format json` of the canonical class over `spec`
    along C_n x| C_m and return the `verify` of its certificate."""
    tag = "{}_{}_{}".format(*shape)
    ci = w.class_index("semidirect:{}:{}:{}".format(*shape), spec, canonical)
    oid = f"{tag}|{spec}|c{canonical}"
    cert = str(w.work / f"cert-{tag}-{spec.replace(':', '_')}.json")
    inp.ops.append(Op(
        "decompose " + oid, "decompose",
        ("decompose", "--extension", w.extension(shape), "--group", w.arg(spec),
         "--class", str(ci), "--format", "json"),
        "decompose " + oid, COLD_BUDGET_S, stdout_to=cert,
    ))
    return Op("verify " + oid, "verify", ("verify", "--certificate", cert), "verify " + oid, COLD_BUDGET_S)


def _cold(w: _Writer, inp: Inputs) -> None:
    def add(oid: str, argv: tuple[str, ...]) -> None:
        inp.ops.append(Op(oid, argv[0], argv, oid, COLD_BUDGET_S))

    ladder = ("dihedral:60", "dihedral:100", "symmetric:5")
    for spec in ladder:
        add(f"validate-group {spec}", ("validate-group", "--group", w.arg(spec)))
    for spec in ladder:
        add(f"h1 cyclic:2|{spec}", ("h1", "--pi", w.arg("cyclic:2"), "--group", w.arg(spec)))
    # The round trips avoid large hom searches: a C7:C3 class over D12 took
    # 0.46 s to 2.69 s over seeds, which is the survey ladder's mechanism.
    inp.ops.append(_round_trip(w, inp, (5, 4, 2), "symmetric:3", 1))
    big = _round_trip(w, inp, (13, 3, 3), "symmetric:3", 1)
    inp.known_failures.append((big, "verify exits 2: formats.ParseError: unresolved table reference"))

    for pi_spec, spec, members, target, max_n in (
        ("cyclic:12", "cyclic:12", (1,), 11, 12),
        ("cyclic:2", "dihedral:60", (1, 2), 3, 4),
    ):
        reg = w.work / f"registry-{spec.replace(':', '_')}.txt"
        reg.write_text("".join(
            f"elementary {w.local(spec)} {w.class_index(pi_spec, spec, c)}\n" for c in members
        ))
        add(f"closure {pi_spec}|{spec}|c{target}", (
            "closure", "--pi", w.arg(pi_spec), "--registry", str(reg), "--group", w.arg(spec),
            "--class", str(w.class_index(pi_spec, spec, target)), "--max-n", str(max_n),
        ))

    s5 = "local-survey 2,3,2|symmetric:5"
    inp.known_failures.append((
        Op(s5, "local-survey",
           ("local-survey", "--q", "2", "--n", "3", "--m", "2", "--group", w.arg("symmetric:5")),
           s5, S5_SURVEY_BUDGET_S),
        f"runs past its {S5_SURVEY_BUDGET_S:g} s budget (more than 5 minutes uncapped)",
    ))


WORKLOADS = ("decompose-sweep", "survey-ladder", "cli-cold-ladder")


def generate(workload: str, seed: int, work: Path, class_counts: dict[str, int]) -> Inputs:
    """Write the files for (workload, seed) into `work` and list the ops.
    `class_counts` holds the recorded number of classes per sweep input,
    a label-invariant fact."""
    inp = Inputs(workload, seed, exact=seed == 0 or workload == "survey-ladder")
    w = _Writer(work, seed)
    if workload == "decompose-sweep":
        _sweep(w, inp, class_counts)
    elif workload == "survey-ladder":
        _survey(inp)
    elif workload == "cli-cold-ladder":
        _cold(w, inp)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inp
