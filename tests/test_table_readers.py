"""The row-at-a-time table readers against their entry-by-entry references
(tests/reference_checks.py, loop_*): the same groups from every ladder
constructor and relabelled file, and on every mutated table, group file and
extension file the same exception class, message, line and column."""

from __future__ import annotations

import random

import pytest

import reference_checks as ref
from bitorsor_kit import formats as F
from bitorsor_kit import groups as G

# A Latin square with a two-sided identity that is not associative.
LOOP6 = (
    (0, 1, 2, 3, 4, 5),
    (1, 0, 3, 2, 5, 4),
    (2, 3, 4, 5, 0, 1),
    (3, 2, 5, 4, 1, 0),
    (4, 5, 0, 1, 3, 2),
    (5, 4, 1, 0, 2, 3),
)
SPACES = (" ", "\t", "\u00a0", "\u2003", "\u3000", "\x1f", "  ")


def fields(g) -> tuple:
    return g.mul, g.identity, g.inv, g.generators, g.label


def outcome(build, *args):
    """The value's fields, or the exception's class, message and position."""
    try:
        value = build(*args)
    except Exception as exc:  # the class itself is compared
        return type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    if isinstance(value, (G.FiniteGroup, ref.LoopFiniteGroup)):
        return fields(value)
    return fields(value.pi_big), value.gamma.members, fields(value.pi_small), value.p.map, value.s.map


def loop_constructor(spec: str):
    head, *args = spec.split(":")
    ns = [int(a) for a in args]
    if head == "symmetric":
        return ref.loop_symmetric(*ns)
    if head == "dihedral":
        (n,) = ns
        return ref.loop_semidirect_product(*G.cyclic_power_action(n, 2, n - 1), f"D{n}").group
    if head == "semidirect":
        return ref.loop_semidirect_product(*G.cyclic_power_action(*ns)).group
    (n,) = ns
    return ref.loop_make_group([[(i + j) % n for j in range(n)] for i in range(n)], (1 % n,), f"C{n}")


LADDER = (
    "dihedral:60", "dihedral:100", "symmetric:5", "semidirect:13:3:3",
    "semidirect:5:4:2", "semidirect:7:3:2", "cyclic:12", "cyclic:2", "symmetric:3",
    "symmetric:1", "cyclic:1", "dihedral:1",
)


def relabelled_text(g: G.FiniteGroup, rnd: random.Random, space: str = " ") -> str:
    """g as a group file under a random relabelling that moves the identity
    off its index whenever the order allows."""
    sigma = list(g.elements)
    while True:
        rnd.shuffle(sigma)
        if g.order == 1 or sigma[g.identity] != g.identity:
            break
    back = [0] * g.order
    for x, y in enumerate(sigma):
        back[y] = x
    lines = [f"# relabelled {g.label}", f"group R{g.label} order {g.order}"]
    for a in range(g.order):
        row = g.mul[back[a]]
        lines.append(space.join(str(sigma[row[back[b]]]) for b in range(g.order)))
    lines.append("generators " + " ".join(str(sigma[x]) for x in g.generators))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec", LADDER)
def test_constructors_build_the_reference_tables(spec):
    got = F.resolve_group_spec(spec)
    want = loop_constructor(spec)
    assert fields(got) == fields(want)
    assert type(want) is ref.LoopFiniteGroup


@pytest.mark.parametrize("shape", [(13, 3, 3), (5, 4, 2), (7, 2, 6)])
def test_semidirect_maps_match_the_reference(shape):
    args = G.cyclic_power_action(*shape)
    got, want = G.semidirect_product(*args), ref.loop_semidirect_product(*args)
    for name in ("inclusion", "projection", "section"):
        assert getattr(got, name).map == getattr(want, name).map


@pytest.mark.parametrize("spec", LADDER)
def test_relabelled_files_parse_to_the_reference_group(spec, tmp_path):
    rnd = random.Random(spec)
    text = relabelled_text(F.resolve_group_spec(spec), rnd, rnd.choice(SPACES))
    want = outcome(ref.loop_parse_group, text)
    assert outcome(F.parse_group, text) == want
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert outcome(F.resolve_group_spec, str(path)) == want
    assert want[-1] == "R" + F.resolve_group_spec(spec).label


def mutate_file(text: str, kind: str, rnd: random.Random) -> str:
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines) if line and line[0].isdigit()]
    i = rnd.choice(rows)
    toks = lines[i].split(" ")
    j = rnd.randrange(len(toks))
    n = len(toks)
    if kind == "token":
        toks[j] = rnd.choice(["x", "1.5", "0x1", "--1", "1e2", "½"])
    elif kind == "range":
        toks[j] = str(rnd.choice([n, n + 1, -1, 10**6]))
    elif kind == "short":
        del toks[j]
    elif kind == "long":
        toks.insert(j, toks[j])
    elif kind == "entry":
        toks[j] = str(rnd.choice([v for v in range(n) if str(v) != toks[j]] or [0]))
    elif kind == "swap":
        j2 = rnd.randrange(n)
        toks[j], toks[j2] = toks[j2], toks[j]
    elif kind == "rows":
        i2 = rnd.choice(rows)
        lines[i], lines[i2] = lines[i2], lines[i]
        return "\n".join(lines)
    elif kind == "unicode":
        digits = {"0": ("٠", "０", "0"), "1": ("١", "𝟏", "1")}
        toks = [rnd.choice(digits[t]) if t in digits else t for t in toks]
        return "\n".join(lines[:i] + [rnd.choice(SPACES).join(toks)] + lines[i + 1:])
    elif kind == "generators":
        g = lines.index(next(line for line in lines if line.startswith("generators")))
        lines[g] += " " + rnd.choice(["x", str(n), "-1", ""])
        return "\n".join(lines)
    lines[i] = " ".join(toks)
    return "\n".join(lines)


KINDS = ("token", "range", "short", "long", "entry", "swap", "rows", "unicode", "generators")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("spec", ["symmetric:3", "dihedral:4", "semidirect:5:4:2", "semidirect:7:3:2"])
def test_mutated_group_files_fail_as_the_reference_does(spec, kind):
    g = F.resolve_group_spec(spec)
    for seed in range(12):
        rnd = random.Random(f"{spec}/{kind}/{seed}")
        text = mutate_file(relabelled_text(g, rnd), kind, rnd)
        assert outcome(F.parse_group, text) == outcome(ref.loop_parse_group, text), text


@pytest.mark.parametrize("kind", ("token", "range", "short", "entry", "swap"))
def test_mutated_ladder_files_fail_as_the_reference_does(kind):
    g = F.resolve_group_spec("dihedral:60")
    rnd = random.Random(kind)
    text = mutate_file(relabelled_text(g, rnd), kind, rnd)
    got = outcome(F.parse_group, text)
    assert got == outcome(ref.loop_parse_group, text)
    assert got[0] in ("ParseError", "MalformedTable", "NoIdentity", "NoInverse", "NotAssociative",
                      "GeneratorsDoNotGenerate")


def test_a_loop_file_is_not_associative():
    text = "group L order 6\n" + "".join(" ".join(map(str, r)) + "\n" for r in LOOP6)
    for gens in ("1 2", "2 1", "4", "2 3"):
        got = outcome(F.parse_group, text + f"generators {gens}\n")
        assert got == outcome(ref.loop_parse_group, text + f"generators {gens}\n")
    assert got[0] == "NotAssociative"


def corrupt_table(table, rnd: random.Random):
    rows = [list(r) for r in table]
    n = len(rows)
    kind = rnd.randrange(6)
    i, j = rnd.randrange(n), rnd.randrange(n)
    if kind == 0:
        rows[i][j] = rnd.choice([n, -1, (rows[i][j] + 1) % n])
    elif kind == 1:
        i2 = rnd.randrange(n)
        rows[i], rows[i2] = rows[i2], rows[i]
    elif kind == 2:
        j2 = rnd.randrange(n)
        for r in rows:
            r[j], r[j2] = r[j2], r[j]
    elif kind == 3:
        del rows[i][j]
    elif kind == 4:
        rows[i][j] = rnd.choice(["3", 2.0, True, "x", None])
    return rows


@pytest.mark.parametrize("spec", ["symmetric:3", "dihedral:6", "semidirect:7:3:2", "cyclic:9"])
def test_make_group_fails_as_the_reference_does(spec):
    g = F.resolve_group_spec(spec)
    for seed in range(40):
        rnd = random.Random(f"{spec}/{seed}")
        table = corrupt_table(g.mul, rnd)
        gens = rnd.choice([g.generators, g.generators[:1], (g.order - 1,), (g.identity,)])
        assert outcome(G.make_group, table, gens) == outcome(ref.loop_make_group, table, gens)


@pytest.mark.parametrize("spec", ["symmetric:3", "dihedral:6", "semidirect:7:3:2"])
def test_finite_group_validator_fails_as_the_reference_does(spec):
    """The constructor takes its table and generators as given and reads
    off the identity and inverses as the reference make_group discovers
    them, with no conversion to int.  The reference took any entry; the
    constructor refuses a table with an entry that is not an int first,
    naming that entry."""
    g = F.resolve_group_spec(spec)
    n = g.order
    typed = 0
    for seed in range(40):
        rnd = random.Random(f"{spec}/{seed}")
        mul = tuple(map(tuple, corrupt_table(g.mul, rnd))) if rnd.randrange(2) else g.mul
        gens = rnd.choice([g.generators, (), (n,), g.generators[:1]])
        bad = [(i, j, v) for i, row in enumerate(mul) for j, v in enumerate(row) if type(v) is not int]
        if bad:
            message = "entry ({},{}) = {!r} is not an int".format(*bad[0])
            assert outcome(G.FiniteGroup, mul, gens, "X")[:2] == ("MalformedTable", message)
            typed += 1
        else:
            assert outcome(G.FiniteGroup, mul, gens, "X") == outcome(ref.loop_finite_group, mul, gens, "X")
    assert typed > 0
    loop = (LOOP6, (1, 2), "L")
    assert outcome(G.FiniteGroup, *loop) == outcome(ref.loop_make_group, *loop)
    assert outcome(G.FiniteGroup, *loop)[0] == "NotAssociative"


@pytest.mark.parametrize("n, m, k", [(7, 3, 3), (5, 3, 2), (13, 3, 2), (9, 2, 2)])
def test_a_non_action_fails_as_the_reference_does(n, m, k):
    args = G.cyclic_power_action(n, m, k)
    got = outcome(lambda *a: G.semidirect_product(*a).group, *args)
    assert got == outcome(lambda *a: ref.loop_semidirect_product(*a).group, *args)
    assert got[0] == "NotAnAction"


def extension_text(n: int, m: int, k: int, rnd: random.Random) -> str:
    sd = G.semidirect_product(*G.cyclic_power_action(n, m, k))
    gamma = G.kernel(sd.projection).members
    space = rnd.choice(SPACES)
    return (
        f"extension e{n}\npi_big semidirect:{n}:{m}:{k}\n"
        + "gamma " + space.join(map(str, gamma)) + "\n"
        + "p " + space.join(map(str, sd.projection.map)) + "\n"
        + "s " + space.join(map(str, sd.section.map)) + "\n"
    )


def mutate_extension(text: str, rnd: random.Random) -> str:
    lines = text.split("\n")
    i = rnd.choice([2, 3, 4])
    head, *toks = lines[i].split()
    j = rnd.randrange(len(toks))
    kind = rnd.randrange(5)
    if kind == 0:
        toks[j] = rnd.choice(["x", "1.5", "-1", str(10**6)])
    elif kind == 1:
        toks[j] = str((int(toks[j]) + 1) % len(toks))
    elif kind == 2:
        del toks[j]
    elif kind == 3:
        j2 = rnd.randrange(len(toks))
        toks[j], toks[j2] = toks[j2], toks[j]
    else:
        toks[j] = "١" if toks[j] == "1" else toks[j]
    lines[i] = " ".join([head, *toks])
    return "\n".join(lines)


@pytest.mark.parametrize("shape", [(5, 4, 2), (7, 3, 2), (3, 2, 2), (13, 3, 3)])
def test_extension_files_read_as_the_reference_does(shape):
    for seed in range(25):
        rnd = random.Random(f"{shape}/{seed}")
        text = extension_text(*shape, rnd)
        if seed:
            text = mutate_extension(text, rnd)
        got = outcome(F.parse_extension, text)
        assert got == outcome(ref.loop_parse_extension, text), text
        if not seed:
            assert got[1] == tuple(sorted(got[1]))
