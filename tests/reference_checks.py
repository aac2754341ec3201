"""Test-only reference validators: the exhaustive whole-table loops that the
library constructors ran before each law was checked on generators.

They are kept verbatim as an independent oracle.  Each function takes the
fields a constructor would take, raises the exception type the constructor
raises for the same defect, and returns None when it accepts.  They assume
what the constructor may assume: group arguments are validated FiniteGroups,
hom arguments validated GroupHoms, and so on.
"""

from __future__ import annotations

from bitorsor_kit.bitorsors import InvalidBitorsor, InvalidMorphism, NotFree, NotTransitive
from bitorsor_kit.equivariant import EquivariantError, NotPiEquivariant
from bitorsor_kit.groups import (
    GeneratorsDoNotGenerate,
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotAHomomorphism,
    NotAnAction,
    NotAssociative,
    NotASubgroup,
    closure,
)


def finite_group(mul, identity, inv, generators) -> None:
    n = len(mul)
    if n == 0:
        raise MalformedTable("empty multiplication table")
    for i, row in enumerate(mul):
        if len(row) != n:
            raise MalformedTable(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not (0 <= v < n):
                raise MalformedTable(f"entry ({i},{j}) = {v} out of range")
    e = identity
    if not (0 <= e < n):
        raise NoIdentity(f"identity index {e} out of range")
    for a in range(n):
        if mul[e][a] != a or mul[a][e] != a:
            raise NoIdentity(f"declared identity {e} is not neutral at {a}")
    if len(inv) != n:
        raise NoInverse("inverse table has wrong length")
    for a in range(n):
        b = inv[a]
        if not (0 <= b < n) or mul[a][b] != e or mul[b][a] != e:
            raise NoInverse(f"element {a} has no two-sided inverse (table says {b})")
    for a in range(n):
        ra = mul[a]
        for b in range(n):
            ab = ra[b]
            rb = mul[b]
            rab = mul[ab]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    raise NotAssociative(f"first violating triple (a,b,c)=({a},{b},{c})")
    if not generators:
        raise GeneratorsDoNotGenerate("empty generator list")
    for g in generators:
        if not (0 <= g < n):
            raise GeneratorsDoNotGenerate(f"generator {g} out of range")
    got = closure(mul, generators, e)
    if len(got) != n:
        missing = min(set(range(n)) - got)
        raise GeneratorsDoNotGenerate(f"element {missing} not generated")


def make_group(mul_table, generators) -> None:
    """The discovery steps of `groups.make_group`, then `finite_group`."""
    mul = tuple(tuple(int(v) for v in row) for row in mul_table)
    n = len(mul)
    if n == 0:
        raise MalformedTable("empty multiplication table")
    for i, row in enumerate(mul):
        if len(row) != n:
            raise MalformedTable(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not (0 <= v < n):
                raise MalformedTable(f"entry ({i},{j}) = {v} out of range")
    identity = None
    for e in range(n):
        if all(mul[e][a] == a and mul[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided neutral element")
    inv = []
    for a in range(n):
        b = next((b for b in range(n) if mul[a][b] == identity and mul[b][a] == identity), None)
        if b is None:
            raise NoInverse(f"element {a} has no two-sided inverse")
        inv.append(b)
    finite_group(mul, identity, tuple(inv), tuple(int(g) for g in generators))


def group_hom(src, dst, map) -> None:
    if len(map) != src.order:
        raise NotAHomomorphism("map length differs from source order")
    for v in map:
        if not (0 <= v < dst.order):
            raise NotAHomomorphism(f"image {v} out of range")
    if map[src.identity] != dst.identity:
        raise NotAHomomorphism("identity not preserved")
    smul, dmul, m = src.mul, dst.mul, map
    for a in range(src.order):
        ma = m[a]
        row = smul[a]
        drow = dmul[ma]
        for b in range(src.order):
            if m[row[b]] != drow[m[b]]:
                raise NotAHomomorphism(f"first violating pair (a,b)=({a},{b})")


def is_normal(parent, members) -> bool:
    inside = set(members)
    return all(parent.conjugate(g, h) in inside for g in parent.elements for h in members)


def subgroup(parent, members, is_normal_flag) -> None:
    if not members:
        raise NotASubgroup("empty member list")
    if list(members) != sorted(set(members)):
        raise NotASubgroup("members must be sorted and duplicate-free")
    mul = parent.mul
    inside = set(members)
    if parent.identity not in inside:
        raise NotASubgroup("identity missing")
    for a in members:
        if not (0 <= a < parent.order):
            raise NotASubgroup(f"member {a} out of range")
        if parent.inv[a] not in inside:
            raise NotASubgroup(f"inverse of {a} missing")
        for b in members:
            if mul[a][b] not in inside:
                raise NotASubgroup(f"product of ({a},{b}) escapes the subgroup")
    normal = all(
        parent.conjugate(g, h) in inside for g in parent.elements for h in members
    )
    if is_normal_flag != normal:
        raise NotASubgroup("is_normal flag contradicts the table")


def semidirect_action(n_grp, q_grp, act) -> None:
    """The action checks of `groups.semidirect_product`."""
    if len(act) != q_grp.order:
        raise NotAnAction("one automorphism per element of the acting group required")
    for q, a in enumerate(act):
        if a.src != n_grp or a.dst != n_grp or not a.is_bijective():
            raise NotAnAction(f"entry {q} is not an automorphism of {n_grp.label}")
    if act[q_grp.identity].map != tuple(range(n_grp.order)):
        raise NotAnAction("identity of the acting group must act trivially")
    for q1 in q_grp.elements:
        for q2 in q_grp.elements:
            want = act[q_grp.mul[q1][q2]].map
            got = tuple(act[q1].map[act[q2].map[x]] for x in n_grp.elements)
            if want != got:
                raise NotAnAction(f"action fails to be a homomorphism at ({q1},{q2})")


def right_torsor(num_points, right_group, right_act) -> None:
    """The checks `bitorsors.from_right_torsor` makes before completing."""
    ra = tuple(tuple(int(v) for v in row) for row in right_act)
    if len(ra) != num_points or any(len(r) != right_group.order for r in ra):
        raise InvalidBitorsor("right action table has the wrong shape")
    for x in range(num_points):
        if ra[x][right_group.identity] != x:
            raise NotAnAction(f"right identity moves point {x}")
        for g1 in right_group.elements:
            for g2 in right_group.elements:
                if ra[x][right_group.mul[g1][g2]] != ra[ra[x][g1]][g2]:
                    raise NotAnAction(f"right action breaks at ({x},{g1},{g2})")
    for x in range(num_points):
        hit = set()
        for g in right_group.elements:
            y = ra[x][g]
            if y in hit:
                raise NotFree(f"right action is not free at point {x}")
            hit.add(y)
        if len(hit) != num_points:
            raise NotTransitive(f"right orbit of point {x} misses points")


def bitorsor(left_group, right_group, left_act, right_act) -> None:
    gl, gr = left_group, right_group
    k = len(right_act)
    if len(left_act) != gl.order:
        raise InvalidBitorsor("left action needs one row per left group element")
    if any(len(r) != k for r in left_act):
        raise InvalidBitorsor("left action rows must cover all points")
    if any(len(r) != gr.order for r in right_act):
        raise InvalidBitorsor("right action rows must cover the right group")
    if k == 0:
        raise InvalidBitorsor("empty point set")
    la, ra = left_act, right_act
    for row in la:
        for v in row:
            if not (0 <= v < k):
                raise InvalidBitorsor("left action leaves the point set")
    for row in ra:
        for v in row:
            if not (0 <= v < k):
                raise InvalidBitorsor("right action leaves the point set")
    el, er = gl.identity, gr.identity
    for x in range(k):
        if la[el][x] != x:
            raise NotAnAction(f"left identity moves point {x}")
        if ra[x][er] != x:
            raise NotAnAction(f"right identity moves point {x}")
    for g1 in gl.elements:
        for g2 in gl.elements:
            row = la[gl.mul[g1][g2]]
            r2 = la[g2]
            r1 = la[g1]
            for x in range(k):
                if row[x] != r1[r2[x]]:
                    raise NotAnAction(f"left action breaks at ({g1},{g2},{x})")
    for g1 in gr.elements:
        for g2 in gr.elements:
            g12 = gr.mul[g1][g2]
            for x in range(k):
                if ra[x][g12] != ra[ra[x][g1]][g2]:
                    raise NotAnAction(f"right action breaks at ({x},{g1},{g2})")
    for gp in gl.elements:
        for x in range(k):
            gx = la[gp][x]
            for g in gr.elements:
                if ra[gx][g] != la[gp][ra[x][g]]:
                    raise InvalidBitorsor(f"actions fail to commute at ({gp},{x},{g})")
    for x in range(k):
        seen = set()
        for gp in gl.elements:
            y = la[gp][x]
            if y in seen:
                raise NotFree(f"left action is not free at point {x}")
            seen.add(y)
        if len(seen) != k:
            raise NotTransitive(f"left orbit of point {x} misses points")
        seen = set()
        for g in gr.elements:
            y = ra[x][g]
            if y in seen:
                raise NotFree(f"right action is not free at point {x}")
            seen.add(y)
        if len(seen) != k:
            raise NotTransitive(f"right orbit of point {x} misses points")


def bitorsor_morphism(src, dst, phi_left, point_map, phi_right) -> None:
    u = point_map
    if len(u) != src.size:
        raise InvalidMorphism("point map length differs from source size")
    for v in u:
        if not (0 <= v < dst.size):
            raise InvalidMorphism(f"point image {v} out of range")
    for gp in src.left_group.elements:
        fgp = phi_left.map[gp]
        for x in src.points:
            if u[src.left_act[gp][x]] != dst.left_act[fgp][u[x]]:
                raise InvalidMorphism(f"left equivariance fails at ({gp},{x})")
    for x in src.points:
        ux = u[x]
        for g in src.right_group.elements:
            if u[src.right_act[x][g]] != dst.right_act[ux][phi_right.map[g]]:
                raise InvalidMorphism(f"right equivariance fails at ({x},{g})")


def pi_group(group, pi, action) -> None:
    if len(action) != pi.order:
        raise NotAnAction("need one automorphism per symmetry element")
    for f in action:
        if f.src != group or f.dst != group:
            raise NotAnAction("action entries must be endomorphisms of the group")
        if not f.is_bijective():
            raise NotAnAction("action entries must be automorphisms")
    ident = tuple(group.elements)
    if action[pi.identity].map != ident:
        raise NotAnAction("identity symmetry must act trivially")
    for c1 in pi.elements:
        for c2 in pi.elements:
            composed = tuple(
                action[c1].map[action[c2].map[g]]
                for g in group.elements
            )
            if action[pi.mul[c1][c2]].map != composed:
                raise NotAnAction(f"action breaks at symmetry pair ({c1},{c2})")


def is_pi_equivariant_hom(f, src, dst) -> bool:
    return all(
        f.map[src.action[c].map[g]] == dst.action[c].map[f.map[g]]
        for c in src.pi.elements
        for g in src.group.elements
    )


def pi_bitorsor(left, right, bitorsor, pi_action_on_points) -> None:
    pi = left.pi
    k = bitorsor.size
    pa = pi_action_on_points
    if len(pa) != pi.order or any(len(row) != k for row in pa):
        raise EquivariantError("point action table has the wrong shape")
    for row in pa:
        if sorted(row) != list(range(k)):
            raise EquivariantError("point action rows must be permutations")
    if pa[pi.identity] != tuple(range(k)):
        raise NotAnAction("identity symmetry moves points")
    for c1 in pi.elements:
        for c2 in pi.elements:
            row = pa[pi.mul[c1][c2]]
            for x in range(k):
                if row[x] != pa[c1][pa[c2][x]]:
                    raise NotAnAction(f"point action breaks at ({c1},{c2},{x})")
    la, ra = bitorsor.left_act, bitorsor.right_act
    for c in pi.elements:
        al = left.action[c].map
        ar = right.action[c].map
        for gp in left.group.elements:
            for x in range(k):
                if pa[c][la[gp][x]] != la[al[gp]][pa[c][x]]:
                    raise EquivariantError(
                        f"left compatibility fails at ({c},{gp},{x})"
                    )
        for x in range(k):
            for g in right.group.elements:
                if pa[c][ra[x][g]] != ra[pa[c][x]][ar[g]]:
                    raise EquivariantError(
                        f"right compatibility fails at ({c},{x},{g})"
                    )


def pi_morphism(src, dst, inner) -> None:
    pi = src.pi
    u = inner.point_map
    for c in pi.elements:
        sa = src.pi_action_on_points[c]
        da = dst.pi_action_on_points[c]
        for x in src.bitorsor.points:
            if u[sa[x]] != da[u[x]]:
                raise NotPiEquivariant(f"point map breaks symmetry {c} at {x}")
    if not is_pi_equivariant_hom(inner.phi_left, src.left, dst.left):
        raise NotPiEquivariant("left hom breaks the symmetry")
    if not is_pi_equivariant_hom(inner.phi_right, src.right, dst.right):
        raise NotPiEquivariant("right hom breaks the symmetry")
