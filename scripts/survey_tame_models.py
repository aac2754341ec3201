"""Sweep tame-quotient parameters and report how every twisting class
decomposes over a list of structure groups.

Example:
    python3 scripts/survey_tame_models.py --q-max 4 --n-max 6 --m-max 3 \
        --groups cyclic:2 symmetric:3
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from bitorsor_kit.errors import DomainError
from bitorsor_kit.formats import resolve_group_spec
from bitorsor_kit.local_model import BadParams, TameParams, survey


def valid_params(q_max: int, n_max: int, m_max: int) -> list[TameParams]:
    out = []
    for q in range(2, q_max + 1):
        for n in range(1, n_max + 1):
            for m in range(1, m_max + 1):
                try:
                    out.append(TameParams(q=q, n=n, m=m))
                except BadParams:
                    continue
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q-max", type=int, default=5)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--m-max", type=int, default=3)
    parser.add_argument(
        "--groups", nargs="+", default=["cyclic:2", "cyclic:3", "symmetric:3"]
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    try:
        groups = [resolve_group_spec(spec) for spec in args.groups]
        params = valid_params(args.q_max, args.n_max, args.m_max)
        reports = []
        for p in params:
            for g in groups:
                reports.append(survey(p, g))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
        return 0

    print(f"{len(params)} parameter triples x {len(groups)} groups")
    all_ok = True
    for r in reports:
        p = r.params
        orders = Counter(row.witness_order for row in r.rows)
        decomposed = sum(row.verified for row in r.rows)
        all_ok = all_ok and decomposed == len(r.rows)
        hist = " ".join(f"{k}x{v}" for k, v in sorted(orders.items()))
        flag = "" if decomposed == len(r.rows) else "  <- INCOMPLETE"
        print(
            f"q={p.q} n={p.n} m={p.m} over {r.group_label}: "
            f"{decomposed}/{len(r.rows)} decomposed, witness orders {hist}{flag}"
        )
    print("all decompositions verified" if all_ok else "some decompositions failed")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
