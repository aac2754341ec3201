"""Count the traffic of every memo of the package over two passes of a
perfbench workload run in this process.

Example, from the root of a checkout:
    python3 scripts/memo_traffic.py --workload decompose-sweep --seed 1

The workload's inputs are written by perfbench/inputs.py into a temporary
directory.  Every memo is then emptied, and perfbench's in-process runner
runs the workload's commands twice: a first pass from empty memos and a
warm pass.  For each pass, each lru_cache prints the hits and misses of
that pass and its currsize and maxsize at the end of it.  A memo whose
currsize stays below its maxsize evicts nothing, so its first-pass misses
are the distinct keys the pass meets.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import pkgutil
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# The workloads whose commands run in one process; the cold ladder runs
# each command in a fresh one, so its memos never carry across commands.
IN_PROCESS = ("decompose-sweep", "survey-ladder")


def memos() -> list[tuple[str, functools._lru_cache_wrapper]]:
    """Every lru_cache of every module of the package, by module-qualified
    name."""
    import bitorsor_kit

    modules = [importlib.import_module(f"bitorsor_kit.{m.name}") for m in pkgutil.iter_modules(bitorsor_kit.__path__)]
    return [
        (f"{mod.__name__.removeprefix('bitorsor_kit.')}.{name}", obj)
        for mod in modules
        for name, obj in sorted(vars(mod).items())
        if isinstance(obj, functools._lru_cache_wrapper)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=IN_PROCESS, default="decompose-sweep")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(PERFBENCH))
    import inputs
    import run

    runner = run.InProcess(run.import_cli())
    table = memos()
    with tempfile.TemporaryDirectory() as work:
        ops = inputs.generate(args.workload, args.seed, Path(work), run.load_golden()["class_counts"]).ops
        for _, memo in table:
            memo.cache_clear()
        for name in ("first", "warm"):
            before = [memo.cache_info() for _, memo in table]
            failed = [r for r in map(runner.run, ops) if r.rc != 0]
            print(f"{name} pass: {len(ops)} commands of {args.workload} at seed {args.seed}")
            print(f"  {'memo':<36} {'hits':>8} {'misses':>8} {'currsize':>8} {'maxsize':>8}")
            for (key, memo), was in zip(table, before):
                now = memo.cache_info()
                print(f"  {key:<36} {now.hits - was.hits:>8} {now.misses - was.misses:>8} {now.currsize:>8} {now.maxsize:>8}")
            if failed:
                print(f"{len(failed)} commands failed, the first {failed[0].op.id!r}: {failed[0].err.strip()}", file=sys.stderr)
                return 1
    print(f"two passes of {len(ops)} commands, each exit 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
