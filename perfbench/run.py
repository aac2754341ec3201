"""Benchmark of the bitorsor-kit command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite golden.json (seed 0)

Run from the root of a checkout: the program is imported from ./src.

Workloads (see NOTES.md for why each was chosen):
  decompose-sweep  718 decompose/verify commands in one process, caches warm
  survey-ladder    seven local-survey commands in one process, caches warm
  cli-cold-ladder  validate-group, h1, decompose, verify and closure, each in
                   a fresh child process, one child at a time

The timed phase runs whole passes over the workload's commands: at least
MIN_PASSES, then more while another pass still ends within --seconds.  Every
command's exit code and stdout are checked: against the sha256 recorded in
golden.json where the inputs are canonical, else by label-invariant facts.
With --trace 0 the last line reports the end-to-end metrics; with --trace 1
it reports per-layer metrics from traced passes that follow untraced ones.
Human-readable lines above it give every metric with its unit, the same
times in seconds, per-command times and the known failures.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import inputs as inp  # noqa: E402
import tracing  # noqa: E402
from gauge import reference_loop  # noqa: E402

# The timed phase runs at least this many whole passes.
MIN_PASSES = {"decompose-sweep": 2, "survey-ladder": 3, "cli-cold-ladder": 3}
# In process, setup (a fresh import plus input generation) runs this many
# times and setup_s is the median.  The cold ladder's setup_s is instead the
# median time from spawning a child to the child having imported the CLI.
SETUP_REPEATS = 11
# The reference loop is timed between commands at least this often, in
# command time.
REFERENCE_EVERY_S = 0.2
IN_PROCESS = ("decompose-sweep", "survey-ladder")
VERIFY_OK = b"all checks passed\n"


def import_cli():
    """Import the program from ./src, never from anywhere else."""
    if not (SRC / "bitorsor_kit" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'bitorsor_kit'}")
    sys.path.insert(0, str(SRC))
    from bitorsor_kit import cli

    if Path(cli.__file__).resolve().parent != SRC / "bitorsor_kit":
        raise SystemExit(f"perfbench: imported bitorsor_kit from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Result:
    """One command run.  `rc` is None when the command crashed or was
    killed; the stdout bytes are kept only until the result is checked."""

    op: inp.Op
    rc: int | None
    out: bytes
    err: str
    seconds: float
    timed_out: bool
    ready_s: float | None = None


class InProcess:
    """Calls bitorsor_kit.cli.main in this process, capturing its output."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, op: inp.Op) -> Result:
        out, err = io.StringIO(), io.StringIO()
        rc = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(list(op.argv))
        except Exception:  # a crash in the program is a failed command, not a harness failure
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        data = out.getvalue().encode()
        if op.stdout_to:
            Path(op.stdout_to).write_bytes(data)
        return Result(op, rc, data, err.getvalue(), seconds, seconds > op.budget_s)


class Child:
    """Runs each command in a fresh interpreter via child.py, one at a time,
    killing it when it overruns its budget."""

    def __init__(self, work: Path, traced: bool = False):
        self.work = work
        self.traced = traced
        self.span_files: list[Path] = []
        self._n = 0
        self.env = {k: v for k, v in os.environ.items() if k != "BITORSOR_THREADS"}

    def run(self, op: inp.Op) -> Result:
        self._n += 1
        info = self.work / f"child-{self._n}.json"
        spans = self.work / f"spans-{self._n}" if self.traced else None
        out_path = Path(op.stdout_to) if op.stdout_to else self.work / "stdout.bin"
        err_path = self.work / "stderr.txt"
        cmd = [sys.executable, str(HERE / "child.py"), str(info), str(spans or ""), "--", *op.argv]
        killed = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def kill() -> None:
                killed.set()
                proc.kill()

            timer = threading.Timer(op.budget_s, kill)
            timer.start()
            try:
                rc = proc.wait()
            finally:
                timer.cancel()
                timer.join()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            seconds = time.perf_counter() - t0
        ready = None
        if info.exists():
            ready = json.loads(info.read_text())["ready"] - t0
            info.unlink()
        if spans is not None and spans.exists():
            self.span_files.append(spans)
        timed_out = killed.is_set()
        return Result(op, None if timed_out else rc, out_path.read_bytes(),
                      err_path.read_text(errors="replace"), seconds, timed_out, ready)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def facts(kind: str, out: bytes):
    """Label-invariant facts of a command's stdout: what must agree across
    seeds even though relabelling changes element and class indices."""
    text = out.decode()
    lines = text.splitlines()
    if kind == "validate-group":
        return lines[:3]
    if kind == "h1":
        return [lines[0], sorted(int(line.rsplit(" ", 1)[1]) for line in lines[1:])]
    if kind == "decompose":
        doc = json.loads(text)
        witness = doc["decomposition"]["certificate"]["w_witness"]["bitorsor"]["left_group"]
        return [len(set(doc["input"]["theta"]["map"])), doc["groups"][witness]["order"]]
    if kind == "closure":
        return re.sub(r"\((\S+), \d+\)", r"(\1)", re.sub(r"^class \d+ of", "class of", text))
    if kind == "local-survey":
        rows = sorted(re.sub(r"^class \d+: theta \([\d, ]*\) ", "", line)
                      for line in lines[1:] if line.startswith("class "))
        return [line for line in lines[1:] if not line.startswith("class ")] + [lines[0]] + rows
    return text


def _fact_key(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass
class Record:
    """A checked command run, without its output bytes."""

    op: inp.Op
    seconds: float
    failure: str | None
    digest: str
    out_len: int
    ready_s: float | None


def _failure(r: Result, exact: bool, golden: dict) -> str | None:
    if r.timed_out:
        return f"overran its {r.op.budget_s:g} s budget"
    if r.rc is None:
        return "crashed: " + (r.err.strip().splitlines() or ["?"])[-1]
    if r.rc != 0:
        return f"exit {r.rc}: " + (r.err.strip().splitlines() or [""])[-1]
    if r.op.kind == "verify" and r.out != VERIFY_OK:
        return "verify did not accept the certificate"
    if exact and digest(r.out) != golden["digests"].get(r.op.id):
        return "stdout differs from the recorded sha256"
    return None


def check_pass(results: list[Result], exact: bool, golden: dict) -> list[Record]:
    """Check one pass and drop the output bytes.  With `exact` every stdout
    must match its recorded sha256; otherwise (relabelled inputs) the facts
    of ops sharing a fact_key must match the recorded multiset."""
    records, got = [], defaultdict(list)
    for r in results:
        failure = _failure(r, exact, golden)
        if failure is None and not exact:
            try:
                got[r.op.fact_key].append(_fact_key(facts(r.op.kind, r.out)))
            except (ValueError, KeyError, IndexError) as exc:
                failure = f"unreadable output: {exc!r}"
        records.append(Record(r.op, r.seconds, failure, digest(r.out), len(r.out), r.ready_s))
    for rec in records:
        key = rec.op.fact_key
        if rec.failure is None and key in got and sorted(got[key]) != golden["facts"].get(key):
            rec.failure = "label-invariant facts differ from the recorded ones"
    return records


def run_passes(ops, runner, seconds: float, min_passes: int, exact: bool, golden: dict):
    """Whole passes: at least `min_passes`, then more while another pass of
    the mean length still ends within `seconds`.  Returns the checked passes
    and the reference-loop timings taken between commands, at least every
    REFERENCE_EVERY_S of command time."""
    passes: list[list[Record]] = []
    refs: list[float] = []
    since = REFERENCE_EVERY_S
    t0 = time.perf_counter()
    while len(passes) < min_passes or (time.perf_counter() - t0) * (len(passes) + 1) / len(passes) <= seconds:
        results = []
        for op in ops:
            if since >= REFERENCE_EVERY_S:
                refs.append(reference_loop())
                since = 0.0
            results.append(runner.run(op))
            since += results[-1].seconds
        passes.append(check_pass(results, exact, golden))
    return passes, refs


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ys = sorted(xs)
    return ys[max(0, math.ceil(p / 100 * len(ys)) - 1)]


def tail_percentile(workload: str, ops_per_pass: int) -> int:
    """The highest whole percentile with at least ten ops beyond it in the
    fewest ops a run measures; fixed per workload so runs stay comparable."""
    return math.floor(100 * (1 - 10 / (ops_per_pass * MIN_PASSES[workload])))


def setup(workload: str, seed: int, work: Path, class_counts: dict, repeats: int):
    """Import the program and generate the inputs `repeats` times, each
    time from a fresh import; return the last (cli, inputs) and the times."""
    samples = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m == "bitorsor_kit" or m.startswith("bitorsor_kit.")]:
            del sys.modules[name]
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        cli = import_cli()
        inputs = inp.generate(workload, seed, work, class_counts)
        samples.append(time.perf_counter() - t0)
    return cli, inputs, samples


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def run_known_failures(known, work: Path) -> tuple[int, list[str]]:
    """Run once each command that failed when the benchmark was introduced;
    return how many still fail, with a line per command."""
    lines, failing = [], 0
    runner = Child(work)
    for op, reason in known:
        r = runner.run(op)
        ok = r.rc == 0 and not r.timed_out
        if op.kind == "verify":
            ok = ok and r.out == VERIFY_OK
        if op.kind == "local-survey":
            ok = ok and b"decomposed=false" not in r.out
        failing += not ok
        state = "now passes" if ok else "still fails"
        seen = "timed out" if r.timed_out else f"exit {r.rc}: " + (r.err.strip().splitlines() or [""])[-1]
        lines.append(f"known failure {op.id!r} ({reason}): {state} [{seen}, {r.seconds:.2f} s]")
    return failing, lines


def end_to_end(workload: str, passes: list[list[Record]], refs: list[float], setup_samples: list[float],
               peak_rss_mb: float):
    """The gated metrics (the first of the two dicts returned) and the same
    figures in seconds, which are printed but not gated.

    The machine's speed drifts by up to a quarter over minutes, so the
    command times are gated in units of the reference loop timed during the
    same run ("ref": the median of its timings); NOTES.md has the
    measurements behind this choice."""
    n_ops = len(passes[0])
    p_tail = tail_percentile(workload, n_ops)
    pass_s = [sum(r.seconds for r in p) for p in passes]
    samples = [r.seconds for p in passes for r in p]
    run_s = statistics.median(pass_s)
    op_p50_s = statistics.median(samples)
    op_tail_s = percentile(samples, p_tail)
    ref = statistics.median(refs)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "run_ref": (run_s / ref, "ref"),
        "op_p50_ref": (op_p50_s / ref, "ref"),
        "op_tail_ref": (op_tail_s / ref, "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    seconds = {
        "run_s": (run_s, "s"),
        "ops_per_s": (n_ops / run_s, "1/s"),
        "op_p50_ms": (op_p50_s * 1000, "ms"),
        "op_tail_ms": (op_tail_s * 1000, "ms"),
        "ref_ms": (ref * 1000, "ms"),
    }
    by_kind = defaultdict(list)
    for p in passes:
        sums = defaultdict(float)
        for r in p:
            sums[r.op.kind] += r.seconds
        for kind, v in sums.items():
            by_kind[kind].append(v)
    seconds.update({f"cmd_s.{k}": (statistics.median(v), "s") for k, v in sorted(by_kind.items())})
    notes = [
        f"op_tail is p{p_tail} over {len(samples)} samples ({len(passes)} passes of {n_ops} ops);"
        f" run and cmd_s.* are medians over passes of summed command times;"
        f" setup_s is the median of {len(setup_samples)} samples;"
        f" a ref is the median of {len(refs)} timings of the reference loop in this run",
    ]
    return metrics, seconds, notes


def _emit(metrics: dict, extra: dict, notes: list[str], attempted: int, failed: int, failures: list[str]) -> None:
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in notes + failures:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _failure_lines(passes: list[list[Record]]) -> tuple[int, int, list[str]]:
    records = [r for p in passes for r in p]
    bad = [r for r in records if r.failure]
    lines = [f"FAILED {r.op.id}: {r.failure}" for r in bad[:20]]
    return len(records), len(bad), lines


def timed_run(workload: str, inputs, runner, seconds: float, setup_s: list[float], golden: dict, work: Path) -> None:
    """The end-to-end run: untraced passes, then the known failures once."""
    passes, refs = run_passes(inputs.ops, runner, seconds, MIN_PASSES[workload], inputs.exact, golden)
    if isinstance(runner, InProcess):
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        setup_s = [r.ready_s for p in passes for r in p if r.ready_s is not None]
    metrics, extra, notes = end_to_end(workload, passes, refs, setup_s, rss)
    attempted, failed, failures = _failure_lines(passes)
    known_failing, known_lines = run_known_failures(inputs.known_failures, work)
    extra["failed_share"] = ((failed + known_failing) / (attempted + len(inputs.known_failures)), "ratio")
    _emit(metrics, extra, notes + known_lines, attempted, failed, failures)


def traced_run(inputs, runner, seconds: float, golden: dict, work: Path) -> None:
    """The per-layer run: untraced passes, then traced ones, each for half
    of `seconds`; every traced stdout must equal its untraced one."""
    in_process = isinstance(runner, InProcess)
    # In process the first pass fills the memo caches, so the untraced
    # reference for the overhead is the passes after it.
    plain, _ = run_passes(inputs.ops, runner, seconds / 2, 2 if in_process else 1, inputs.exact, golden)
    summary = tracing.Summary()
    if in_process:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = run_passes(inputs.ops, runner, seconds / 2, 1, inputs.exact, golden)
        finally:
            tracer.uninstall()
        tracer.dump(work / "spans")
        summary.add(work / "spans")
    else:
        runner = Child(work, traced=True)
        traced, _ = run_passes(inputs.ops, runner, seconds / 2, 1, inputs.exact, golden)
        for path in runner.span_files:
            summary.add(path)
    untraced_s = statistics.median(sum(r.seconds for r in p) for p in plain[1:] or plain)
    traced_s = statistics.median(sum(r.seconds for r in p) for p in traced)
    records = [r for p in traced for r in p]
    metrics = tracing.metrics(
        summary, len(traced),
        stdout_bytes=sum(r.out_len for r in records),
        certificate_bytes=sum(r.out_len for r in records if r.op.stdout_to),
        overhead_s=traced_s - untraced_s,
    )
    attempted, failed, failures = _failure_lines(plain + traced)
    reference = {r.op.id: r.digest for r in plain[-1]}
    changed = sorted({r.op.id for r in records if r.digest != reference[r.op.id]})
    failed += len(changed)
    failures += [f"FAILED {oid}: stdout changed under tracing" for oid in changed[:20]]
    notes = [f"per-layer metrics are per traced pass ({len(traced)} traced, {len(plain)} untraced)"]
    _emit(metrics, {}, notes, attempted, failed, failures)


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> None:
    golden_all = load_golden()
    golden = golden_all["workloads"][workload]
    os.environ.pop("BITORSOR_THREADS", None)
    # One CPU for this process, its children and the reference loop, so the
    # loop gauges the CPU the commands run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    in_process = workload in IN_PROCESS
    try:
        repeats = SETUP_REPEATS if in_process and not trace else 1
        cli, inputs, setup_s = setup(workload, seed, work, golden_all["class_counts"], repeats)
        runner = InProcess(cli) if in_process else Child(work)
        if trace:
            traced_run(inputs, runner, seconds, golden, work)
        else:
            timed_run(workload, inputs, runner, seconds, setup_s, golden, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record() -> None:
    """Rewrite golden.json from one seed-0 pass of every workload.  Only for
    a commit whose outputs are known to be right."""
    cli = import_cli()
    from bitorsor_kit import equivariant as eq
    from bitorsor_kit import formats as fm

    counts = {}
    for n, m, k in inp.SWEEP_SHAPES:
        big = fm.resolve_group_spec(f"semidirect:{n}:{m}:{k}")
        for spec in inp.SWEEP_GROUPS:
            counts[f"{n}_{m}_{k}|{spec}"] = len(eq.h1(big, fm.resolve_group_spec(spec)))
    out = {"class_counts": counts, "workloads": {}}
    for workload in inp.WORKLOADS:
        work = WORK / f"record-{workload}"
        try:
            inputs = inp.generate(workload, 0, work, counts)
            runner = InProcess(cli) if workload in IN_PROCESS else Child(work)
            digests, got = {}, defaultdict(list)
            for op in inputs.ops:
                r = runner.run(op)
                if r.rc != 0 or (op.kind == "verify" and r.out != VERIFY_OK):
                    raise SystemExit(f"perfbench: {op.id} failed while recording: {r.err.strip()}")
                digests[op.id] = digest(r.out)
                got[op.fact_key].append(_fact_key(facts(op.kind, r.out)))
            out["workloads"][workload] = {
                "digests": digests,
                "facts": {k: sorted(v) for k, v in got.items()},
            }
        finally:
            shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=inp.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
