"""The benchmark's own tests:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs as inp  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

CLI = run.import_cli()
GOLDEN = run.load_golden()


@pytest.fixture
def work(request):
    path = run.WORK / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("runner", ["in-process", "child"])
def test_corrupted_group_file_counts_as_failed(work, runner):
    good = inp.Op("validate-group cyclic:6", "validate-group",
                  ("validate-group", "--group", "cyclic:6"), "g", 30.0)
    rows = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    rows[2][3], rows[2][4] = rows[2][4], rows[2][3]
    bad_file = work / "bad.txt"
    bad_file.write_text("group C6 order 6\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
                        + "generators 1\n")
    bad = inp.Op("validate-group bad", "validate-group",
                 ("validate-group", "--group", str(bad_file)), "b", 30.0)
    expected = run.InProcess(CLI).run(good)
    golden = {"digests": {good.id: run.digest(expected.out), bad.id: run.digest(expected.out)}}
    r = run.InProcess(CLI) if runner == "in-process" else run.Child(work)
    passes, _ = run.run_passes([good, bad], r, 0.0, 1, True, golden)
    attempted, failed, lines = run._failure_lines(passes)
    assert (attempted, failed) == (2, 1)
    assert passes[0][0].failure is None
    assert passes[0][1].failure.startswith("exit 2: groups.")


def test_overrun_child_is_killed_and_counts_as_failed(work):
    op = inp.Op("slow", "local-survey",
                ("local-survey", "--q", "2", "--n", "3", "--m", "2", "--group", "symmetric:5"), "s", 0.5)
    r = run.Child(work).run(op)
    assert r.timed_out and r.rc is None and r.seconds < 5
    assert run._failure(r, False, {}) == "overran its 0.5 s budget"


@pytest.mark.parametrize("workload", inp.WORKLOADS)
def test_same_seed_gives_identical_inputs(work, workload):
    a = inp.generate(workload, 3, work / "a", GOLDEN["class_counts"])
    b = inp.generate(workload, 3, work / "b", GOLDEN["class_counts"])
    c = inp.generate(workload, 4, work / "c", GOLDEN["class_counts"])

    def argv(i, root):
        return [tuple(x.replace(str(root), "") for x in op.argv) for op in i.ops]

    assert argv(a, work / "a") == argv(b, work / "b")
    if workload == "survey-ladder":
        assert argv(a, work / "a") != argv(c, work / "c")
    else:
        assert _files(work / "a") == _files(work / "b")
        assert _files(work / "a") != _files(work / "c")


def test_relabelled_groups_move_the_identity(work):
    i = inp.generate("cli-cold-ladder", 5, work, GOLDEN["class_counts"])
    from bitorsor_kit import formats as fm

    for path in work.glob("group-*.txt"):
        g = fm.parse_group(path.read_text())
        assert g.order == 1 or g.identity != 0
    assert len(i.ops) == len(GOLDEN["workloads"]["cli-cold-ladder"]["digests"])


def _sample_ops(work: Path) -> list[inp.Op]:
    i = inp.generate("cli-cold-ladder", 0, work, GOLDEN["class_counts"])
    survey = inp.Op("local-survey 2,3,2|symmetric:3", "local-survey",
                    ("local-survey", "--q", "2", "--n", "3", "--m", "2", "--group", "symmetric:3"), "s", 30.0)
    keep = [op for op in i.ops if op.kind in ("decompose", "verify", "closure")][:5]
    return keep + [survey]


def test_tracing_leaves_stdout_unchanged_and_restores_bindings(work):
    from bitorsor_kit import equivariant, groups

    ops = _sample_ops(work)
    before = (groups.enumerate_homs, equivariant.isomorphisms_between,
              groups.FiniteGroup.__post_init__, CLI.main)
    runner = run.InProcess(CLI)
    plain = [runner.run(op) for op in ops]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert equivariant.isomorphisms_between is groups.isomorphisms_between
        assert groups.enumerate_homs is not before[0]
        traced = [runner.run(op) for op in ops]
    finally:
        tracer.uninstall()
    after = (groups.enumerate_homs, equivariant.isomorphisms_between,
             groups.FiniteGroup.__post_init__, CLI.main)
    assert after == before
    assert [(r.rc, r.out) for r in traced] == [(r.rc, r.out) for r in plain]
    assert all(r.rc == 0 for r in plain)

    tracer.dump(work / "spans")
    s = tracing.Summary()
    s.add(work / "spans")
    m = tracing.metrics(s, 1, 0, 0, 0.0)
    assert m["devissage.decompose.calls"][0] >= 1
    assert m["groups.validate.GroupHom.count"][0] > 0
    assert m["local_model.survey.rows"][0] > 0
    assert m["cli.self_s"][0] > 0
    assert sum(s.self_s.values()) <= sum(r.seconds for r in traced)


def test_child_tracing_leaves_stdout_unchanged(work):
    op = _sample_ops(work)[0]
    plain = run.Child(work).run(op)
    runner = run.Child(work, traced=True)
    traced = runner.run(op)
    assert (traced.rc, traced.out) == (plain.rc, plain.out) and plain.rc == 0
    assert len(runner.span_files) == 1
    s = tracing.Summary()
    s.add(runner.span_files[0])
    assert s.calls["cli.main"] == 1


def test_facts_ignore_labels():
    text = b"class 3 of C12: in the closure with 2 factors: (C12, 1) (C12, 7)\n"
    assert run.facts("closure", text) == "class of C12: in the closure with 2 factors: (C12) (C12)\n"
    survey = (b"tame model q=2 n=3 m=2: group of order 6, surveyed over S3 (order 6)\n"
              b"class 1: theta (0, 1, 2) image 3 decomposed=true witness_order=3 z_type_pi=False\n")
    assert run.facts("local-survey", survey)[-1] == "image 3 decomposed=true witness_order=3 z_type_pi=False"


def test_metric_names_match_benchmark_json(work):
    import json

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = tracing.metrics(tracing.Summary(), 1, 0, 0, 0.0)
    assert [m["name"] for m in declared["per_layer"]] == list(per_layer)
    assert all(m["unit"] == per_layer[m["name"]][1] for m in declared["per_layer"])
    op = inp.Op("validate-group cyclic:2", "validate-group", ("validate-group", "--group", "cyclic:2"), "g", 30.0)
    passes, refs = run.run_passes([op] * 11, run.InProcess(CLI), 0.0, 2, False, {"facts": {}})
    end_to_end, _, _ = run.end_to_end("cli-cold-ladder", passes, refs, [0.1], 1.0)
    assert [m["name"] for m in declared["end_to_end"]] == list(end_to_end)
    assert all(m["unit"] == end_to_end[m["name"]][1] for m in declared["end_to_end"])
    assert [w["name"] for w in declared["workloads"]] == list(inp.WORKLOADS)
