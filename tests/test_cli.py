"""Command-line behaviour: exit codes, output formats, determinism, and the
decompose -> verify round trip."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bitorsor_kit import cli
from bitorsor_kit import devissage as D
from bitorsor_kit import formats as F
from bitorsor_kit import groups as G
from bitorsor_kit import local_model as L

S3_EXTENSION = (
    "extension tame\npi_big semidirect:3:2:2\ngamma 0 2 4\n"
    "p 0 1 0 1 0 1\ns 0 1\n"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    if "json" in argv and cap.out:
        assert cap.out == json.dumps(json.loads(cap.out), indent=2, sort_keys=True) + "\n"
    return code, cap.out, cap.err


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1 and "error" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "h1", "--pi", "cyclic:2")
        assert code == 1 and "--group" in err

    def test_closure_bound_must_be_positive(self, capsys):
        code, _, err = run(
            capsys, "closure", "--pi", "cyclic:2", "--registry", "r",
            "--group", "cyclic:2", "--class", "0", "--max-n", "0",
        )
        assert code == 1 and "at least 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("h1", "--pi", "cyclic:2", "--group", "cyclic:2", "--format", "dot"),
            ("validate-group", "--group", "cyclic:2", "--format", "xml"),
        ],
    )
    def test_format_a_command_does_not_offer(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage: bitorsor-kit " + argv[0])
        assert "argument --format: invalid choice" in err

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestValidateGroup:
    def test_constructor_accepted(self, capsys):
        code, out, _ = run(capsys, "validate-group", "--group", "cyclic:6")
        assert code == 0
        assert "valid group C6 of order 6" in out
        assert "cyclic: yes" in out

    def test_corrupted_table_rejected_with_diagnostic(self, capsys, tmp_path):
        text = F.format_group(G.cyclic(3)).replace("2 0 1", "2 0 0")
        path = tmp_path / "bad.grp"
        path.write_text(text)
        code, _, err = run(capsys, "validate-group", "--group", str(path))
        assert code == 2
        assert "NoInverse" in err or "NotAssociative" in err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0 1\n1\n", "table row 1 has 1 entries, expected 2 (line 3, column 1)"),
            ("0 7\n1 0\n", "table entry 7 out of range 0..1 (line 2, column 3)"),
        ],
        ids=["ragged", "out of range"],
    )
    def test_malformed_table_file_rejected(self, capsys, tmp_path, rows, message):
        path = tmp_path / "bad.grp"
        path.write_text("group C2 order 2\n" + rows + "generators 1\n")
        code, out, err = run(capsys, "validate-group", "--group", str(path))
        assert (code, out, err) == (2, "", f"formats.ParseError: {message}\n")

    def test_order_above_the_ceiling_exits_2(self, capsys):
        code, out, err = run(capsys, "validate-group", "--group", "cyclic:201")
        assert code == 2 and out == ""
        assert err == (
            "formats.ParseError: 'cyclic:201' has order 201, above the supported maximum 200\n"
        )

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "validate-group", "--group", "symmetric:3", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == "bitorsor-kit/1"
        assert doc["group"]["order"] == 6 and not doc["abelian"]


class TestH1:
    def test_two_classes_listed(self, capsys):
        code, out, _ = run(capsys, "h1", "--pi", "cyclic:2", "--group", "symmetric:3")
        assert code == 0
        assert "2 classes" in out
        assert out.count("class ") == 2

    def test_json_matches(self, capsys):
        code, out, _ = run(
            capsys, "h1", "--pi", "cyclic:2", "--group", "symmetric:3",
            "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0 and len(doc["classes"]) == 2
        assert doc["classes"][0]["theta"] == [0, 0]

    def test_one_spec_for_pi_and_group(self, capsys):
        code, out, _ = run(capsys, "h1", "--pi", "symmetric:3", "--group", "symmetric:3")
        assert (code, out) == (0, (
            "3 classes of maps from S3 into S3\n"
            "class 0: theta (0, 0, 0, 0, 0, 0) image size 1\n"
            "class 1: theta (0, 1, 1, 0, 0, 1) image size 2\n"
            "class 2: theta (0, 1, 2, 3, 4, 5) image size 6\n"
        ))
        code, out, _ = run(
            capsys, "h1", "--pi", "cyclic:4", "--group", "cyclic:4", "--format", "json"
        )
        assert code == 0 and json.loads(out) == {
            "classes": [
                {"image_size": size, "index": i, "theta": theta}
                for i, (size, theta) in enumerate((
                    (1, [0, 0, 0, 0]), (4, [0, 1, 2, 3]), (2, [0, 2, 0, 2]), (4, [0, 3, 2, 1]),
                ))
            ],
            "group": "C4", "kind": "h1", "pi": "C4", "schema": F.SCHEMA,
        }


def test_a_closed_stdout_ends_the_command_quietly():
    """A reader that stops after the first line (`| head -1`): the command
    exits 0 with nothing on stderr.  The output, 183 kB, is larger than a
    pipe holds, so the command is still writing when the pipe closes."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bitorsor_kit.cli", "h1", "--pi", "cyclic:200", "--group", "cyclic:200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"200 classes of maps from C200 into C200\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (0, b"")


@pytest.fixture
def ext_file(tmp_path):
    path = tmp_path / "tame.ext"
    path.write_text(S3_EXTENSION)
    return path


class TestDecomposeVerify:
    def test_text_summary(self, capsys, ext_file):
        code, out, _ = run(
            capsys, "decompose", "--extension", str(ext_file),
            "--group", "symmetric:3", "--class", "2",
        )
        assert code == 0
        assert "verified: all checks passed" in out
        assert "witness group order 3" in out

    def test_round_trip_through_verify(self, capsys, tmp_path, ext_file):
        code, out, _ = run(
            capsys, "decompose", "--extension", str(ext_file),
            "--group", "symmetric:3", "--class", "2", "--format", "json",
        )
        assert code == 0
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, out, _ = run(capsys, "verify", "--certificate", str(cert))
        assert code == 0 and "all checks passed" in out

    def test_every_class_round_trips(self, capsys, tmp_path, ext_file):
        for idx in range(3):
            code, out, _ = run(
                capsys, "decompose", "--extension", str(ext_file),
                "--group", "symmetric:3", "--class", str(idx), "--format", "json",
            )
            assert code == 0
            cert = tmp_path / f"cert{idx}.json"
            cert.write_text(out)
            assert run(capsys, "verify", "--certificate", str(cert))[0] == 0

    def test_corrupted_certificate_rejected(self, capsys, tmp_path, ext_file):
        _, out, _ = run(
            capsys, "decompose", "--extension", str(ext_file),
            "--group", "symmetric:3", "--class", "2", "--format", "json",
        )
        doc = json.loads(out)
        pm = doc["decomposition"]["witness_iso"]["point_map"]
        pm[0], pm[1] = pm[1], pm[0]
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", "--certificate", str(cert))
        assert code == 2 and "bitorsors" in err

    def test_unparseable_certificate_rejected(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text("{not json")
        code, _, err = run(capsys, "verify", "--certificate", str(cert))
        assert code == 2 and "not valid JSON" in err

    def test_missing_certificate_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "verify", "--certificate", str(tmp_path / "nope.json")
        )
        assert code == 2 and "cannot read" in err

    def test_class_index_out_of_range(self, capsys, ext_file):
        code, _, err = run(
            capsys, "decompose", "--extension", str(ext_file),
            "--group", "symmetric:3", "--class", "9",
        )
        assert code == 2 and "out of range" in err

    def test_json_emission_is_byte_identical(self, capsys, ext_file):
        args = (
            "decompose", "--extension", str(ext_file),
            "--group", "symmetric:3", "--class", "2", "--format", "json",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    def test_failed_self_check_exits_2(self, capsys, monkeypatch, ext_file, fmt):
        monkeypatch.setattr(
            D, "verify_decomposition", lambda t, d, e: D.VerificationResult(False, "forced")
        )
        code, out, err = run(
            capsys, "decompose", "--extension", str(ext_file),
            "--group", "symmetric:3", "--class", "2", "--format", fmt,
        )
        assert code == 2 and out == ""
        assert "DevissageError" in err and "forced" in err

    def test_trivialized_collapse_fields_rejected(self, capsys, tmp_path, ext_file):
        for idx in range(3):
            _, out, _ = run(
                capsys, "decompose", "--extension", str(ext_file),
                "--group", "symmetric:3", "--class", str(idx), "--format", "json",
            )
            doc = json.loads(out)
            c = doc["decomposition"]["certificate"]
            g = F.group_from_json(doc["groups"][c["h_prime"]["parent"]])
            c["h_prime"]["members"] = [g.identity]
            c["theta_tilde"]["map"] = [g.identity] * len(c["theta_tilde"]["map"])
            cert = tmp_path / f"cert{idx}.json"
            cert.write_text(json.dumps(doc))
            code, _, _ = run(capsys, "verify", "--certificate", str(cert))
            if doc == json.loads(out):
                # the trivial class: both fields are trivial already
                assert idx == 0 and code == 0
            else:
                assert code == 2

    def test_one_corrupted_copy_of_a_repeated_factor_rejected(
        self, capsys, tmp_path, ext_file
    ):
        _, out, _ = run(
            capsys, "decompose", "--extension", str(ext_file),
            "--group", "symmetric:3", "--class", "2", "--format", "json",
        )
        doc = json.loads(out)
        dd = doc["decomposition"]
        dst = dd["certificate"]["w_inclusion"]["dst"]
        assert dst == dd["y"]
        rows = dst["bitorsor"]["left_act"]
        rows[1], rows[2] = rows[2], rows[1]
        assert dst != dd["y"]
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "verify", "--certificate", str(cert))
        assert code == 2

    def test_dot_output(self, capsys, ext_file):
        code, out, _ = run(
            capsys, "decompose", "--extension", str(ext_file),
            "--group", "symmetric:3", "--class", "2", "--format", "dot",
        )
        assert code == 0
        assert out.startswith("digraph")
        assert "YZ -> X" in out and "W -> Y" in out


def test_repeated_calls_match_first_calls(capsys, ext_file):
    commands = [
        ("h1", "--pi", "cyclic:2"),
        ("decompose", "--extension", str(ext_file), "--group", "symmetric:3",
         "--class", "2", "--format", "json"),
        ("h1", "--pi", "cyclic:2", "--group", "symmetric:3"),
    ]
    first = []
    for argv in commands:
        cli.build_parser.cache_clear()
        first.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    again = [run(capsys, *argv) for argv in commands]
    assert [r[0] for r in first] == [1, 0, 0]
    assert again == first


def test_relabelled_group_prints_its_own_labels(capsys, tmp_path, ext_file):
    """Group equality ignores labels, so the memoized class lists must key on
    them: a decompose over the S3 table labelled Y, run after one over the
    same table labelled X, prints what a fresh process prints over Y."""
    table = F.format_group(G.symmetric(3))
    for label in ("X", "Y"):
        (tmp_path / f"{label}.grp").write_text(table.replace("group S3", f"group {label}", 1))
    argv = ["decompose", "--extension", str(ext_file), "--class", "2", "--format", "json"]
    y = ["--group", str(tmp_path / "Y.grp")]
    assert run(capsys, *argv, "--group", str(tmp_path / "X.grp"))[0] == 0
    code, out, _ = run(capsys, *argv, *y)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    fresh = subprocess.run(
        [sys.executable, "-m", "bitorsor_kit.cli", *argv, *y],
        capture_output=True, text=True, env=env, check=True,
    )
    assert code == 0 and out == fresh.stdout
    assert '"label": "Y"' in out and "X" not in out


@pytest.fixture
def registry_file(tmp_path):
    path = tmp_path / "reg.txt"
    path.write_text("elementary cyclic:4 0\nelementary cyclic:4 1\n")
    return path


class TestClosure:
    def test_reachable_class_found(self, capsys, registry_file):
        code, out, _ = run(
            capsys, "closure", "--pi", "cyclic:4", "--registry", str(registry_file),
            "--group", "cyclic:4", "--class", "2", "--max-n", "3",
        )
        assert code == 0
        assert "in the closure with 2 factors" in out
        assert "(C4, 1) (C4, 1)" in out

    def test_unreachable_class_reported(self, capsys, registry_file):
        code, out, _ = run(
            capsys, "closure", "--pi", "cyclic:4", "--registry", str(registry_file),
            "--group", "cyclic:4", "--class", "3", "--max-n", "1",
        )
        assert code == 0 and "not in the closure" in out

    def test_json_chain(self, capsys, registry_file):
        code, out, _ = run(
            capsys, "closure", "--pi", "cyclic:4", "--registry", str(registry_file),
            "--group", "cyclic:4", "--class", "3", "--max-n", "3", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0 and doc["found"]
        assert [c["class"] for c in doc["chain"]] == [1, 1, 1]

    def test_each_group_is_built_once(self, capsys, monkeypatch, tmp_path):
        """--pi, the registry lines and --group that name one constructor
        spec, or one file by different relative paths, build it once."""
        labels = []

        def counting(mul, gens, label="G"):
            labels.append(label)
            return make_group(mul, gens, label)

        make_group = G.make_group
        monkeypatch.setattr(G, "make_group", counting)
        monkeypatch.setattr(F, "make_group", counting)
        F._constructed.cache_clear()  # constructor specs are built once per process
        (tmp_path / "f6.txt").write_text(F.format_group(G.dihedral(6)).replace("D6", "F6"))
        reg = tmp_path / "sub" / "reg.txt"
        reg.parent.mkdir()
        monkeypatch.chdir(tmp_path)
        for lines, group, built in (
            ("elementary dihedral:6 0\nelementary cyclic:2 1\n", "dihedral:6", "D6"),
            ("elementary ../f6.txt 0\nelementary cyclic:2 1\n", "f6.txt", "F6"),
        ):
            reg.write_text(lines)
            labels.clear()
            code, out, _ = run(
                capsys, "closure", "--pi", "cyclic:2", "--registry", str(reg),
                "--group", group, "--class", "1", "--max-n", "2",
            )
            assert code == 0 and out.startswith(f"class 1 of {built}: ")
            assert labels.count(built) == 1

    def test_one_spec_for_pi_and_group(self, capsys, registry_file):
        """--pi and --group naming one spec print what they print when the
        two are resolved apart."""
        argv = (
            "closure", "--pi", "cyclic:4", "--registry", str(registry_file),
            "--group", "cyclic:4", "--class", "3", "--max-n", "3",
        )
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, "class 3 of C4: in the closure with 3 factors: (C4, 1) (C4, 1) (C4, 1)\n")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out) == {
            "chain": [{"class": 1, "group": "C4"}] * 3, "class": 3, "found": True,
            "group": "C4", "kind": "closure", "max_n": 3, "schema": F.SCHEMA,
        }


# (command before the file, file contents, command after the file)
UNREADABLE = {
    "group": (("validate-group", "--group"), b"\xff", ()),
    "extension": (
        ("decompose", "--extension"), b"extension tame\n\xff\n",
        ("--group", "symmetric:3", "--class", "0"),
    ),
    "registry": (
        ("closure", "--pi", "cyclic:4", "--registry"), b"\xff",
        ("--group", "cyclic:4", "--class", "0"),
    ),
    "certificate": (("verify", "--certificate"), b'{"schema": "\xff"}', ()),
    "deep-certificate": (("verify", "--certificate"), b"[" * 200_000, ()),
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_input_exits_2_with_a_parse_error(capsys, tmp_path, case):
    """A file holding a byte that is not UTF-8, or a certificate nested
    deeper than the recursion limit, is a ParseError, not a traceback."""
    before, contents, after = UNREADABLE[case]
    path = tmp_path / "input"
    path.write_bytes(contents)
    code, out, err = run(capsys, *before, str(path), *after)
    assert (code, out) == (2, "")
    assert err.startswith("formats.ParseError: ") and err.count("\n") == 1


class TestLocalSurvey:
    def test_all_classes_decomposed(self, capsys):
        code, out, _ = run(
            capsys, "local-survey", "--q", "2", "--n", "3", "--m", "2",
            "--group", "cyclic:2",
        )
        assert code == 0
        assert out.count("decomposed=true") == 2
        assert "decomposed=false" not in out
        assert "warning" in out

    def test_bad_params_rejected(self, capsys):
        code, _, err = run(
            capsys, "local-survey", "--q", "2", "--n", "4", "--m", "2",
            "--group", "cyclic:2",
        )
        assert code == 2 and "gcd" in err

    def test_model_above_the_ceiling_fails_before_any_table(self, capsys, monkeypatch):
        def boom(*args):
            raise AssertionError("a table was built")

        for name in ("cyclic_power_action", "semidirect_product"):
            monkeypatch.setattr(L, name, boom)
        code, out, err = run(
            capsys, "local-survey", "--q", "2", "--n", "127", "--m", "7",
            "--group", "cyclic:2",
        )
        assert code == 2 and out == ""
        assert err == (
            "local_model.BadParams: n*m = 889 is above the supported maximum order 200\n"
        )

    def test_json_byte_identical_across_runs(self, capsys):
        args = (
            "local-survey", "--q", "3", "--n", "4", "--m", "2",
            "--group", "cyclic:2", "--format", "json",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        doc = json.loads(first)
        assert doc["kind"] == "local-survey" and len(doc["rows"]) == 4

    def test_json_bytes_are_unchanged(self, capsys):
        """The digest of the JSON written field by field, which writing
        params and rows from the records' fields must keep."""
        code, out, _ = run(
            capsys, "local-survey", "--q", "3", "--n", "4", "--m", "2",
            "--group", "symmetric:3", "--format", "json",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "da2f21718cb154d9a66718c09f9cefe326327a00b992ded969a72b56fa17e6ec"
        )

    def test_s4_survey_decomposes_every_class(self, capsys):
        code, out, _ = run(
            capsys, "local-survey", "--q", "3", "--n", "4", "--m", "2",
            "--group", "symmetric:4",
        )
        rows = [line for line in out.splitlines() if line.startswith("class ")]
        assert code == 0 and len(rows) == 13
        assert all("decomposed=true" in r for r in rows)

    def test_s5_survey_bytes_are_unchanged(self, capsys):
        """The digest of the output computed by closing permutations into
        each pushed left group: building those groups by construction must
        not change a byte."""
        code, out, _ = run(
            capsys, "local-survey", "--q", "2", "--n", "3", "--m", "2",
            "--group", "symmetric:5",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "57e80cda14ab7eae5ba53aa87a70e82109222acdd8f3305577f3cc7adaf620c0"
        )


class TestDemo:
    def test_same_seed_same_bytes(self, capsys):
        _, first, _ = run(capsys, "demo", "--seed", "7")
        _, second, _ = run(capsys, "demo", "--seed", "7")
        assert first == second
        assert "decomposed=true" in first

    def test_json_demo(self, capsys):
        code, out, _ = run(capsys, "demo", "--seed", "1", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["seed"] == 1
        assert all(r["verified"] for r in doc["rows"])
