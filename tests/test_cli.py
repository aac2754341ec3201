"""Command-line behaviour: exit codes, output formats, determinism, and the
decompose -> verify round trip."""

from __future__ import annotations

import json

import pytest

from bitorsor_kit import cli
from bitorsor_kit import devissage as D
from bitorsor_kit import formats as F
from bitorsor_kit import groups as G

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

    def test_bad_thread_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BITORSOR_THREADS", "many")
        code, _, err = run(capsys, "validate-group", "--group", "cyclic:2")
        assert code == 1 and "BITORSOR_THREADS" in err

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

    def test_s4_survey_decomposes_every_class(self, capsys):
        code, out, _ = run(
            capsys, "local-survey", "--q", "3", "--n", "4", "--m", "2",
            "--group", "symmetric:4",
        )
        rows = [line for line in out.splitlines() if line.startswith("class ")]
        assert code == 0 and len(rows) == 13
        assert all("decomposed=true" in r for r in rows)

    def test_thread_env_does_not_change_output(self, capsys, monkeypatch):
        args = (
            "local-survey", "--q", "3", "--n", "4", "--m", "2",
            "--group", "cyclic:2", "--format", "json",
        )
        _, lone, _ = run(capsys, *args)
        monkeypatch.setenv("BITORSOR_THREADS", "4")
        _, pooled, _ = run(capsys, *args)
        assert lone == pooled


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
