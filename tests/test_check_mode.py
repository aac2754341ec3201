"""BITORSOR_CHECK=full: values built by formula are validated too, a formula
bug surfaces as AssertionError, and no output byte depends on the mode."""

from __future__ import annotations

import pytest

from bitorsor_kit import bitorsors as B
from bitorsor_kit import equivariant as E
from bitorsor_kit import errors
from bitorsor_kit import groups as G
from bitorsor_kit.errors import DomainError, by_formula

from conftest import cli_in_fresh_process, scrambled_trivial
from test_cli import S3_EXTENSION


def test_the_suite_runs_in_full_mode():
    assert errors.FULL_CHECK


def test_stdout_is_the_same_in_both_modes(tmp_path):
    ext = tmp_path / "tame.ext"
    ext.write_text(S3_EXTENSION)
    cert = tmp_path / "cert.json"
    registry = tmp_path / "reg.txt"
    registry.write_text("elementary cyclic:4 0\nelementary cyclic:4 1\n")
    decompose = ("decompose", "--extension", str(ext), "--group", "symmetric:3", "--class", "2")
    full_check, runs = cli_in_fresh_process([decompose + ("--format", "json")], check="full")
    assert full_check and runs[0][0] == 0
    cert.write_text(runs[0][1])
    commands = [
        decompose + ("--format", "json"),
        ("verify", "--certificate", str(cert)),
        ("h1", "--pi", "semidirect:3:2:2", "--group", "symmetric:3"),
        ("closure", "--pi", "cyclic:4", "--registry", str(registry),
         "--group", "cyclic:4", "--class", "2", "--max-n", "4"),
        ("local-survey", "--q", "3", "--n", "4", "--m", "2", "--group", "symmetric:4"),
    ]
    full_check, on = cli_in_fresh_process(commands, check="full")
    assert full_check
    default_check, off = cli_in_fresh_process(commands, check=None)
    assert not default_check
    assert [code for code, _, _ in on] == [0] * len(commands)
    assert on[1][1] == "all checks passed\n"
    assert on == off


def test_formula_bug_raises_assertion_error_past_domain_filters():
    c3, c2 = G.cyclic(3), G.cyclic(2)
    with pytest.raises(AssertionError, match="GroupHom built by formula is invalid"):
        try:
            by_formula(G.GroupHom, c3, c2, (0, 1, 1))
        except DomainError:
            pytest.fail("a formula bug was caught as a domain failure")


def test_default_mode_builds_without_checking(monkeypatch):
    c3, c2 = G.cyclic(3), G.cyclic(2)
    monkeypatch.setattr(errors, "FULL_CHECK", False)
    bad = by_formula(G.GroupHom, c3, c2, (0, 1, 1))
    assert (bad.src, bad.dst, bad.map) == (c3, c2, (0, 1, 1))
    with pytest.raises(G.NotAHomomorphism):
        G.GroupHom(c3, c2, (0, 1, 1))


@pytest.mark.parametrize("full", [False, True], ids=["default mode", "full-check mode"])
@pytest.mark.parametrize("extra", [(), ((0, 0, 0), "surplus")], ids=["one value short", "one value over"])
def test_a_wrong_count_of_values_raises_type_error(monkeypatch, full, extra):
    """A missing field is not left unset and a surplus value is not dropped,
    in either mode."""
    c3, c2 = G.cyclic(3), G.cyclic(2)
    monkeypatch.setattr(errors, "FULL_CHECK", full)
    with pytest.raises(TypeError, match="^GroupHom has 3 fields, got [24] values$"):
        by_formula(G.GroupHom, c3, c2, *extra)


def test_built_values_equal_constructed_ones():
    s3 = G.symmetric(3)
    built = by_formula(G.GroupHom, s3, s3, tuple(s3.elements))
    made = G.GroupHom(s3, s3, tuple(s3.elements))
    assert built == made and hash(built) == hash(made) and repr(built) == repr(made)
    fresh = G.symmetric(3)
    assert (s3.order, s3.elements) == (6, range(6))  # now stored on s3 alone
    assert fresh == s3 and hash(fresh) == hash(s3)


def test_a_table_read_is_checked_once(monkeypatch, rng):
    """Each checked table entry runs its table validator once in full-check
    mode: the tables it checked are the derived ones the value keeps, so
    the value's own validator does not derive and check them again."""
    assert errors.FULL_CHECK
    g = G.dihedral(4)
    b = scrambled_trivial(g, rng)
    theta = next(h for h in G.enumerate_homs(G.cyclic(2), g) if h.map != (g.identity,) * 2)
    p = E.from_theta(E.ThetaBitorsor(b, theta))
    la, ra, pa = b.left_act, b.right_act, p.pi_action_on_points
    calls = []

    def count(module, name):
        check = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or check(*args))

    count(B, "_check_tables")
    count(E, "_check_point_action")
    read = B.Bitorsor.from_tables(g, g, la, ra)
    assert calls == ["_check_tables"]
    assert read == b and read.left_act is la and read.right_act is ra
    calls.clear()
    read_pi = E.PiBitorsor.from_tables(p.left, p.right, read, pa)
    assert calls == ["_check_point_action"]
    assert read_pi == p and read_pi.pi_action_on_points is pa
