"""Tests for the command-line interface: output formats and exit codes."""

from __future__ import annotations

from moqfa.cli import main

CONTAINS_A = """\
states 2
alphabet a b
initial 0
accepting 1
trans 0 a 1
trans 0 b 0
trans 1 a 1
trans 1 b 1
"""

EVEN_A_BLOCKS = """\
states 2
alphabet a
initial 0
accepting 0
trans 0 a 1
trans 1 a 0
"""

ENDS_WITH_A = """\
states 2
alphabet a b
initial 0
accepting 1
trans 0 a 1
trans 0 b 0
trans 1 a 1
trans 1 b 0
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# synth


def test_synth_prints_dimension_and_cut_point(capsys):
    code, out, _ = run(capsys, "synth", "--letters", "a", "b", "--alphabet", "ab")
    assert code == 0
    assert out == "dim: 3\nlambda: 0.031250000000\ndelta: 0.015625000000\n"


def test_synth_rejects_adjacent_equal_letters(capsys):
    code, _, err = run(capsys, "synth", "--letters", "a", "a", "--alphabet", "ab")
    assert code == 1
    assert "adjacent" in err


def test_synth_emits_a_parseable_automaton(tmp_path, capsys):
    target = tmp_path / "acceptor.qfa"
    code, _, _ = run(
        capsys, "synth", "--letters", "a", "--alphabet", "ab", "--emit", str(target)
    )
    assert code == 0
    assert target.read_text().startswith("mon1qfa dim=2 alphabet=ab\n")
    code, out, _ = run(capsys, "prob", "--qfa", str(target), "--word", "a")
    assert code == 0
    assert out == "0.500000000000\n"


# ---------------------------------------------------------------------------
# prob


def test_prob_hand_values(capsys):
    cases = [
        (["--letters", "a", "--alphabet", "ab", "--word", "a"], "0.500000000000\n"),
        (["--letters", "a", "b", "--alphabet", "ab", "--word", "ab"], "0.250000000000\n"),
        (["--letters", "a", "--alphabet", "ab", "--word", ""], "0.000000000000\n"),
    ]
    for argv, expected in cases:
        code, out, _ = run(capsys, "prob", *argv)
        assert code == 0
        assert out == expected


def test_prob_rejects_foreign_symbol(capsys):
    code, _, err = run(capsys, "prob", "--letters", "a", "--alphabet", "ab", "--word", "ax")
    assert code == 1
    assert "'x'" in err


def test_prob_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run(capsys, "prob", "--word", "a")
    assert code == 1
    qfa = write(tmp_path, "x.qfa", "mon1qfa dim=1 alphabet=a\n")
    code, _, err = run(
        capsys, "prob", "--qfa", qfa, "--letters", "a", "--alphabet", "a", "--word", "a"
    )
    assert code == 1


def test_prob_validates_observables_from_file(capsys, tmp_path):
    bad = """\
mon1qfa dim=1 alphabet=a
initial: 1.0,0.0
observable a
outcome broken
0.5,0.0
end-observable
outcome accept
1.0,0.0
accepting: accept
"""
    qfa = write(tmp_path, "bad.qfa", bad)
    code, _, err = run(capsys, "prob", "--qfa", qfa, "--word", "a")
    assert code == 1
    assert "identity" in err or "idempotent" in err


def test_prob_refuses_a_nan_initial_vector(capsys, tmp_path):
    nan = """\
mon1qfa dim=1 alphabet=a
initial: nan,0.0
observable a
outcome pass
1.0,0.0
end-observable
outcome accept
1.0,0.0
accepting: accept
"""
    qfa = write(tmp_path, "nan.qfa", nan)
    code, out, err = run(capsys, "prob", "--qfa", qfa, "--word", "a")
    assert code == 1
    assert out == ""
    assert "initial vector norm is nan" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_for_single_letter_pattern(capsys):
    code, out, _ = run(
        capsys, "verify", "--letters", "a", "--alphabet", "ab", "--maxlen", "6"
    )
    assert code == 0
    assert "lambda: 0.125000000000" in out
    assert "delta: 0.062500000000" in out
    assert "words_checked: 127" in out
    assert "min_margin: 0.125000000000" in out
    assert "misclassified:\n" in out
    assert "verdict: PASS" in out


def test_verify_rejects_bad_pattern(capsys):
    code, _, err = run(
        capsys, "verify", "--letters", "a", "a", "--alphabet", "ab", "--maxlen", "3"
    )
    assert code == 1


def test_verify_budget_exhaustion_is_exit_2(capsys):
    code, _, err = run(
        capsys,
        "verify", "--letters", "a", "--alphabet", "ab", "--maxlen", "8",
        "--budget", "10",
    )
    assert code == 2
    assert "budget" in err


def test_verify_budget_refusal_for_a_huge_maxlen_is_exit_2(capsys):
    code, out, err = run(
        capsys, "verify", "--letters", "a", "--alphabet", "ab", "--maxlen", "20000"
    )
    assert code == 2
    assert out == ""
    assert "budget" in err


# ---------------------------------------------------------------------------
# check


def test_check_member(capsys, tmp_path):
    path = write(tmp_path, "contains_a.dfa", CONTAINS_A)
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert "verdict: MEMBER" in out
    assert "minimal_states: 2" in out
    assert "literally_idempotent: true" in out
    assert "partially_ordered: true" in out
    assert "piecewise_testable: true" in out


def test_check_non_member_not_li(capsys, tmp_path):
    path = write(tmp_path, "even.dfa", EVEN_A_BLOCKS)
    code, out, _ = run(capsys, "check", path)
    assert code == 3
    assert "verdict: NON-MEMBER (NOT_LI)" in out


def test_check_non_member_not_pt(capsys, tmp_path):
    path = write(tmp_path, "ends.dfa", ENDS_WITH_A)
    code, out, _ = run(capsys, "check", path)
    assert code == 3
    assert "verdict: NON-MEMBER (NOT_PT)" in out


def test_check_parse_error_names_line(capsys, tmp_path):
    path = write(tmp_path, "broken.dfa", CONTAINS_A.replace("trans 1 b 1\n", ""))
    code, _, err = run(capsys, "check", path)
    assert code == 1
    assert "missing transition" in err


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.dfa"))
    assert code == 1


# ---------------------------------------------------------------------------
# monoid and variation


def test_monoid_report(capsys, tmp_path):
    path = write(tmp_path, "contains_a.dfa", CONTAINS_A)
    code, out, _ = run(capsys, "monoid", path)
    assert code == 0
    assert "size: 2" in out
    assert "j_trivial: true" in out
    assert "letters_idempotent: true" in out
    assert "idempotent_count: 2" in out


def test_variation_of_word(capsys, tmp_path):
    path = write(tmp_path, "contains_a.dfa", CONTAINS_A)
    code, out, _ = run(capsys, "variation", path, "--word", "bab")
    assert code == 0
    assert out == "variation: 1\n"


def test_variation_sup_infinite(capsys, tmp_path):
    path = write(tmp_path, "ends.dfa", ENDS_WITH_A)
    code, out, _ = run(capsys, "variation", path)
    assert code == 0
    assert out == "sup: INFINITE\n"


def test_variation_sup_finite(capsys, tmp_path):
    path = write(tmp_path, "contains_a.dfa", CONTAINS_A)
    code, out, _ = run(capsys, "variation", path)
    assert code == 0
    assert out == "sup: 1\n"


# ---------------------------------------------------------------------------
# usage errors and stability


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "synth", "--alphabet", "ab")
    assert code == 1


def test_reports_are_byte_stable(capsys, tmp_path):
    path = write(tmp_path, "contains_a.dfa", CONTAINS_A)
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "check", path)
        outputs.add(out)
    assert len(outputs) == 1
