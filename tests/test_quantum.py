"""Tests for the measurement substrate and the pattern acceptors."""

from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moqfa import (
    DensityMatrix,
    FormatError,
    MeasureOnlyAutomaton,
    Observable,
    PatternError,
    SubsequencePattern,
    acceptance_probabilities,
    acceptance_probability,
    cutpoint_params,
    down_projector,
    format_automaton,
    identity_observable,
    measure,
    parse_automaton,
    pattern_automaton,
    recognizes_with_cutpoint,
    up_projector,
    validate_observable,
)

import oracles
import support

UP2 = np.array([[0.5, 0.5], [0.5, 0.5]])
DOWN2 = np.array([[0.5, -0.5], [-0.5, 0.5]])


def pattern(letters, alphabet):
    return SubsequencePattern(tuple(letters), tuple(alphabet))


# ---------------------------------------------------------------------------
# projector construction


def test_elementary_projectors_for_single_letter_pattern():
    p = pattern("a", "ab")
    assert np.array_equal(up_projector(p, "a"), UP2)
    assert np.array_equal(down_projector(p, "a"), DOWN2)


def test_projector_blocks_for_two_letter_pattern():
    p = pattern("ab", "ab")
    expected_up_b = np.zeros((3, 3))
    expected_up_b[0, 0] = 1.0
    expected_up_b[1:3, 1:3] = UP2
    assert np.array_equal(up_projector(p, "b"), expected_up_b)
    expected_down_a = np.zeros((3, 3))
    expected_down_a[0:2, 0:2] = DOWN2
    assert np.array_equal(down_projector(p, "a"), expected_down_a)


def test_projector_blocks_for_repeated_letter():
    # in [a, b, a] the letter a occupies positions 1 and 3, so its up
    # projector has mixing blocks on coordinates {1,2} and {3,4}
    p = pattern("aba", "ab")
    expected = np.zeros((4, 4))
    expected[0:2, 0:2] = UP2
    expected[2:4, 2:4] = UP2
    assert np.array_equal(up_projector(p, "a"), expected)
    expected_b = np.zeros((4, 4))  # down projectors vanish outside their blocks
    expected_b[1:3, 1:3] = DOWN2
    assert np.array_equal(down_projector(p, "b"), expected_b)


def test_projector_for_letter_outside_pattern_rejected():
    p = pattern("a", "ab")
    with pytest.raises(PatternError):
        up_projector(p, "b")


@pytest.mark.parametrize("letters", ["a", "ab", "aba", "abc", "abcab"])
def test_up_and_down_are_complementary(letters):
    p = pattern(letters, "abc")
    for sym in set(letters):
        up = up_projector(p, sym)
        down = down_projector(p, sym)
        assert np.allclose(up + down, np.eye(len(letters) + 1), atol=1e-15)
        assert np.max(np.abs(up @ down)) < 1e-15


# ---------------------------------------------------------------------------
# observable validation


def test_validate_observable_accepts_the_elementary_pair():
    obs = Observable(2, (("up", UP2), ("down", DOWN2)))
    assert validate_observable(obs) == []


def test_validate_observable_accepts_single_identity():
    assert validate_observable(identity_observable(2)) == []


def test_validate_observable_flags_duplicated_projector():
    obs = Observable(2, (("x", UP2), ("y", UP2)))
    report = validate_observable(obs)
    assert any("orthogonal" in entry for entry in report)
    assert any("identity" in entry for entry in report)


def test_validate_observable_reports_structural_issues_separately():
    obs = Observable(2, (("ok", UP2), ("bad", np.eye(3))))
    report = validate_observable(obs)
    assert any(entry.startswith("structural:") for entry in report)
    assert not any(entry.startswith("numeric:") for entry in report)


def test_validate_observable_flags_duplicate_labels():
    obs = Observable(2, (("x", UP2), ("x", DOWN2)))
    assert any("duplicate" in entry for entry in validate_observable(obs))


def test_validate_observable_flags_non_hermitian_and_non_idempotent():
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = validate_observable(Observable(2, (("x", skew), ("y", np.eye(2) - skew))))
    assert any("Hermitian" in entry for entry in report)
    scaled = Observable(2, (("x", 0.5 * np.eye(2)), ("y", 0.5 * np.eye(2))))
    assert any("idempotent" in entry for entry in validate_observable(scaled))


# ---------------------------------------------------------------------------
# density matrices and the measurement channel


def test_density_matrix_validates_invariants():
    with pytest.raises(ValueError):
        DensityMatrix([[0.5, 0.0], [0.0, 0.6]])  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix([[1.5, 0.0], [0.0, -0.5]])  # not PSD
    with pytest.raises(ValueError):
        DensityMatrix([[0.5, 1.0], [0.0, 0.5]])  # not Hermitian


def test_measure_single_letter_example():
    rho = DensityMatrix([[1.0, 0.0], [0.0, 0.0]])
    obs = pattern_automaton(pattern("a", "ab")).observables["a"]
    out = measure(rho, obs)
    assert np.allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-15)


def test_measure_identity_observable_is_noop():
    rho = DensityMatrix.pure(np.array([0.6, 0.8j]))
    out = measure(rho, identity_observable(2))
    assert np.allclose(out.matrix, rho.matrix, atol=1e-15)


def test_measure_dimension_mismatch():
    rho = DensityMatrix.pure(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        measure(rho, identity_observable(3))


@given(seed=st.integers(0, 10**6), dim=st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_measure_channel_is_idempotent(seed, dim):
    rng = np.random.default_rng(seed)
    obs = support.random_observable(rng, dim)
    amplitudes = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amplitudes /= np.linalg.norm(amplitudes)
    rho = DensityMatrix.pure(amplitudes)
    once = measure(rho, obs)
    twice = measure(once, obs)
    assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-9
    assert abs(once.matrix.trace() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# acceptance probability


def test_acceptance_hand_values():
    a1 = pattern_automaton(pattern("a", "ab"))
    a2 = pattern_automaton(pattern("ab", "ab"))
    assert acceptance_probability(a1, "a") == pytest.approx(0.5, abs=1e-12)
    assert acceptance_probability(a1, "") == pytest.approx(0.0, abs=1e-12)
    assert acceptance_probability(a2, "ab") == pytest.approx(0.25, abs=1e-12)
    assert acceptance_probability(a2, "ba") == pytest.approx(0.0, abs=1e-12)


def test_acceptance_rejects_foreign_symbol():
    a1 = pattern_automaton(pattern("a", "ab"))
    with pytest.raises(ValueError):
        acceptance_probability(a1, "ax")


def test_empty_pattern_accepts_everything_with_probability_one():
    auto = pattern_automaton(pattern("", "a"))
    assert auto.dimension == 1
    assert acceptance_probability(auto, "") == pytest.approx(1.0)
    assert acceptance_probability(auto, "aaa") == pytest.approx(1.0)


@given(
    seed=st.integers(0, 10**6),
    dim=st.integers(1, 4),
    word=st.text(alphabet="ab", max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_acceptance_matches_brute_force_oracle(seed, dim, word):
    auto = support.random_automaton(seed, dim, "ab")
    observables = {
        sym: [p.tolist() for _, p in obs.outcomes]
        for sym, obs in auto.observables.items()
    }
    accepting = [
        p.tolist() for label, p in auto.end_observable.outcomes if label in auto.accepting
    ]
    expected = oracles.brute_probability(auto.initial.tolist(), observables, word, accepting)
    assert acceptance_probability(auto, word) == pytest.approx(expected, abs=1e-10)


@given(seed=st.integers(0, 10**6), word=st.text(alphabet="ab", max_size=6))
@settings(max_examples=40, deadline=None)
def test_acceptance_invariant_under_outcome_permutation(seed, word):
    auto = support.random_automaton(seed, 3, "ab")
    flipped = {
        sym: Observable(3, tuple(reversed(obs.outcomes)))
        for sym, obs in auto.observables.items()
    }
    permuted = MeasureOnlyAutomaton(
        auto.alphabet, auto.initial, flipped, auto.end_observable, auto.accepting
    )
    assert acceptance_probability(permuted, word) == pytest.approx(
        acceptance_probability(auto, word), abs=1e-12
    )


def test_pattern_acceptor_probabilities_are_dyadic():
    for letters in ("a", "ab", "aba"):
        p = pattern(letters, "ab")
        auto = pattern_automaton(p)
        for word in support.words_up_to("ab", 5):
            exact = oracles.exact_pattern_probability(tuple(letters), word)
            assert acceptance_probability(auto, word) == pytest.approx(
                float(exact), abs=1e-12
            )


def measure_loop_probability(auto, word):
    """The acceptance probability spelled out with the public `measure`."""
    rho = DensityMatrix.pure(auto.initial)
    for sym in word:
        rho = measure(rho, auto.observables[sym])
    return min(1.0, max(0.0, float(np.trace(auto.accepting_projector() @ rho.matrix).real)))


def test_acceptance_probabilities_equal_a_measure_loop():
    rng = random.Random(20261018)
    for seed in range(40):
        alphabet = "ab" if seed % 2 else "abc"
        auto = support.random_automaton(seed, seed % 4 + 1, alphabet)
        bases = [tuple(rng.choice(alphabet) for _ in range(rng.randrange(7))) for _ in range(5)]
        words = [()] + bases + bases[:2]  # the empty word and repeats
        words += [w[:cut] for w in bases for cut in range(len(w))]  # shared prefixes
        words += [w + (sym,) for w in bases for sym in alphabet]
        rng.shuffle(words)
        expected = [measure_loop_probability(auto, w) for w in words]
        assert list(acceptance_probabilities(auto, words)) == expected
        # and in length-lexicographic order, where neighbours share the most
        order = sorted(range(len(words)), key=lambda i: (len(words[i]), words[i]))
        ordered = acceptance_probabilities(auto, [words[i] for i in order])
        assert list(ordered) == [expected[i] for i in order]


def test_acceptance_probabilities_reject_a_foreign_symbol_in_a_later_word():
    auto = pattern_automaton(pattern("ab", "ab"))
    probabilities = acceptance_probabilities(auto, ["ab", "a", "abx"])
    assert next(probabilities) == acceptance_probability(auto, "ab")
    assert next(probabilities) == acceptance_probability(auto, "a")
    with pytest.raises(ValueError, match="'x'"):
        next(probabilities)


def test_pattern_acceptors_agree_with_the_exact_oracle():
    words = list(support.words_up_to("abc", 4))
    random.Random(7).shuffle(words)
    for p in support.patterns_up_to(4, "abc"):
        probabilities = acceptance_probabilities(pattern_automaton(p), words)
        for word, probability in zip(words, probabilities, strict=True):
            exact = oracles.exact_pattern_probability(p.letters, word)
            assert abs(probability - float(exact)) <= 1e-12


# ---------------------------------------------------------------------------
# the constructed automaton as a whole


def test_pattern_automaton_structure():
    p = pattern("a", "ab")
    auto = pattern_automaton(p)
    assert auto.dimension == 2
    assert auto.observables["b"].labels() == ("pass",)
    assert auto.end_observable.labels() == ("accept", "reject")
    assert auto.accepting == frozenset({"accept"})
    for obs in (*auto.observables.values(), auto.end_observable):
        assert validate_observable(obs) == []


def test_pattern_automaton_rejects_adjacent_equal_letters():
    with pytest.raises(PatternError):
        pattern("aa", "ab")


def test_observable_laws_hold_up_to_length_eight():
    candidates = [p for p in support.patterns_up_to(8, "ab")]
    candidates += [p for p in support.patterns_up_to(4, "abc")]
    candidates.append(pattern("abcabcab", "abc"))
    candidates.append(pattern("acbacbac", "abc"))
    for p in candidates:
        auto = pattern_automaton(p)
        for obs in (*auto.observables.values(), auto.end_observable):
            assert validate_observable(obs) == []


def test_automaton_constructor_validations():
    good = pattern_automaton(pattern("a", "ab"))
    with pytest.raises(ValueError):
        MeasureOnlyAutomaton(
            "ab", [0.5, 0.0], good.observables, good.end_observable, {"accept"}
        )
    with pytest.raises(ValueError):
        MeasureOnlyAutomaton(
            "ab",
            good.initial,
            {"a": good.observables["a"]},
            good.end_observable,
            {"accept"},
        )
    with pytest.raises(ValueError):
        MeasureOnlyAutomaton(
            "ab", good.initial, good.observables, good.end_observable, {"nope"}
        )


def test_automaton_constructor_refuses_a_nan_initial_vector():
    good = pattern_automaton(pattern("a", "ab"))
    with pytest.raises(ValueError, match="initial vector norm is nan"):
        MeasureOnlyAutomaton(
            "ab", [np.nan, 0.0], good.observables, good.end_observable, {"accept"}
        )
    text = format_automaton(good).replace("initial: 1.0,0.0 0.0,0.0", "initial: nan,0.0 0.0,0.0")
    with pytest.raises(ValueError, match="initial vector norm is nan"):
        parse_automaton(text)


def test_automaton_constructor_validates_every_observable():
    good = pattern_automaton(pattern("a", "ab"))
    half = 0.5 * np.eye(2)
    observables = dict(good.observables, a=Observable(2, (("x", half), ("y", half))))
    message = "observable 'a': numeric: projector 'x' is not idempotent"
    with pytest.raises(ValueError, match=re.escape(message)):
        MeasureOnlyAutomaton("ab", good.initial, observables, good.end_observable, {"accept"})
    end = Observable(2, (("accept", np.eye(2)), ("reject", np.eye(2))))
    with pytest.raises(ValueError, match=re.escape("end-observable: numeric: projectors 'accept'")):
        MeasureOnlyAutomaton("ab", good.initial, good.observables, end, {"accept"})


def test_cutpoint_params_are_exact():
    assert cutpoint_params(pattern("a", "ab")) == (0.125, 0.0625)
    assert cutpoint_params(pattern("ab", "ab")) == (0.03125, 0.015625)
    assert cutpoint_params(pattern("", "ab")) == (0.5, 0.25)


def test_recognizes_with_cutpoint_pass_and_fail():
    p = pattern("a", "ab")
    auto = pattern_automaton(p)
    words = list(support.words_up_to("ab", 4))
    report = recognizes_with_cutpoint(auto, 0.125, 0.0625, p.matches, words)
    assert report.ok
    bad = recognizes_with_cutpoint(auto, 0.6, 0.0625, p.matches, words)
    assert not bad.ok
    failing = [c for c in bad.checks if not (c.accepted == c.member and c.isolated)]
    assert ("a",) in {c.word for c in failing}


def test_recognizes_with_cutpoint_empty_word_set_passes():
    auto = pattern_automaton(pattern("a", "ab"))
    assert recognizes_with_cutpoint(auto, 0.125, 0.0625, lambda w: True, []).ok


def test_recognizes_with_cutpoint_requires_positive_isolation():
    auto = pattern_automaton(pattern("a", "ab"))
    with pytest.raises(ValueError):
        recognizes_with_cutpoint(auto, 0.125, 0.0, lambda w: True, [])


# ---------------------------------------------------------------------------
# text format


def test_format_parse_round_trip():
    auto = pattern_automaton(pattern("ab", "abc"))
    text = format_automaton(auto)
    back = parse_automaton(text)
    assert back.alphabet == auto.alphabet
    assert back.accepting == auto.accepting
    assert np.allclose(back.initial, auto.initial)
    for sym in auto.alphabet:
        assert back.observables[sym].labels() == auto.observables[sym].labels()
        for (_, p1), (_, p2) in zip(
            back.observables[sym].outcomes, auto.observables[sym].outcomes
        ):
            assert np.array_equal(p1, p2)
    for word in ("", "ab", "cab", "ba"):
        assert acceptance_probability(back, word) == pytest.approx(
            acceptance_probability(auto, word), abs=1e-15
        )


def test_format_is_stable():
    auto = pattern_automaton(pattern("a", "ab"))
    assert format_automaton(auto) == format_automaton(auto)


def test_parse_automaton_rejects_bad_header():
    with pytest.raises(FormatError) as err:
        parse_automaton("qfa dim=2 alphabet=ab\n")
    assert err.value.line == 1


def test_parse_automaton_rejects_short_matrix_row():
    auto = pattern_automaton(pattern("a", "ab"))
    lines = format_automaton(auto).splitlines()
    assert lines[3] == "outcome up"
    lines[4] = "0.5,0.0"  # first matrix row of the first outcome, now too short
    with pytest.raises(FormatError) as err:
        parse_automaton("\n".join(lines) + "\n")
    assert err.value.line == 5
    assert "entries" in str(err.value)


def test_parse_automaton_rejects_observable_without_outcomes():
    auto = pattern_automaton(pattern("a", "ab"))
    lines = format_automaton(auto).splitlines()
    lines[3] = "0.5,0.0 0.5,0.0"  # clobber 'outcome up', leaving a bare row
    with pytest.raises(FormatError) as err:
        parse_automaton("\n".join(lines) + "\n")
    assert err.value.line == 4
    assert "no outcomes" in str(err.value)


def test_parse_automaton_rejects_missing_observable():
    auto = pattern_automaton(pattern("a", "ab"))
    text = format_automaton(auto)
    head, _, tail = text.partition("observable b")
    tail = tail.split("end-observable", 1)[1]
    with pytest.raises(ValueError):
        parse_automaton(head + "end-observable" + tail)


def test_parse_automaton_skips_comments_and_blank_lines():
    auto = pattern_automaton(pattern("a", "ab"))
    text = "# header comment\n\n" + format_automaton(auto).replace(
        "observable a", "# interlude\nobservable a"
    )
    assert parse_automaton(text).alphabet == ("a", "b")
