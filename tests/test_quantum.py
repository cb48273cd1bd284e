"""Tests for the measurement substrate and the pattern acceptors."""

from __future__ import annotations

import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moqfa
from moqfa.exact import pattern_probabilities
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
    format_automaton,
    identity_observable,
    measure,
    parse_automaton,
    pattern_acceptor,
    pattern_automaton,
    recognizes_with_cutpoint,
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


def projector(p, sym, label):
    """Outcome `label` of `sym` in `pattern_acceptor(p)`, as a dense matrix."""
    d = len(p.letters) + 1
    matrix = np.zeros((d, d))
    for (r, c), x in dict(pattern_acceptor(p).observables[sym])[label].items():
        matrix[r, c] = x
    return matrix


def test_elementary_projectors_for_single_letter_pattern():
    p = pattern("a", "ab")
    assert np.array_equal(projector(p, "a", "up"), UP2)
    assert np.array_equal(projector(p, "a", "down"), DOWN2)


def test_projector_blocks_for_two_letter_pattern():
    p = pattern("ab", "ab")
    expected_up_b = np.zeros((3, 3))
    expected_up_b[0, 0] = 1.0
    expected_up_b[1:3, 1:3] = UP2
    assert np.array_equal(projector(p, "b", "up"), expected_up_b)
    expected_down_a = np.zeros((3, 3))
    expected_down_a[0:2, 0:2] = DOWN2
    assert np.array_equal(projector(p, "a", "down"), expected_down_a)


def test_projector_blocks_for_repeated_letter():
    # in [a, b, a] the letter a occupies positions 1 and 3, so its up
    # projector has mixing blocks on coordinates {1,2} and {3,4}
    p = pattern("aba", "ab")
    expected = np.zeros((4, 4))
    expected[0:2, 0:2] = UP2
    expected[2:4, 2:4] = UP2
    assert np.array_equal(projector(p, "a", "up"), expected)
    expected_b = np.zeros((4, 4))  # down projectors vanish outside their blocks
    expected_b[1:3, 1:3] = DOWN2
    assert np.array_equal(projector(p, "b", "down"), expected_b)


@pytest.mark.parametrize("letters", ["a", "ab", "aba", "abc", "abcab"])
def test_up_and_down_are_complementary(letters):
    p = pattern(letters, "abc")
    for sym in set(letters):
        up = projector(p, sym, "up")
        down = projector(p, sym, "down")
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
    with pytest.raises(ValueError) as err:
        Observable(2, (("x", UP2), ("y", UP2)))
    assert "orthogonal" in str(err.value)
    assert "identity" in str(err.value)


def test_validate_observable_reports_structural_issues_separately():
    with pytest.raises(ValueError) as err:
        Observable(2, (("ok", UP2), ("bad", np.eye(3))))
    report = str(err.value).split("; ")
    assert any(entry.startswith("structural:") for entry in report)
    assert not any(entry.startswith("numeric:") for entry in report)


def test_validate_observable_flags_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        Observable(2, (("x", UP2), ("x", DOWN2)))


def test_validate_observable_flags_non_hermitian_and_non_idempotent():
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        Observable(2, (("x", skew), ("y", np.eye(2) - skew)))
    with pytest.raises(ValueError, match="idempotent"):
        Observable(2, (("x", 0.5 * np.eye(2)), ("y", 0.5 * np.eye(2))))


def test_validate_observable_counts_an_overflowed_residual_as_a_violation():
    # p @ p overflows to inf and NaN; a NaN residual must not read as "within EPS"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            Observable(2, (("up", [[1e308 + 1e308j, 0], [0, 0]]), ("down", [[0, 0], [0, 1]])))
    assert str(err.value).split("; ") == [
        "numeric: projector 'up' is not Hermitian",
        "numeric: projector 'up' is not idempotent",
        "numeric: projectors do not sum to the identity",
    ]


@pytest.mark.parametrize("label", ["", "a b", "\t", 0])
def test_observable_refuses_labels_the_text_format_cannot_carry(label):
    message = f"structural: outcome label {label!r} is not a non-empty string without whitespace"
    with pytest.raises(ValueError, match=re.escape(message)):
        Observable(2, ((label, UP2), ("down", DOWN2)))


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


def referee_channel(projectors, rho):
    """sum_i P_i rho P_i on plain arrays, one projector at a time with
    Python's `sum`: shares no code with the library's channel."""
    return sum(p @ rho @ p for p in projectors)


def referee_probability(auto, word):
    projectors = {sym: [p for _, p in obs.outcomes] for sym, obs in auto.observables.items()}
    rho = np.outer(auto.initial.conj(), auto.initial)
    for sym in word:
        rho = referee_channel(projectors[sym], rho)
    return min(1.0, max(0.0, float(np.trace(auto.accepting_projector() @ rho).real)))


def test_the_channel_equals_a_python_sum_bit_for_bit():
    rng = random.Random(20261019)
    autos = [
        pattern_automaton(pattern(letters, "abc"))
        for letters in ("", "a", "ab", "cab", "abcab", "abcabcab")
    ]
    # dimensions 1-8 over two and three letters
    autos += [
        support.random_automaton(seed, seed % 8 + 1, "ab" if seed % 3 else "abc")
        for seed in range(100)
    ]
    outcome_counts = {len(obs.outcomes) for auto in autos for obs in auto.observables.values()}
    assert set(range(1, 7)) <= outcome_counts
    for auto in autos:
        words = [()] + [
            tuple(rng.choice(auto.alphabet) for _ in range(rng.randrange(1, 13))) for _ in range(40)
        ]
        expected = [referee_probability(auto, w) for w in words]
        assert list(acceptance_probabilities(auto, words)) == expected
        rho = DensityMatrix.pure(auto.initial)
        for sym in words[-1]:
            projectors = [p for _, p in auto.observables[sym].outcomes]
            expected = referee_channel(projectors, rho.matrix)
            rho = measure(rho, auto.observables[sym])
            assert (rho.matrix == expected).all()


@pytest.mark.parametrize("symbol", [["a"], {"a": 1}], ids=["list", "dict"])
def test_an_unhashable_symbol_is_not_in_the_alphabet(symbol):
    p, words = pattern("a", "ab"), [["a", symbol]]
    matrices = acceptance_probabilities(pattern_automaton(p), words)
    for walk in (matrices, pattern_probabilities(p, words)):
        with pytest.raises(ValueError, match=r"symbol .* is not in the alphabet"):
            next(walk)


def test_acceptance_probabilities_reject_a_foreign_symbol_in_a_later_word():
    auto = pattern_automaton(pattern("ab", "ab"))
    probabilities = acceptance_probabilities(auto, ["ab", "a", "abx"])
    assert next(probabilities) == acceptance_probability(auto, "ab")
    assert next(probabilities) == acceptance_probability(auto, "a")
    with pytest.raises(ValueError, match="'x'"):
        next(probabilities)


def test_evaluation_memory_does_not_grow_with_the_word():
    auto = pattern_automaton(pattern("ab" * 16, "ab"))  # d = 33
    word = "ab" * 2500
    tracemalloc.start()
    try:
        acceptance_probability(auto, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 20 states of 33 x 33 complex entries; keeping every prefix's state
    # would take 5,000 of them
    assert peak < 20 * 33 * 33 * 16


def test_acceptors_compare_and_hash_by_identity():
    p = pattern("ab", "abc")
    a, b = pattern_automaton(p), pattern_automaton(p)
    assert a == a and not a != a
    assert a != b and not a == b
    assert a in [b, a] and len({a, b}) == 2
    obs = a.observables["a"]
    assert obs == obs and obs != b.observables["a"] and obs in {obs}
    rho = DensityMatrix.pure(a.initial)
    assert rho == rho and rho != DensityMatrix.pure(a.initial) and rho in {rho}


def test_pattern_acceptors_agree_with_the_exact_oracle():
    words = list(support.words_up_to("abc", 4))
    random.Random(7).shuffle(words)
    for p in support.patterns_up_to(4, "abc"):
        probabilities = acceptance_probabilities(pattern_automaton(p), words)
        for word, probability in zip(words, probabilities, strict=True):
            exact = oracles.exact_pattern_probability(p.letters, word)
            assert abs(probability - float(exact)) <= 1e-12


def test_the_float_walk_prints_the_matrix_evaluators_bytes():
    # prob --letters walks the diagonal state of the sparse form in floats
    cases = [(p, list(support.words_up_to("abc", 6))) for p in support.patterns_up_to(3, "abc")]
    rng = random.Random(26)
    for _ in range(40):
        alphabet = "abcd"[: rng.randint(2, 4)]
        letters = []
        for _ in range(rng.randint(0, 20)):
            letters.append(rng.choice([x for x in alphabet if letters[-1:] != [x]]))
        words = ["".join(rng.choices(alphabet, k=rng.randint(0, 2000))) for _ in range(3)]
        cases.append((pattern(letters, alphabet), words))
    for p, words in cases:
        walked = pattern_probabilities(p, words)
        matrices = acceptance_probabilities(pattern_automaton(p), words)
        for word, x, y in zip(words, walked, matrices, strict=True):
            assert f"{x:.12f}" == f"{y:.12f}", (p, word)
    walked = pattern_probabilities(pattern("a", "ab"), ["ab", "abx"])
    assert next(walked) == 0.5
    with pytest.raises(ValueError, match="symbol 'x' is not in the alphabet"):
        next(walked)


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


def _nonzero_entries(matrix):
    rows, cols = np.nonzero(matrix)
    return dict(zip(zip(rows.tolist(), cols.tolist()), matrix[rows, cols].tolist()))


def _assert_holds_the_entries_of(auto, acceptor):
    assert (auto.alphabet, auto.accepting) == (acceptor.alphabet, acceptor.accepting)
    assert auto.initial.tolist() == list(acceptor.initial)
    assert set(auto.observables) == set(acceptor.observables)
    pairs = [(auto.observables[sym], acceptor.observables[sym]) for sym in acceptor.alphabet]
    for obs, outcomes in pairs + [(auto.end_observable, acceptor.end_observable)]:
        assert obs.labels() == tuple(label for label, _ in outcomes)
        for (_, matrix), (_, entries) in zip(obs.outcomes, outcomes):
            # exact dyadics, held as Python ints and floats, and only nonzero ones
            assert all(type(x) in (int, float) and x for x in entries.values())
            assert _nonzero_entries(matrix) == entries


def _sparse_form_patterns():
    patterns = [p for alphabet in ("ab", "abc", "abcd") for p in support.patterns_up_to(5, alphabet)]
    assert len(patterns) == 590
    return patterns + [pattern("ab" * 100, "abc"), pattern("ab" * 268, "ab")]


@pytest.mark.parametrize(
    "matrices",
    [
        pattern_automaton,
        lambda p: parse_automaton(format_automaton(pattern_automaton(p))),
        lambda p: parse_automaton(format_automaton(pattern_acceptor(p))),
    ],
    ids=["rendered", "emitted_and_parsed", "written_sparse_and_parsed"],
)
def test_the_sparse_form_is_the_emitted_acceptor_entry_for_entry(matrices):
    # verify and prob walk the sparse form, synth --emit writes it: the
    # matrices must be one acceptor, also at lengths in the hundreds
    for p in _sparse_form_patterns():
        _assert_holds_the_entries_of(matrices(p), pattern_acceptor(p))


def _row_loop_text(auto):
    """The text format written row by row from the matrices."""
    entry = lambda z: ",".join(repr(float(x) if x else 0.0) for x in (z.real, z.imag))
    lines = [f"mon1qfa dim={auto.dimension} alphabet={''.join(auto.alphabet)}"]
    lines.append("initial: " + " ".join(map(entry, auto.initial)))
    sections = [(f"observable {sym}", auto.observables[sym]) for sym in auto.alphabet]
    for header, obs in sections + [("end-observable", auto.end_observable)]:
        lines.append(header)
        for label, p in obs.outcomes:
            lines.append(f"outcome {label}")
            lines += [" ".join(map(entry, row)) for row in p]
    lines.append("accepting: " + " ".join(sorted(auto.accepting)))
    return "\n".join(lines) + "\n"


def test_the_sparse_form_is_written_as_the_matrices_byte_for_byte():
    for p in _sparse_form_patterns():
        auto = pattern_automaton(p)
        assert format_automaton(pattern_acceptor(p)) == format_automaton(auto) == _row_loop_text(auto)


def _with_entries(acceptor, sym, index, change):
    """`acceptor` with outcome `index` of `sym` (None: of the end-word
    observable) updated by `change`, where a value of None drops the entry."""
    outcomes = acceptor.end_observable if sym is None else acceptor.observables[sym]
    label, entries = outcomes[index]
    entries = {rc: x for rc, x in {**entries, **change}.items() if x is not None}
    outcomes = outcomes[:index] + ((label, entries),) + outcomes[index + 1 :]
    if sym is None:
        return acceptor._replace(end_observable=outcomes)
    return acceptor._replace(observables={**acceptor.observables, sym: outcomes})


@pytest.mark.parametrize(
    "mutate, problem",
    [
        (
            lambda f: _with_entries(f, "a", 0, {(0, 0): 0.25}),
            "observable 'a': projectors do not sum to the identity",
        ),
        (
            lambda f: _with_entries(_with_entries(f, "a", 0, {(0, 0): 0.25}), "a", 1, {(0, 0): 0.75}),
            "observable 'a': 'up' and 'down' are not orthogonal",
        ),
        (
            lambda f: _with_entries(f, "b", 1, {(1, 2): 0.5}),
            "observable 'b': projector 'down' is not Hermitian",
        ),
        (
            lambda f: _with_entries(f, "c", 0, {(1, 1): None}),
            "observable 'c': projectors do not sum to the identity",
        ),
        (
            lambda f: _with_entries(f, None, 1, {(0, 0): None}),
            "end-observable: projectors do not sum to the identity",
        ),
        (lambda f: f._replace(initial=(0.5, 0.5, 0.5)), "the initial amplitudes do not have unit norm"),
    ],
    ids=[
        "up_block_quarter",
        "up_and_down_quarters",
        "down_sign",
        "pass_entry_dropped",
        "end_incomplete",
        "initial_norm",
    ],
)
def test_the_exact_law_check_refuses_a_broken_form(mutate, problem):
    good = pattern_acceptor(pattern("ab", "abc"))
    with pytest.raises(ValueError, match=re.escape(problem)):
        mutate(good).check_laws()
    good.check_laws()


def test_the_pattern_form_is_checked_where_it_is_written(monkeypatch):
    # verify reads no matrix, so the exact check is its one check of the laws
    written = moqfa.patterns._letter_outcomes

    def quartered(p, sym):
        (up_label, up), (down_label, down) = written(p, sym)
        return (up_label, {**up, (0, 0): 0.25}), (down_label, {**down, (0, 0): 0.75})

    monkeypatch.setattr(moqfa.patterns, "_letter_outcomes", quartered)
    with pytest.raises(ValueError, match="'up' and 'down' are not orthogonal"):
        pattern_acceptor(pattern("a", "a"))
    with pytest.raises(ValueError, match="'up' and 'down' are not orthogonal"):
        moqfa.verify_construction(pattern("a", "a"), 2)


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


def test_automaton_initial_vector_is_read_only_whatever_the_input_order():
    # a list or a strided vector is copied into one frozen C-order array; a
    # matrix is refused, not flattened into a vector of its entries
    identity = identity_observable(4)
    for entries in ([0.5, 0.5, 0.5, 0.5], np.full(8, 0.5)[::2]):
        acceptor = MeasureOnlyAutomaton("a", entries, {"a": identity}, identity, set())
        assert not acceptor.initial.flags.writeable
        assert acceptor.initial.flags.c_contiguous
    with pytest.raises(ValueError, match=re.escape("got shape (2, 2)")):
        matrix = np.asfortranarray(np.full((2, 2), 0.5))
        MeasureOnlyAutomaton("a", matrix, {"a": identity}, identity, set())


def test_pure_state_refuses_amplitudes_that_are_not_a_vector():
    with pytest.raises(ValueError, match=re.escape("got shape (2, 2)")):
        DensityMatrix.pure(np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match=re.escape("got shape ()")):
        DensityMatrix.pure(1.0)
    assert DensityMatrix.pure([1.0]).dimension == 1


def test_automaton_constructor_validates_every_observable():
    # the laws are checked when an observable is built, so no acceptor can
    # be handed a broken one
    half = 0.5 * np.eye(2)
    with pytest.raises(ValueError, match=re.escape("numeric: projector 'x' is not idempotent")):
        Observable(2, (("x", half), ("y", half)))
    with pytest.raises(ValueError, match=re.escape("numeric: projectors 'accept'")):
        Observable(2, (("accept", np.eye(2)), ("reject", np.eye(2))))


def test_parse_automaton_names_the_line_of_a_broken_observable():
    text = format_automaton(pattern_automaton(pattern("a", "ab")))
    lines = text.splitlines()
    assert lines[2:4] == ["observable a", "outcome up"]
    lines[4] = "0.5,0.0 0.0,0.0"  # 'up' is Hermitian no more, nor idempotent
    with pytest.raises(FormatError) as err:
        parse_automaton("\n".join(lines) + "\n")
    assert err.value.line == 3
    assert str(err.value).startswith(
        "line 3: observable 'a': numeric: projector 'up' is not Hermitian; "
    )
    assert "projector 'up' is not idempotent" in str(err.value)
    broken_end = text.replace("0.0,0.0 0.0,0.0\naccepting", "0.0,0.0 1.0,0.0\naccepting")
    end_line = text.splitlines().index("end-observable") + 1
    with pytest.raises(FormatError) as err:
        parse_automaton(broken_end)
    assert err.value.line == end_line
    assert str(err.value).startswith(f"line {end_line}: end-observable: numeric: ")


def test_parse_automaton_refuses_a_huge_entry_without_a_warning():
    lines = format_automaton(pattern_automaton(pattern("a", "ab"))).splitlines()
    assert lines[3:5] == ["outcome up", "0.5,0.0 0.5,0.0"]
    lines[4] = "1e308,0 0.5,0.0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError) as err:
            parse_automaton("\n".join(lines) + "\n")
    assert err.value.line == 3
    assert "numeric: projector 'up' is not idempotent" in str(err.value)


def test_cutpoint_params_are_exact():
    assert cutpoint_params(pattern("a", "ab")) == (0.125, 0.0625)
    assert cutpoint_params(pattern("ab", "ab")) == (0.03125, 0.015625)
    assert cutpoint_params(pattern("", "ab")) == (0.5, 0.25)


def test_cutpoint_params_refuse_a_radius_that_underflows():
    # 2^-1074 is the smallest positive float; at k = 537 the radius 2^-1076
    # would round to 0 and make every isolation check vacuous
    assert cutpoint_params(pattern("ab" * 268, "ab")) == (2.0**-1073, 2.0**-1074)
    with pytest.raises(ValueError, match=re.escape("isolation radius 2^-1076")):
        cutpoint_params(pattern("ab" * 268 + "a", "ab"))


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


def test_recognizes_with_cutpoint_refuses_nan_radius():
    # NaN <= 0 is false, and every |p - lambda| >= NaN reads "not isolated"
    auto = pattern_automaton(pattern("a", "ab"))
    with pytest.raises(ValueError, match="isolation radius must be positive"):
        recognizes_with_cutpoint(auto, 0.125, math.nan, lambda w: True, [("a",)])


def test_recognizes_with_cutpoint_refuses_nan_cutpoint():
    # every p > NaN is false, so every word would read "not accepted"
    auto = pattern_automaton(pattern("a", "ab"))
    with pytest.raises(ValueError, match="cut point"):
        recognizes_with_cutpoint(auto, math.nan, 0.0625, lambda w: True, [("a",)])


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


# ---------------------------------------------------------------------------
# numpy is imported by the first matrix operation, in a fresh interpreter

CONTAINS_A = (
    "states 2\nalphabet a b\ninitial 0\naccepting 1\n"
    "trans 0 a 1\ntrans 0 b 0\ntrans 1 a 1\ntrans 1 b 1\n"
)


def _child(argv, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(Path(moqfa.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )


def test_dfa_commands_never_execute_numpy(tmp_path):
    (tmp_path / "contains_a.dfa").write_text(CONTAINS_A)
    script = (
        "import sys\n"
        "from moqfa.cli import main\n"
        "runs = (['check'], ['monoid'], ['variation'], ['variation', '--word', 'ab'])\n"
        "codes = [main([cmd, 'contains_a.dfa', *rest]) for cmd, *rest in runs]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    child = _child(["-c", script], cwd=tmp_path)
    assert child.stdout.splitlines()[-1] == "[0, 0, 0, 0] False", child.stderr


@pytest.mark.parametrize(
    "call, loads",
    [
        ("moqfa.verify_construction(moqfa.SubsequencePattern('abcab', 'abcd'), 5)", False),
        ("main(['verify', '--letters', 'a', 'b', '--alphabet', 'abc', '--maxlen', '4'])", False),
        ("main(['synth', '--letters', 'a', 'b', '--alphabet', 'abc'])", False),
        ("main(['synth', '--letters', 'a', 'b', '--alphabet', 'abc', '--emit', 'ab.qfa'])", False),
        ("main(['prob', '--letters', 'a', 'b', '--alphabet', 'abc', '--word', 'ab'])", False),
        (
            "main(['synth', '--letters', 'a', '--alphabet', 'ab', '--emit', 'a.qfa'])\n"
            "main(['prob', '--qfa', 'a.qfa', '--word', 'ab'])",
            True,
        ),
    ],
    ids=["verify_construction", "verify", "synth", "synth_emit", "prob", "prob_qfa"],
)
def test_only_matrices_execute_numpy(call, loads, tmp_path):
    # verify, synth, synth --emit and prob --letters read the pattern
    # acceptor's sparse form; only an acceptor read from text needs matrices
    script = f"import sys, moqfa\nfrom moqfa.cli import main\n{call}\nprint('numpy' in sys.modules)\n"
    child = _child(["-c", script], cwd=tmp_path)
    assert child.stdout.splitlines()[-1:] == [str(loads)], child.stderr


def test_numpy_imported_after_moqfa_is_the_module_moqfa_uses():
    # and numpy imported before moqfa, too
    for imports in ("import moqfa, numpy", "import numpy, moqfa"):
        script = (
            f"{imports}\n"
            "auto = moqfa.pattern_automaton(moqfa.SubsequencePattern('ab', 'ab'))\n"
            "arrays = [auto.initial, auto.accepting_projector()]\n"
            "arrays += [p for obs in auto.observables.values() for _, p in obs.outcomes]\n"
            "arrays.append(moqfa.DensityMatrix.pure([1, 0]).matrix)\n"
            "print(all(isinstance(m, numpy.ndarray) for m in arrays))\n"
        )
        child = _child(["-c", script])
        assert child.stdout.splitlines() == ["True"], (imports, child.stderr)


def test_threads_making_the_first_matrices_at_once_all_see_a_whole_numpy():
    script = (
        "import threading, moqfa\n"
        "start, errors = threading.Barrier(8), []\n"
        "def first_use():\n"
        "    start.wait()\n"
        "    try:\n"
        "        auto = moqfa.pattern_automaton(moqfa.SubsequencePattern('ab', 'ab'))\n"
        "        assert moqfa.acceptance_probability(auto, 'ab') == 0.25\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=first_use) for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(60)\n"
        "print(sum(t.is_alive() for t in threads), errors)\n"
    )
    child = _child(["-c", script])
    assert child.stdout.splitlines() == ["0 []"], child.stderr


def test_prob_loads_numpy_on_first_use_in_a_fresh_process(tmp_path):
    qfa = str(tmp_path / "ab.qfa")
    assert _child(["-m", "moqfa", "synth", "--letters", "a", "b", "--alphabet", "ab", "--emit", qfa]).returncode == 0
    child = _child(["-m", "moqfa", "prob", "--qfa", qfa, "--word", "ab"])
    assert (child.returncode, child.stdout) == (0, "0.250000000000\n"), child.stderr


@pytest.mark.parametrize(
    "hide, message",
    [
        ("sys.modules['numpy'] = None", "import of numpy halted; None in sys.modules"),
        (
            "sys.path[:] = [p for p in sys.path if not os.path.exists(os.path.join(p or '.', 'numpy'))]",
            "No module named 'numpy'",
        ),
    ],
    ids=["blocked", "not_installed"],
)
def test_import_without_numpy_raises_module_not_found_for_numpy(hide, message, tmp_path):
    # `import moqfa` and the DFA commands work; the first matrix raises
    (tmp_path / "contains_a.dfa").write_text(CONTAINS_A)
    script = (
        f"import os, sys\n{hide}\n"
        "import moqfa\n"
        "from moqfa.cli import main\n"
        "code = main(['check', 'contains_a.dfa'])\n"
        "try:\n"
        "    moqfa.pattern_automaton(moqfa.SubsequencePattern('a', 'ab'))\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(code, exc.name, exc)\n"
    )
    child = _child(["-c", script], cwd=tmp_path)
    assert child.stdout.splitlines()[-1:] == [f"0 numpy {message}"], child.stderr
