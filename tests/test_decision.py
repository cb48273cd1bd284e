"""Tests for the membership pipeline, its oracle, and the verification harness."""

from __future__ import annotations

import itertools
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moqfa
from moqfa import (
    NOT_LI,
    NOT_PT,
    Dfa,
    MeasureOnlyAutomaton,
    Observable,
    ResourceLimitError,
    SubsequencePattern,
    complement,
    confluence_violation,
    diagnose,
    is_j_trivial,
    is_partially_ordered,
    is_piecewise_testable,
    is_r_trivial,
    minimize,
    monoid_oracle,
    pattern_automaton,
    pattern_dfa,
    product,
    random_dfa,
    random_partially_ordered_dfa,
    transition_monoid,
    exact,
    verify_construction,
)

import oracles
import support


def contains_a() -> Dfa:
    return Dfa("ab", [(1, 0), (1, 1)], 0, {1})


def ends_with_a() -> Dfa:
    return Dfa("ab", [(1, 0), (1, 0)], 0, {1})


def even_a_blocks() -> Dfa:
    return Dfa("a", [(1,), (0,)], 0, {0})


def starts_with_a() -> Dfa:
    return Dfa("ab", [(1, 2), (1, 1), (2, 2)], 0, {1})


# ---------------------------------------------------------------------------
# piecewise testability


def test_pt_examples():
    assert is_piecewise_testable(minimize(pattern_dfa(SubsequencePattern("ab", "ab"))))
    assert not is_piecewise_testable(minimize(even_a_blocks()))
    assert is_piecewise_testable(Dfa("ab", [(0, 0)], 0, {0}))


def test_pt_rejects_partially_ordered_fork():
    # "starts with a" is partially ordered yet not piecewise testable: the
    # initial state's a- and b-successors are two different sinks
    d = minimize(starts_with_a())
    assert is_partially_ordered(d)
    assert not is_piecewise_testable(d)
    assert not monoid_oracle(d)
    assert confluence_violation(d) == (0, "a", "b")
    assert_confluence_witness(d, (0, "a", "b"))


def partially_ordered_corpus(count: int = 1000) -> list[Dfa]:
    return [random_partially_ordered_dfa(seed, 6, "abc") for seed in range(count)]


@pytest.mark.parametrize(
    "corpus",
    [
        lambda: support.exhaustive_dfas(3, "ab"),
        support.random_corpus,
        partially_ordered_corpus,
    ],
    ids=["exhaustive-3-ab", "random", "partially-ordered-6-abc"],
)
def test_pt_agrees_with_j_triviality(corpus):
    # Simon: a language is piecewise testable iff its syntactic monoid is
    # J-trivial; the transition monoid of the minimal DFA is that monoid
    mismatches = []
    for d in corpus():
        m = minimize(d)
        if is_piecewise_testable(m) != is_j_trivial(transition_monoid(m)):
            mismatches.append(d)
    assert mismatches == []


def brute_fixed_sinks(dfa: Dfa, state: int, letters: tuple[str, str]) -> set[int]:
    """States fixed by both letters that words over them reach from `state`."""
    seen = {state}
    pending = [state]
    while pending:
        q = pending.pop()
        for sym in letters:
            t = dfa.delta(q, sym)
            if t not in seen:
                seen.add(t)
                pending.append(t)
    return {q for q in seen if all(dfa.delta(q, sym) == q for sym in letters)}


def brute_reachable(dfa: Dfa) -> set[int]:
    seen = {dfa.initial}
    pending = [dfa.initial]
    while pending:
        for t in dfa.transitions[pending.pop()]:
            if t not in seen:
                seen.add(t)
                pending.append(t)
    return seen


def assert_confluence_witness(m: Dfa, witness) -> None:
    q, a, b = witness
    assert q in brute_reachable(m)
    assert m.delta(q, a) != q and m.delta(q, b) != q
    first = brute_fixed_sinks(m, m.delta(q, a), (a, b))
    second = brute_fixed_sinks(m, m.delta(q, b), (a, b))
    assert first != second


def test_confluence_violation_witnesses_check_out():
    violations = 0
    for d in partially_ordered_corpus():
        m = minimize(d)
        witness = confluence_violation(m)
        assert (witness is None) == is_piecewise_testable(m)
        if witness is not None:
            assert_confluence_witness(m, witness)
            violations += 1
    assert violations > 100


def test_confluence_violation_needs_a_partially_ordered_dfa():
    with pytest.raises(ValueError):
        confluence_violation(minimize(even_a_blocks()))


def test_ten_thousand_state_member_and_planted_fork():
    # (ab)^5000 over abc: a 10,001-state chain whose states all fix c
    ideal = pattern_dfa(SubsequencePattern(("a", "b") * 5000, "abc"))
    assert ideal.state_count == 10_001
    result = diagnose(ideal)
    assert result.verdict and result.minimal_state_count == 10_001
    # at the far end, send the last waiting state to a new rejecting sink on
    # c; its b-successor is the accepting sink, so the fork cannot close
    last = ideal.state_count - 2
    rows = [list(row) for row in ideal.transitions]
    rows[last][ideal.symbol_index("c")] = len(rows)
    rows.append([len(rows)] * 3)
    planted = Dfa("abc", rows, 0, ideal.accepting)
    result = diagnose(planted)
    assert not result.verdict and result.failure_reason == NOT_PT
    assert result.literally_idempotent and result.partially_ordered
    m = minimize(planted)
    witness = confluence_violation(m)
    assert witness is not None and witness[1:] == ("b", "c")
    assert_confluence_witness(m, witness)


@pytest.mark.parametrize(
    "build, verdict",
    [
        (lambda: pattern_dfa(SubsequencePattern(("a", "b") * 50, "abc")), True),
        (starts_with_a, False),
    ],
    ids=["member", "not-pt"],
)
def test_diagnose_traverses_each_change_graph_once(monkeypatch, build, verdict):
    # one traversal of the input by minimize, one of the minimal DFA for the
    # change order that is_partially_ordered and is_piecewise_testable share
    d = build()
    minimal = minimize(d)
    calls = support.count_reachable_passes(monkeypatch)
    result = diagnose(d)
    assert result.partially_ordered and result.verdict == verdict
    assert len(calls) == 2 and calls[0] is d and calls[1] == minimal


def test_pt_agrees_with_monoid_on_exhaustive_three_state_dfas():
    mismatches = 0
    for d in support.exhaustive_dfas(3, "ab"):
        if diagnose(d).verdict != monoid_oracle(d):
            mismatches += 1
    assert mismatches == 0


# ---------------------------------------------------------------------------
# the pipeline


def test_diagnose_member():
    result = diagnose(contains_a())
    assert result.verdict
    assert result.failure_reason is None
    assert result.minimal_state_count == 2
    assert result.literally_idempotent and result.partially_ordered
    assert result.piecewise_testable


def test_diagnose_not_pt():
    result = diagnose(ends_with_a())
    assert not result.verdict
    assert result.failure_reason == NOT_PT
    assert result.literally_idempotent  # both letter actions are constant maps
    assert not result.partially_ordered


def test_diagnose_not_li():
    result = diagnose(even_a_blocks())
    assert not result.verdict
    assert result.failure_reason == NOT_LI
    assert not result.literally_idempotent


def test_diagnosis_internal_consistency():
    for d in itertools.islice(support.random_corpus(), 0, 200):
        result = diagnose(d)
        assert result.verdict == (result.literally_idempotent and result.piecewise_testable)
        if result.piecewise_testable:
            assert result.partially_ordered
        if result.verdict:
            assert result.failure_reason is None
        else:
            assert result.failure_reason in (NOT_LI, NOT_PT)


def test_monoid_oracle_examples():
    assert monoid_oracle(contains_a())
    assert not monoid_oracle(even_a_blocks())
    assert monoid_oracle(Dfa("ab", [(0, 0)], 0, {0}))


def test_monoid_oracle_propagates_resource_cap():
    with pytest.raises(ResourceLimitError):
        monoid_oracle(random_dfa(3, 6, "abc"), max_elements=4)


def test_every_shuffle_ideal_up_to_length_four_is_a_member():
    for alphabet in ("ab", "abc"):
        for p in support.patterns_up_to(4, alphabet):
            assert diagnose(pattern_dfa(p)).verdict


def test_members_are_closed_under_boolean_operations():
    ideals = [pattern_dfa(p) for p in support.patterns_up_to(2, "ab")]
    members = [d for d in ideals if diagnose(d).verdict]
    assert len(members) == len(ideals)
    for d1, d2 in itertools.combinations(members, 2):
        assert diagnose(complement(d1)).verdict
        for mode in ("union", "intersection", "difference"):
            assert diagnose(product(d1, d2, mode)).verdict


# ---------------------------------------------------------------------------
# exhaustive construction verification


def test_verify_single_letter_pattern():
    report = verify_construction(SubsequencePattern("a", "ab"), 6)
    assert report.ok
    assert report.words_checked == 127
    assert report.cutpoint == 0.125 and report.isolation == 0.0625
    assert report.min_margin == 0.125
    assert report.misclassified == () and report.isolation_violations == ()


def test_verify_two_letter_pattern():
    report = verify_construction(SubsequencePattern("ab", "ab"), 6)
    assert report.ok
    assert report.cutpoint == 0.03125 and report.isolation == 0.015625


def test_verify_zero_length_enumeration():
    report = verify_construction(SubsequencePattern("a", "ab"), 0)
    assert report.ok
    assert report.words_checked == 1
    assert report.min_margin == 0.125


def test_verify_over_the_empty_alphabet_returns_at_once():
    # only the empty word exists, so no loop may run once per length
    started = time.perf_counter()
    report = verify_construction(SubsequencePattern((), ()), 10**9)
    elapsed = time.perf_counter() - started
    assert report.ok and report.max_len == 10**9 and report.words_checked == 1
    assert elapsed < 1.0


def test_verify_budget_exceeded():
    with pytest.raises(ResourceLimitError):
        verify_construction(SubsequencePattern("a", "ab"), 8, max_words=100)


def test_verify_refuses_a_negative_budget():
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        verify_construction(SubsequencePattern("a", "ab"), 3, max_words=-5)
    with pytest.raises(ResourceLimitError, match="budget of 0"):
        verify_construction(SubsequencePattern("a", "ab"), 0, max_words=0)


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"max_len": 2.5}, "maximum word length must be an int, got 2.5"),
        ({"max_len": True}, "maximum word length must be an int, got True"),
        ({"max_len": "3"}, "maximum word length must be an int, got '3'"),
        ({"max_len": 3, "max_words": 1e9}, "word budget must be an int, got 1000000000.0"),
        ({"max_len": 3, "max_words": False}, "word budget must be an int, got False"),
    ],
)
def test_verify_refuses_bounds_that_are_not_ints(bounds, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_construction(SubsequencePattern("a", "ab"), **bounds)


def test_verify_budget_refuses_long_words_at_once():
    # the word count up to length 10**6 has about 301,000 digits; the
    # refusal must come from the running sum, not from that total
    with pytest.raises(ResourceLimitError, match="budget of 2000000"):
        verify_construction(SubsequencePattern("a", "ab"), 10**6)


def test_verify_probabilities_match_exact_fractions():
    pattern = SubsequencePattern("aba", "ab")
    report = verify_construction(pattern, 5)
    assert report.ok
    for word in support.words_up_to("ab", 5):
        exact = oracles.exact_pattern_probability(pattern.letters, word)
        member = oracles.is_subsequence(pattern.letters, word)
        assert (exact > report.cutpoint) == member


def _patterns(alphabet: str, k: int):
    for letters in itertools.product(alphabet, repeat=k):
        if all(letters[i] != letters[i + 1] for i in range(k - 1)):
            yield letters


@pytest.mark.parametrize("alphabet, max_len", [("ab", 8), ("abc", 4), ("abcd", 3)])
def test_verify_equals_exact_referee_on_every_short_pattern(alphabet, max_len):
    # referee: every word, one by one, in exact arithmetic from tests/oracles.py
    words = list(support.words_up_to(alphabet, max_len))
    for k in range(6):
        for letters in _patterns(alphabet, k):
            lam = Fraction(1, 2 ** (2 * k + 1))
            margin = None
            for word in words:
                p = oracles.exact_pattern_probability(letters, word)
                assert (p > lam) == oracles.is_subsequence(letters, word)
                assert abs(p - lam) >= lam / 2
                margin = abs(p - lam) if margin is None else min(margin, abs(p - lam))
            report = verify_construction(SubsequencePattern(letters, alphabet), max_len)
            assert report.words_checked == len(words)
            assert report.min_margin == float(margin)
            assert report.misclassified == () and report.isolation_violations == ()


def test_verify_counts_every_word_of_a_long_walk():
    report = verify_construction(SubsequencePattern("ab", "abc"), 12)
    assert report.ok
    assert report.words_checked == (3**13 - 1) // 2


def test_verify_memory_does_not_grow_as_the_cube_of_the_dimension():
    pytest.importorskip("resource")
    # verified in a child interpreter under a 600 MB address-space cap; the
    # channel images of one letter at d = 251, read all at once, would be a
    # 251 x 251 x 251 complex array of 241 MiB, with temporaries of that size
    script = (
        "import resource, moqfa\n"
        "resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))\n"
        "report = moqfa.verify_construction(moqfa.SubsequencePattern('ab' * 125, 'ab'), 2)\n"
        "print(report.ok, report.words_checked, report.min_margin == 2.0**-501)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(moqfa.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert child.stdout.splitlines() == ["True 7 True"], child.stderr


def test_verify_time_does_not_grow_as_the_cube_of_the_dimension():
    pytest.importorskip("resource")
    # verified in a child interpreter under a 4 s CPU cap, import included;
    # on a 2-vCPU x86-64 host, forming the d^3 channel image entries of each
    # letter at d = 537 took 7 to 10 s, reading the projectors' nonzero
    # entries 0.6 to 1.0 s
    script = (
        "import resource, moqfa\n"
        "resource.setrlimit(resource.RLIMIT_CPU, (4, 4))\n"
        "report = moqfa.verify_construction(moqfa.SubsequencePattern('ab' * 268, 'ab'), 0)\n"
        "print(report.ok, report.words_checked, report.min_margin == 2.0**-1073)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(moqfa.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert child.stdout.splitlines() == ["True 1 True"], child.stderr


def _walk_instead(monkeypatch, broken):
    """Make verify_construction walk broken(pattern_automaton(p)), read into
    the sparse form by `MeasureOnlyAutomaton.sparse`; returns the list of
    acceptors read, so a test can show that its acceptor was walked."""
    read = []

    def acceptor(p):
        read.append(broken(pattern_automaton(p)))
        return read[-1].sparse()

    monkeypatch.setattr(exact, "pattern_acceptor", acceptor)
    return read


def _with_accepting(auto, accepting):
    return MeasureOnlyAutomaton(
        auto.alphabet, auto.initial, auto.observables, auto.end_observable, accepting
    )


@pytest.mark.parametrize("letters, alphabet, max_len", [("aba", "ab", 8), ("ab", "abc", 5)])
def test_verify_lists_every_failing_word_of_a_broken_acceptor(
    monkeypatch, letters, alphabet, max_len
):
    # accepting on "reject" gives probability 1 - p, so most words are misclassified
    read = _walk_instead(monkeypatch, lambda auto: _with_accepting(auto, {"reject"}))
    report = verify_construction(SubsequencePattern(letters, alphabet), max_len)
    assert [auto.accepting for auto in read] == [{"reject"}]
    lam = Fraction(1, 2 ** (2 * len(letters) + 1))
    wrong, close = [], []
    for word in support.words_up_to(alphabet, max_len):
        p = 1 - oracles.exact_pattern_probability(letters, word)
        if (p > lam) != oracles.is_subsequence(letters, word):
            wrong.append(word)
        if abs(p - lam) < lam / 2:
            close.append(word)
    assert wrong
    assert report.misclassified == tuple(wrong)
    assert report.isolation_violations == tuple(close)
    assert not report.ok


@pytest.mark.parametrize("letters, cutpoint", [("a", 0.5), ("ab", 0.25), ("aba", 0.125)])
def test_verify_cut_point_on_a_reached_probability(monkeypatch, letters, cutpoint):
    # a word whose probability equals the claimed cut point is rejected and
    # not isolated: the rule is p > lambda and |p - lambda| >= delta, exactly
    monkeypatch.setattr(exact, "cutpoint_params", lambda p: (cutpoint, cutpoint / 4))
    report = verify_construction(SubsequencePattern(letters, "ab"), 6)
    lam = Fraction(cutpoint)
    wrong, close = [], []
    for word in support.words_up_to("ab", 6):
        p = oracles.exact_pattern_probability(letters, word)
        if (p > lam) != oracles.is_subsequence(letters, word):
            wrong.append(word)
        if abs(p - lam) < lam / 4:
            close.append(word)
    assert any(oracles.exact_pattern_probability(letters, w) == lam for w in wrong)
    assert report.misclassified == tuple(wrong)
    assert report.isolation_violations == tuple(close)


def test_verify_isolation_is_exact_at_k14(monkeypatch):
    # at k = 14 the radius 2^-30 is below 1e-9, so a float rule with an
    # absolute tolerance cannot see a violation; words shorter than the
    # pattern have probability 0, at distance exactly lambda = 2^-29
    pattern = SubsequencePattern("ab" * 7, "ab")
    lam = Fraction(1, 2**29)
    report = verify_construction(pattern, 14)
    assert report.ok and report.min_margin == 2.0**-29
    claimed = lam + Fraction(1, 2**60)
    monkeypatch.setattr(exact, "cutpoint_params", lambda p: (float(lam), float(claimed)))
    report = verify_construction(pattern, 10)
    assert report.misclassified == ()
    assert report.isolation_violations == tuple(support.words_up_to("ab", 10))
    for word in report.isolation_violations:
        assert abs(oracles.exact_pattern_probability(pattern.letters, word) - lam) < claimed
    monkeypatch.setattr(exact, "cutpoint_params", lambda p: (float(lam), float(lam)))
    assert verify_construction(pattern, 14).ok


def _conjugated(auto, unitary):
    def rotate(obs):
        outcomes = [(label, unitary @ p @ unitary.conj().T) for label, p in obs.outcomes]
        return Observable(obs.dimension, outcomes)

    return MeasureOnlyAutomaton(
        auto.alphabet,
        unitary @ auto.initial,
        {sym: rotate(obs) for sym, obs in auto.observables.items()},
        rotate(auto.end_observable),
        auto.accepting,
    )


@pytest.mark.parametrize(
    "fix_initial, culprit", [(False, "initial state"), (True, "channel of 'a'")]
)
def test_verify_refuses_a_non_diagonal_acceptor(monkeypatch, fix_initial, culprit):
    rng = np.random.default_rng(5)
    d = 3
    unitary, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    if fix_initial:  # the initial state stays diagonal, the letters do not
        unitary[0, :] = unitary[:, 0] = 0
        unitary[0, 0] = 1
        unitary[1:, 1:], _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    read = _walk_instead(monkeypatch, lambda auto: _conjugated(auto, unitary))
    with pytest.raises(ValueError, match=f"{culprit} is not diagonal"):
        verify_construction(SubsequencePattern("ab", "abc"), 3)
    assert len(read) == 1


@pytest.mark.parametrize(
    "letters, alphabet, phases", [("ab", "abc", (1, -1, 1j)), ("aba", "ab", (1, 1j, -1, -1j))]
)
def test_verify_accepts_complex_entries_whose_channel_stays_diagonal(
    monkeypatch, letters, alphabet, phases
):
    # a diagonal unitary puts phases on the off-diagonal projector entries;
    # each letter still sends diagonal states to the same diagonal states.
    # The last phase squares to -1, so reading P[r, s] for P[s, r] would
    # negate the accepting entry of every state
    pattern = SubsequencePattern(letters, alphabet)
    expected = verify_construction(pattern, 6)
    unitary = np.diag(phases)
    read = _walk_instead(monkeypatch, lambda auto: _conjugated(auto, unitary))
    assert verify_construction(pattern, 6) == expected
    assert len(read) == 1
    assert any(p.imag.any() for obs in read[0].observables.values() for _, p in obs.outcomes)


def test_verify_refuses_a_real_channel_that_leaves_the_diagonal(monkeypatch):
    # a real rotation of basis states 1 and 2: every entry stays real, so only
    # the off-diagonal entries of a letter's images show the fault
    unitary = np.array([[1, 0, 0], [0, 0.6, -0.8], [0, 0.8, 0.6]])
    read = _walk_instead(monkeypatch, lambda auto: _conjugated(auto, unitary))
    with pytest.raises(ValueError, match="channel of 'a' is not diagonal"):
        verify_construction(SubsequencePattern("ab", "abc"), 3)
    assert len(read) == 1


def test_verify_refuses_imaginary_parts_within_the_tolerance(monkeypatch):
    # an up projector of 'a' off by 1e-12j in one entry, with down = I - up,
    # is a valid observable whose images of basis states stay diagonal but
    # gain imaginary parts: the exact walk refuses them instead of dropping them
    def perturbed(auto):
        up = auto.observables["a"].outcomes[0][1].copy()
        up[0, 1] += 1e-12j
        obs = Observable(auto.dimension, (("up", up), ("down", np.eye(auto.dimension) - up)))
        return MeasureOnlyAutomaton(
            auto.alphabet,
            auto.initial,
            {**auto.observables, "a": obs},
            auto.end_observable,
            auto.accepting,
        )

    read = _walk_instead(monkeypatch, perturbed)
    with pytest.raises(ValueError, match="channel of 'a' is not diagonal"):
        verify_construction(SubsequencePattern("ab", "abc"), 3)
    assert len(read) == 1


# ---------------------------------------------------------------------------
# random generation


def test_random_dfa_is_deterministic():
    assert random_dfa(1, 3, "ab") == random_dfa(1, 3, "ab")
    d = random_dfa(9, 4, "abc")
    assert d.state_count == 4 and d.initial == 0


def test_random_dfa_structure_is_what_the_docstring_says():
    import random as _random

    rng = _random.Random(42)
    expected_rows = tuple(tuple(rng.randrange(3) for _ in "ab") for _ in range(3))
    expected_acc = frozenset(q for q in range(3) if rng.randrange(2))
    d = random_dfa(42, 3, "ab")
    assert d.transitions == expected_rows
    assert d.accepting == expected_acc


def test_random_partially_ordered_dfa_is_partially_ordered():
    for seed in range(10):
        d = random_partially_ordered_dfa(seed, 30, "abc")
        for q, row in enumerate(d.transitions):
            assert all(t >= q for t in row)
        assert is_partially_ordered(d)


def test_random_dfa_needs_a_state():
    with pytest.raises(ValueError):
        random_dfa(0, 0, "ab")


# ---------------------------------------------------------------------------
# cross-module properties


@given(index=st.integers(0, 499))
@settings(max_examples=100, deadline=None)
def test_pipeline_agrees_with_oracle_on_random_corpus(index):
    d = support.random_corpus()[index]
    assert diagnose(d).verdict == monoid_oracle(d)


@given(index=st.integers(0, 499))
@settings(max_examples=100, deadline=None)
def test_finite_variation_iff_r_trivial(index):
    d = minimize(support.random_corpus()[index])
    assert is_partially_ordered(d) == is_r_trivial(transition_monoid(d))
