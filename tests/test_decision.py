"""Tests for the membership pipeline, its oracle, and the verification harness."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moqfa import (
    NOT_LI,
    NOT_PT,
    Dfa,
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
    pattern_dfa,
    product,
    random_dfa,
    random_partially_ordered_dfa,
    transition_monoid,
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
    assert report.min_margin == pytest.approx(0.125, abs=1e-12)
    assert report.misclassified == () and report.isolation_violations == ()


def test_verify_two_letter_pattern():
    report = verify_construction(SubsequencePattern("ab", "ab"), 6)
    assert report.ok
    assert report.cutpoint == 0.03125 and report.isolation == 0.015625


def test_verify_zero_length_enumeration():
    report = verify_construction(SubsequencePattern("a", "ab"), 0)
    assert report.ok
    assert report.words_checked == 1
    assert report.min_margin == pytest.approx(0.125, abs=1e-12)


def test_verify_budget_exceeded():
    with pytest.raises(ResourceLimitError):
        verify_construction(SubsequencePattern("a", "ab"), 8, max_words=100)


def test_verify_probabilities_match_exact_fractions():
    pattern = SubsequencePattern("aba", "ab")
    report = verify_construction(pattern, 5)
    assert report.ok
    for word in support.words_up_to("ab", 5):
        exact = oracles.exact_pattern_probability(pattern.letters, word)
        member = oracles.is_subsequence(pattern.letters, word)
        assert (exact > report.cutpoint) == member


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
