"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Expected values marked as hand-derived were computed with the
independent brute-force oracles in oracles.py before the package was built.
"""

from __future__ import annotations

import itertools
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from moqfa import (
    DensityMatrix,
    SubsequencePattern,
    acceptance_probability,
    complement,
    diagnose,
    equivalent,
    green_report,
    is_partially_ordered,
    is_r_trivial,
    measure,
    minimize,
    monoid_oracle,
    pattern_automaton,
    pattern_dfa,
    product,
    random_partially_ordered_dfa,
    serialize_dfa,
    transition_monoid,
    validate_observable,
    verify_construction,
)
from moqfa.cli import main as cli_main
from moqfa import Dfa

import oracles
import support


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number} ({name}): {status}{suffix}")


@lru_cache(maxsize=None)
def corpus() -> tuple[Dfa, ...]:
    """All total 2-state DFAs over {a,b} plus 500 seeded random DFAs."""
    return support.two_state_corpus() + support.random_corpus(500)


@lru_cache(maxsize=None)
def corpus_monoids():
    """(dfa, minimal dfa, syntactic monoid) for every corpus entry."""
    return tuple((d, m, transition_monoid(m)) for d in corpus() for m in (minimize(d),))


def test_criterion_1_pattern_acceptor_reproduction():
    """Exhaustive cut-point check for [a], [a,b], [a,b,a] up to length 8."""
    started = time.perf_counter()
    ok = True
    details = []
    for alphabet in ("ab", "abc"):
        for letters in ("a", "ab", "aba"):
            pattern = SubsequencePattern(tuple(letters), tuple(alphabet))
            k = len(letters)
            result = verify_construction(pattern, 8)
            assert result.cutpoint == math.ldexp(1.0, -(2 * k + 1))
            assert result.isolation == math.ldexp(1.0, -(2 * k + 2))
            if result.misclassified or result.isolation_violations:
                ok = False
            details.append(f"[{letters}]/{alphabet}:{result.words_checked}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    report(1, "pattern acceptor cut point", ok, f"{elapsed:.1f}s, " + " ".join(details))
    assert ok


def test_criterion_2_hand_derived_probabilities():
    """Five probabilities against values frozen from the brute-force oracle."""
    init1, obs1, acc1 = oracles.handmade_single_letter_acceptor()
    init2, obs2, acc2 = oracles.handmade_two_letter_acceptor()
    a1 = pattern_automaton(SubsequencePattern("a", "ab"))
    a2 = pattern_automaton(SubsequencePattern("ab", "ab"))
    cases = [
        (a1, init1, obs1, acc1, "a", 0.5),
        (a1, init1, obs1, acc1, "aa", 0.5),
        (a2, init2, obs2, acc2, "ab", 0.25),
        (a2, init2, obs2, acc2, "ba", 0.0),
        (a1, init1, obs1, acc1, "", 0.0),
    ]
    ok = True
    for auto, init, obs, acc, word, expected in cases:
        brute = oracles.brute_probability(init, obs, word, acc)
        main = acceptance_probability(auto, word)
        if abs(brute - expected) > 1e-12 or abs(main - expected) > 1e-12:
            ok = False
    report(2, "hand-derived probabilities", ok, "5 cases at 1e-12")
    assert ok


def test_criterion_3_pipeline_agrees_with_monoid_oracle():
    """diagnose().verdict == J-trivial + letter-idempotent monoid, everywhere."""
    from moqfa import is_j_trivial, letters_idempotent

    mismatches = 0
    for dfa, _minimal, monoid in corpus_monoids():
        oracle = is_j_trivial(monoid) and letters_idempotent(monoid)
        if diagnose(dfa).verdict != oracle:
            mismatches += 1
    ok = mismatches == 0
    report(3, "characterization equivalence", ok, f"{len(corpus())} DFAs, {mismatches} mismatches")
    assert ok


def test_criterion_4_finite_variation_iff_r_trivial():
    mismatches = 0
    for _dfa, minimal, monoid in corpus_monoids():
        if is_partially_ordered(minimal) != is_r_trivial(monoid):
            mismatches += 1
    ok = mismatches == 0
    report(4, "finite variation iff R-trivial", ok, f"{len(corpus())} DFAs, {mismatches} mismatches")
    assert ok


def test_criterion_5_members_have_j_trivial_letter_idempotent_block_groups():
    """Shuffle ideals (k <= 3 over {a,b,c}) and pairwise boolean combinations."""
    patterns = support.patterns_up_to(3, "abc")
    ideals = [pattern_dfa(p) for p in patterns]
    checked = 0
    failures = 0

    def flags_ok(dfa) -> bool:
        g = green_report(minimize(dfa))
        return g.block_group and g.r_trivial and g.j_trivial and g.letters_idempotent

    for d in ideals:
        checked += 1
        if not flags_ok(d):
            failures += 1
    for d1, d2 in itertools.product(ideals, repeat=2):
        for mode in ("union", "intersection", "difference"):
            checked += 1
            if not flags_ok(product(d1, d2, mode)):
                failures += 1
    ok = failures == 0
    report(5, "members land in the expected pseudovarieties", ok, f"{checked} languages")
    assert ok


def test_criterion_6_quantum_invariants():
    """Observable laws at 1e-9, trace preservation, literal idempotency of p."""
    failures = []
    automata = []
    for alphabet in ("ab", "abc"):
        for pattern in support.patterns_up_to(6, alphabet):
            automata.append(pattern_automaton(pattern))
    for auto in automata:
        for obs in (*auto.observables.values(), auto.end_observable):
            if validate_observable(obs):
                failures.append("observable laws")
    rng = np.random.default_rng(20260810)
    for auto in automata:
        rho = DensityMatrix.pure(auto.initial)
        word = rng.choice(list(auto.alphabet), size=12)
        for sym in word:
            rho = measure(rho, auto.observables[str(sym)])
            if abs(rho.matrix.trace() - 1.0) > 1e-9:
                failures.append("trace drift")
    # the evaluator reads a run of one letter as one channel application, so
    # the doubling is checked on the matrices with a channel of this test's own
    def channel(obs, rho):
        return sum(p @ rho @ p for _, p in obs.outcomes)

    def probability(auto, word):
        rho = np.outer(auto.initial.conj(), auto.initial)
        for sym in word:
            rho = channel(auto.observables[sym], rho)
        return float(np.trace(auto.accepting_projector() @ rho).real)

    worst = 0.0
    for i in range(1000):
        alphabet = "ab" if i % 2 else "abc"
        auto = support.random_automaton(i, (i % 5) + 1, alphabet)
        x = tuple(rng.choice(list(alphabet), size=int(rng.integers(0, 5))))
        y = tuple(rng.choice(list(alphabet), size=int(rng.integers(0, 5))))
        letter = str(rng.choice(list(alphabet)))
        single, doubled = x + (letter,) + y, x + (letter, letter) + y
        worst = max(worst, abs(probability(auto, single) - probability(auto, doubled)))
        if acceptance_probability(auto, single) != acceptance_probability(auto, doubled):
            failures.append("the evaluator told uav from uaav")
    if worst > 1e-9:
        failures.append(f"letter doubling changed p by {worst:.2e}")
    ok = not failures
    report(6, "quantum invariants", ok, f"{len(automata)} acceptors, worst doubling gap {worst:.1e}")
    assert ok, failures


def test_criterion_7_boolean_closure_of_members():
    checked = 0
    failures = 0
    for alphabet in ("ab", "abc"):
        ideals = [pattern_dfa(p) for p in support.patterns_up_to(3, alphabet)]
        for d in ideals:
            checked += 1
            if not diagnose(complement(d)).verdict:
                failures += 1
        for d1, d2 in itertools.combinations(ideals, 2):
            for mode in ("union", "intersection"):
                checked += 1
                if not diagnose(product(d1, d2, mode)).verdict:
                    failures += 1
    ok = failures == 0
    report(7, "boolean closure stays in the class", ok, f"{checked} combinations")
    assert ok


def test_criterion_8_minimization_against_table_filling():
    mismatches = 0
    for dfa, minimal, _monoid in corpus_monoids():
        n, trans, initial, accepting = oracles.table_filling_minimal(
            dfa.state_count, len(dfa.alphabet), dfa.transitions, dfa.initial, dfa.accepting
        )
        if n != minimal.state_count:
            mismatches += 1
            continue
        oracle_dfa = Dfa(dfa.alphabet, trans, initial, accepting)
        if not equivalent(minimal, oracle_dfa):
            mismatches += 1
    ok = mismatches == 0
    report(8, "Hopcroft vs table filling", ok, f"{len(corpus())} DFAs")
    assert ok


def test_criterion_9_check_command_speed(tmp_path):
    big = random_partially_ordered_dfa(7, 1000, "abc")
    path = tmp_path / "big.dfa"
    path.write_text(serialize_dfa(big))
    started = time.perf_counter()
    code = cli_main(["check", str(path)])
    elapsed = time.perf_counter() - started
    ok = elapsed < 1.0 and code in (0, 3)
    report(9, "1000-state check under a second", ok, f"{elapsed * 1000:.0f} ms, exit {code}")
    assert ok
