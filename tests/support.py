"""Shared corpora and generators for the test suite."""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from moqfa import (
    Dfa,
    MeasureOnlyAutomaton,
    Observable,
    SubsequencePattern,
    automata,
    random_dfa,
)


def exhaustive_dfas(n_states: int, alphabet: str, initials=(0,)):
    """Every total DFA with the given shape (can be large; keep shapes small)."""
    n_sym = len(alphabet)
    for flat in itertools.product(range(n_states), repeat=n_states * n_sym):
        rows = [flat[i * n_sym : (i + 1) * n_sym] for i in range(n_states)]
        for bits in range(2**n_states):
            accepting = {q for q in range(n_states) if bits >> q & 1}
            for initial in initials:
                yield Dfa(alphabet, rows, initial, accepting)


def count_reachable_passes(monkeypatch) -> list[Dfa]:
    """Wrap automata._reachable_order and return the list of the DFAs it is
    called on: `minimize`, `is_empty` and the change order call it once each."""
    calls = []
    original = automata._reachable_order

    def counted(dfa):
        calls.append(dfa)
        return original(dfa)

    monkeypatch.setattr(automata, "_reachable_order", counted)
    return calls


@lru_cache(maxsize=None)
def two_state_corpus() -> tuple[Dfa, ...]:
    """All total 2-state DFAs over {a, b}, both initial states."""
    return tuple(exhaustive_dfas(2, "ab", initials=(0, 1)))


@lru_cache(maxsize=None)
def random_corpus(count: int = 500) -> tuple[Dfa, ...]:
    """Seeded random DFAs with at most 6 states over 2- and 3-letter alphabets."""
    return tuple(
        random_dfa(i, (i % 6) + 1, "ab" if i % 2 else "abc") for i in range(count)
    )


def patterns_up_to(max_k: int, alphabet: str) -> list[SubsequencePattern]:
    """All subsequence patterns of length <= max_k (adjacent letters distinct)."""
    patterns = [SubsequencePattern((), alphabet)]
    frontier = [()]
    for _ in range(max_k):
        nxt = []
        for prefix in frontier:
            for sym in alphabet:
                if prefix and prefix[-1] == sym:
                    continue
                letters = prefix + (sym,)
                patterns.append(SubsequencePattern(letters, alphabet))
                nxt.append(letters)
        frontier = nxt
    return patterns


def words_up_to(alphabet, max_len: int):
    """All words up to max_len in length-lexicographic order, as tuples."""
    for length in range(max_len + 1):
        yield from itertools.product(tuple(alphabet), repeat=length)


def permute_states(dfa: Dfa, perm: list[int]) -> Dfa:
    """Isomorphic copy with state q renamed to perm[q]."""
    n = dfa.state_count
    rows = [None] * n
    for q in range(n):
        rows[perm[q]] = tuple(perm[t] for t in dfa.transitions[q])
    return Dfa(
        dfa.alphabet,
        rows,
        perm[dfa.initial],
        {perm[q] for q in dfa.accepting},
    )


def random_observable(rng: np.random.Generator, dimension: int) -> Observable:
    """Valid observable from a Haar-ish random basis split into outcome groups."""
    z = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(
        size=(dimension, dimension)
    )
    basis, _ = np.linalg.qr(z)
    group_count = int(rng.integers(1, dimension + 1))
    assignment = [int(rng.integers(0, group_count)) for _ in range(dimension)]
    outcomes = []
    for g in sorted(set(assignment)):
        cols = [i for i, a in enumerate(assignment) if a == g]
        v = basis[:, cols]
        outcomes.append((f"o{g}", v @ v.conj().T))
    return Observable(dimension, outcomes)


def random_automaton(seed: int, dimension: int, alphabet: str) -> MeasureOnlyAutomaton:
    """Seeded random measurement-only acceptor with valid observables."""
    rng = np.random.default_rng(seed)
    observables = {sym: random_observable(rng, dimension) for sym in alphabet}
    end = random_observable(rng, dimension)
    labels = end.labels()
    accepting = {l for l in labels if rng.integers(0, 2)}
    if not accepting:
        accepting = {labels[0]}
    amplitudes = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
    amplitudes /= np.linalg.norm(amplitudes)
    return MeasureOnlyAutomaton(tuple(alphabet), amplitudes, observables, end, accepting)
