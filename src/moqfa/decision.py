"""Membership pipeline for the class of languages recognized by
measurement-only acceptors with an isolated cut point, plus verification
harnesses and reproducible random-DFA generation.

The pipeline minimizes, then checks literal idempotency and piecewise
testability on the DFA; a language belongs to the class iff both hold.  The
algebraically equivalent test (J-trivial syntactic monoid with idempotent
letter images) is kept as `monoid_oracle` and the suite checks that pipeline
and oracle agree on every corpus input.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .algebra import is_j_trivial, letters_idempotent, transition_monoid
from .automata import Dfa, _acyclic_order, is_literally_idempotent, is_partially_ordered, minimize
from .errors import ResourceLimitError
from .patterns import SubsequencePattern
# `measure` is unused here; it stays a module attribute because the verify
# workload of perfbench/workloads.py traces `decision.measure` by that name.
from .quantum import _word_checks, cutpoint_params, measure, pattern_automaton

NOT_LI = "NOT_LI"
NOT_PT = "NOT_PT"


@dataclass(frozen=True)
class Diagnosis:
    """Result of the membership pipeline on one regular language."""

    minimal_state_count: int
    literally_idempotent: bool
    partially_ordered: bool
    piecewise_testable: bool
    verdict: bool
    failure_reason: str | None


def is_piecewise_testable(min_dfa: Dfa) -> bool:
    """Decide piecewise testability of the language of a minimal DFA.

    Pre: the input is minimal.  By Klima and Polak ("Alternative automata
    characterization of piecewise testable languages", DLT 2013), the
    language is piecewise testable iff its minimal DFA is acyclic (the only
    cycles are self-loops) and locally confluent: for every state q and
    letters a, b some w in {a, b}* has q.aw = q.bw.  Both are checked by one
    topological sort and one O(|alphabet|^2 * n) sweep in
    `confluence_violation`.
    """
    try:
        return confluence_violation(min_dfa) is None
    except ValueError:  # a non-trivial cycle
        return False


def confluence_violation(min_dfa: Dfa) -> tuple[int, str, str] | None:
    """First (q, a, b) at which a minimal DFA is not locally confluent, or None.

    q.a and q.b both differ from q, and words over {a, b} lead them to
    different states fixed by both letters.  Letter pairs are tried in
    alphabet order, states from the sinks backwards.  Raises ValueError when
    the DFA has a non-trivial cycle.
    """
    order = _acyclic_order(min_dfa)
    if order is None:
        raise ValueError("local confluence is decided on partially ordered DFAs only")
    # In an acyclic DFA the {a, b}-steps terminate, so by Newman's lemma local
    # confluence holds iff every state reaches a unique state fixed by both
    # letters, its {a, b}-sink.  Visiting successors before predecessors
    # gives each state's sink from those of q.a and q.b.
    trans = min_dfa.transitions
    alphabet = min_dfa.alphabet
    sink = [0] * min_dfa.state_count
    for i, j in itertools.combinations(range(len(alphabet)), 2):
        for q in reversed(order):
            qa, qb = trans[q][i], trans[q][j]
            if qa == q:
                sink[q] = q if qb == q else sink[qb]
            elif qb == q or sink[qa] == sink[qb]:
                sink[q] = sink[qa]
            else:
                return q, alphabet[i], alphabet[j]
    return None


def diagnose(dfa: Dfa) -> Diagnosis:
    """Run the full membership pipeline: minimize, then the two checks.

    The verdict is positive iff the language is literally idempotent and
    piecewise testable; failure_reason names the first failed check.
    """
    minimal = minimize(dfa)
    literally = is_literally_idempotent(minimal)
    ordered = is_partially_ordered(minimal)
    testable = ordered and is_piecewise_testable(minimal)
    verdict = literally and testable
    if verdict:
        reason = None
    else:
        reason = NOT_LI if not literally else NOT_PT
    return Diagnosis(
        minimal_state_count=minimal.state_count,
        literally_idempotent=literally,
        partially_ordered=ordered,
        piecewise_testable=testable,
        verdict=verdict,
        failure_reason=reason,
    )


def monoid_oracle(dfa: Dfa, max_elements: int | None = None) -> bool:
    """Algebraic membership test: J-trivial syntactic monoid whose letter
    images are idempotent.  Agrees with diagnose(dfa).verdict on every input."""
    minimal = minimize(dfa)
    if max_elements is None:
        monoid = transition_monoid(minimal)
    else:
        monoid = transition_monoid(minimal, max_elements)
    return is_j_trivial(monoid) and letters_idempotent(monoid)


# ---------------------------------------------------------------------------
# exhaustive verification of the pattern acceptors


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a pattern acceptor against the subsequence oracle
    on every word up to a length bound."""

    pattern: SubsequencePattern
    cutpoint: float
    isolation: float
    max_len: int
    words_checked: int
    misclassified: tuple[tuple[str, ...], ...]
    isolation_violations: tuple[tuple[str, ...], ...]
    min_margin: float

    @property
    def ok(self) -> bool:
        return not self.misclassified and not self.isolation_violations


def verify_construction(
    pattern: SubsequencePattern,
    max_len: int,
    max_words: int = 2_000_000,
) -> VerificationReport:
    """Enumerate all words up to `max_len` and compare the acceptor's
    probabilities against subsequence membership and the isolation bound.

    A word is misclassified when (probability > cutpoint) disagrees with
    membership, and violates isolation when |probability - cutpoint| drops
    below isolation - EPS (the rule of `recognizes_with_cutpoint`).  Words
    stream in length-lexicographic order.  Raises ResourceLimitError when the
    enumeration would exceed `max_words`.
    """
    if max_len < 0:
        raise ValueError("maximum word length must be nonnegative")
    lengths = range(max_len + 1)
    size = len(pattern.alphabet)
    total = 0
    for length in lengths:
        total += size**length
        if total > max_words:
            raise ResourceLimitError(
                f"enumerating the words up to length {max_len} exceeds the budget of {max_words}"
            )
    auto = pattern_automaton(pattern)
    cutpoint, isolation = cutpoint_params(pattern)
    words = (w for n in lengths for w in itertools.product(pattern.alphabet, repeat=n))
    misclassified, violations = [], []
    min_margin = math.inf
    for check in _word_checks(auto, cutpoint, isolation, pattern.matches, words):
        if check.accepted != check.member:
            misclassified.append(check.word)
        if not check.isolated:
            violations.append(check.word)
        min_margin = min(min_margin, abs(check.probability - cutpoint))
    return VerificationReport(
        pattern=pattern,
        cutpoint=cutpoint,
        isolation=isolation,
        max_len=max_len,
        words_checked=total,
        misclassified=tuple(misclassified),
        isolation_violations=tuple(violations),
        min_margin=min_margin,
    )


# ---------------------------------------------------------------------------
# reproducible random DFAs


def random_dfa(seed: int, n_states: int, alphabet) -> Dfa:
    """Seeded uniform DFA; identical arguments give identical automata.

    Draws from Python's Mersenne Twister (random.Random(seed)): one
    randrange(n_states) per (state, symbol) pair, state-major in alphabet
    order, then one randrange(2) per state for accepting membership.  The
    initial state is 0.
    """
    return _seeded_dfa(seed, n_states, alphabet, forward_only=False)


def random_partially_ordered_dfa(seed: int, n_states: int, alphabet) -> Dfa:
    """Seeded random DFA whose only cycles are self-loops.

    Same drawing scheme as random_dfa except each transition from state q is
    drawn uniformly from {q, ..., n_states - 1}, so every edge is a self-loop
    or moves strictly forward.
    """
    return _seeded_dfa(seed, n_states, alphabet, forward_only=True)


def _seeded_dfa(seed: int, n_states: int, alphabet, forward_only: bool) -> Dfa:
    # randrange(0, n) and randrange(n) draw the same value from the same state
    if n_states < 1:
        raise ValueError("need at least one state")
    rng = random.Random(seed)
    rows = tuple(
        tuple(rng.randrange(q if forward_only else 0, n_states) for _ in alphabet)
        for q in range(n_states)
    )
    accepting = frozenset(q for q in range(n_states) if rng.randrange(2))
    return Dfa(tuple(alphabet), rows, 0, accepting)
