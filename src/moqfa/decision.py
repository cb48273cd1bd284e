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
import random
from typing import NamedTuple

from .automata import Dfa, is_literally_idempotent, is_partially_ordered, minimize
from .errors import DEFAULT_ELEMENT_CAP, DEFAULT_WORD_BUDGET, ResourceLimitError
from .patterns import SubsequencePattern, cutpoint_params, pattern_acceptor
# `measure` is unused here; it stays a module attribute because the verify
# workload of perfbench/workloads.py traces `decision.measure` by that name.
from .quantum import measure

NOT_LI = "NOT_LI"
NOT_PT = "NOT_PT"


class Diagnosis(NamedTuple):
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
    letters a, b some w in {a, b}* has q.aw = q.bw.  Both are checked by the
    DFA's cached topological sort and the O(|alphabet|^2 * n) sweep of
    `confluence_violation`.
    """
    return min_dfa._change_order is not None and confluence_violation(min_dfa) is None


def confluence_violation(min_dfa: Dfa) -> tuple[int, str, str] | None:
    """First (q, a, b) at which a minimal DFA is not locally confluent, or None.

    q.a and q.b both differ from q, and words over {a, b} lead them to
    different states fixed by both letters.  Letter pairs are tried in
    alphabet order, states from the sinks backwards.  Raises ValueError when
    the DFA has a non-trivial cycle.
    """
    order = min_dfa._change_order
    if order is None:
        raise ValueError("local confluence is decided on partially ordered DFAs only")
    # In an acyclic DFA the {a, b}-steps terminate, so by Newman's lemma local
    # confluence holds iff every state reaches a unique state fixed by both
    # letters, its {a, b}-sink.  Visiting successors before predecessors
    # gives each state's sink from those of q.a and q.b.
    cols = min_dfa._columns
    alphabet = min_dfa.alphabet
    sink = [0] * min_dfa.state_count
    for i, j in itertools.combinations(range(len(alphabet)), 2):
        col_a, col_b = cols[i], cols[j]
        for q in reversed(order):
            qa, qb = col_a[q], col_b[q]
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


def monoid_oracle(dfa: Dfa, max_elements: int = DEFAULT_ELEMENT_CAP) -> bool:
    """Algebraic membership test: J-trivial syntactic monoid whose letter
    images are idempotent.  Agrees with diagnose(dfa).verdict on every input."""
    # imported on use, like exact below: `moqfa check` never builds a monoid
    from .algebra import is_j_trivial, letters_idempotent, transition_monoid

    monoid = transition_monoid(minimize(dfa), max_elements)
    return is_j_trivial(monoid) and letters_idempotent(monoid)


# ---------------------------------------------------------------------------
# exhaustive verification of the pattern acceptors


class VerificationReport(NamedTuple):
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
    max_words: int = DEFAULT_WORD_BUDGET,
) -> VerificationReport:
    """Check the pattern acceptor on every word up to `max_len`, exactly.

    A word is misclassified when (probability > cutpoint) disagrees with
    subsequence membership, and violates isolation when |probability -
    cutpoint| < isolation; both sides are compared as exact rationals.

    The acceptor is the exact sparse form that `pattern_acceptor` writes and
    checks, the form `moqfa synth --emit` writes and `moqfa prob --letters`
    walks in floats.  No matrix is built here, and numpy is not imported.
    The acceptor's letters map diagonal states to diagonal states (checked
    exactly; otherwise ValueError), and two words that reach the same
    (pattern progress, diagonal state) pair have the same future.  So the
    words are walked one length at a time as the set of distinct pairs they
    reach, and only the pairs that fail are spelled out as words, in
    length-lexicographic order.  Raises ResourceLimitError when
    `words_checked` would exceed `max_words`, and ValueError when `max_len`
    or `max_words` is negative.
    """
    if max_len < 0:
        raise ValueError("maximum word length must be nonnegative")
    if max_words < 0:
        raise ValueError("word budget must be nonnegative")
    size = len(pattern.alphabet)
    total = 0
    # over the empty alphabet only the empty word exists
    for length in range(max_len + 1 if size else 1):
        total += size**length
        if total > max_words:
            raise ResourceLimitError(
                f"enumerating the words up to length {max_len} exceeds the budget of {max_words}"
            )
    # imported on use: the exact walk and fractions (with decimal) are
    # needed only when a verification runs, not by `import moqfa`
    from .exact import check_pattern_acceptor

    cutpoint, isolation = cutpoint_params(pattern)
    misclassified, violations, min_margin = check_pattern_acceptor(
        pattern, pattern_acceptor(pattern), cutpoint, isolation, max_len
    )
    return VerificationReport(
        pattern=pattern,
        cutpoint=cutpoint,
        isolation=isolation,
        max_len=max_len,
        words_checked=total,
        misclassified=misclassified,
        isolation_violations=violations,
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
    rng = random.Random(seed)
    rows = tuple(
        tuple(rng.randrange(q if forward_only else 0, n_states) for _ in alphabet)
        for q in range(n_states)
    )
    accepting = frozenset(q for q in range(n_states) if rng.randrange(2))
    return Dfa(tuple(alphabet), rows, 0, accepting)
