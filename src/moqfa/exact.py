"""Exact check of the pattern acceptor on every word up to a length.

The pattern acceptor started on a basis state keeps its density matrix
diagonal, with dyadic entries, and two words that reach the same pair
(pattern progress, diagonal state) have the same future.  So every word up to
a length can be checked by walking the set of distinct pairs of each length
in exact rational arithmetic.
`moqfa.decision.verify_construction` is the public entry point.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .automata import pattern_dfa
from .patterns import SubsequencePattern
from .quantum import MeasureOnlyAutomaton

# channel images are read about this many entries at a time, so that the
# memory of a walk grows as d^2, not d^3
_BLOCK_ENTRIES = 1 << 20


def check_pattern_acceptor(
    pattern: SubsequencePattern,
    auto: MeasureOnlyAutomaton,
    cutpoint: float,
    isolation: float,
    max_len: int,
) -> tuple[tuple, tuple, float]:
    """(misclassified words, isolation violations, minimum margin) of `auto`
    on every word over the pattern's alphabet up to `max_len`.

    A word is misclassified when (probability > cutpoint) disagrees with
    subsequence membership, and violates isolation when |probability -
    cutpoint| < isolation, both decided exactly; the words of each list come
    in length-lexicographic order.  Raises ValueError unless the initial state
    and every letter's image of every diagonal basis state are exactly
    diagonal.
    """
    walk = _PairWalk(pattern, auto)
    lam, radius = Fraction(cutpoint), Fraction(isolation)
    verdicts = {}  # state -> (accepted, isolated, margin)
    misclassified, violations = [], []
    level = {(0, walk.initial)}
    for length in range(max_len + 1):
        wrong, close = set(), set()
        for pair in level:
            progress, state = pair
            if state not in verdicts:
                diff = walk.probability(state) - lam
                verdicts[state] = (diff > 0, abs(diff) >= radius, abs(diff))
            accepted, isolated, _ = verdicts[state]
            if accepted != (progress == len(pattern.letters)):
                wrong.add(pair)
            if not isolated:
                close.add(pair)
        misclassified += walk.expand(length, wrong)
        violations += walk.expand(length, close)
        if length < max_len:
            level = {nxt for pair in level for nxt in walk.successors(pair)}
            if not level:  # no word of the next length exists
                break
    min_margin = float(min(margin for _, _, margin in verdicts.values()))
    return tuple(misclassified), tuple(violations), min_margin


class _PairWalk:
    """Exact (pattern progress, diagonal state) steps of a pattern acceptor.

    A diagonal state is a tuple of integer numerators followed by their
    common denominator, reduced so that equal states are equal tuples.
    """

    def __init__(self, pattern: SubsequencePattern, auto: MeasureOnlyAutomaton):
        self.alphabet = pattern.alphabet
        self.advance = pattern_dfa(pattern).transitions
        psi = auto.initial
        rho = psi.conj()[:, None] * psi[None, :]
        _check_diagonal(rho[None], "the initial state")
        numerators, den = _common_denominator(rho.diagonal().real.tolist())
        self.initial = _reduced(numerators + [den])
        # letter a sends the diagonal basis state E_rr to
        # Phi_a(E_rr) = sum_i P_i[:, r] P_i[r, :], entry (s, s) of which is
        # weights[r * d + s] / scale; column s of a step lists its nonzero (r, weight)
        d = auto.dimension
        block = max(1, _BLOCK_ENTRIES // (d * d))
        self.steps = []
        for sym in self.alphabet:
            projectors = [p for _, p in auto.observables[sym].outcomes]
            diagonals = []
            for lo in range(0, d, block):
                rows = slice(lo, lo + block)
                images = sum(p.T[rows, :, None] * p[rows, None, :] for p in projectors)
                _check_diagonal(images, f"the channel of {sym!r}")
                diagonals += images.diagonal(axis1=1, axis2=2).real.ravel().tolist()
            weights, scale = _common_denominator(diagonals)
            columns = tuple(
                tuple((r, weights[r * d + s]) for r in range(d) if weights[r * d + s])
                for s in range(d)
            )
            self.steps.append((columns, scale))
        # on a diagonal state the readout trace(A rho) needs only A's diagonal
        self.accept, self.accept_den = _common_denominator(
            auto.accepting_projector().diagonal().real.tolist()
        )
        self._successors = {}

    def probability(self, state) -> Fraction:
        """Exact acceptance probability of a diagonal state."""
        return Fraction(sum(a * m for a, m in zip(self.accept, state)), self.accept_den * state[-1])

    def successors(self, pair) -> tuple:
        """The pair after each letter of the alphabet, in alphabet order."""
        found = self._successors.get(pair)
        if found is None:
            progress, state = pair
            found = []
            for q, (columns, scale) in zip(self.advance[progress], self.steps):
                entries = [sum(w * state[r] for r, w in column) for column in columns]
                found.append((q, _reduced(entries + [state[-1] * scale])))
            found = self._successors[pair] = tuple(found)
        return found

    def expand(self, length: int, failing: set) -> list:
        """The words of `length` whose pair is in `failing`, in lexicographic
        order; every pair reached by a shorter word must have been stepped."""
        if not failing:
            return []
        # wanted[t]: stepped pairs from which some word of length `length` - t
        # leads into `failing`; a pair reached at length t < `length` is stepped
        wanted = [failing]
        for _ in range(length):
            after = wanted[-1]
            wanted.append(
                {pair for pair, nxt in self._successors.items() if any(n in after for n in nxt)}
            )
        wanted.reverse()
        found = []
        stack = [((), (0, self.initial))]
        while stack:
            word, pair = stack.pop()
            if len(word) == length:
                found.append(word)
                continue
            children = [
                (word + (sym,), nxt)
                for sym, nxt in zip(self.alphabet, self.successors(pair))
                if nxt in wanted[len(word) + 1]
            ]
            stack += reversed(children)
        return found


def _check_diagonal(images, what: str) -> None:
    """ValueError unless every matrix images[r] is exactly real and diagonal."""
    _, rows, cols = images.nonzero()
    if images.imag.any() or (rows != cols).any():
        raise ValueError(f"exact verification needs diagonal states: {what} is not diagonal")


def _common_denominator(values: list) -> tuple[list, int]:
    """Integers n_i and one denominator m with values[i] == n_i / m exactly."""
    ratios = [x.as_integer_ratio() for x in values]
    m = math.lcm(*(den for _, den in ratios))
    return [num * (m // den) for num, den in ratios], m


def _reduced(entries: list) -> tuple[int, ...]:
    g = math.gcd(*entries)
    return tuple(x // g for x in entries)
