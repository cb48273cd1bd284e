"""The pattern acceptor walked on its diagonal states, exactly and in floats.

The pattern acceptor started on a basis state keeps its density matrix
diagonal, with dyadic entries, and two words that reach the same pair
(pattern progress, diagonal state) have the same future.  So every word up to
a length is checked by walking the distinct pairs of each length in exact
rational arithmetic: the progress by the columns of `moqfa.patterns.pattern_dfa`,
the DFA that `SubsequencePattern.matches` caches and runs, and the state by
the nonzero projector entries of the acceptor's sparse form
(`moqfa.patterns.SparseAcceptor`);
`moqfa.decision.verify_construction` is the public entry point.  The same
step table evaluates words in floats for `moqfa prob --letters`
(`pattern_probabilities`).  Neither walk builds a matrix or imports numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .patterns import SparseAcceptor, SubsequencePattern, _common_denominator
from .patterns import pattern_acceptor


def check_pattern_acceptor(
    pattern: SubsequencePattern,
    acceptor: SparseAcceptor,
    cutpoint: float,
    isolation: float,
    max_len: int,
) -> tuple[tuple, tuple, float]:
    """(misclassified words, isolation violations, minimum margin) of
    `acceptor` on every word over the pattern's alphabet up to `max_len`.

    A word is misclassified when (probability > cutpoint) disagrees with
    subsequence membership, and violates isolation when |probability -
    cutpoint| < isolation, both decided exactly; the words of each list come
    in length-lexicographic order.  Raises ValueError unless the initial state
    and every letter's image of every diagonal basis state are exactly
    diagonal.
    """
    walk = _PairWalk(pattern, acceptor, pattern._dfa._columns)
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


def pattern_probabilities(pattern: SubsequencePattern, words) -> Iterator[float]:
    """Acceptance probability of each word on the pattern acceptor in turn,
    clamped to [0, 1]: the diagonal state walked in floats, one step of
    `_PairWalk` per letter.  An unknown symbol raises ValueError when reached."""
    walk = _PairWalk(pattern, pattern_acceptor(pattern))
    steps = dict(zip(walk.alphabet, walk.steps))
    *start, den = walk.initial
    for word in words:
        state = [x / den for x in start]
        for sym in word:
            try:
                columns, scale = steps[sym]
            except (KeyError, TypeError):  # TypeError: an unhashable symbol
                raise ValueError(f"symbol {sym!r} is not in the alphabet") from None
            state = [sum(w * state[r] for r, w in column) / scale for column in columns]
        p = sum(a * x for a, x in zip(walk.accept, state)) / walk.accept_den
        yield min(1.0, max(0.0, p))


class _PairWalk:
    """Exact (pattern progress, diagonal state) steps of a pattern acceptor.

    A diagonal state is a tuple of integer numerators followed by their
    common denominator, reduced so that equal states are equal tuples.
    Letter a sends E_rr to Phi_a(E_rr) = sum_i P_i[:, r] P_i[r, :], summed in
    outcome order from the nonzero entries of each projector P_i; column s of
    its step lists each nonzero (r, Phi_a(E_rr)[s, s] * scale).  `advance`,
    the pattern DFA's letter columns, is read only where pairs are stepped.
    """

    def __init__(self, pattern: SubsequencePattern, acceptor: SparseAcceptor, advance=()):
        self.alphabet = pattern.alphabet
        self.advance = advance
        d = acceptor.dimension
        psi = acceptor.initial  # diagonal iff at most one amplitude is nonzero
        if sum(1 for z in psi if z) > 1:
            raise _not_diagonal("the initial state")
        numerators, den = _common_denominator([(z.conjugate() * z).real for z in psi])
        self.initial = _reduced(numerators + [den])
        self.steps = []
        for sym in self.alphabet:
            lines = []  # per P_i: nonzero (s, P_i[s, r]) by column r, (t, P_i[r, t]) by row r
            for _, p in acceptor.observables[sym]:
                lines.append((by_col := {}, by_row := {}))
                for (s, t), x in p.items():
                    by_col.setdefault(t, []).append((s, x))
                    by_row.setdefault(s, []).append((t, x))
            found = []  # (r, s, Phi_a(E_rr)[s, s]) where nonzero
            for r in range(d):
                image = {}  # (s, t) -> Phi_a(E_rr)[s, t]
                for by_col, by_row in lines:
                    for s, x in by_col.get(r, ()):
                        for t, y in by_row.get(r, ()):
                            image[s, t] = image.get((s, t), 0) + x * y
                if any(x and (s != t or x.imag) for (s, t), x in image.items()):
                    raise _not_diagonal(f"the channel of {sym!r}")
                found += [(r, s, x.real) for (s, _), x in image.items() if x]
            weights, scale = _common_denominator([x for _, _, x in found])
            columns = [[] for _ in range(d)]
            for (r, s, _), w in zip(found, weights):
                columns[s].append((r, w))
            self.steps.append((tuple(map(tuple, columns)), scale))
        # on a diagonal state the readout trace(A rho) needs only A's diagonal
        accept = [0] * d
        for label, p in acceptor.end_observable:
            if label in acceptor.accepting:
                for (r, c), x in p.items():
                    if r == c:
                        accept[r] += x
        self.accept, self.accept_den = _common_denominator([x.real for x in accept])
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
            for advance, (columns, scale) in zip(self.advance, self.steps):
                entries = [sum(w * state[r] for r, w in column) for column in columns]
                found.append((advance[progress], _reduced(entries + [state[-1] * scale])))
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


def _not_diagonal(what: str) -> ValueError:
    return ValueError(f"exact verification needs diagonal states: {what} is not diagonal")


def _reduced(entries: list) -> tuple[int, ...]:
    g = math.gcd(*entries)
    return tuple(x // g for x in entries)
