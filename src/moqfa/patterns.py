"""Letter patterns and what each one builds: the minimal DFA of its shuffle
ideal, its measurement-only acceptor written as exact sparse data, and that
acceptor's cut point.

This module imports no matrix library: `moqfa.exact` walks the sparse form
directly, and `moqfa.quantum` writes it as text or renders it into matrices.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import PatternError, _check_alphabet, _Frozen

if TYPE_CHECKING:
    from .automata import Dfa


class SubsequencePattern(_Frozen):
    """A sequence of letters a1..ak over an alphabet, adjacent letters distinct.

    The pattern denotes its shuffle ideal: the set of words over the alphabet
    that contain a1..ak as a (not necessarily contiguous) subsequence.  The
    empty pattern denotes all words.
    """

    letters: tuple[str, ...]
    alphabet: tuple[str, ...]

    def __init__(self, letters: Iterable[str], alphabet: Iterable[str]):
        object.__setattr__(self, "letters", tuple(letters))
        try:
            object.__setattr__(self, "alphabet", _check_alphabet(alphabet))
        except ValueError as exc:
            raise PatternError(str(exc)) from None
        missing = [x for x in self.letters if x not in self.alphabet]
        if missing:
            try:
                missing = sorted(set(missing))
            except TypeError:  # unhashable or unorderable letters are listed as given
                pass
            raise PatternError(f"pattern letters {missing} are not in the alphabet")
        for i in range(len(self.letters) - 1):
            if self.letters[i] == self.letters[i + 1]:
                raise PatternError(
                    "adjacent pattern letters must differ "
                    f"(positions {i + 1} and {i + 2} are both {self.letters[i]!r})"
                )

    @cached_property
    def _dfa(self) -> Dfa:  # not a field: ==, hash and repr ignore it
        return pattern_dfa(self)

    def matches(self, word: Iterable[str]) -> bool:
        """True iff the pattern is a subsequence of `word`: the run of
        `pattern_dfa`.  A symbol outside the alphabet raises ValueError."""
        return self._dfa.accepts(word)


def pattern_dfa(pattern: SubsequencePattern) -> Dfa:
    """Minimal DFA of the pattern's shuffle ideal.

    State i means "the first i pattern letters have been matched"; state k is
    absorbing and the only accepting state.  Already canonical: minimize()
    returns it unchanged.
    """
    # imported on use: walking the acceptor (`prob --letters`) loads no DFA code
    from .automata import Dfa

    letters, alphabet, k = pattern.letters, pattern.alphabet, len(pattern.letters)
    # letter sym sends state i < k to i + 1 where it is the (i+1)-th pattern letter
    columns = tuple((*(i + (a == sym) for i, a in enumerate(letters)), k) for sym in alphabet)
    return Dfa._of_columns(alphabet, columns, k + 1, 0, frozenset({k}))


def cutpoint_params(pattern: SubsequencePattern) -> tuple[float, float]:
    """Cut point and isolation radius of the pattern acceptor.

    Returns (2^-(2k+1), 2^-(2k+2)) for a pattern of length k, both exact
    binary floating-point values.  From k = 537 the radius underflows to 0,
    which would make every isolation check vacuous, so that raises ValueError.
    """
    k = len(pattern.letters)
    radius = math.ldexp(1.0, -(2 * k + 2))
    if not radius > 0:
        raise ValueError(f"isolation radius 2^-{2 * k + 2} of a {k}-letter pattern underflows")
    return 2 * radius, radius


# one projector: each nonzero 0-based (row, col) entry mapped to its value
Entries = dict[tuple[int, int], complex]


class SparseAcceptor(NamedTuple):
    """A measurement-only acceptor written as the nonzero entries of its
    projectors.

    Fields: an ordered alphabet; the initial amplitudes, one per basis state;
    per alphabet symbol, that observable's outcomes as (label, entries)
    pairs; the end-word outcomes in the same shape; and the accepting labels
    of the end-word observable.  `pattern_acceptor` writes the pattern
    acceptor in this form with exact entries, and
    `MeasureOnlyAutomaton.sparse` reads any acceptor into it.
    """

    alphabet: tuple[str, ...]
    initial: tuple[complex, ...]
    observables: dict[str, tuple[tuple[str, Entries], ...]]
    end_observable: tuple[tuple[str, Entries], ...]
    accepting: frozenset[str]

    @property
    def dimension(self) -> int:
        return len(self.initial)

    def check_laws(self) -> None:
        """Raise one ValueError listing every violation unless the initial
        amplitudes have unit norm and each observable's projectors are
        Hermitian, pairwise orthogonal and sum to the identity, exactly.
        Those laws make each projector idempotent: P_i = P_i (P_1 + ... + P_r)
        = P_i P_i.

        Entries must be real (ints or floats), so Hermitian means symmetric.
        Every check runs on integer numerators over one common denominator m.
        """
        families = [(f"observable {sym!r}", self.observables[sym]) for sym in self.alphabet]
        families.append(("end-observable", self.end_observable))
        values = {x for _, family in families for _, p in family for x in p.values()}
        values.update(self.initial)
        numerators, m = _common_denominator(values)
        scaled = dict(zip(values, numerators))  # x -> m * x
        problems = []
        if sum(scaled[z] ** 2 for z in self.initial) != m * m:
            problems.append("the initial amplitudes do not have unit norm")
        identity = {(r, r): m for r in range(self.dimension)}
        for name, family in families:
            family = [(label, {rc: scaled[x] for rc, x in p.items() if x}) for label, p in family]
            total = {}
            for i, (label, p) in enumerate(family):
                if {(c, r): x for (r, c), x in p.items()} != p:
                    problems.append(f"{name}: projector {label!r} is not Hermitian")
                for other, q in family[i + 1 :]:
                    if _product(p, q):
                        problems.append(f"{name}: {label!r} and {other!r} are not orthogonal")
                for rc, x in p.items():
                    total[rc] = total.get(rc, 0) + x
            if {rc: x for rc, x in total.items() if x} != identity:
                problems.append(f"{name}: projectors do not sum to the identity")
        if problems:
            raise ValueError("; ".join(problems))


def pattern_acceptor(pattern: SubsequencePattern) -> SparseAcceptor:
    """The measurement-only acceptor of the pattern's shuffle ideal, exactly.

    Dimension k+1, with basis states 0..k.  A pattern letter has the outcomes
    "up" and "down" (see `_letter_outcomes`), any other letter the single
    outcome "pass", the identity.  The initial state is basis state 0, and
    the end-word observable accepts on basis state k.  Every entry is an int
    or a dyadic float, and the projector laws are checked exactly before the
    form is returned.  The empty pattern yields the 1-dimensional acceptor
    with constant acceptance probability 1.
    """
    k = len(pattern.letters)
    acceptor = SparseAcceptor(
        pattern.alphabet,
        (1,) + (0,) * k,
        {sym: _letter_outcomes(pattern, sym) for sym in pattern.alphabet},
        (("accept", {(k, k): 1}), ("reject", {(r, r): 1 for r in range(k)})),
        frozenset({"accept"}),
    )
    acceptor.check_laws()
    return acceptor


def _letter_outcomes(pattern: SubsequencePattern, sym: str) -> tuple[tuple[str, Entries], ...]:
    """The outcomes of `sym` in the pattern acceptor.

    With j over the 0-based positions of `sym` in the pattern, "up" is 1/2 on
    every entry of each block {j, j+1} and 1 on the diagonal outside the
    blocks; "down" is +1/2 on each block diagonal and -1/2 on the block
    off-diagonals.  Blocks of one letter never overlap because adjacent
    pattern letters differ.  A letter outside the pattern has no block, and
    its one outcome "pass" is the identity.
    """
    up, down = {}, {}
    for j, letter in enumerate(pattern.letters):
        if letter == sym:
            for r, c in itertools.product((j, j + 1), repeat=2):
                up[r, c] = 0.5
                down[r, c] = 0.5 if r == c else -0.5
    for r in range(len(pattern.letters) + 1):
        up.setdefault((r, r), 1)
    return (("up", up), ("down", down)) if down else (("pass", up),)


def _product(a: dict, b: dict) -> dict:
    """The nonzero entries of the matrix product of two sparse matrices."""
    rows = {}
    for (r, c), x in b.items():
        rows.setdefault(r, []).append((c, x))
    out = {}
    for (r, s), x in a.items():
        for c, y in rows.get(s, ()):
            out[r, c] = out.get((r, c), 0) + x * y
    return {rc: x for rc, x in out.items() if x}


def _common_denominator(values) -> tuple[list, int]:
    """Integers n_i and one denominator m with values[i] == n_i / m exactly."""
    ratios = [x.as_integer_ratio() for x in values]
    m = math.lcm(*(den for _, den in ratios))
    return [num * (m // den) for num, den in ratios], m
