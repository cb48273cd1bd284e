"""Letter patterns and the shuffle-ideal languages they denote."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import PatternError, _check_alphabet


@dataclass(frozen=True)
class SubsequencePattern:
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
        missing = sorted(set(self.letters) - set(self.alphabet))
        if missing:
            raise PatternError(f"pattern letters {missing} are not in the alphabet")
        for i in range(len(self.letters) - 1):
            if self.letters[i] == self.letters[i + 1]:
                raise PatternError(
                    "adjacent pattern letters must differ "
                    f"(positions {i + 1} and {i + 2} are both {self.letters[i]!r})"
                )

    def occurrence_positions(self, letter: str) -> tuple[int, ...]:
        """1-based positions at which `letter` occurs in the pattern."""
        positions = tuple(i + 1 for i, a in enumerate(self.letters) if a == letter)
        if not positions:
            raise PatternError(f"{letter!r} does not occur in the pattern")
        return positions

    def matches(self, word: Iterable[str]) -> bool:
        """True iff the pattern is a subsequence of `word` (greedy scan)."""
        need = self.letters
        pos = 0
        for sym in word:
            if sym not in self.alphabet:
                raise ValueError(f"symbol {sym!r} is not in the alphabet")
            if pos < len(need) and sym == need[pos]:
                pos += 1
        return pos == len(need)
