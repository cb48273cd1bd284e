"""Exception types, the default size budgets, the alphabet rule, the base of
the immutable classes, and the line tokenizer shared by the text-format
parsers.  It imports nothing, so the command-line parser can be built from it
alone."""

from __future__ import annotations


class FormatError(ValueError):
    """A text artifact (DFA file, automaton file) is malformed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PatternError(ValueError):
    """A subsequence pattern violates its invariants."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured size budget."""


DEFAULT_WORD_BUDGET = 2_000_000  # words that verify_construction may check
DEFAULT_ELEMENT_CAP = 1_000_000  # elements that transition_monoid may build


def _check_alphabet(symbols) -> tuple[str, ...]:
    """The alphabet as a tuple, or ValueError unless its symbols are distinct
    and each one printable character other than space: the rule of every
    constructor, so any automaton or pattern can be written as text."""
    alphabet = tuple(symbols)
    for sym in alphabet:
        if not isinstance(sym, str) or len(sym) != 1 or sym == " " or not sym.isprintable():
            raise ValueError(f"symbols must be single printable characters, got {sym!r}")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet contains repeated symbols")
    return alphabet


class _Frozen:
    """Base of the classes whose constructors validate their fields.

    __init__ sets the fields, the names the class annotates, once each,
    bypassing __setattr__; assigning or deleting any attribute later
    raises AttributeError.  repr shows the fields, and == and hash compare
    _values(), the fields unless a class stores others, between instances
    of one class; a class that holds arrays restores identity equality.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__annotations__)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in type(self).__annotations__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class _TokenLines:
    """Non-blank, non-comment lines of a text artifact, pre-tokenised.
    End-of-input errors name the last line of the text."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self.rows = [
            (number, tokens)
            for number, tokens in enumerate(map(str.split, lines), start=1)
            if tokens and tokens[0][0] != "#"
        ]
        self.pos = 0
        self.last_line = len(lines)

    def peek(self) -> tuple[int, list[str]] | None:
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def take(self, expected: str) -> tuple[int, list[str]]:
        row = self.peek()
        if row is None:
            raise FormatError(f"unexpected end of input (expected {expected})", self.last_line)
        self.pos += 1
        return row

    def rest(self) -> list[tuple[int, list[str]]]:
        """Every row not yet taken; the stream is then at its end."""
        remaining = self.rows[self.pos :]
        self.pos = len(self.rows)
        return remaining
