"""Exception types, the alphabet rule, and the line tokenizer shared by the
text-format parsers."""

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
