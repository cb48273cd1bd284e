"""Fuzz tests for both text formats, which share one line tokenizer.

Each example takes a well-formed DFA or acceptor text and deletes lines,
substitutes tokens and truncates lines.  The parsers may only raise
ValueError (FormatError is a subclass); a FormatError names a line of the
text, end-of-input errors name its last line, and whatever parses survives
a second format/parse round trip.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from moqfa import (
    FormatError,
    SubsequencePattern,
    format_automaton,
    parse_automaton,
    parse_dfa,
    pattern_automaton,
    random_dfa,
    serialize_dfa,
)

import support

KEYWORDS = [
    "states", "alphabet", "initial", "accepting", "trans",
    "mon1qfa", "dim=2", "alphabet=ab", "initial:", "observable", "outcome",
    "end-observable", "accepting:", "#", "#x", "a", "b", "c", "ab",
    "0", "1", "2", "-1", "0.5,0.0", "nan,0.0", "1e999,0", "1,", ",",
]

# Numbers stay below 10**6 here: a header of 10**12 states is tested in a
# child interpreter under an address-space cap (test_automata), so that a
# parser sizing its table from the header cannot take the host's memory.
TOKENS = st.one_of(
    st.sampled_from(KEYWORDS),
    st.integers(-2, 10**6).map(str),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)

# half of the edits hit the first lines, where each format keeps its header
LINE = st.one_of(st.integers(0, 3), st.integers(0, 10**6))

EDITS = st.lists(
    st.tuples(st.sampled_from(["delete", "substitute", "truncate"]), LINE, st.integers(0, 10**6), TOKENS),
    min_size=1,
    max_size=4,
)


def dfa_text(seed: int) -> str:
    return serialize_dfa(random_dfa(seed, seed % 4 + 1, "ab" if seed % 2 else "abc"))


def automaton_text(seed: int) -> str:
    if seed % 2:
        letters = ("", "a", "ab", "abc", "cab")[seed % 5]
        return format_automaton(pattern_automaton(SubsequencePattern(letters, "abc")))
    return format_automaton(support.random_automaton(seed, seed % 3 + 1, "ab"))


def edit(text: str, edits) -> str:
    lines = text.split("\n")
    for kind, i, j, token in edits:
        if not lines:
            break
        i %= len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "substitute":
            tokens = lines[i].split(" ")
            tokens[j % len(tokens)] = token
            lines[i] = " ".join(tokens)
        else:
            lines[i] = lines[i][: j % (len(lines[i]) + 1)]
    return "\n".join(lines)


def parse_or_error(parse, text: str):
    """The parsed value, or the ValueError the parser raised (checked)."""
    try:
        return parse(text)
    except FormatError as exc:
        last_line = len(text.splitlines())
        assert exc.line is not None and 0 <= exc.line <= last_line
        if "unexpected end of input" in str(exc) or "missing transition" in str(exc):
            assert exc.line == last_line
        return exc
    except ValueError as exc:
        return exc


@given(seed=st.integers(0, 10**4), edits=EDITS)
@settings(max_examples=400, deadline=None)
def test_dfa_format_fails_only_with_value_errors(seed, edits):
    dfa = parse_or_error(parse_dfa, edit(dfa_text(seed), edits))
    if isinstance(dfa, ValueError):
        return
    try:
        text = serialize_dfa(dfa)
    except ValueError:  # e.g. '#' parses as a symbol but cannot be written
        return
    assert parse_dfa(text) == dfa


@given(seed=st.integers(0, 10**4), edits=EDITS)
@settings(max_examples=400, deadline=None)
def test_automaton_format_fails_only_with_value_errors(seed, edits):
    auto = parse_or_error(parse_automaton, edit(automaton_text(seed), edits))
    if isinstance(auto, ValueError):
        return
    try:
        text = format_automaton(auto)
    except ValueError:  # e.g. an outcome label starting with '#'
        return
    assert format_automaton(parse_automaton(text)) == text


@given(seed=st.integers(0, 10**4))
@settings(max_examples=100, deadline=None)
def test_unedited_texts_round_trip(seed):
    text = dfa_text(seed)
    assert serialize_dfa(parse_dfa(text)) == text
    text = automaton_text(seed)
    assert format_automaton(parse_automaton(text)) == text


@given(seed=st.integers(0, 10**4), keep=st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_cut_texts_report_their_last_line(seed, keep):
    for text in (dfa_text(seed), automaton_text(seed)):
        lines = text.splitlines()
        cut = "\n".join(lines[: keep % len(lines)])
        for parse in (parse_dfa, parse_automaton):
            error = parse_or_error(parse, cut)
            assert isinstance(error, ValueError)
