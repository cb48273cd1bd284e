"""Fuzz tests for both text formats, which share one line tokenizer.

Each example takes a well-formed DFA or acceptor text and deletes lines,
substitutes tokens and truncates lines.  The parsers may only raise
ValueError (FormatError is a subclass); a FormatError names a line of the
text, end-of-input errors name its last line, and whatever parses survives
a second format/parse round trip.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moqfa import (
    Dfa,
    FormatError,
    MeasureOnlyAutomaton,
    Observable,
    PatternError,
    SubsequencePattern,
    format_automaton,
    identity_observable,
    parse_automaton,
    parse_dfa,
    pattern_automaton,
    random_dfa,
    serialize_dfa,
)
from moqfa import automata, quantum
from moqfa.cli import main

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
    assert parse_dfa(serialize_dfa(dfa)) == dfa


@given(seed=st.integers(0, 10**4), edits=EDITS)
@settings(max_examples=400, deadline=None)
def test_automaton_format_fails_only_with_value_errors(seed, edits):
    auto = parse_or_error(parse_automaton, edit(automaton_text(seed), edits))
    if isinstance(auto, ValueError):
        return
    text = format_automaton(auto)
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


def test_hash_symbols_and_labels_round_trip():
    # '#' opens a comment only as the first token of a line, and no line of
    # either format starts with a symbol or an outcome label
    dfa = parse_dfa("states 1\nalphabet # b\ninitial 0\naccepting 0\ntrans 0 # 0\ntrans 0 b 0\n")
    assert dfa.alphabet == ("#", "b")
    assert parse_dfa(serialize_dfa(dfa)) == dfa
    text = format_automaton(pattern_automaton(SubsequencePattern("#", "#b")))
    text = text.replace("outcome up", "outcome #x").replace("outcome accept", "outcome #accept")
    text = text.replace("accepting: accept", "accepting: #accept")
    auto = parse_automaton(text)
    assert auto.observables["#"].labels() == ("#x", "down")
    assert auto.accepting == frozenset({"#accept"})
    assert format_automaton(auto) == text


def test_non_printable_alphabet_symbols_are_refused_on_the_header_line():
    text = format_automaton(pattern_automaton(SubsequencePattern("a", "ab")))
    for symbol in ("\u200b", "\x00"):
        with pytest.raises(FormatError) as err:
            parse_automaton(text.replace("alphabet=ab", f"alphabet=a{symbol}", 1))
        assert err.value.line == 1


# One alphabet rule: distinct symbols, each one printable character other
# than space.  Every constructor and both parsers apply it, so whatever is
# built can be written, and whatever is refused is refused everywhere.
REFUSED = [" ", "\t", "\u200b", "\x00", "ab", 0]
ACCEPTED = ["é", "#"]


@pytest.mark.parametrize("symbol", REFUSED + ACCEPTED)
def test_one_alphabet_rule_for_constructors_parsers_and_cli(symbol, capsys):
    alphabet = ("a", symbol)
    refused = symbol in REFUSED
    observables = {s: identity_observable(1) for s in alphabet}
    makers = [
        (ValueError, lambda: Dfa(alphabet, [(0, 0)], 0, {0})),
        (ValueError, lambda: MeasureOnlyAutomaton(alphabet, [1], observables, identity_observable(1), {"pass"})),
        (PatternError, lambda: SubsequencePattern([symbol], alphabet)),
    ]
    if refused:
        for error, make in makers:
            with pytest.raises(error):
                make()
    else:
        dfa, auto, pattern = (make() for _, make in makers)
        assert parse_dfa(serialize_dfa(dfa)) == dfa
        for acceptor in (auto, pattern_automaton(pattern)):
            text = format_automaton(acceptor)
            assert format_automaton(parse_automaton(text)) == text
    if not isinstance(symbol, str):
        return  # text and argv carry strings only
    # "z" occurs in neither template except as the alphabet's one symbol
    dfa_text = "states 1\nalphabet z\ninitial 0\naccepting 0\ntrans 0 z 0\n"
    auto_text = format_automaton(pattern_automaton(SubsequencePattern("z", "z")))
    for parse, template in ((parse_dfa, dfa_text), (parse_automaton, auto_text)):
        text = template.replace("z", symbol)
        if refused:
            with pytest.raises(FormatError):
                parse(text)
        else:
            assert parse(text).alphabet == (symbol,)
    code = main(["synth", "--letters", symbol, "--alphabet", symbol])
    out, err = capsys.readouterr()
    if refused:
        assert (code, out) == (1, "") and err.startswith("error: ")
    else:
        assert (code, err) == (0, "")


# ---------------------------------------------------------------------------
# parse_dfa reads the form serialize_dfa writes in one bulk pass and every
# other text with its line loop; the two must agree wherever the bulk pass
# answers, and the writer's own output must never need the line loop.

WRITER_EDITS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "swap", "shuffle", "pad", "zeros", "row", "digit", "copy", "cut",
                "symbol", "alphabet", "states", "initial", "accepting", "huge",
            ]
        ),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    max_size=3,
)


def writer_edit(text: str, edits) -> str:
    """`text` with edits that keep the writer's form: swapped, shuffled or
    copied trans lines, a zero prepended or a digit appended to a number,
    two zeros prepended to a source, the symbols of two adjacent lines of
    one state swapped, an unknown symbol, an alphabet symbol repeated in place of
    another (also in the trans lines), another state count, initial state or
    accepting state, or a header of 10**12 states; or else a cut-off copy of
    a trans line added, so that the line count stays n x |alphabet| with a
    gap."""
    head, trans = text.split("\n")[:4], text.split("\n")[4:-1]
    cuts = []  # added last, so that every other edit meets whole lines
    for kind, i, j in edits:
        a, b = i % len(trans), j % len(trans)
        fields = trans[a].split(" ")
        if kind == "swap":
            trans[a], trans[b] = trans[b], trans[a]
        elif kind == "shuffle":
            random.Random(j).shuffle(trans)
        elif kind == "zeros":
            fields[1] = "00" + fields[1]
            trans[a] = " ".join(fields)
        elif kind == "row":
            if a + 1 < len(trans) and trans[a + 1].split(" ")[1] == fields[1]:
                other = trans[a + 1].split(" ")
                fields[2], other[2] = other[2], fields[2]
                trans[a], trans[a + 1] = " ".join(fields), " ".join(other)
        elif kind == "copy":
            trans[a] = trans[b]
        elif kind in ("pad", "digit"):
            f = (1, 3)[j % 2]
            fields[f] = "0" + fields[f] if kind == "pad" else fields[f] + str(j % 10)
            trans[a] = " ".join(fields)
        elif kind == "cut":
            cuts.append((a, trans[b].rsplit(" ", 1)[0]))
        elif kind == "symbol":
            fields[2] = "z"
            trans[a] = " ".join(fields)
        elif kind == "alphabet":
            symbols = head[1].split(" ")[1:]
            gone, kept = symbols[i % len(symbols)], symbols[j % len(symbols)]
            rename = {gone: kept}
            head[1] = " ".join(["alphabet"] + [rename.get(sym, sym) for sym in symbols])
            for b, line in enumerate(trans):
                fields = line.split(" ")
                fields[2] = rename.get(fields[2], fields[2])
                trans[b] = " ".join(fields)
        elif kind == "states":
            head[0] = f"states {int(head[0].split()[1]) + j % 5 - 2}"
        elif kind == "initial":
            head[2] += str(j % 10)
        elif kind == "accepting":
            head[3] += f" {j % 8}"
        else:
            head[0] = "states 1000000000000"
    for a, line in cuts:
        trans.insert(a, line)
    return "\n".join(head + trans + [""])


def line_loop(text: str):
    """parse_dfa's answer, or its ValueError, with the bulk pass switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(automata, "_parse_writer_form", lambda text: None)
        return parse_or_error(parse_dfa, text)


# one example for each fault that Dfa or the bulk pass's except clauses
# catch; seed 3 draws 4 states, seed 0 one state
@given(seed=st.integers(0, 10**4), alphabet=st.sampled_from(["a", "ab", "abc", "#\u00e9"]), edits=WRITER_EDITS)
@example(seed=3, alphabet="ab", edits=[("copy", 0, 1)])  # a duplicate line leaves a gap
@example(seed=3, alphabet="ab", edits=[("digit", 7, 8)])  # source 38
@example(seed=3, alphabet="ab", edits=[("digit", 0, 9)])  # a target ending in 9
@example(seed=3, alphabet="ab", edits=[("initial", 0, 9)])  # initial 09
@example(seed=3, alphabet="ab", edits=[("accepting", 0, 7)])  # accepting ... 7
@example(seed=3, alphabet="ab", edits=[("symbol", 0, 0)])  # symbol z
@example(seed=3, alphabet="ab", edits=[("alphabet", 0, 1)])  # alphabet b b
@example(seed=0, alphabet="ab", edits=[("states", 0, 1)])  # states 0
# the writer's order is read as the target column; any other order, or a
# source with leading zeros, goes to the line loop
@example(seed=5, alphabet="abc", edits=[])  # state-major
@example(seed=5, alphabet="abc", edits=[("shuffle", 0, 1)])  # the same lines shuffled
@example(seed=5, alphabet="a", edits=[("swap", 0, 3)])  # rows 0 and 3 swapped, symbols in order
@example(seed=5, alphabet="abc", edits=[("zeros", 9, 0)])  # source 003
@example(seed=5, alphabet="abc", edits=[("row", 3, 0)])  # trans 1 b 2 before trans 1 a 5
@settings(max_examples=400, deadline=None)
def test_bulk_pass_agrees_with_the_line_loop(seed, alphabet, edits):
    text = writer_edit(serialize_dfa(random_dfa(seed, seed % 6 + 1, alphabet)), edits)
    bulk = automata._parse_writer_form(text)
    assert bulk is None or bulk == line_loop(text)


HEADER = "states 1\nalphabet a\ninitial 0\naccepting\n"


@pytest.mark.parametrize(
    "text, error",
    [
        # no trans line, so only Dfa's own check refuses it in the bulk pass
        ("states 0\nalphabet a\ninitial 0\naccepting\n", "line 1: state count must be positive"),
        # n x |alphabet| lines, but not all in the writer's form
        (HEADER + "trans 0 a 0 0\n", "line 5: expected 'trans <from> <sym> <to>'"),
        (HEADER + "xxxxx 0 a 0\n", "line 5: expected 'trans <from> <sym> <to>'"),
        (HEADER + "# 0 a 0\n", "line 5: missing transition for state 0 on 'a'"),
    ],
)
def test_texts_the_bulk_pass_leaves_to_the_line_loop(text, error):
    assert automata._parse_writer_form(text) is None
    assert str(line_loop(text)) == error


def test_the_writers_output_takes_the_bulk_pass(monkeypatch):
    def refuse(text):
        raise AssertionError("the line loop read a text in the writer's form")

    monkeypatch.setattr(automata, "_TokenLines", refuse)
    dfas = list(support.random_corpus())
    dfas += [random_dfa(seed, 5, alphabet) for seed in range(20) for alphabet in ("#", "\u00e9", "a", "#\u00e9b")]
    dfas.append(Dfa("ab", [(0, 1), (1, 0)], 1, set()))
    for dfa in dfas:
        assert parse_dfa(serialize_dfa(dfa)) == dfa


# ---------------------------------------------------------------------------
# parse_automaton reads each matrix, and the initial vector, with one float
# pass; `_parse_entry` reports the errors.  Every text must parse to the same
# bits, or fail with the same error, as when every entry goes through
# `_parse_entry`, and the writer's output must never need it.


def entry_loop(text: str):
    """parse_automaton's answer, or its ValueError, with every entry read by
    `_parse_entry`."""

    def per_entry(rows):
        entries = [quantum._parse_entry(token, line) for line, row in rows for token in row]
        return np.array(entries, dtype=np.complex128)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantum, "_parse_entries", per_entry)
        return parse_or_error(parse_automaton, text)


def outcome(parsed):
    """An error as its type, message and line; an acceptor as the bytes of
    every array it holds."""
    if isinstance(parsed, ValueError):
        return type(parsed), str(parsed), getattr(parsed, "line", None)

    def matrices(obs):
        return [(label, p.tobytes()) for label, p in obs.outcomes]

    return (
        parsed.alphabet,
        parsed.initial.tobytes(),
        [matrices(parsed.observables[sym]) for sym in parsed.alphabet],
        matrices(parsed.end_observable),
        parsed.accepting,
    )


# seed 7 is the pattern ab over abc: dimension 3, its first matrix row is
# line 5 (edit index 4), "0.5,0.0 0.5,0.0 0.0,0.0"
@given(seed=st.integers(0, 10**4), edits=EDITS)
@example(seed=7, edits=[("substitute", 4, 0, "1_0,0")])  # float() reads 1_0 as 10
@example(seed=7, edits=[("substitute", 4, 2, "-0.0,-0.0")])  # signed zeros kept
@example(seed=7, edits=[("substitute", 4, 2, "1e-320,0")])  # subnormal
@example(seed=7, edits=[("substitute", 4, 0, "+.5,0")])
@example(seed=7, edits=[("substitute", 4, 0, "nan,0")])
@example(seed=7, edits=[("substitute", 4, 0, "1e999,0")])
@example(seed=7, edits=[("substitute", 1, 1, "-0.0,-0.0")])  # in the initial vector
@example(seed=7, edits=[("substitute", 5, 1, "1")])  # no comma
@example(seed=7, edits=[("substitute", 5, 1, "1,2,3")])  # two commas
@example(seed=7, edits=[("substitute", 4, 0, "x,0.0"), ("truncate", 5, 15, "")])
@settings(max_examples=400, deadline=None)
def test_float_pass_agrees_with_the_entry_loop(seed, edits):
    text = edit(automaton_text(seed), edits)
    assert outcome(parse_or_error(parse_automaton, text)) == outcome(entry_loop(text))


@pytest.mark.parametrize(
    "edits, keep, error",
    [
        pytest.param(
            [("substitute", 4, 0, "x,0.0"), ("truncate", 5, 15, "")],
            None,
            "line 5: bad numeric entry 'x,0.0'",
            id="bad-row-1-before-short-row-2",
        ),
        pytest.param(
            [("substitute", 4, 0, "x,0.0")],
            5,
            "line 5: bad numeric entry 'x,0.0'",
            id="bad-row-1-before-end-of-input",
        ),
        pytest.param(
            [("truncate", 4, 15, ""), ("substitute", 5, 0, "x,0.0")],
            None,
            "line 5: expected 3 entries in matrix row, got 2",
            id="short-row-1-before-bad-row-2",
        ),
        pytest.param(
            [("substitute", 5, 1, "1,2,3"), ("substitute", 6, 0, "x,0.0")],
            None,
            "line 6: expected 're,im' entry, got '1,2,3'",
            id="two-commas-before-bad-row-3",
        ),
        pytest.param(
            [("substitute", 5, 2, "1"), ("substitute", 5, 1, "y,0")],
            None,
            "line 6: bad numeric entry 'y,0'",
            id="entries-in-reading-order",
        ),
        # the halves of these two would still pair up
        pytest.param(
            [("substitute", 4, 0, "1"), ("substitute", 4, 1, "0,0,0")],
            None,
            "line 5: expected 're,im' entry, got '1'",
            id="one-comma-short-one-too-many",
        ),
        pytest.param(
            [("substitute", 1, 2, "1")],
            None,
            "line 2: expected 're,im' entry, got '1'",
            id="initial-no-comma",
        ),
        pytest.param(
            [("substitute", 1, 3, "0,z")], None, "line 2: bad numeric entry '0,z'", id="initial-bad"
        ),
    ],
)
def test_the_first_bad_entry_is_the_first_error(edits, keep, error):
    text = "\n".join(edit(automaton_text(7), edits).split("\n")[:keep])
    assert str(parse_or_error(parse_automaton, text)) == error
    assert str(entry_loop(text)) == error


def conjugated(auto: MeasureOnlyAutomaton, rng: np.random.Generator) -> MeasureOnlyAutomaton:
    """The acceptor in a seeded random basis U: initial psi U^dagger, every
    projector U P U^dagger."""
    d = auto.dimension
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    uh = u.conj().T

    def turn(obs):
        return Observable(d, [(label, u @ p @ uh) for label, p in obs.outcomes])

    observables = {sym: turn(obs) for sym, obs in auto.observables.items()}
    return MeasureOnlyAutomaton(
        auto.alphabet, auto.initial @ uh, observables, turn(auto.end_observable), auto.accepting
    )


def test_the_writers_acceptors_take_the_float_pass(monkeypatch):
    def refuse(token, line):
        raise AssertionError(f"the per-entry loop read {token!r} on line {line}")

    monkeypatch.setattr(quantum, "_parse_entry", refuse)
    rng = np.random.default_rng(20261019)
    patterns = [SubsequencePattern(("abc" * 11)[: d - 1], "abc") for d in range(1, 34)]
    autos = [pattern_automaton(p) for p in patterns]
    autos += [conjugated(pattern_automaton(p), rng) for p in patterns]
    for auto in autos:
        back = parse_automaton(format_automaton(auto))
        assert np.array_equal(back.initial, auto.initial)
        for sym in auto.alphabet:
            pairs = zip(back.observables[sym].outcomes, auto.observables[sym].outcomes)
            assert all(np.array_equal(p, q) for (_, p), (_, q) in pairs)
