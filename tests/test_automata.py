"""Tests for the DFA layer: format, minimization, boolean algebra, variation."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moqfa
from moqfa import automata
from moqfa import (
    Dfa,
    FormatError,
    SubsequencePattern,
    complement,
    equivalent,
    is_empty,
    is_literally_idempotent,
    is_partially_ordered,
    minimize,
    parse_dfa,
    pattern_dfa,
    product,
    random_dfa,
    random_partially_ordered_dfa,
    serialize_dfa,
    sup_variation,
    sup_variation_witness,
    variation,
)

import oracles
import support
from test_census import census

CONTAINS_A_TEXT = """\
# minimal DFA of: words containing the letter a
states 2
alphabet a b
initial 0
accepting 1
trans 0 a 1
trans 0 b 0
trans 1 a 1
trans 1 b 1
"""


def contains_a() -> Dfa:
    return Dfa("ab", [(1, 0), (1, 1)], 0, {1})


def ends_with_a() -> Dfa:
    return Dfa("ab", [(1, 0), (1, 0)], 0, {1})


def even_a_blocks() -> Dfa:
    """(aa)* over the single-letter alphabet."""
    return Dfa("a", [(1,), (0,)], 0, {0})


@st.composite
def dfas(draw, max_states=6, alphabets=("ab", "abc")):
    n = draw(st.integers(1, max_states))
    alphabet = draw(st.sampled_from(alphabets))
    rows = [
        tuple(draw(st.integers(0, n - 1)) for _ in alphabet) for _ in range(n)
    ]
    accepting = {q for q in range(n) if draw(st.booleans())}
    initial = draw(st.integers(0, n - 1))
    return Dfa(alphabet, rows, initial, accepting)


# ---------------------------------------------------------------------------
# format


def test_parse_the_contains_a_file():
    d = parse_dfa(CONTAINS_A_TEXT)
    assert d == contains_a()


def test_accepts_examples():
    d = contains_a()
    assert d.accepts("bab")
    assert not d.accepts("")
    assert not d.accepts("bbb")
    with pytest.raises(ValueError):
        d.accepts("abc")


def test_round_trip_parse_of_serialize():
    for d in (contains_a(), ends_with_a(), even_a_blocks()):
        assert parse_dfa(serialize_dfa(d)) == d


@pytest.mark.parametrize(
    "transitions, initial, accepting",
    [
        ([(0, 1), (1, 1)], 0, {1.0}),
        ([(0, True), (1, 1)], 0, {1}),
        ([(0, 1), (1, 1)], 0.7, {1}),
        ([(0, 1), (1, 1)], True, {1}),
    ],
)
def test_dfa_states_must_be_ints(transitions, initial, accepting):
    # written to the text format, a float or bool state is a token that
    # parse_dfa refuses, and int() would drop a fraction silently
    with pytest.raises(ValueError):
        Dfa("ab", transitions, initial, accepting)


def test_every_constructor_gives_one_value():
    # the ideal of ab over abc from rows, both parse paths, minimize, the
    # pattern, a product and a double complement
    rows = [(1, 0, 0), (1, 2, 1), (2, 2, 2)]
    d = Dfa("abc", rows, 0, {2})
    text = serialize_dfa(d)
    assert automata._parse_writer_form(text) is not None
    head, trans = text.splitlines()[:4], text.splitlines()[4:]
    looped = parse_dfa("\n".join(["# trans lines reversed", *head, *reversed(trans)]) + "\n")
    # state 3 duplicates state 1 and state 4 is unreachable
    redundant = Dfa("abc", [(3, 0, 0), (1, 2, 1), (2, 2, 2), (1, 2, 3), (4, 0, 1)], 0, {2})
    built = [
        d,
        parse_dfa(text),
        looped,
        minimize(redundant),
        pattern_dfa(SubsequencePattern("ab", "abc")),
        product(d, d, "intersection"),
        complement(complement(d)),
    ]
    for other in built:
        assert other == d and hash(other) == hash(d) and repr(other) == repr(d)
        assert other.transitions == tuple(rows) and other._columns == tuple(zip(*rows))
    assert repr(d) == (
        "Dfa(alphabet=('a', 'b', 'c'), transitions=((1, 0, 0), (1, 2, 1), (2, 2, 2)), "
        "initial=0, accepting=frozenset({2}))"
    )
    # with no letters there are no columns: the state count tells them apart
    one, two = Dfa((), [()], 0, ()), Dfa((), [(), ()], 0, ())
    assert one != two and one.transitions == ((),) and two.transitions == ((), ())
    assert minimize(two) == one == product(two, two, "union")


@pytest.mark.parametrize(
    "transitions, message",
    [
        ([(0, True), (1, 1)], "state 0 has an out-of-range successor True"),
        ([(0, 1), (1.0, 1)], "state 1 has an out-of-range successor 1.0"),
        ([(0, 1), (1,)], "state 1 has 1 transitions, expected 2"),
        ([(0, 1), (1, 1, 0)], "state 1 has 3 transitions, expected 2"),
        ([(0, 2), (1, 1)], "state 0 has an out-of-range successor 2"),
        ([(0, 1), (-1, 1)], "state 1 has an out-of-range successor -1"),
        # the first bad entry in row order is named, whatever comes after it
        ([(0, 5), (1,)], "state 0 has an out-of-range successor 5"),
        ([(0,), (1, 1.5)], "state 0 has 1 transitions, expected 2"),
        ([], "a DFA needs at least one state"),
    ],
)
def test_bad_rows_keep_their_messages(transitions, message):
    with pytest.raises(ValueError) as error:
        Dfa("ab", transitions, 0, {0})
    assert str(error.value) == message


def test_serialize_handles_empty_accepting_set():
    d = Dfa("ab", [(0, 0)], 0, set())
    text = serialize_dfa(d)
    assert "accepting\n" in text
    assert parse_dfa(text) == d


def test_parse_reports_missing_transition():
    text = CONTAINS_A_TEXT.replace("trans 1 b 1\n", "")
    with pytest.raises(FormatError) as err:
        parse_dfa(text)
    assert "missing transition" in str(err.value)
    assert "state 1" in str(err.value) and "'b'" in str(err.value)


def test_parse_memory_follows_the_input_not_the_declared_state_count():
    pytest.importorskip("resource")
    # parsed in a child interpreter under a 600 MB address-space cap, so that
    # a parser that sizes its table from the header fails there with
    # MemoryError; a short file still reports its first missing pair, and an
    # empty alphabet (n states, no transitions) is refused
    header = "states 1000000000000\nalphabet a b\ninitial 0\naccepting\n"
    texts = [header, header + "trans 0 b 0\ntrans 1 a 1\ntrans 0 a 0\n", "states 1000000000000\nalphabet\n"]
    script = (
        "import resource, moqfa\n"
        "resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))\n"
        f"for text in {texts!r}:\n"
        "    try:\n"
        "        moqfa.parse_dfa(text)\n"
        "    except moqfa.FormatError as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(moqfa.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert child.stdout.splitlines() == [
        "line 4: missing transition for state 0 on 'a'",
        "line 7: missing transition for state 1 on 'b'",
        "line 2: alphabet needs at least one symbol",
    ], child.stderr


def test_parse_reports_duplicate_transition():
    text = CONTAINS_A_TEXT + "trans 1 b 1\n"
    with pytest.raises(FormatError) as err:
        parse_dfa(text)
    assert "duplicate transition" in str(err.value)
    assert err.value.line == 10


def test_parse_reports_unknown_symbol_with_line():
    text = CONTAINS_A_TEXT.replace("trans 0 b 0", "trans 0 c 0")
    with pytest.raises(FormatError) as err:
        parse_dfa(text)
    assert "unknown symbol" in str(err.value)
    assert err.value.line == 7


def test_parse_reports_out_of_range_state():
    text = CONTAINS_A_TEXT.replace("trans 0 a 1", "trans 0 a 5")
    with pytest.raises(FormatError) as err:
        parse_dfa(text)
    assert "out of range" in str(err.value)


def test_parse_rejects_multicharacter_symbols():
    with pytest.raises(FormatError):
        parse_dfa("states 1\nalphabet ab\ninitial 0\naccepting\ntrans 0 ab 0\n")


def test_parse_requires_header_order():
    with pytest.raises(FormatError):
        parse_dfa("alphabet a\nstates 1\ninitial 0\naccepting\ntrans 0 a 0\n")


# ---------------------------------------------------------------------------
# minimization


def test_minimize_redundant_recognizer():
    # duplicated accepting chain plus an unreachable state
    redundant = Dfa("ab", [(1, 0), (2, 2), (2, 2), (0, 0)], 0, {1, 2})
    minimal = minimize(redundant)
    assert minimal.state_count == 2
    assert equivalent(minimal, contains_a())
    states, classes = oracles.table_filling_classes(
        4, 2, redundant.transitions, 0, redundant.accepting
    )
    assert len(set(classes.values())) == 2


def test_minimize_single_state_is_fixed():
    d = Dfa("ab", [(0, 0)], 0, {0})
    assert minimize(d) == d


def test_minimize_pattern_dfa_is_canonical_already():
    p = SubsequencePattern(("a", "b"), ("a", "b"))
    d = pattern_dfa(p)
    assert d.state_count == 3
    assert minimize(d) == d


def test_minimize_recovers_a_long_shuffled_chain():
    # 20,001 states; refinement peels the chain off one state per split
    d = pattern_dfa(SubsequencePattern("ab" * 10000, "abc"))
    perm = list(range(d.state_count))
    random.Random(1).shuffle(perm)
    assert minimize(support.permute_states(d, perm)) == d


def _bfs_discovery(d: Dfa, start: int = 0) -> list[int]:
    """States in breadth-first discovery order from `start` over the alphabet."""
    order, seen = [start], {start}
    for q in order:  # the list grows while it is read, so it is the queue
        for t in d.transitions[q]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order


def test_minimize_numbers_states_in_bfs_discovery_order():
    chain = pattern_dfa(SubsequencePattern("ab" * 200, "abc"))
    n = chain.state_count
    rng = random.Random(3)
    # five unreachable states that lead into the chain and among themselves
    extra = [tuple(rng.randrange(n + 5) for _ in "abc") for _ in range(5)]
    padded = Dfa("abc", chain.transitions + tuple(extra), 0, {n - 1, n + 1})
    perm = list(range(n + 5))
    rng.shuffle(perm)
    shuffled = support.permute_states(padded, perm)
    assert minimize(shuffled) == chain
    for d in support.random_corpus() + support.two_state_corpus() + (shuffled,):
        minimal = minimize(d)
        assert minimal.initial == 0
        assert _bfs_discovery(minimal) == list(range(minimal.state_count))


def test_minimize_is_canonical_across_isomorphic_copies():
    d = pattern_dfa(SubsequencePattern(("a", "b", "a"), ("a", "b")))
    shuffled = support.permute_states(d, [2, 0, 3, 1])
    assert shuffled != d
    assert minimize(shuffled) == minimize(d)


def test_minimize_is_canonical_across_different_recognizers():
    redundant = Dfa("ab", [(1, 0), (2, 2), (2, 2), (0, 0)], 0, {1, 2})
    assert minimize(redundant) == minimize(contains_a())


@given(d=dfas())
@settings(max_examples=120, deadline=None)
def test_minimize_properties(d):
    minimal = minimize(d)
    assert minimal.state_count <= d.state_count
    assert equivalent(minimal, d)
    assert minimize(minimal) == minimal
    # state count matches the table-filling oracle on the reachable part
    _, classes = oracles.table_filling_classes(
        d.state_count, len(d.alphabet), d.transitions, d.initial, d.accepting
    )
    assert minimal.state_count == len(set(classes.values()))


# minimize runs Moore rounds, then Hopcroft's worklist unless a round split
# nothing; each exit is compared with the table-filling oracle.


def counter(n: int) -> Dfa:
    """Counter mod n over ab: a adds one, b keeps the state; 0 accepts."""
    return Dfa("ab", [((q + 1) % n, q) for q in range(n)], 0, {0})


def doubled(d: Dfa, seed: int) -> Dfa:
    """Two copies of d, each transition into either copy of its target, so
    every state is equivalent to its twin."""
    rng = random.Random(seed)
    n = d.state_count
    rows = [tuple(t + n * rng.randrange(2) for t in row) for row in d.transitions * 2]
    return Dfa(d.alphabet, rows, d.initial + n * rng.randrange(2), d.accepting | {q + n for q in d.accepting})


def refinement(d: Dfa) -> tuple[Dfa, list[int], bool]:
    """minimize(d), the class counts before and after each Moore round, and
    whether Hopcroft's worklist ran."""
    counts, hopcroft = [], []
    first_appearance, finish = automata._first_appearance, automata._hopcroft

    def count(keys):
        numbered = first_appearance(keys)
        counts.append(numbered[1])
        return numbered

    def record(*args):
        hopcroft.append(len(counts))  # its own renumbering is no round
        return finish(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(automata, "_first_appearance", count)
        patch.setattr(automata, "_hopcroft", record)
        minimal = minimize(d)
    return minimal, counts[: hopcroft[0]] if hopcroft else counts, bool(hopcroft)


def assert_table_filling_quotient(d: Dfa, minimal: Dfa) -> None:
    """minimal is d's reachable part with the oracle's classes merged."""
    states, class_of = oracles.table_filling_classes(
        d.state_count, len(d.alphabet), d.transitions, d.initial, d.accepting
    )
    image = {d.initial: minimal.initial}  # each reachable state's state in minimal
    for q in _bfs_discovery(d, d.initial):
        for t, u in zip(d.transitions[q], minimal.transitions[image[q]]):
            assert image.setdefault(t, u) == u
    assert sorted(image) == states
    assert set(image.values()) == set(range(minimal.state_count))
    for p in states:
        assert (p in d.accepting) == (image[p] in minimal.accepting)
        for q in states:
            assert (class_of[p] == class_of[q]) == (image[p] == image[q])


def refinement_inputs():
    for seed in range(10):
        yield "random", random_dfa(seed, 40, "ab")
    for n in (7, 30):
        yield "chain", counter(n)
    for letters in ("abcab", "ab" * 12, "ca" * 9):
        yield "chain", pattern_dfa(SubsequencePattern(letters, "abc"))
    for seed in range(4):
        yield "doubled", doubled(random_dfa(seed, 15, "abc"), seed)
        yield "doubled", doubled(random_partially_ordered_dfa(seed, 15, "abc"), seed)
        yield "doubled", doubled(counter(9 + seed), seed)
    for seed, mode in enumerate(automata.PRODUCT_MODES * 2):
        yield "product", product(random_dfa(seed, 6, "ab"), random_dfa(seed + 50, 7, "ab"), mode)
    # round 2 goes from 6 to 10 of 12 classes: not doubled, but halving the
    # states not alone in a class
    yield "halving", random_dfa(2, 12, "ab")


def test_minimize_is_the_table_filling_quotient_on_every_exit_of_the_refinement():
    exits = set()
    for kind, d in refinement_inputs():
        minimal, rounds, hopcroft = refinement(d)
        assert_table_filling_quotient(d, minimal)
        assert _bfs_discovery(minimal) == list(range(minimal.state_count))
        m = len(_bfs_discovery(d, d.initial))
        assert len(rounds) - 1 <= 2 * math.log2(m) + 2
        if not hopcroft:  # the last round split nothing or left every state alone
            assert rounds[-1] in (rounds[-2], m)
            assert m not in rounds[1:-1]  # and no round follows one that did
            exits.add("alone" if rounds[-1] == m else "stable")
        if kind == "random":
            assert not hopcroft
        elif kind == "chain":
            assert hopcroft and rounds == [2, 3]
        elif kind == "halving":
            # the rounds go on past round 2, which did not double the classes
            old, new = rounds[1:3]
            assert not hopcroft and m - new <= new - old < old
    assert exits == {"alone", "stable"}


@pytest.mark.parametrize(
    "build",
    [lambda: counter(20000), lambda: pattern_dfa(SubsequencePattern("ab" * 10000, "abc"))],
    ids=["counter", "chain"],
)
def test_long_counters_and_chains_take_one_moore_round(build):
    # round 1 splits off one state, which neither doubles the classes nor
    # halves the states not alone in one, so Hopcroft takes over; Moore
    # rounds alone would need 20,000 rounds on the counter
    d = build()
    minimal, rounds, hopcroft = refinement(d)
    assert minimal == d
    assert hopcroft and rounds == [2, 3]


def hopcroft_blocks(d: Dfa, initial_block) -> tuple[list[int], list[int], list[list[int]]]:
    """d's reachable states in BFS order, `_hopcroft` run on them from the
    partition that numbers state q by initial_block(q), and the columns."""
    order = _bfs_discovery(d, d.initial)
    pos = {q: i for i, q in enumerate(order)}
    cols = [[pos[d.transitions[q][c]] for q in order] for c in range(len(d.alphabet))]
    cls, count = automata._first_appearance([initial_block(q) for q in order])
    return order, automata._hopcroft(cols, cls, count), cols


def naive_stable_refinement(cols: list[list[int]], cls: list[int]) -> list[int]:
    """Split the classes by their successors' classes until nothing splits."""
    while True:
        keys = [(cls[p],) + tuple(cls[col[p]] for col in cols) for p in range(len(cls))]
        number = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        if len(number) == len(set(cls)):
            return cls
        cls = [number[key] for key in keys]


def same_partition(a: list[int], b: list[int]) -> bool:
    return len(set(a)) == len(set(b)) == len(set(zip(a, b)))


def test_hopcroft_refines_a_partition_no_moore_round_made():
    # the accepting split goes to Hopcroft's worklist directly, so its
    # seeding cannot rely on a Moore round's stability
    corpus = [d for _, d in refinement_inputs()]
    for seed in range(180):
        n = seed % 20 + 1
        corpus.append(random_dfa(seed, n, "ab" if seed % 3 else "abc"))
        corpus.append(random_partially_ordered_dfa(seed, n, "abc" if seed % 3 else "ab"))
        corpus.append(doubled(random_dfa(seed, n % 8 + 1, "ab"), seed))
    corpus += [pattern_dfa(p) for p in support.patterns_up_to(3, "abc")]
    corpus += [doubled(pattern_dfa(p), k) for k, p in enumerate(support.patterns_up_to(4, "ab"))]
    assert len(corpus) >= 600
    for d in corpus:
        order, blocks, _ = hopcroft_blocks(d, d.accepting.__contains__)
        _, class_of = oracles.table_filling_classes(
            d.state_count, len(d.alphabet), d.transitions, d.initial, d.accepting
        )
        assert same_partition(blocks, [class_of[q] for q in order])


def test_hopcroft_refines_an_arbitrary_partition_to_its_coarsest_stable_one():
    rng = random.Random(22)
    for seed in range(200):
        d = random_dfa(seed, seed % 25 + 1, "ab" if seed % 2 else "abc")
        labels = [rng.randrange(seed % 4 + 1) for _ in range(d.state_count)]
        order, blocks, cols = hopcroft_blocks(d, labels.__getitem__)
        start = automata._first_appearance([labels[q] for q in order])[0]
        assert same_partition(blocks, naive_stable_refinement(cols, start))


# ---------------------------------------------------------------------------
# shuffle-ideal DFAs


def test_pattern_dfa_examples():
    p = SubsequencePattern(("a",), ("a", "b"))
    assert pattern_dfa(p) == contains_a()
    empty = SubsequencePattern((), ("a",))
    d = pattern_dfa(empty)
    assert d.state_count == 1 and d.accepts("")
    two = pattern_dfa(SubsequencePattern(("a", "b"), ("a", "b")))
    assert two.accepts("aab")
    assert not two.accepts("ba")


def test_pattern_dfa_agrees_with_subsequence_scan():
    for p in support.patterns_up_to(4, "ab"):
        for word in support.words_up_to("ab", 8):
            assert p.matches(word) == oracles.is_subsequence(p.letters, word)


def test_matches_builds_the_pattern_dfa_once(monkeypatch):
    p, fresh = SubsequencePattern("ab", "abc"), SubsequencePattern("ab", "abc")
    built = []
    init, of_columns = Dfa.__init__, Dfa._of_columns
    monkeypatch.setattr(Dfa, "__init__", lambda dfa, *fields: built.append(fields) or init(dfa, *fields))
    monkeypatch.setattr(Dfa, "_of_columns", lambda *fields: built.append(fields) or of_columns(*fields))
    assert p.matches("cab") and len(built) == 1
    assert not p.matches("ba") and p.matches("aab") and len(built) == 1
    # the exact verifier steps the same cached DFA
    report = moqfa.verify_construction(p, 3)
    assert not report.misclassified and len(built) == 1
    assert "transitions" not in vars(p._dfa)
    assert "_dfa" in vars(p) and "_dfa" not in vars(fresh)
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    assert repr(p) == "SubsequencePattern(letters=('a', 'b'), alphabet=('a', 'b', 'c'))"


def test_matches_reads_any_iterable_and_checks_every_symbol():
    p = SubsequencePattern("ab", "abc")
    assert p.matches(iter("cacb")) and p.matches(sym for sym in "ab")
    assert not p.matches(sym for sym in "ba")
    # a foreign symbol raises also once the pattern is matched
    with pytest.raises(ValueError, match="symbol 'x' is not in the alphabet"):
        SubsequencePattern("a", "ab").matches("ax")
    empty = SubsequencePattern("", "ab")
    assert empty.matches("") and empty.matches("ba") and empty.matches(iter(()))
    with pytest.raises(ValueError, match="not in the alphabet"):
        empty.matches("c")
    assert SubsequencePattern("", "").matches("")


@pytest.mark.parametrize("symbol", [["a"], {"a": 1}], ids=["list", "dict"])
def test_an_unhashable_symbol_is_not_in_the_alphabet(symbol):
    d = contains_a()
    for read in (
        lambda: d.symbol_index(symbol),
        lambda: d.delta(0, symbol),
        lambda: d.run(["a", symbol]),
        lambda: d.accepts([symbol]),
        lambda: variation(d, ["b", symbol]),
        lambda: SubsequencePattern("a", "ab").matches(["a", symbol]),
    ):
        with pytest.raises(ValueError, match=r"symbol .* is not in the alphabet"):
            read()


# ---------------------------------------------------------------------------
# boolean operations


def test_complement_of_contains_a_is_b_star():
    only_b = complement(contains_a())
    b_star = Dfa("ab", [(1, 0), (1, 1)], 0, {0})
    assert equivalent(only_b, b_star)
    assert only_b.accepts("bbb") and not only_b.accepts("ab")


def test_intersection_requires_both_letters():
    d_a = pattern_dfa(SubsequencePattern(("a",), ("a", "b")))
    d_b = pattern_dfa(SubsequencePattern(("b",), ("a", "b")))
    both = product(d_a, d_b, "intersection")
    assert both.accepts("ab") and both.accepts("ba")
    assert not both.accepts("aa")


def test_difference_and_union():
    d_a = pattern_dfa(SubsequencePattern(("a",), ("a", "b")))
    d_b = pattern_dfa(SubsequencePattern(("b",), ("a", "b")))
    diff = product(d_a, d_b, "difference")
    assert diff.accepts("aa") and not diff.accepts("ab")
    union = product(d_a, d_b, "union")
    assert union.accepts("a") and union.accepts("b") and not union.accepts("")


def test_product_alphabet_mismatch():
    with pytest.raises(ValueError):
        product(contains_a(), even_a_blocks(), "union")
    with pytest.raises(ValueError):
        product(contains_a(), contains_a(), "xor")


def test_equivalent_examples():
    assert equivalent(contains_a(), minimize(contains_a()))
    assert not equivalent(contains_a(), ends_with_a())


def test_is_empty():
    assert is_empty(Dfa("a", [(0,)], 0, set()))
    assert not is_empty(contains_a())


@given(d1=dfas(max_states=4, alphabets=("ab",)), d2=dfas(max_states=4, alphabets=("ab",)))
@settings(max_examples=60, deadline=None)
def test_de_morgan(d1, d2):
    left = complement(product(d1, d2, "union"))
    right = product(complement(d1), complement(d2), "intersection")
    assert equivalent(left, right)


@given(d1=dfas(max_states=4, alphabets=("ab",)), d2=dfas(max_states=4, alphabets=("ab",)))
@settings(max_examples=60, deadline=None)
def test_products_agree_with_wordwise_semantics(d1, d2):
    union = product(d1, d2, "union")
    inter = product(d1, d2, "intersection")
    diff = product(d1, d2, "difference")
    for word in support.words_up_to("ab", 4):
        a, b = d1.accepts(word), d2.accepts(word)
        assert union.accepts(word) == (a or b)
        assert inter.accepts(word) == (a and b)
        assert diff.accepts(word) == (a and not b)


# ---------------------------------------------------------------------------
# literal idempotency


def test_literal_idempotency_examples():
    assert is_literally_idempotent(minimize(contains_a()))
    assert not is_literally_idempotent(minimize(even_a_blocks()))
    assert is_literally_idempotent(Dfa("ab", [(0, 0)], 0, {0}))


@given(d=dfas(max_states=4, alphabets=("ab",)))
@settings(max_examples=60, deadline=None)
def test_literal_idempotency_matches_word_semantics(d):
    minimal = minimize(d)
    flag = is_literally_idempotent(minimal)
    witness_free = True
    for word in support.words_up_to("ab", 4):
        for cut in range(len(word) + 1):
            for sym in "ab":
                doubled = word[:cut] + (sym, sym) + word[cut:]
                single = word[:cut] + (sym,) + word[cut:]
                if minimal.accepts(doubled) != minimal.accepts(single):
                    witness_free = False
    assert flag == witness_free


# ---------------------------------------------------------------------------
# variation


def test_variation_examples():
    assert variation(contains_a(), "") == 0
    assert variation(contains_a(), "bab") == 1
    assert variation(ends_with_a(), "abab") == 4
    with pytest.raises(ValueError):
        variation(contains_a(), "xyz")


def test_partial_order_and_sup_variation_examples():
    d = contains_a()
    assert is_partially_ordered(d)
    assert sup_variation(d) == 1
    assert sup_variation_witness(d) == ("a",)

    e = ends_with_a()
    assert not is_partially_ordered(e)
    assert sup_variation(e) == math.inf
    assert sup_variation_witness(e) is None

    one = Dfa("ab", [(0, 0)], 0, {0})
    assert is_partially_ordered(one)
    assert sup_variation(one) == 0
    assert sup_variation_witness(one) == ()


def test_sup_variation_longest_path():
    chain = pattern_dfa(SubsequencePattern(("a", "b", "a"), ("a", "b")))
    assert sup_variation(chain) == 3
    assert sup_variation_witness(chain) == ("a", "b", "a")


def test_sup_variation_and_its_witness_share_one_traversal(monkeypatch):
    chain = pattern_dfa(SubsequencePattern(("a", "b", "a"), ("a", "b")))
    calls = support.count_reachable_passes(monkeypatch)
    assert sup_variation(chain) == 3
    assert sup_variation_witness(chain) == ("a", "b", "a")
    assert is_partially_ordered(chain)
    assert calls == [chain]


def reference_change_order(d: Dfa) -> tuple[int, ...] | None:
    """The change order as it was computed before the Kahn pass was shared: a
    deque BFS for the reachable states, then Kahn's algorithm with a dict of
    in-degrees over them, a sorted start and a deque."""
    reachable = [d.initial]
    seen = {d.initial}
    queue = deque(reachable)
    while queue:
        q = queue.popleft()
        for t in d.transitions[q]:
            if t not in seen:
                seen.add(t)
                reachable.append(t)
                queue.append(t)
    indegree = dict.fromkeys(reachable, 0)
    for q in reachable:
        for t in d.transitions[q]:
            if t != q:
                indegree[t] += 1
    ready = deque(sorted(q for q, n in indegree.items() if n == 0))
    order = []
    while ready:
        q = ready.popleft()
        order.append(q)
        for t in d.transitions[q]:
            if t != q:
                indegree[t] -= 1
                if indegree[t] == 0:
                    ready.append(t)
    return tuple(order) if len(order) == len(reachable) else None


def test_change_order_is_the_reference_order():
    # states 2 and 3 are unreachable, form a cycle, and lead into 0 and 1:
    # only edges from reachable states may count
    cycle_behind = Dfa("ab", [(1, 0), (1, 1), (3, 1), (2, 0)], 0, {1})
    no_letters = Dfa((), [(), (), ()], 1, {0})
    dfas = [cycle_behind, no_letters, *support.two_state_corpus(), *support.random_corpus()]
    dfas += map(minimize, support.random_corpus())
    dfas += [*census(3, "ab").values(), *census(2, "abc").values()]
    dfas += [random_partially_ordered_dfa(i, 30, "ab" if i % 2 else "abc") for i in range(50)]
    for d in dfas:
        assert d._change_order == reference_change_order(d), d
    assert cycle_behind._change_order == (0, 1)
    assert no_letters._change_order == (1,)
    assert sum(d._change_order is None for d in dfas) not in (0, len(dfas))


def test_cached_facts_stay_out_of_equality_hash_and_repr():
    # a Dfa is stored as its letter columns; transitions, the row view, is
    # cached like the facts derived from it
    read, unread = contains_a(), contains_a()
    assert sup_variation(read) == 1 and read.symbol_index("b") == 1
    assert read.transitions == ((1, 0), (1, 1))
    cached = {"transitions", "_change_order", "_symbol_index"}
    assert cached <= vars(read).keys()
    assert not cached & vars(unread).keys()
    assert read == unread and hash(read) == hash(unread)
    assert not cached & vars(unread).keys()  # == and hash read no row view
    assert repr(read) == repr(unread)
    assert len({read, unread}) == 1
    with pytest.raises(ValueError, match="not in the alphabet"):
        read.symbol_index("c")
    with pytest.raises(ValueError, match="not in the alphabet"):
        unread.symbol_index("c")


@given(d=dfas())
@settings(max_examples=120, deadline=None)
def test_variation_is_bounded_by_sup_and_witness_attains_it(d):
    bound = sup_variation(d)
    if bound == math.inf:
        assert not is_partially_ordered(d)
        return
    assert is_partially_ordered(d)
    witness = sup_variation_witness(d)
    assert variation(d, witness) == bound
    for word in support.words_up_to(d.alphabet, 5):
        assert variation(d, word) <= bound
