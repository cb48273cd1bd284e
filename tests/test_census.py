"""An exhaustive census of small regular languages.

Every complete DFA with initial state 0 up to a size is minimized, and each
language is keyed by the text of its minimal DFA.  The number of distinct
languages whose minimal DFA has exactly n states is published for {a, b}
(Domaratzki, Kisman & Shallit, "On the number of distinct languages accepted
by finite automata with n states", J. Autom. Lang. Comb. 7(4), 2002), so the
census checks `minimize` against it: a minimizer that merges too much or too
little changes a count.  On every language the pipeline is checked against
the monoid oracle, and the members are counted by minimal size.  The
R-, L- and block-group fields of `green_report` are checked on every language
against one-sided principal ideals computed here.
"""

from __future__ import annotations

from collections import Counter

import pytest

from moqfa import diagnose, green_report, minimize, monoid_oracle, serialize_dfa, transition_monoid

import support


def census(max_states: int, alphabet: str) -> dict:
    """The minimal DFA of every language some complete DFA with at most
    `max_states` states and initial state 0 accepts, keyed by its text."""
    languages = {}
    for n in range(1, max_states + 1):
        for d in support.exhaustive_dfas(n, alphabet):
            m = minimize(d)
            languages.setdefault(serialize_dfa(m), m)
    return languages


@pytest.mark.parametrize(
    "alphabet, max_states, languages, members",
    [
        ("ab", 3, {1: 2, 2: 24, 3: 1028}, {1: 2, 2: 6, 3: 12}),
        ("abc", 2, {1: 2, 2: 112}, {1: 2, 2: 14}),
    ],
    ids=["ab-3", "abc-2"],
)
def test_census_of_small_languages(alphabet, max_states, languages, members):
    minimal = list(census(max_states, alphabet).values())
    assert Counter(m.state_count for m in minimal) == languages
    assert all(minimize(m) == m for m in minimal)
    verdicts = [diagnose(m).verdict for m in minimal]
    assert [m for m, verdict in zip(minimal, verdicts) if verdict != monoid_oracle(m)] == []
    assert Counter(m.state_count for m, verdict in zip(minimal, verdicts) if verdict) == members


@pytest.mark.parametrize("alphabet, max_states", [("ab", 3), ("abc", 2)], ids=["ab-3", "abc-2"])
def test_green_report_matches_one_sided_ideals_on_every_small_language(alphabet, max_states):
    seen = set()
    for m in census(max_states, alphabet).values():
        elements = transition_monoid(m).elements
        # principal right ideals xM and left ideals Mx, composed left to right
        right = [frozenset(tuple(y[q] for q in x) for y in elements) for x in elements]
        left = [frozenset(tuple(x[q] for q in y) for y in elements) for x in elements]
        idempotents = [i for i, x in enumerate(elements) if tuple(x[q] for q in x) == x]
        count = len(idempotents)
        expected = (
            len(set(right)) == len(elements),
            len(set(left)) == len(elements),
            len({right[i] for i in idempotents}) == len({left[i] for i in idempotents}) == count,
        )
        report = green_report(m)
        assert (report.r_trivial, report.l_trivial, report.block_group) == expected
        seen.add(expected)
    # each test holds on some languages and fails on others
    assert all({key[i] for key in seen} == {False, True} for i in range(3))
