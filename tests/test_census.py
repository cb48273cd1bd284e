"""An exhaustive census of small regular languages.

Every complete DFA with initial state 0 up to a size is minimized, and each
language is keyed by the text of its minimal DFA.  The number of distinct
languages whose minimal DFA has exactly n states is published for {a, b}
(Domaratzki, Kisman & Shallit, "On the number of distinct languages accepted
by finite automata with n states", J. Autom. Lang. Comb. 7(4), 2002), so the
census checks `minimize` against it: a minimizer that merges too much or too
little changes a count.  On every language the pipeline is checked against
the monoid oracle, and the members are counted by minimal size.
"""

from __future__ import annotations

from collections import Counter

import pytest

from moqfa import diagnose, minimize, monoid_oracle, serialize_dfa

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
