"""The class is a literal variety: checked on every member with at most three
states over {a, b}.

The recognized languages are closed under complement, union, intersection,
left and right quotients by a letter and inverse images of letter-to-letter
morphisms, but not under inverse images of arbitrary morphisms.  The DFA
operations that are not part of the library are written here.
"""

from __future__ import annotations

import itertools

import pytest

from moqfa import NOT_LI, Dfa, SubsequencePattern, complement, diagnose, pattern_dfa, product

from test_census import census


@pytest.fixture(scope="module")
def members():
    found = [m for m in census(3, "ab").values() if diagnose(m).verdict]
    assert len(found) == 20
    return found


def left_quotient(dfa: Dfa, sym: str) -> Dfa:
    """{w : sym w in L}: start where `sym` leads."""
    return Dfa(dfa.alphabet, dfa.transitions, dfa.run(sym), dfa.accepting)


def right_quotient(dfa: Dfa, sym: str) -> Dfa:
    """{w : w sym in L}: accept where `sym` leads into an accepting state."""
    column = dfa.alphabet.index(sym)
    accepting = {q for q, row in enumerate(dfa.transitions) if row[column] in dfa.accepting}
    return Dfa(dfa.alphabet, dfa.transitions, dfa.initial, accepting)


def inverse_image(dfa: Dfa, images: dict) -> Dfa:
    """{w : h(w) in L} over the letters of `images`, where h(c) = images[c]."""

    def after(q: int, word: str) -> int:
        for sym in word:
            q = dfa.transitions[q][dfa.alphabet.index(sym)]
        return q

    rows = [tuple(after(q, images[c]) for c in images) for q in range(dfa.state_count)]
    return Dfa(tuple(images), rows, dfa.initial, dfa.accepting)


def morphisms(source: str, words) -> list[dict]:
    """Every map from the letters of `source` into `words`."""
    return [dict(zip(source, chosen)) for chosen in itertools.product(words, repeat=len(source))]


def test_complement_keeps_membership(members):
    assert all(diagnose(complement(m)).verdict for m in members)


@pytest.mark.parametrize("mode", ["union", "intersection"])
def test_union_and_intersection_keep_membership(members, mode):
    failing = [(m, n) for m in members for n in members if not diagnose(product(m, n, mode)).verdict]
    assert failing == []


@pytest.mark.parametrize("quotient", [left_quotient, right_quotient], ids=["left", "right"])
def test_quotients_by_a_letter_keep_membership(members, quotient):
    failing = [(m, sym) for m in members for sym in "ab" if not diagnose(quotient(m, sym)).verdict]
    assert failing == []


@pytest.mark.parametrize("source", ["ab", "abc"])
def test_letter_to_letter_inverse_images_keep_membership(members, source):
    maps = morphisms(source, "ab")
    assert len(maps) == 2 ** len(source)
    failing = [(m, h) for m in members for h in maps if not diagnose(inverse_image(m, h)).verdict]
    assert failing == []


def test_other_inverse_images_break_only_literal_idempotency(members):
    # piecewise testable languages form a full variety, so an inverse image
    # under a morphism that is not letter-to-letter stays PT
    maps = morphisms("ab", ["", "a", "b", "ab", "ba", "aa"])
    reasons = {diagnose(inverse_image(m, h)).failure_reason for m in members for h in maps}
    assert reasons == {None, NOT_LI}
    assert all(diagnose(inverse_image(m, h)).piecewise_testable for m in members for h in maps)


def test_the_inverse_image_of_abab_under_a_to_ab_is_not_literally_idempotent():
    contains_abab = pattern_dfa(SubsequencePattern("abab", "ab"))
    assert diagnose(contains_abab).verdict
    image = inverse_image(contains_abab, {"a": "ab", "b": "b"})
    assert image.accepts("aa") and not image.accepts("a")
    assert diagnose(image).failure_reason == NOT_LI
