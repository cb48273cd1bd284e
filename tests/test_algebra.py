"""Tests for transition monoids and Green's-relation predicates."""

from __future__ import annotations

import math
import re
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moqfa import (
    Dfa,
    ResourceLimitError,
    compose,
    green_report,
    is_block_group,
    is_j_trivial,
    is_l_trivial,
    is_literally_idempotent,
    is_r_trivial,
    letters_idempotent,
    minimize,
    monoid_oracle,
    random_dfa,
    serialize_dfa,
    sup_variation,
    sup_variation_witness,
    transition_monoid,
)
from moqfa import algebra
from moqfa.automata import _first_appearance, _is_idempotent, _kahn_order
from moqfa.cli import main

import oracles
import support
from test_census import census


def contains_a() -> Dfa:
    return Dfa("ab", [(1, 0), (1, 1)], 0, {1})


def ends_with_a() -> Dfa:
    return Dfa("ab", [(1, 0), (1, 0)], 0, {1})


def even_a_blocks() -> Dfa:
    return Dfa("a", [(1,), (0,)], 0, {0})


def test_monoid_of_contains_a():
    m = transition_monoid(contains_a())
    assert len(m) == 2
    assert m.elements[0] == (0, 1)  # identity first
    phi_a = m.generator_map["a"]
    assert phi_a == (1, 1)
    assert compose(phi_a, phi_a) == phi_a
    assert m.shortest_witness[(0, 1)] == ()
    assert m.shortest_witness[(1, 1)] == ("a",)


def test_monoid_of_even_a_blocks_is_the_two_element_group():
    m = transition_monoid(even_a_blocks())
    assert len(m) == 2
    swap = m.generator_map["a"]
    assert compose(swap, swap) == m.elements[0]
    assert not is_j_trivial(m) and not is_r_trivial(m) and not is_l_trivial(m)
    assert is_block_group(m)  # a group has exactly one idempotent
    assert not letters_idempotent(m)


def test_monoid_of_single_state_dfa_is_trivial():
    m = transition_monoid(Dfa("ab", [(0, 0)], 0, {0}))
    assert len(m) == 1
    assert is_j_trivial(m) and is_r_trivial(m) and is_l_trivial(m)
    assert is_block_group(m) and letters_idempotent(m)


def test_monoid_of_ends_with_a_has_equivalent_right_zeros():
    m = transition_monoid(ends_with_a())
    assert len(m) == 3
    assert not is_r_trivial(m)
    assert not is_j_trivial(m)
    assert not is_block_group(m)  # the two constant maps share an R-class
    assert letters_idempotent(m)


def test_monoid_composition_follows_word_concatenation():
    d = minimize(ends_with_a())

    def action(word):
        return tuple(_apply(d, q, word) for q in range(d.state_count))

    for u in ("", "a", "ab", "ba"):
        for v in ("", "b", "ab"):
            assert action(tuple(u) + tuple(v)) == compose(action(u), action(v))


def test_green_report_examples():
    r1 = green_report(minimize(contains_a()))
    assert (r1.monoid_size, r1.r_trivial, r1.l_trivial, r1.j_trivial) == (2, True, True, True)
    assert r1.block_group and r1.letters_idempotent
    assert r1.idempotent_count == 2

    r2 = green_report(minimize(even_a_blocks()))
    assert r2.monoid_size == 2
    assert not (r2.r_trivial or r2.l_trivial or r2.j_trivial)
    assert r2.block_group and not r2.letters_idempotent
    assert r2.idempotent_count == 1

    r3 = green_report(minimize(ends_with_a()))
    assert r3.monoid_size == 3
    assert not r3.r_trivial and not r3.j_trivial and not r3.block_group


def test_starts_with_a_monoid_is_r_trivial_but_not_block_group():
    # the counterexample showing R-triviality does not imply block group
    starts = Dfa("ab", [(1, 2), (1, 1), (2, 2)], 0, {1})
    report = green_report(minimize(starts))
    assert report.r_trivial
    assert not report.l_trivial
    assert not report.block_group
    assert not report.j_trivial


def test_shortest_witnesses_are_length_lex_minimal():
    d = minimize(ends_with_a())
    m = transition_monoid(d)
    first_seen = {}
    n = d.state_count
    for word in support.words_up_to(d.alphabet, 4):
        action = tuple(_apply(d, q, word) for q in range(n))
        first_seen.setdefault(action, tuple(word))
    for element, witness in m.shortest_witness.items():
        assert first_seen[element] == witness
    # on the corpus the referee walks words in length-lex order and extends
    # only the first word of each action: the first word of an element, less
    # its last letter, is the first word of its own action
    for d in support.random_corpus():
        minimal = minimize(d)
        m = transition_monoid(minimal)
        identity = tuple(range(minimal.state_count))
        first_seen = {identity: ()}
        queue = [((), identity)]
        for word, action in queue:
            for c, sym in enumerate(minimal.alphabet):
                successor = tuple(minimal.transitions[q][c] for q in action)
                if successor not in first_seen:
                    first_seen[successor] = word + (sym,)
                    queue.append((word + (sym,), successor))
        assert list(m.shortest_witness.items()) == list(first_seen.items())


def _apply(dfa, state, word):
    for sym in word:
        state = dfa.transitions[state][dfa.symbol_index(sym)]
    return state


def test_element_cap_raises_resource_error():
    d = random_dfa(3, 5, "abc")
    with pytest.raises(ResourceLimitError):
        transition_monoid(d, max_elements=3)


def test_element_cap_counts_the_identity():
    one_state = Dfa("a", [(0,)], 0, {0})
    assert len(transition_monoid(one_state, max_elements=1)) == 1
    with pytest.raises(ResourceLimitError, match="exceeds 0 elements"):
        transition_monoid(one_state, max_elements=0)
    with pytest.raises(ValueError, match="element cap must be nonnegative"):
        transition_monoid(one_state, max_elements=-1)
    with pytest.raises(ResourceLimitError):
        monoid_oracle(one_state, max_elements=0)
    with pytest.raises(ValueError, match="element cap must be nonnegative"):
        monoid_oracle(one_state, max_elements=-1)


@pytest.mark.parametrize("cap", [2.5, True, "3"])
def test_element_cap_must_be_an_int(cap):
    # int() would truncate 2.5 and read True as 1
    one_state = Dfa("a", [(0,)], 0, {0})
    with pytest.raises(ValueError, match=f"element cap must be an int, got {re.escape(repr(cap))}"):
        transition_monoid(one_state, max_elements=cap)
    with pytest.raises(ValueError, match="element cap must be an int"):
        monoid_oracle(one_state, max_elements=cap)


def test_entry_budget_bounds_the_elements_of_many_state_monoids(monkeypatch, tmp_path, capsys):
    # the budget counts states, not bytes: each element holds `degree` states
    # in either encoding, so it caps the element count at budget // degree
    d = minimize(random_dfa(3, 5, "abc"))
    full = transition_monoid(d)
    entries = len(full) * full.degree
    monkeypatch.setattr(algebra, "_ENTRY_BUDGET", entries)
    assert transition_monoid(d).elements == full.elements
    monkeypatch.setattr(algebra, "_ENTRY_BUDGET", entries - 1)
    with pytest.raises(ResourceLimitError, match=f"exceeds {len(full) - 1} elements"):
        transition_monoid(d)
    path = tmp_path / "d.dfa"
    path.write_text(serialize_dfa(d))
    assert main(["monoid", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: transition monoid exceeds {len(full) - 1} elements\n")


@given(seed=st.integers(0, 10**6), n=st.integers(1, 4), alphabet=st.sampled_from(["ab", "abc"]))
@settings(max_examples=80, deadline=None)
def test_green_predicates_agree_with_brute_force_ideals(seed, n, alphabet):
    m = transition_monoid(minimize(random_dfa(seed, n, alphabet)))
    if len(m) > 70:  # keep the cubic brute force cheap
        return
    elements = list(m.elements)
    assert is_j_trivial(m) == oracles.brute_j_trivial(elements)
    assert is_r_trivial(m) == oracles.brute_r_trivial(elements)
    assert is_l_trivial(m) == oracles.brute_l_trivial(elements)
    assert is_block_group(m) == oracles.brute_block_group(elements)


def test_green_report_matches_the_standalone_predicates():
    # green_report runs each acyclicity test once and lists the idempotents
    # once; each predicate below runs its own
    for d in support.random_corpus():
        minimal = minimize(d)
        m = transition_monoid(minimal)
        report = green_report(minimal)
        assert (
            report.monoid_size,
            report.r_trivial,
            report.l_trivial,
            report.j_trivial,
            report.block_group,
            report.letters_idempotent,
            report.idempotent_count,
        ) == (
            len(m),
            is_r_trivial(m),
            is_l_trivial(m),
            is_j_trivial(m),
            is_block_group(m),
            letters_idempotent(m),
            len(m.idempotents()),
        )


@given(seed=st.integers(0, 10**6), n=st.integers(1, 5), alphabet=st.sampled_from(["ab", "abc"]))
@settings(max_examples=80, deadline=None)
def test_j_trivial_implies_r_l_trivial_and_block_group(seed, n, alphabet):
    m = transition_monoid(minimize(random_dfa(seed, n, alphabet)))
    if is_j_trivial(m):
        assert is_r_trivial(m) and is_l_trivial(m) and is_block_group(m)


def test_monoid_size_is_bounded_by_n_to_the_n():
    for seed in range(20):
        d = minimize(random_dfa(seed, 4, "ab"))
        m = transition_monoid(d)
        n = d.state_count
        assert len(m) <= n**n


def test_right_cayley_table_is_the_composition_with_each_generator():
    for d in support.random_corpus():
        m = transition_monoid(minimize(d))
        gens = list(m.generator_map.values())
        k = len(gens)
        assert len(m.right) == len(m) * k
        for i, x in enumerate(m.elements):
            for c, g in enumerate(gens):
                assert m.right[i * k + c] == m.index[tuple(g[q] for q in x)]


def test_prefix_links_spell_each_element_and_give_the_left_table():
    dfas = [minimize(d) for d in support.random_corpus()]
    for d in dfas + [_group_dfa(4, False), _group_dfa(3, True)]:
        m = transition_monoid(d)
        gens = list(m.generator_map.values())
        assert len(m.prefix) == len(m.final) == len(m)
        for i in range(1, len(m)):
            assert m.prefix[i] < i
            assert m.elements[i] == compose(m.elements[m.prefix[i]], gens[m.final[i]])
        # the left columns stop and resume: grown to 1, 2, 4, ... entries, then all
        left = [[g] for g in m.right[: len(gens)]]
        stop = 1
        while stop < len(m):
            stop = min(2 * stop, len(m))
            algebra._extend_left(m, left, stop)
            assert left == [[m.index[compose(g, x)] for x in m.elements[:stop]] for g in gens]


def test_words_are_spelled_only_when_read(monkeypatch):
    built = []
    close = algebra.transition_monoid

    def recording(min_dfa):
        built.append(close(min_dfa))
        return built[-1]

    monkeypatch.setattr(algebra, "transition_monoid", recording)
    dfas = [minimize(d) for d in support.random_corpus(60)]
    for d in dfas + [_group_dfa(4, False), _group_dfa(3, True)]:
        green_report(d)
        m = built[-1]
        is_r_trivial(m), is_l_trivial(m), is_j_trivial(m), is_block_group(m)
        # the tests read the closure's own encoding: no tuple view is built
        assert {"elements", "index", "shortest_witness"}.isdisjoint(vars(m))
        assert m.shortest_witness is m.shortest_witness
        assert len(m.shortest_witness) == len(m)
        assert type(m.elements) is tuple and m.elements is m.elements
        assert all(type(x) is tuple for x in m.elements)
        assert m.index is m.index and list(m.index) == list(m.elements)
        assert list(m.index.values()) == list(range(len(m)))


def reference_closure(min_dfa: Dfa):
    """The closure on state tuples, one itemgetter per element: elements,
    index, prefix, final and right, as transition_monoid gave them before it
    stored a transformation of at most 256 states as bytes."""
    n = min_dfa.state_count
    identity = tuple(range(n))
    generators = list(zip(*min_dfa.transitions))
    elements, index = [identity], {identity: 0}
    prefix, final, right = [0], [0], []
    for i, current in enumerate(elements):
        after = itemgetter(*current) if n > 1 else lambda then: tuple(then[q] for q in current)
        for c, generator in enumerate(generators):
            successor = after(generator)
            j = index.get(successor)
            if j is None:
                j = index[successor] = len(elements)
                elements.append(successor)
                prefix.append(i)
                final.append(c)
            right.append(j)
    return tuple(elements), index, prefix, final, right


def one_letter_cycle(n: int) -> Dfa:
    return Dfa("a", [((q + 1) % n,) for q in range(n)], 0, {0})


def test_closure_matches_the_tuple_reference():
    dfas = [minimize(d) for d in support.random_corpus()]
    dfas += [*census(3, "ab").values(), *census(2, "abc").values()]
    dfas += [_group_dfa(4, False), _group_dfa(3, True)]
    dfas += [one_letter_cycle(n) for n in (255, 256, 257)]
    for d in dfas:
        m = transition_monoid(d)
        elements, index, prefix, final, right = reference_closure(d)
        assert m.elements == elements
        assert list(m.index.items()) == list(index.items())
        assert (m.prefix, m.final, m.right) == (prefix, final, right)
        idempotents = [e for e in elements if tuple(e[q] for q in e) == e]
        assert m.idempotents() == idempotents
        gens = list(zip(*d.transitions))
        left = [[index[tuple(x[q] for q in g)] for x in elements] for g in gens]
        size = len(elements)
        right_columns = [right[c :: len(gens)] for c in range(len(gens))]
        r_trivial = _kahn_order(range(size), right_columns, size) is not None
        l_trivial = _kahn_order(range(size), left, size) is not None
        assert green_report(d) == algebra.GreenReport(
            monoid_size=size,
            r_trivial=r_trivial,
            l_trivial=l_trivial,
            j_trivial=r_trivial and l_trivial,
            block_group=algebra._distinct_kernels_and_images(idempotents),
            letters_idempotent=all(tuple(g[q] for q in g) == g for g in gens),
            idempotent_count=len(idempotents),
        )
        assert {type(x) for x in m._raw} == {bytes if d.state_count <= 256 else tuple}
    cycles = [green_report(d) for d in dfas[-3:]]
    assert cycles == [(n, False, False, False, True, False, 1) for n in (255, 256, 257)]


def test_cycle_search_agrees_with_kahns_pass_and_the_brute_ideals():
    dfas = [*census(3, "ab").values(), *census(2, "abc").values()]
    dfas += [minimize(d) for d in support.random_corpus()]
    dfas += [_group_dfa(n, False) for n in range(2, 7)] + [_group_dfa(n, True) for n in range(2, 6)]
    dfas += [one_letter_cycle(n) for n in (255, 256, 257)] + [Dfa("", [()], 0, {0})]
    for d in dfas:
        m = transition_monoid(d)
        gens, size = list(m.generator_map.values()), len(m)
        right = [[m.index[compose(x, g)] for x in m.elements] for g in gens]
        left = [[m.index[compose(g, x)] for x in m.elements] for g in gens]
        r_trivial = _kahn_order(range(size), right, size) is not None
        l_trivial = _kahn_order(range(size), left, size) is not None
        assert (is_r_trivial(m), is_l_trivial(m)) == (r_trivial, l_trivial)
        # the search on the whole left columns, with nothing left to grow
        assert algebra._acyclic(left, size) == l_trivial
        # the quadratic brute force stops at its first repeated ideal, which
        # comes early on a non-trivial side; a trivial side builds them all
        if size <= 800 or not r_trivial:
            assert oracles.brute_r_trivial(m.elements) == r_trivial
        if size <= 800 or not l_trivial:
            assert oracles.brute_l_trivial(m.elements) == l_trivial


def test_the_cycle_search_reads_the_left_columns_only_as_far_as_it_goes(monkeypatch):
    reached = []
    search = algebra._acyclic

    def recording(cols, size, grow=None):
        result = search(cols, size, grow)
        reached.append(len(cols[0]))
        return result

    monkeypatch.setattr(algebra, "_acyclic", recording)
    m = transition_monoid(_group_dfa(6, False))
    assert len(m) == 720
    assert not is_l_trivial(m)
    # the first cycle closes near the identity: a tenth of the columns at most
    assert len(reached) == 1 and reached[0] < 72


def reference_literally_idempotent(d: Dfa) -> bool:
    """The literal-idempotency test row by row, before it read the columns."""
    for row in d.transitions:
        for c, t in enumerate(row):
            if d.transitions[t][c] != t:
                return False
    return True


def reference_kernel(e) -> tuple[int, ...]:
    first: dict[int, int] = {}
    return tuple(first.setdefault(q, len(first)) for q in e)


def reference_compose(first, then) -> tuple[int, ...]:
    return itemgetter(*first)(then) if len(first) > 1 else tuple(then[q] for q in first)


def reference_longest_change_path(d: Dfa):
    """sup_variation and its witness from one pass, as they were computed
    before the bound was read off the witness."""
    order = d._change_order
    if order is None:
        return math.inf, None
    dist, back = {d.initial: 0}, {}
    for q in order:
        for sym, t in zip(d.alphabet, d.transitions[q]):
            if t != q and dist[q] + 1 > dist.get(t, -1):
                dist[t] = dist[q] + 1
                back[t] = (q, sym)
    best = max(order, key=dist.__getitem__)
    word, q = [], best
    while q in back:
        q, sym = back[q]
        word.append(sym)
    return dist[best], tuple(reversed(word))


def test_letter_columns_and_their_readers_match_the_row_forms():
    dfas = [*census(3, "ab").values(), *census(2, "abc").values()]
    dfas += [*support.random_corpus(), *map(minimize, support.random_corpus())]
    dfas += [Dfa("ab", [(0, 0)], 0, {0}), Dfa((), [()], 0, ())]
    for d in dfas:
        assert d._columns == tuple(zip(*d.transitions))
        assert is_literally_idempotent(d) == reference_literally_idempotent(d)
        assert (sup_variation(d), sup_variation_witness(d)) == reference_longest_change_path(d)
        minimal = minimize(d)
        m = transition_monoid(minimal)
        gens = list(m.generator_map.values())
        assert gens == list(zip(*minimal.transitions))
        assert letters_idempotent(m) == all(reference_compose(g, g) == g for g in gens)
        for x in m.elements[:50]:
            assert _is_idempotent(x) == (reference_compose(x, x) == x)
            assert tuple(_first_appearance(x)[0]) == reference_kernel(x)
            for g in gens:
                assert compose(x, g) == reference_compose(x, g)
                assert compose(g, x) == reference_compose(g, x)
        idempotents = m.idempotents()
        assert algebra._distinct_kernels_and_images(m._idempotents()) == (
            len(set(map(reference_kernel, idempotents)))
            == len(set(map(frozenset, idempotents)))
            == len(idempotents)
        )


@given(data=st.data(), n=st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_compose_agrees_with_the_genexpr_definition(data, n):
    states = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    first, then = data.draw(states), data.draw(states)
    assert compose(first, then) == tuple(then[q] for q in first)


def _group_dfa(n: int, full: bool) -> Dfa:
    # an n-cycle and a transposition generate S_n; a collapse of one state
    # onto another added to them generates T_n
    gens = [[(q + 1) % n for q in range(n)], [1, 0] + list(range(2, n))]
    if full:
        gens.append([1] + list(range(1, n)))
    return Dfa("abc"[: len(gens)], [tuple(g[q] for g in gens) for q in range(n)], 0, {0})


@pytest.mark.parametrize(
    "n, full, size, block_group", [(4, False, 24, True), (3, True, 27, False)]
)
def test_green_predicates_of_s4_and_t3_match_brute_force_ideals(n, full, size, block_group):
    m = transition_monoid(_group_dfa(n, full))
    assert len(m) == size
    elements = list(m.elements)
    right, left, two_sided = oracles.brute_green_classes(elements)

    def trivial(ideals):
        return len(set(ideals.values())) == len(elements)

    expected = (trivial(right), trivial(left), trivial(two_sided))
    assert expected + (oracles.brute_block_group(elements),) == (False, False, False, block_group)
    assert (is_r_trivial(m), is_l_trivial(m), is_j_trivial(m), is_block_group(m)) == (
        expected + (block_group,)
    )


def _monoids_for_the_idempotent_lemma():
    yield transition_monoid(_group_dfa(4, False))
    yield transition_monoid(_group_dfa(3, True))
    for d in support.random_corpus():
        m = transition_monoid(minimize(d))
        if len(m) <= 70:  # keep the quadratic ideals cheap
            yield m


def test_idempotents_share_a_right_ideal_iff_a_kernel_and_a_left_ideal_iff_an_image():
    # e R f iff ef = f and fe = e, e L f iff ef = e and fe = f (Pin, ch. V):
    # composed left to right, the same kernel and the same image
    seen = Counter()
    for m in _monoids_for_the_idempotent_lemma():
        elements = list(m.elements)
        idempotents = [e for e in elements if tuple(e[q] for q in e) == e]
        right = [{tuple(x[q] for q in e) for x in elements} for e in idempotents]
        left = [{tuple(e[q] for q in x) for x in elements} for e in idempotents]
        states = range(m.degree)
        for i, e in enumerate(idempotents):
            for j in range(i + 1, len(idempotents)):
                f = idempotents[j]
                kernel = all((e[p] == e[q]) == (f[p] == f[q]) for p in states for q in states)
                image = set(e) == set(f)
                assert (right[i] == right[j], left[i] == left[j]) == (kernel, image)
                seen[kernel, image] += 1
    # both relations hold on some pairs, never both at once on distinct idempotents
    assert seen[True, False] > 100 and seen[False, True] > 100 and seen[True, True] == 0
