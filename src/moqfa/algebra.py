"""Transition monoids and Green's-relation diagnostics.

The transition monoid of a minimal DFA is the syntactic monoid of its
language; elements are represented as canonical state-transformation tuples
and discovered by breadth-first closure over words in length-lexicographic
order, so element order and shortest witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .automata import Dfa
from .errors import ResourceLimitError

Transformation = tuple[int, ...]

DEFAULT_ELEMENT_CAP = 1_000_000
_ENTRY_BUDGET = 2**26  # states in all elements together: about 512 MB of tuple slots


def compose(first: Transformation, then: Transformation) -> Transformation:
    """Transformation of the word uv from those of u and v (left-to-right)."""
    return tuple(then[q] for q in first)


class FiniteMonoid:
    """Transition monoid of a DFA.

    elements[0] is the identity; index is the position of each element;
    generator_map sends each alphabet symbol to its transformation;
    shortest_witness records the length-lex-first word reaching each element.
    """

    def __init__(
        self,
        degree: int,
        elements: tuple[Transformation, ...],
        generator_map: dict[str, Transformation],
        shortest_witness: dict[Transformation, tuple[str, ...]],
        index: dict[Transformation, int],
    ):
        self.degree = degree
        self.elements = elements
        self.generator_map = generator_map
        self.shortest_witness = shortest_witness
        self.index = index

    def __len__(self) -> int:
        return len(self.elements)

    def idempotents(self) -> list[Transformation]:
        return [t for t in self.elements if compose(t, t) == t]


def transition_monoid(min_dfa: Dfa, max_elements: int = DEFAULT_ELEMENT_CAP) -> FiniteMonoid:
    """Close the letter transformations under composition.

    For a minimal DFA this is the syntactic monoid of the language.  Raises
    ResourceLimitError when more than `max_elements` elements appear, or more
    than _ENTRY_BUDGET // state_count, whichever is fewer.
    """
    n = min_dfa.state_count
    limit = min(max_elements, _ENTRY_BUDGET // n)
    identity = tuple(range(n))
    generators = {
        sym: tuple(min_dfa.transitions[q][c] for q in range(n))
        for c, sym in enumerate(min_dfa.alphabet)
    }
    elements = [identity]
    index = {identity: 0}
    witness = {identity: ()}
    # elements grows while it is read, in BFS order: it is its own queue
    for current in elements:
        for sym, generator in generators.items():
            successor = compose(current, generator)
            if successor not in index:
                if len(elements) >= limit:
                    raise ResourceLimitError(f"transition monoid exceeds {limit} elements")
                index[successor] = len(elements)
                elements.append(successor)
                witness[successor] = witness[current] + (sym,)
    return FiniteMonoid(n, tuple(elements), generators, witness, index)


# ---------------------------------------------------------------------------
# Green's relations via Cayley-graph strongly connected components


def _strongly_connected_components(
    count: int, successors: Callable[[int], Iterable[int]]
) -> list[list[int]]:
    """Iterative Tarjan over an implicitly given graph."""
    order = [-1] * count
    low = [0] * count
    on_stack = [False] * count
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(count):
        if order[root] != -1:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(successors(root)))]
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if order[nxt] == -1:
                    order[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(successors(nxt))))
                    advanced = True
                    break
                if on_stack[nxt] and order[nxt] < low[node]:
                    low[node] = order[nxt]
            if advanced:
                continue
            work.pop()
            if work and low[node] < low[work[-1][0]]:
                low[work[-1][0]] = low[node]
            if low[node] == order[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def _green_classes(monoid: FiniteMonoid, side: str) -> list[list[int]]:
    """R-classes (side "R": x ~ xg) or L-classes (side "L": x ~ gx), as lists
    of element indices: the strong components of the right or left Cayley
    graph over the generators."""
    gens = [monoid.generator_map[s] for s in sorted(monoid.generator_map)]
    index = monoid.index
    elements = monoid.elements

    def right(i: int) -> list[int]:
        return [index[compose(elements[i], g)] for g in gens]

    def left(i: int) -> list[int]:
        return [index[compose(g, elements[i])] for g in gens]

    return _strongly_connected_components(len(elements), right if side == "R" else left)


def _trivial(classes: list[list[int]]) -> bool:
    return all(len(c) == 1 for c in classes)


def _one_idempotent_each(classes: list[list[int]], idempotent: list[bool]) -> bool:
    return all(sum(idempotent[i] for i in c) <= 1 for c in classes)


def is_r_trivial(monoid: FiniteMonoid) -> bool:
    """True iff distinct elements generate distinct right ideals (xM)."""
    return _trivial(_green_classes(monoid, "R"))


def is_l_trivial(monoid: FiniteMonoid) -> bool:
    """True iff distinct elements generate distinct left ideals (Mx)."""
    return _trivial(_green_classes(monoid, "L"))


def is_j_trivial(monoid: FiniteMonoid) -> bool:
    """True iff distinct elements generate distinct two-sided ideals (MxM).

    In a finite monoid J = D = R.L (Pin, Mathematical Foundations of
    Automata Theory, ch. V), so J-triviality is R- and L-triviality.
    """
    return is_r_trivial(monoid) and is_l_trivial(monoid)


def is_block_group(monoid: FiniteMonoid) -> bool:
    """True iff every R-class and every L-class holds at most one idempotent."""
    idempotent = [compose(t, t) == t for t in monoid.elements]
    classes = _green_classes(monoid, "R") + _green_classes(monoid, "L")
    return _one_idempotent_each(classes, idempotent)


def letters_idempotent(monoid: FiniteMonoid) -> bool:
    """True iff every letter's transformation squares to itself."""
    return all(compose(t, t) == t for t in monoid.generator_map.values())


@dataclass(frozen=True)
class GreenReport:
    """Summary of the pseudovariety membership tests for one monoid.

    J-triviality implies R- and L-triviality and the block-group property;
    nothing stronger holds in general (an R-trivial monoid may fail the
    block-group test on an L-class).
    """

    monoid_size: int
    r_trivial: bool
    l_trivial: bool
    j_trivial: bool
    block_group: bool
    letters_idempotent: bool
    idempotent_count: int


def green_report(min_dfa: Dfa) -> GreenReport:
    """All the tests from one R-class and one L-class computation."""
    monoid = transition_monoid(min_dfa)
    right, left = _green_classes(monoid, "R"), _green_classes(monoid, "L")
    idempotent = [compose(t, t) == t for t in monoid.elements]
    r_trivial, l_trivial = _trivial(right), _trivial(left)
    return GreenReport(
        monoid_size=len(monoid),
        r_trivial=r_trivial,
        l_trivial=l_trivial,
        j_trivial=r_trivial and l_trivial,
        block_group=_one_idempotent_each(right + left, idempotent),
        letters_idempotent=letters_idempotent(monoid),
        idempotent_count=sum(idempotent),
    )
