"""Transition monoids and Green's-relation diagnostics.

The transition monoid of a minimal DFA is the syntactic monoid of its
language; its elements are discovered by breadth-first closure over words in
length-lexicographic order, so element order and shortest witnesses are
deterministic.  While a state fits in a byte (at most 256 states) the closure
stores each element as bytes and a product is one `bytes.translate`; beyond,
it stores tuples and a product is one `operator.itemgetter` call.  The public
views (elements, index, idempotents(), shortest_witness) are state tuples,
built when first read.
Green's relations are tested without building their classes: the monoid is
R-trivial (L-trivial) iff its right (left) Cayley graph has no cycle but
self-loops (Brzozowski and Fich, "Languages of R-trivial monoids", 1980), and
a block group iff its idempotents have pairwise distinct kernels and images.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .automata import Dfa, _first_appearance, _is_idempotent, _kahn_order
from .errors import DEFAULT_ELEMENT_CAP, ResourceLimitError

Transformation = tuple[int, ...]

_ENTRY_BUDGET = 2**26  # states in all elements together: 64 MB as bytes, 512 MB as tuples


def compose(first: Transformation, then: Transformation) -> Transformation:
    """Transformation of the word uv from those of u and v (left-to-right)."""
    return tuple(map(then.__getitem__, first))


class FiniteMonoid:
    """Transition monoid of a DFA.

    elements[0] is the identity; index is the position of each element;
    both are tuple views of the closure's own elements, built on first read.
    generator_map sends each alphabet symbol to its transformation;
    right, the right Cayley graph, is flat: right[i*k + c] is the index of
    elements[i] times the c-th of the k generators, in generator_map order.
    prefix and final are the closure's prefix links (Froidure and Pin): for
    i > 0, elements[i] was first reached as elements[prefix[i]] times the
    final[i]-th generator, and prefix[i] < i.  Following the links from i
    down to 0 spells the length-lex-first word reaching elements[i], so
    shortest_witness is built from them on first access, and a product gx
    is reached from g times elements[prefix[x]] without composing.
    """

    def __init__(
        self,
        degree: int,
        raw: list[bytes] | list[Transformation],
        generator_map: dict[str, Transformation],
        prefix: list[int],
        final: list[int],
        right: list[int],
    ):
        self.degree = degree
        self._raw = raw  # the closure's own encoding: bytes up to 256 states, tuples beyond
        self.generator_map = generator_map
        self.prefix = prefix
        self.final = final
        self.right = right

    @cached_property
    def elements(self) -> tuple[Transformation, ...]:
        return tuple(map(tuple, self._raw))

    @cached_property
    def index(self) -> dict[Transformation, int]:
        return dict(zip(self.elements, range(len(self._raw))))

    @cached_property
    def shortest_witness(self) -> dict[Transformation, tuple[str, ...]]:
        """The length-lex-first word reaching each element, in element order."""
        symbols = tuple(self.generator_map)
        words: list[tuple[str, ...]] = [()]
        for p, f in zip(islice(self.prefix, 1, None), islice(self.final, 1, None)):
            words.append(words[p] + (symbols[f],))
        return dict(zip(self.elements, words))

    def __len__(self) -> int:
        return len(self._raw)

    def idempotents(self) -> list[Transformation]:
        return list(map(tuple, self._idempotents()))

    def _idempotents(self) -> list[bytes] | list[Transformation]:
        """The elements e with ee = e, in the closure's encoding."""
        if self.degree > 256:
            return list(filter(_is_idempotent, self._raw))
        pad = bytes(256 - self.degree)
        return [e for e in self._raw if e.translate(e + pad) == e]


def transition_monoid(min_dfa: Dfa, max_elements: int = DEFAULT_ELEMENT_CAP) -> FiniteMonoid:
    """Close the letter transformations under composition.

    For a minimal DFA this is the syntactic monoid of the language.  Raises
    ResourceLimitError when more than `max_elements` elements appear, or more
    than _ENTRY_BUDGET // state_count, whichever is fewer.
    """
    n = min_dfa.state_count
    limit = min(max_elements, _ENTRY_BUDGET // n)
    generators = dict(zip(min_dfa.alphabet, min_dfa._columns))
    if n <= 256:  # a state fits in a byte: x times g is x.translate(g padded to 256 bytes)
        pad = bytes(256 - n)
        identity, after_of = bytes(range(n)), attrgetter("translate")
        tables = [bytes(g) + pad for g in generators.values()]
    else:
        # x times g is itemgetter(*x)(g), a tuple since n > 256 states
        identity, tables = tuple(range(n)), list(generators.values())
        after_of = lambda x: itemgetter(*x)
    elements = [identity]
    index = {identity: 0}
    prefix, final = [0], [0]  # the identity's entries are never read
    right: list[int] = []
    letters = list(enumerate(tables))
    # elements grows while it is read, in BFS order: it is its own queue
    for i, current in enumerate(elements):
        after = after_of(current)
        for c, table in letters:
            successor = after(table)
            j = index.get(successor)
            if j is None:
                j = len(elements)
                if j >= limit:
                    raise ResourceLimitError(f"transition monoid exceeds {limit} elements")
                index[successor] = j
                elements.append(successor)
                prefix.append(i)
                final.append(c)
            right.append(j)
    return FiniteMonoid(n, elements, generators, prefix, final, right)


# ---------------------------------------------------------------------------
# Green's relations, tested without building their classes


def _distinct_kernels_and_images(idempotents: list[bytes] | list[Transformation]) -> bool:
    """True iff no two idempotents share a kernel or an image.  For
    idempotents e R f iff ef = f and fe = e, and e L f iff ef = e and fe = f
    (Pin, Mathematical Foundations of Automata Theory, ch. V); composed left
    to right, that is the same kernel and the same image."""
    kernels, images = set(), set()
    for e in idempotents:
        # each kernel class numbered by first appearance
        kernels.add(tuple(_first_appearance(e)[0]))
        images.add(frozenset(e))
    return len(kernels) == len(images) == len(idempotents)


def is_r_trivial(monoid: FiniteMonoid) -> bool:
    """True iff distinct elements generate distinct right ideals (xM): R-classes
    are the strong components of the right Cayley graph the closure recorded,
    so all are singletons iff it has no cycle but self-loops."""
    k, right, n = len(monoid.generator_map), monoid.right, len(monoid)
    return _kahn_order(range(n), [right[c::k] for c in range(k)], n) is not None


def is_l_trivial(monoid: FiniteMonoid) -> bool:
    """True iff distinct elements generate distinct left ideals (Mx): the left
    Cayley graph has no cycle but self-loops.  It is read from the right one
    through the prefix links: g times elements[x] is g times
    elements[prefix[x]], times the final[x]-th generator (Froidure and Pin)."""
    k, right = len(monoid.generator_map), monoid.right
    left = []  # one column per generator g: g times each element
    for c in range(k):
        left_c = [right[c]]  # g times the identity is g
        for p, f in zip(islice(monoid.prefix, 1, None), islice(monoid.final, 1, None)):
            left_c.append(right[left_c[p] * k + f])
        left.append(left_c)
    return _kahn_order(range(len(monoid)), left, len(monoid)) is not None


def is_j_trivial(monoid: FiniteMonoid) -> bool:
    """True iff distinct elements generate distinct two-sided ideals (MxM).

    In a finite monoid J = D = R.L (Pin, Mathematical Foundations of
    Automata Theory, ch. V), so J-triviality is R- and L-triviality.
    """
    return is_r_trivial(monoid) and is_l_trivial(monoid)


def is_block_group(monoid: FiniteMonoid) -> bool:
    """True iff every R-class and every L-class holds at most one idempotent."""
    return _distinct_kernels_and_images(monoid._idempotents())


def letters_idempotent(monoid: FiniteMonoid) -> bool:
    """True iff every letter's transformation squares to itself."""
    return all(map(_is_idempotent, monoid.generator_map.values()))


class GreenReport(NamedTuple):
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
    """All the tests on one closure, with the idempotents listed once."""
    monoid = transition_monoid(min_dfa)
    r_trivial, l_trivial = is_r_trivial(monoid), is_l_trivial(monoid)
    idempotents = monoid._idempotents()
    return GreenReport(
        monoid_size=len(monoid),
        r_trivial=r_trivial,
        l_trivial=l_trivial,
        j_trivial=r_trivial and l_trivial,
        block_group=_distinct_kernels_and_images(idempotents),
        letters_idempotent=letters_idempotent(monoid),
        idempotent_count=len(idempotents),
    )
