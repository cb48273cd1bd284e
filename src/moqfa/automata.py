"""Total deterministic finite automata: parsing, minimization, boolean algebra,
literal idempotency, and variation analysis."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import FormatError, _TokenLines
from .patterns import SubsequencePattern

Word = Sequence[str]


@dataclass(frozen=True)
class Dfa:
    """Complete DFA over an ordered alphabet; states are 0..n-1.

    transitions[state][symbol_index] gives the successor state; the map must
    be total.  Instances are immutable, so structural equality of two
    canonically minimized automata coincides with language equality.
    """

    alphabet: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]
    initial: int
    accepting: frozenset[int]
    _symbol_index: dict = field(init=False, repr=False, compare=False)

    def __init__(self, alphabet, transitions, initial, accepting):
        alphabet = tuple(alphabet)
        transitions = tuple(tuple(row) for row in transitions)
        accepting = frozenset(accepting)
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet contains repeated symbols")
        n = len(transitions)
        if n < 1:
            raise ValueError("a DFA needs at least one state")
        for q, row in enumerate(transitions):
            if len(row) != len(alphabet):
                raise ValueError(f"state {q} has {len(row)} transitions, expected {len(alphabet)}")
            for t in row:
                if not isinstance(t, int) or not 0 <= t < n:
                    raise ValueError(f"state {q} has an out-of-range successor {t!r}")
        if not 0 <= initial < n:
            raise ValueError(f"initial state {initial} out of range")
        if not accepting <= set(range(n)):
            raise ValueError("accepting set contains out-of-range states")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "initial", int(initial))
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "_symbol_index", {s: i for i, s in enumerate(alphabet)})

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    def symbol_index(self, symbol: str) -> int:
        try:
            return self._symbol_index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} is not in the alphabet") from None

    def delta(self, state: int, symbol: str) -> int:
        return self.transitions[state][self.symbol_index(symbol)]

    def run(self, word: Word) -> int:
        """Final state after reading `word` from the initial state."""
        state = self.initial
        for sym in word:
            state = self.transitions[state][self.symbol_index(sym)]
        return state

    def accepts(self, word: Word) -> bool:
        return self.run(word) in self.accepting


# ---------------------------------------------------------------------------
# text format


def parse_dfa(text: str) -> Dfa:
    """Parse the line-oriented DFA format.

    `states <n>`, `alphabet <sym>...`, `initial <q>`, `accepting [<q>...]`,
    then exactly n x |alphabet| lines `trans <from> <sym> <to>` in any order.
    `#` begins a comment line.  Violations raise FormatError naming the line.
    """
    rows = _TokenLines(text)

    def parse_int(token: str, line: int, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise FormatError(f"bad {what} {token!r}", line) from None

    line, tokens = rows.take("'states <n>'")
    if len(tokens) != 2 or tokens[0] != "states":
        raise FormatError("expected 'states <n>'", line)
    n = parse_int(tokens[1], line, "state count")
    if n < 1:
        raise FormatError("state count must be positive", line)

    line, tokens = rows.take("'alphabet <sym>...'")
    if not tokens or tokens[0] != "alphabet":
        raise FormatError("expected 'alphabet <sym> ...'", line)
    alphabet = tuple(tokens[1:])
    for sym in alphabet:
        if len(sym) != 1 or not sym.isprintable():
            raise FormatError(f"symbols must be single printable characters, got {sym!r}", line)
    if len(set(alphabet)) != len(alphabet):
        raise FormatError("alphabet contains repeated symbols", line)
    if not alphabet:  # n states and no transitions: memory not bounded by the input
        raise FormatError("alphabet needs at least one symbol", line)

    line, tokens = rows.take("'initial <q>'")
    if len(tokens) != 2 or tokens[0] != "initial":
        raise FormatError("expected 'initial <q>'", line)
    initial = parse_int(tokens[1], line, "state")
    if not 0 <= initial < n:
        raise FormatError(f"initial state {initial} out of range", line)

    line, tokens = rows.take("'accepting ...'")
    if not tokens or tokens[0] != "accepting":
        raise FormatError("expected 'accepting [<q> ...]'", line)
    accepting = set()
    for token in tokens[1:]:
        q = parse_int(token, line, "state")
        if not 0 <= q < n:
            raise FormatError(f"accepting state {q} out of range", line)
        accepting.add(q)

    # The table holds only the transitions given, keyed by src * k + c, so
    # memory follows the input and not the declared state count.
    k = len(alphabet)
    sym_index = {s: i for i, s in enumerate(alphabet)}
    table: dict[int, int] = {}
    for line, tokens in rows.rest():
        if len(tokens) != 4 or tokens[0] != "trans":
            raise FormatError("expected 'trans <from> <sym> <to>'", line)
        src = parse_int(tokens[1], line, "state")
        sym = tokens[2]
        dst = parse_int(tokens[3], line, "state")
        if not 0 <= src < n:
            raise FormatError(f"state {src} out of range", line)
        if sym not in sym_index:
            raise FormatError(f"unknown symbol {sym!r}", line)
        if not 0 <= dst < n:
            raise FormatError(f"state {dst} out of range", line)
        key = src * k + sym_index[sym]
        if key in table:
            raise FormatError(f"duplicate transition for state {src} on {sym!r}", line)
        table[key] = dst
    if len(table) < n * k:
        # the keys are distinct and below n * k, so a gap shows up within
        # len(table) + 1 steps
        key = next(key for key in range(n * k) if key not in table)
        raise FormatError(
            f"missing transition for state {key // k} on {alphabet[key % k]!r}",
            rows.last_line,
        )
    flat = list(map(table.__getitem__, range(n * k)))
    return Dfa(alphabet, [flat[q * k : q * k + k] for q in range(n)], initial, accepting)


def serialize_dfa(dfa: Dfa) -> str:
    """Render a DFA in the text format (canonical line order)."""
    if not dfa.alphabet:
        raise ValueError("a DFA over the empty alphabet cannot be written to the text format")
    for sym in dfa.alphabet:
        if len(sym) != 1 or sym.isspace() or not sym.isprintable():
            raise ValueError(f"symbol {sym!r} cannot be written to the text format")
    lines = [f"states {dfa.state_count}"]
    lines.append("alphabet " + " ".join(dfa.alphabet))
    lines.append(f"initial {dfa.initial}")
    lines.append(("accepting " + " ".join(str(q) for q in sorted(dfa.accepting))).rstrip())
    for q, row in enumerate(dfa.transitions):
        for sym, t in zip(dfa.alphabet, row):
            lines.append(f"trans {q} {sym} {t}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# minimization


def _reachable_order(dfa: Dfa) -> list[int]:
    """States reachable from the initial state, in BFS discovery order."""
    order = [dfa.initial]
    seen = {dfa.initial}
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for t in dfa.transitions[q]:
            if t not in seen:
                seen.add(t)
                order.append(t)
                queue.append(t)
    return order


def _refine_partition(n, n_sym, trans, accepting) -> list[set[int]]:
    """Hopcroft partition refinement; returns the coarsest stable blocks."""
    inv = [[[] for _ in range(n)] for _ in range(n_sym)]
    for q in range(n):
        row = trans[q]
        for c in range(n_sym):
            inv[c][row[c]].append(q)
    acc = {q for q in range(n) if q in accepting}
    non = set(range(n)) - acc
    blocks = [set(g) for g in (acc, non) if g]
    if len(blocks) < 2:
        return blocks
    block_of = {}
    for bi, block in enumerate(blocks):
        for q in block:
            block_of[q] = bi
    work = {0, 1}
    while work:
        bi = work.pop()
        splitter = tuple(blocks[bi])
        for c in range(n_sym):
            pre = set()
            for t in splitter:
                pre.update(inv[c][t])
            if not pre:
                continue
            touched: dict[int, set[int]] = {}
            for q in pre:
                touched.setdefault(block_of[q], set()).add(q)
            for yi, inter in touched.items():
                block = blocks[yi]
                if len(inter) == len(block):
                    continue
                block -= inter  # in place: O(|inter|), where block - inter is O(|block|)
                small, big = (inter, block) if len(inter) <= len(block) else (block, inter)
                blocks[yi] = big
                ni = len(blocks)
                blocks.append(small)
                for q in small:
                    block_of[q] = ni
                # if yi is queued the big half stays queued under yi, so
                # queueing the new (smaller) index covers both cases
                work.add(ni)
    return blocks


def minimize(dfa: Dfa) -> Dfa:
    """Canonical minimal DFA for the same language.

    Unreachable states are dropped, equivalent states merged (Hopcroft
    partition refinement), and the result renumbered by breadth-first
    discovery over the alphabet order, so any two automata for the same
    language minimize to structurally equal values.
    """
    order = _reachable_order(dfa)
    compact = {q: i for i, q in enumerate(order)}
    n = len(order)
    n_sym = len(dfa.alphabet)
    trans = [
        tuple(compact[dfa.transitions[q][c]] for c in range(n_sym)) for q in order
    ]
    accepting = {compact[q] for q in dfa.accepting if q in compact}
    blocks = _refine_partition(n, n_sym, trans, accepting)
    block_of = {}
    for bi, block in enumerate(blocks):
        for q in block:
            block_of[q] = bi
    reps = {bi: min(block) for bi, block in enumerate(blocks)}
    quotient = {
        bi: tuple(block_of[trans[reps[bi]][c]] for c in range(n_sym)) for bi in reps
    }
    start = block_of[0]
    numbering = {start: 0}
    bfs = deque([start])
    ordered = [start]
    while bfs:
        b = bfs.popleft()
        for t in quotient[b]:
            if t not in numbering:
                numbering[t] = len(numbering)
                ordered.append(t)
                bfs.append(t)
    new_trans = [tuple(numbering[t] for t in quotient[b]) for b in ordered]
    new_acc = {numbering[b] for b in ordered if reps[b] in accepting}
    return Dfa(dfa.alphabet, new_trans, 0, new_acc)


# ---------------------------------------------------------------------------
# boolean algebra


def complement(dfa: Dfa) -> Dfa:
    return Dfa(
        dfa.alphabet,
        dfa.transitions,
        dfa.initial,
        frozenset(range(dfa.state_count)) - dfa.accepting,
    )


PRODUCT_MODES = ("union", "intersection", "difference")


def product(first: Dfa, second: Dfa, mode: str) -> Dfa:
    """Pairing construction over the reachable pair states.

    mode "union": accept when either side does; "intersection": both;
    "difference": the first but not the second.  Alphabets must be identical
    (same symbols in the same order).
    """
    if first.alphabet != second.alphabet:
        raise ValueError("alphabet mismatch between the two automata")
    if mode not in PRODUCT_MODES:
        raise ValueError(f"unknown product mode {mode!r}")
    n_sym = len(first.alphabet)
    start = (first.initial, second.initial)
    numbering = {start: 0}
    pending = deque([start])
    rows = []
    accepting = set()
    while pending:
        p, q = pending.popleft()
        index = numbering[(p, q)]
        in_first = p in first.accepting
        in_second = q in second.accepting
        if mode == "union":
            hit = in_first or in_second
        elif mode == "intersection":
            hit = in_first and in_second
        else:
            hit = in_first and not in_second
        if hit:
            accepting.add(index)
        row = []
        for c in range(n_sym):
            target = (first.transitions[p][c], second.transitions[q][c])
            if target not in numbering:
                numbering[target] = len(numbering)
                pending.append(target)
            row.append(numbering[target])
        rows.append(tuple(row))
    return Dfa(first.alphabet, rows, 0, accepting)


def is_empty(dfa: Dfa) -> bool:
    """True iff no accepting state is reachable from the initial state."""
    return not any(q in dfa.accepting for q in _reachable_order(dfa))


def equivalent(first: Dfa, second: Dfa) -> bool:
    """Language equality, by emptiness of both directed differences."""
    return is_empty(product(first, second, "difference")) and is_empty(
        product(second, first, "difference")
    )


# ---------------------------------------------------------------------------
# the canonical shuffle-ideal DFA


def pattern_dfa(pattern: SubsequencePattern) -> Dfa:
    """Minimal DFA of the pattern's shuffle ideal.

    State i means "the first i pattern letters have been matched"; state k is
    absorbing and the only accepting state.  Already canonical: minimize()
    returns it unchanged.
    """
    k = len(pattern.letters)
    rows = []
    for i in range(k):
        rows.append(
            tuple(i + 1 if sym == pattern.letters[i] else i for sym in pattern.alphabet)
        )
    rows.append(tuple(k for _ in pattern.alphabet))
    return Dfa(pattern.alphabet, rows, 0, {k})


# ---------------------------------------------------------------------------
# literal idempotency and variation


def is_literally_idempotent(min_dfa: Dfa) -> bool:
    """True iff every letter action is idempotent on states.

    Checks delta(delta(q, a), a) == delta(q, a) for all q and a.  On a minimal
    DFA this decides literal idempotency of the language: states reached by
    xa and xaa must agree for every continuation.
    """
    for row in min_dfa.transitions:
        for c, t in enumerate(row):
            if min_dfa.transitions[t][c] != t:
                return False
    return True


def variation(dfa: Dfa, word: Word) -> int:
    """Number of state changes along the run of `word` from the initial state."""
    changes = 0
    state = dfa.initial
    for sym in word:
        nxt = dfa.transitions[state][dfa.symbol_index(sym)]
        if nxt != state:
            changes += 1
        state = nxt
    return changes


def _change_edges(dfa: Dfa, states: Iterable[int]) -> dict[int, list[tuple[int, str]]]:
    """Proper (state-changing) transitions, as q -> [(target, symbol)...]."""
    edges = {}
    for q in states:
        out = []
        for sym, t in zip(dfa.alphabet, dfa.transitions[q]):
            if t != q:
                out.append((t, sym))
        edges[q] = out
    return edges


def _topological_order(edges: dict[int, list[tuple[int, str]]]) -> list[int] | None:
    """Kahn's algorithm; None when the change graph has a cycle."""
    indegree = {q: 0 for q in edges}
    for q, out in edges.items():
        for t, _ in out:
            indegree[t] += 1
    ready = deque(sorted(q for q, d in indegree.items() if d == 0))
    order = []
    while ready:
        q = ready.popleft()
        order.append(q)
        for t, _ in edges[q]:
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    if len(order) != len(edges):
        return None
    return order


def _acyclic_order(dfa: Dfa) -> list[int] | None:
    """Reachable states in topological order of the change graph, or None."""
    return _topological_order(_change_edges(dfa, _reachable_order(dfa)))


def is_partially_ordered(dfa: Dfa) -> bool:
    """True iff the only cycles among reachable states are self-loops."""
    return _acyclic_order(dfa) is not None


def sup_variation(dfa: Dfa) -> int | float:
    """Largest variation over all words: the longest change-edge path from the
    initial state, or math.inf when the change graph has a cycle."""
    bound, _ = _longest_change_path(dfa)
    return bound


def sup_variation_witness(dfa: Dfa) -> tuple[str, ...] | None:
    """A word attaining sup_variation(dfa), or None when that is infinite."""
    _, witness = _longest_change_path(dfa)
    return witness


def _longest_change_path(dfa: Dfa) -> tuple[int | float, tuple[str, ...] | None]:
    reachable = _reachable_order(dfa)
    edges = _change_edges(dfa, reachable)
    order = _topological_order(edges)
    if order is None:
        return math.inf, None
    dist: dict[int, int] = {dfa.initial: 0}
    back: dict[int, tuple[int, str]] = {}
    for q in order:
        if q not in dist:
            continue
        for t, sym in edges[q]:
            if dist[q] + 1 > dist.get(t, -1):
                dist[t] = dist[q] + 1
                back[t] = (q, sym)
    best = dfa.initial
    for q in order:
        if q in dist and dist[q] > dist[best]:
            best = q
    word: list[str] = []
    q = best
    while q in back:
        q, sym = back[q]
        word.append(sym)
    word.reverse()
    return dist[best], tuple(word)
