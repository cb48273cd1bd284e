"""Total deterministic finite automata: parsing, minimization, boolean algebra,
literal idempotency, and variation analysis.  Of moqfa it imports only
`errors`; `moqfa.patterns` builds the shuffle-ideal DFA of a pattern."""

from __future__ import annotations

import math
import re
from functools import cached_property
from itertools import compress
from operator import itemgetter
from typing import Sequence

from .errors import FormatError, _check_alphabet, _Frozen, _TokenLines

Word = Sequence[str]


class Dfa(_Frozen):
    """Complete DFA over an ordered alphabet; states are 0..n-1.

    Stored as its letter columns: _columns[c][q] is state q's successor on
    the c-th symbol; the map must be total, and transitions[q][c] is the
    same table by rows, built when first read.  Instances are immutable, so
    structural equality of two canonically minimized automata coincides
    with language equality; == and hash compare the _stored fields, and
    ignore the cached properties, as repr does.
    """

    alphabet: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]  # the cached row view below
    initial: int
    accepting: frozenset[int]
    _stored = ("alphabet", "_columns", "state_count", "initial", "accepting")

    def __init__(self, alphabet, transitions, initial, accepting):
        alphabet = _check_alphabet(alphabet)
        rows = list(map(tuple, transitions))
        n, k = len(rows), len(alphabet)
        accepting = frozenset(accepting)
        if n < 1:
            raise ValueError("a DFA needs at least one state")
        # states are ints proper: a float or bool state would be written to
        # the text format as a token the parser refuses
        for q, row in enumerate(rows):
            if len(row) != k:
                raise ValueError(f"state {q} has {len(row)} transitions, expected {k}")
            for t in row:
                if type(t) is not int or not 0 <= t < n:
                    raise ValueError(f"state {q} has an out-of-range successor {t!r}")
        if type(initial) is not int or not 0 <= initial < n:
            raise ValueError(f"initial state {initial!r} out of range")
        for q in accepting:
            if type(q) is not int or not 0 <= q < n:
                raise ValueError(f"accepting state {q!r} out of range")
        cols = tuple(tuple(map(itemgetter(c), rows)) for c in range(k))
        vars(self).update(zip(self._stored, (alphabet, cols, n, initial, accepting)))

    @classmethod
    def _of_columns(cls, *fields) -> Dfa:
        """The Dfa of the _stored fields as its caller has checked them: the
        alphabet rule, n >= 1, int states below n, accepting a frozenset."""
        dfa = object.__new__(cls)
        vars(dfa).update(zip(cls._stored, fields))
        return dfa

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._stored))

    @cached_property
    def transitions(self) -> tuple[tuple[int, ...], ...]:
        """The table by rows: transitions[q][c] is _columns[c][q]."""
        return tuple(zip(*self._columns)) if self._columns else ((),) * self.state_count

    @cached_property
    def _symbol_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.alphabet)}

    @cached_property
    def _change_order(self) -> tuple[int, ...] | None:
        """Reachable states in topological order of the change graph (the
        state-changing transitions); None on a cycle."""
        order = _kahn_order(_reachable_order(self), self._columns, self.state_count)
        return None if order is None else tuple(order)

    def symbol_index(self, symbol: str) -> int:
        try:
            return self._symbol_index[symbol]
        except (KeyError, TypeError):  # TypeError: an unhashable symbol
            raise ValueError(f"symbol {symbol!r} is not in the alphabet") from None

    def delta(self, state: int, symbol: str) -> int:
        return self._columns[self.symbol_index(symbol)][state]

    def run(self, word: Word) -> int:
        """Final state after reading `word` from the initial state."""
        state = self.initial
        for sym in word:
            state = self._columns[self.symbol_index(sym)][state]
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
    Text in the exact form serialize_dfa writes is read in one bulk pass; any
    other text, and every error, is left to the line loop below.
    """
    dfa = _parse_writer_form(text)
    if dfa is not None:
        return dfa
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
    try:
        alphabet = _check_alphabet(tokens[1:])
    except ValueError as exc:
        raise FormatError(str(exc), line) from None
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
    flat = tuple(map(table.__getitem__, range(n * k)))
    columns = tuple(flat[c::k] for c in range(k))
    return Dfa._of_columns(alphabet, columns, n, initial, frozenset(accepting))


# The exact form serialize_dfa writes: fields separated by one space, every
# line ended by "\n", no comment or blank line.  Numbers have at most 18
# digits, so int() never meets its digit limit.  The patterns are compiled
# on first use, through re's cache, so importing moqfa compiles none.
_WRITER_HEADER = (
    r"states ([0-9]{1,18})\nalphabet((?: \S)+)\ninitial ([0-9]{1,18})\n"
    r"accepting((?: [0-9]{1,18})*)\n"
)
_WRITER_TRANS = r"(?:trans [0-9]{1,18} \S [0-9]{1,18}\n)*"


def _parse_writer_form(text: str) -> Dfa | None:
    """parse_dfa's result for a text in the form serialize_dfa writes, with
    the trans lines in its order, built column by column with no object per
    line or state; None for any other text, which the line loop then reads.

    Never raises: every error of the format is the line loop's to report,
    the alphabet rule and the state count and ranges among them.
    """
    header = re.match(_WRITER_HEADER, text)
    if header is None:
        return None
    try:
        alphabet = _check_alphabet(header[2].split())
    except ValueError:
        return None
    n, initial, accepting = int(header[1]), int(header[3]), frozenset(map(int, header[4].split()))
    if n < 1 or max((initial, *accepting)) >= n:
        return None
    table = _writer_table(text[header.end() :], n, alphabet)
    if table is None or max(table) >= n:
        return None
    # every k-th successor, from the c-th on, is the column of letter c
    k = len(alphabet)
    return Dfa._of_columns(alphabet, tuple(table[c::k] for c in range(k)), n, initial, accepting)


def _writer_table(body: str, n: int, alphabet: tuple[str, ...]) -> tuple[int, ...] | None:
    """The successors of the n x |alphabet| trans lines `body` when they come
    in the order serialize_dfa writes, where the target column is the table;
    None for any other lines or order, which the line loop then reads.  A
    function of its own so that the fields are freed before the columns are
    sliced from the table."""
    # the count is checked before _state_major builds n names from the header
    if body.count("\n") != n * len(alphabet) or re.fullmatch(_WRITER_TRANS, body) is None:
        return None
    fields = body.split()
    return tuple(map(int, fields[3::4])) if _state_major(fields, n, alphabet) else None


def _state_major(fields: list[str], n: int, alphabet: tuple[str, ...]) -> bool:
    """True iff the n x |alphabet| trans lines split into `fields` come in the
    order serialize_dfa writes: sources 0..n-1, each over the alphabet in
    order, each source without leading zeros.  One slice comparison per letter
    and column."""
    names = list(map(str, range(n)))
    step = 4 * len(alphabet)
    return all(
        fields[1 + 4 * c :: step] == names and fields[2 + 4 * c :: step] == [symbol] * n
        for c, symbol in enumerate(alphabet)
    )


def serialize_dfa(dfa: Dfa) -> str:
    """Render a DFA in the text format (canonical line order)."""
    if not dfa.alphabet:
        raise ValueError("a DFA over the empty alphabet cannot be written to the text format")
    lines = [f"states {dfa.state_count}"]
    lines.append("alphabet " + " ".join(dfa.alphabet))
    lines.append(f"initial {dfa.initial}")
    lines.append(("accepting " + " ".join(str(q) for q in sorted(dfa.accepting))).rstrip())
    for q, row in enumerate(zip(*dfa._columns)):  # rows made one at a time, none kept
        for sym, t in zip(dfa.alphabet, row):
            lines.append(f"trans {q} {sym} {t}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# minimization


def _reachable_order(dfa: Dfa) -> list[int]:
    """States reachable from the initial state, in BFS discovery order."""
    cols = dfa._columns
    order = [dfa.initial]
    seen = {dfa.initial}
    for q in order:  # order grows while it is read: it is its own queue
        for col in cols:
            t = col[q]
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order


def _kahn_order(nodes: Sequence[int], cols: Sequence[Sequence[int]], count: int) -> list | None:
    """`nodes` in topological order of the graph in which node q's successors
    are cols[c][q], one column per letter, by Kahn's algorithm; None when it
    has a cycle other than a self-loop.  Only edges from `nodes` count, and
    self-loops are left out; every node is below `count`.  The DFA's change
    order and the Green's tests of `moqfa.algebra` both run this pass."""
    indegree = [0] * count
    for col in cols:
        for q in nodes:
            t = col[q]
            if t != q:
                indegree[t] += 1
    ready = [q for q in nodes if not indegree[q]]
    for q in ready:  # ready grows while it is read
        for col in cols:
            t = col[q]
            if t != q:
                indegree[t] -= 1
                if not indegree[t]:
                    ready.append(t)
    return ready if len(ready) == len(nodes) else None


def _first_appearance(keys: Sequence) -> tuple[list[int], int]:
    """Each key replaced by the rank of its first appearance in `keys`, and
    the number of distinct keys."""
    number = dict(zip(dict.fromkeys(keys), range(len(keys))))
    return list(map(number.__getitem__, keys)), len(number)


def _refine_partition(cols: list[list[int]], accepting: list[bool]) -> list[int]:
    """The coarsest stable partition of the positions 0..m-1, where cols[c][p]
    is p's successor on letter c, as each position's class numbered by first
    appearance.  A Moore round, one C-level pass, pairs each class with its
    successors' classes.  The rounds stop when one splits nothing, or when
    one neither doubles the class count nor halves the positions not yet
    alone in a class, each possible about log2 m times; Hopcroft finishes."""
    m = len(accepting)
    cls, old = _first_appearance(accepting)
    while True:
        cls, new = _first_appearance(list(zip(cls, *(map(cls.__getitem__, col) for col in cols))))
        if new == old:
            return cls
        if new - old < min(old, m - new):
            # numbered once Hopcroft's tables are freed
            return _first_appearance(_hopcroft(cols, cls, new))[0]
        old = new


def _hopcroft(cols: list[list[int]], cls: list[int], count: int) -> list[int]:
    """Hopcroft's refinement of any partition, the `count` classes `cls`, to
    the coarsest stable partition, as each position's block.

    The worklist starts with every class but the largest: a partition stable
    with respect to all its classes but one is stable with respect to the
    last, since every position has a successor in their union.  Each split
    then queues its smaller half, so the O(kn log n) bound holds."""
    # inv[c][t]: the positions whose successor on letter c is t
    inv = [[[] for _ in cls] for _ in cols]
    for col, back in zip(cols, inv):
        for p, t in enumerate(col):
            back[t].append(p)
    blocks = [set() for _ in range(count)]
    for p, b in enumerate(cls):
        blocks[b].add(p)
    work = set(range(count))
    work.remove(max(work, key=lambda b: len(blocks[b])))
    block_of = cls  # refined in place
    while work:
        bi = work.pop()
        splitter = tuple(blocks[bi])
        for back in inv:
            pre = set()
            for t in splitter:
                pre.update(back[t])
            if not pre:
                continue
            touched: dict[int, set[int]] = {}
            for p in pre:
                touched.setdefault(block_of[p], set()).add(p)
            for yi, inter in touched.items():
                block = blocks[yi]
                if len(inter) == len(block):
                    continue
                block -= inter  # in place: O(|inter|), where block - inter is O(|block|)
                small, big = (inter, block) if len(inter) <= len(block) else (block, inter)
                blocks[yi] = big
                ni = len(blocks)
                blocks.append(small)
                for p in small:
                    block_of[p] = ni
                # if yi is queued the big half stays queued under yi, so
                # queueing the new (smaller) index covers both cases
                work.add(ni)
    return block_of


def minimize(dfa: Dfa) -> Dfa:
    """Canonical minimal DFA for the same language.

    Unreachable states are dropped and equivalent states merged, and the
    result is numbered by breadth-first discovery over the alphabet order,
    so any two automata for the same language minimize to structurally
    equal values.  The merge runs Moore rounds while each round at least
    doubles the class count or halves the states not yet in a class of
    their own, at most about 2 log2 m + 2 of them for m reachable states,
    and then, unless a round has split nothing, Hopcroft's partition
    refinement: random automata settle within a few rounds, while chains
    and counters go to Hopcroft after the first.
    """
    order = _reachable_order(dfa)
    m = len(order)
    # the reachable states renumbered by BFS position, one successor column
    # per letter
    pos = dict(zip(order, range(m)))
    cols = [list(map(pos.__getitem__, map(col.__getitem__, order))) for col in dfa._columns]
    accepting = list(map(dfa.accepting.__contains__, order))
    cls = _refine_partition(cols, accepting)
    # The positions are in BFS discovery order and the classes numbered by
    # first appearance; the first state of each class is discovered from the
    # first state of an earlier class, so this is the quotient's BFS numbering.
    first = dict(zip(reversed(cls), reversed(range(m))))  # class -> its first position
    reps = list(map(first.__getitem__, range(len(first))))
    columns = tuple(tuple(map(cls.__getitem__, map(col.__getitem__, reps))) for col in cols)
    final = frozenset(compress(range(len(reps)), map(accepting.__getitem__, reps)))
    return Dfa._of_columns(dfa.alphabet, columns, len(reps), 0, final)


# ---------------------------------------------------------------------------
# boolean algebra


def complement(dfa: Dfa) -> Dfa:
    rejecting = frozenset(range(dfa.state_count)) - dfa.accepting
    return Dfa._of_columns(dfa.alphabet, dfa._columns, dfa.state_count, dfa.initial, rejecting)


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
    start = (first.initial, second.initial)
    pairs = [start]
    numbering = {start: 0}
    letters = list(zip(first._columns, second._columns))
    columns: list[list[int]] = [[] for _ in letters]
    accepting = set()
    for index, (p, q) in enumerate(pairs):  # pairs grows while it is read: it is its own queue
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
        for column, (col_first, col_second) in zip(columns, letters):
            target = (col_first[p], col_second[q])
            if target not in numbering:
                numbering[target] = len(pairs)
                pairs.append(target)
            column.append(numbering[target])
    columns = tuple(map(tuple, columns))
    return Dfa._of_columns(first.alphabet, columns, len(pairs), 0, frozenset(accepting))


def is_empty(dfa: Dfa) -> bool:
    """True iff no accepting state is reachable from the initial state."""
    return not any(q in dfa.accepting for q in _reachable_order(dfa))


def equivalent(first: Dfa, second: Dfa) -> bool:
    """Language equality, by emptiness of both directed differences."""
    return is_empty(product(first, second, "difference")) and is_empty(
        product(second, first, "difference")
    )


# ---------------------------------------------------------------------------
# literal idempotency and variation


def is_literally_idempotent(min_dfa: Dfa) -> bool:
    """True iff every letter action is idempotent on states.

    Checks delta(delta(q, a), a) == delta(q, a) for all q and a.  On a minimal
    DFA this decides literal idempotency of the language: states reached by
    xa and xaa must agree for every continuation.
    """
    return all(map(_is_idempotent, min_dfa._columns))


def _is_idempotent(t: Sequence[int]) -> bool:
    """True iff the transformation t (q -> t[q]) composed with itself is t."""
    return tuple(map(t.__getitem__, t)) == t


def variation(dfa: Dfa, word: Word) -> int:
    """Number of state changes along the run of `word` from the initial state."""
    changes = 0
    state = dfa.initial
    for sym in word:
        nxt = dfa._columns[dfa.symbol_index(sym)][state]
        if nxt != state:
            changes += 1
        state = nxt
    return changes


def is_partially_ordered(dfa: Dfa) -> bool:
    """True iff the only cycles among reachable states are self-loops."""
    return dfa._change_order is not None


def sup_variation(dfa: Dfa) -> int | float:
    """Largest variation over all words, or math.inf when the change graph
    has a cycle: the length of sup_variation_witness, each of whose letters
    is one change edge."""
    witness = sup_variation_witness(dfa)
    return math.inf if witness is None else len(witness)


def sup_variation_witness(dfa: Dfa) -> tuple[str, ...] | None:
    """A word attaining sup_variation(dfa), spelling a longest change-edge
    path from the initial state; None when that is infinite."""
    order = dfa._change_order
    if order is None:
        return None
    # the initial state is the only source, so it comes first and every later
    # state has a change edge from an earlier one: each has dist when visited
    dist: dict[int, int] = {dfa.initial: 0}
    back: dict[int, tuple[int, str]] = {}
    letters = list(zip(dfa.alphabet, dfa._columns))
    for q in order:
        for sym, col in letters:
            t = col[q]
            if t != q and dist[q] + 1 > dist.get(t, -1):
                dist[t] = dist[q] + 1
                back[t] = (q, sym)
    q = max(order, key=dist.__getitem__)  # the first maximal state in order
    word: list[str] = []
    while q in back:
        q, sym = back[q]
        word.append(sym)
    word.reverse()
    return tuple(word)
