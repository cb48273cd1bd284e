"""Known answers for the benchmark, computed without the code being timed.

Every answer here comes from one of three places: the brute-force referees in
`tests/oracles.py`, the way an input was built (a formula for the monoid of a
permutation-group DFA, the theory of shuffle ideals), or a small algorithm
written here that shares no code with `moqfa` (Moore's partition refinement,
acyclicity by depth-first search, local confluence after Klima and Polak,
DLT 2013).  Where a verdict is negative the referee also finds a witness and
checks it by running the DFA's transition table directly.
"""

from __future__ import annotations

import importlib.util
import math
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_oracles():
    """Import `tests/oracles.py` by path; it imports nothing from moqfa."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = load_oracles()


class RefereeError(Exception):
    """Two independent sources disagree about an input's answer."""


def agree(condition: bool, message: str) -> None:
    if not condition:
        raise RefereeError(message)


# ---------------------------------------------------------------------------
# plain-table DFA facts (trans[q][c], states 0..n-1)


def run_table(trans, initial, symbol_index, word):
    q = initial
    for sym in word:
        q = trans[q][symbol_index[sym]]
    return q


def reachable_with_words(trans, initial, alphabet):
    """BFS from the initial state: state -> shortest access word."""
    access = {initial: ()}
    queue = deque([initial])
    while queue:
        q = queue.popleft()
        for c, sym in enumerate(alphabet):
            t = trans[q][c]
            if t not in access:
                access[t] = access[q] + (sym,)
                queue.append(t)
    return access


def moore_classes(trans, initial, accepting, n_sym):
    """Myhill-Nerode classes of the reachable states by Moore's refinement.

    Returns class_of: reachable state -> class number.  Round-based signature
    refinement, unlike the Hopcroft worklist in `moqfa.automata`.
    """
    reach = [initial]
    seen = {initial}
    for q in reach:
        for t in trans[q]:
            if t not in seen:
                seen.add(t)
                reach.append(t)
    class_of = {q: int(q in accepting) for q in reach}
    count = len(set(class_of.values()))
    while True:
        ids: dict[tuple, int] = {}
        refined = {}
        for q in reach:
            row = trans[q]
            key = (class_of[q],) + tuple(class_of[row[c]] for c in range(n_sym))
            refined[q] = ids.setdefault(key, len(ids))
        if len(ids) == count:
            return refined
        class_of, count = refined, len(ids)


def quotient(trans, class_of, n_sym):
    """Transition table of the minimal DFA from Moore classes."""
    n = len(set(class_of.values()))
    rows = [None] * n
    for q, b in class_of.items():
        if rows[b] is None:
            rows[b] = tuple(class_of[trans[q][c]] for c in range(n_sym))
    return rows


def literally_idempotent(rows):
    return all(rows[t][c] == t for row in rows for c, t in enumerate(row))


def partially_ordered(rows):
    """True iff the only cycles are self-loops (iterative three-colour DFS)."""
    colour = [0] * len(rows)
    for root in range(len(rows)):
        if colour[root]:
            continue
        colour[root] = 1
        stack = [(root, iter(rows[root]))]
        while stack:
            q, it = stack[-1]
            for t in it:
                if t == q:
                    continue
                if colour[t] == 1:
                    return False
                if colour[t] == 0:
                    colour[t] = 1
                    stack.append((t, iter(rows[t])))
                    break
            else:
                colour[q] = 2
                stack.pop()
    return True


def locally_confluent(rows, n_sym):
    """For all q, a, b some w in {a,b}* has q.aw == q.bw (Klima-Polak)."""

    def closure(start, a, b):
        seen = {start}
        todo = [start]
        while todo:
            q = todo.pop()
            for t in (rows[q][a], rows[q][b]):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen

    for a in range(n_sym):
        for b in range(a + 1, n_sym):
            for q in range(len(rows)):
                qa, qb = rows[q][a], rows[q][b]
                if qa != qb and not closure(qa, a, b) & closure(qb, a, b):
                    return False
    return True


def distinguishing_suffix(trans, accepting, alphabet, p, q):
    """Shortest word accepted from exactly one of p and q, or None."""
    start = (p, q)
    back = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        x, y = pair
        if (x in accepting) != (y in accepting):
            word = []
            while back[pair] is not None:
                pair, sym = back[pair]
                word.append(sym)
            return tuple(reversed(word))
        for c, sym in enumerate(alphabet):
            nxt = (trans[x][c], trans[y][c])
            if nxt not in back:
                back[nxt] = (pair, sym)
                queue.append(nxt)
    return None


def li_witness(trans, initial, accepting, alphabet, class_of):
    """(u, a, v) with exactly one of u a v and u a a v accepted."""
    access = reachable_with_words(trans, initial, alphabet)
    for q, u in access.items():
        for c, sym in enumerate(alphabet):
            once = trans[q][c]
            twice = trans[once][c]
            if class_of[once] != class_of[twice]:
                v = distinguishing_suffix(trans, accepting, alphabet, once, twice)
                return u, sym, v
    return None


def check_li_witness(trans, initial, accepting, alphabet, witness) -> bool:
    u, a, v = witness
    index = {s: i for i, s in enumerate(alphabet)}
    once = run_table(trans, initial, index, u + (a,) + v) in accepting
    twice = run_table(trans, initial, index, u + (a, a) + v) in accepting
    return once != twice


def dfa_answer(dfa):
    """Known `diagnose` fields of a moqfa Dfa, from Moore's quotient.

    A negative literal-idempotency verdict must also come with a witness that
    running the table confirms; None means it did not, and the caller stops.
    """
    trans, alphabet = dfa.transitions, dfa.alphabet
    class_of = moore_classes(trans, dfa.initial, dfa.accepting, len(alphabet))
    rows = quotient(trans, class_of, len(alphabet))
    li = literally_idempotent(rows)
    po = partially_ordered(rows)
    pt = po and locally_confluent(rows, len(alphabet))
    if not li:
        witness = li_witness(trans, dfa.initial, dfa.accepting, alphabet, class_of)
        if witness is None or not check_li_witness(
            trans, dfa.initial, dfa.accepting, alphabet, witness
        ):
            return None
    return {
        "minimal_state_count": len(rows),
        "literally_idempotent": li,
        "partially_ordered": po,
        "piecewise_testable": pt,
        "verdict": li and pt,
        "failure_reason": None if li and pt else ("NOT_LI" if not li else "NOT_PT"),
    }


def variation_answer(dfa, word):
    """State changes of the minimal DFA along `word`, via table filling."""
    n_sym = len(dfa.alphabet)
    _, class_of = oracles.table_filling_classes(
        dfa.state_count, n_sym, dfa.transitions, dfa.initial, dfa.accepting
    )
    index = {s: i for i, s in enumerate(dfa.alphabet)}
    q = dfa.initial
    changes = 0
    for sym in word:
        t = dfa.transitions[q][index[sym]]
        changes += class_of[t] != class_of[q]
        q = t
    return changes


def minimal_count_by_table_filling(dfa):
    n, _, _, _ = oracles.table_filling_minimal(
        dfa.state_count, len(dfa.alphabet), dfa.transitions, dfa.initial, dfa.accepting
    )
    return n


# ---------------------------------------------------------------------------
# monoids with a known answer


def full_transformation_idempotents(n):
    """Idempotents of the full transformation monoid T_n: sum C(n,k) k^(n-k)."""
    return sum(math.comb(n, k) * k ** (n - k) for k in range(1, n + 1))


def group_report(n, full):
    """Green report of the symmetric group S_n (full=False) or of T_n."""
    return {
        "monoid_size": n**n if full else math.factorial(n),
        "r_trivial": False,
        "l_trivial": False,
        "j_trivial": False,
        "block_group": not full,
        "letters_idempotent": False,
        "idempotent_count": full_transformation_idempotents(n) if full else 1,
    }


def closure_elements(generators, degree):
    """All products of the generators (and the identity), by fixpoint."""
    elements = {tuple(range(degree))}
    frontier = set(elements)
    while frontier:
        fresh = set()
        for x in frontier:
            for g in generators:
                y = tuple(g[q] for q in x)
                if y not in elements:
                    fresh.add(y)
        elements |= fresh
        frontier = fresh
    return elements


def pattern_monoid_report(dfa):
    """Green report of a shuffle-ideal DFA: J-trivial with idempotent letters
    by the theory; size and idempotents by closure; the brute principal-ideal
    referee confirms J-triviality where it finishes quickly."""
    n = dfa.state_count
    gens = [tuple(dfa.transitions[q][c] for q in range(n)) for c in range(len(dfa.alphabet))]
    elements = closure_elements(gens, n)
    if len(elements) <= 40:
        agree(oracles.brute_j_trivial(elements), "shuffle-ideal monoid is not J-trivial")
    return {
        "monoid_size": len(elements),
        "r_trivial": True,
        "l_trivial": True,
        "j_trivial": True,
        "block_group": True,
        "letters_idempotent": True,
        "idempotent_count": sum(1 for x in elements if tuple(x[q] for q in x) == x),
    }
