"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately primitive: plain-list complex arithmetic, a
table-filling minimizer, principal-ideal computations by triple products, and
an exact Fraction-based evaluator for the pattern acceptors.  None of it
shares code with the package under test.
"""

from __future__ import annotations

from fractions import Fraction


# ---------------------------------------------------------------------------
# list-based complex matrix arithmetic


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def identity_matrix(n):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def brute_probability(initial, observables, word, accepting_projectors):
    """Literal density-matrix run of a measurement-only acceptor.

    initial: list of complex amplitudes (unit-norm row vector).
    observables: mapping symbol -> list of projector matrices (lists of lists).
    accepting_projectors: projectors of the accepting end-word outcomes.
    Returns sum_r trace(P_r rho_n P_r) for the accepting outcomes r.
    """
    d = len(initial)
    rho = [
        [complex(initial[i]).conjugate() * complex(initial[j]) for j in range(d)]
        for i in range(d)
    ]
    for sym in word:
        projs = observables[sym]
        nxt = [[0.0] * d for _ in range(d)]
        for p in projs:
            nxt = mat_add(nxt, mat_mul(mat_mul(p, rho), p))
        rho = nxt
    total = 0.0
    for p in accepting_projectors:
        total += mat_trace(mat_mul(mat_mul(p, rho), p))
    return complex(total).real


# ---------------------------------------------------------------------------
# hand-transcribed pattern acceptors (from the two elementary 2x2 projectors,
# embedded block-diagonally at the progress positions of each letter)

_UP2 = [[0.5, 0.5], [0.5, 0.5]]
_DOWN2 = [[0.5, -0.5], [-0.5, 0.5]]


def handmade_single_letter_acceptor():
    """The 2-dimensional acceptor for the pattern [a] over {a, b}."""
    observables = {
        "a": [_UP2, _DOWN2],
        "b": [identity_matrix(2)],
    }
    initial = [1.0, 0.0]
    accepting = [[[0.0, 0.0], [0.0, 1.0]]]
    return initial, observables, accepting


def handmade_two_letter_acceptor():
    """The 3-dimensional acceptor for the pattern [a, b] over {a, b}."""
    up_a = [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
    down_a = [[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 0.0]]
    up_b = [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]
    down_b = [[0.0, 0.0, 0.0], [0.0, 0.5, -0.5], [0.0, -0.5, 0.5]]
    observables = {"a": [up_a, down_a], "b": [up_b, down_b]}
    initial = [1.0, 0.0, 0.0]
    accepting = [[[0.0] * 3, [0.0] * 3, [0.0, 0.0, 1.0]]]
    return initial, observables, accepting


def exact_pattern_probability(letters, word):
    """Exact acceptance probability of the pattern acceptor, as a Fraction.

    The constructed acceptor started on the first basis state keeps its state
    diagonal (the off-diagonal contributions of the up/down pair cancel in the
    nonselective sum), and reading a pattern letter averages the two diagonal
    entries of each of its progress blocks.  Letters outside the pattern leave
    the state alone.
    """
    k = len(letters)
    mass = [Fraction(0)] * (k + 1)
    mass[0] = Fraction(1)
    blocks = {}
    for i, a in enumerate(letters):
        blocks.setdefault(a, []).append(i)
    for sym in word:
        for j in blocks.get(sym, ()):
            avg = (mass[j] + mass[j + 1]) / 2
            mass[j] = avg
            mass[j + 1] = avg
    return mass[k]


# ---------------------------------------------------------------------------
# subsequence membership, spelled out index by index


def is_subsequence(pattern, word):
    pos = 0
    for sym in word:
        if pos < len(pattern) and sym == pattern[pos]:
            pos += 1
    return pos == len(pattern)


# ---------------------------------------------------------------------------
# table-filling DFA minimizer (independent of the Hopcroft implementation)


def table_filling_classes(n_states, n_symbols, transitions, initial, accepting):
    """Myhill-Nerode classes of the reachable states, by pair marking.

    transitions: transitions[state][symbol_index] -> state.
    Returns (reachable_states_sorted, class_of) where class_of maps each
    reachable state to a class representative.
    """
    reachable = {initial}
    frontier = [initial]
    while frontier:
        q = frontier.pop()
        for c in range(n_symbols):
            t = transitions[q][c]
            if t not in reachable:
                reachable.add(t)
                frontier.append(t)
    states = sorted(reachable)
    marked = set()
    for i, p in enumerate(states):
        for q in states[i + 1 :]:
            if (p in accepting) != (q in accepting):
                marked.add((p, q))
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(states):
            for q in states[i + 1 :]:
                if (p, q) in marked:
                    continue
                for c in range(n_symbols):
                    a, b = transitions[p][c], transitions[q][c]
                    if a == b:
                        continue
                    key = (a, b) if a < b else (b, a)
                    if key in marked:
                        marked.add((p, q))
                        changed = True
                        break
    class_of = {}
    for p in states:
        class_of[p] = p
        for q in states:
            if q >= p:
                break
            if (q, p) not in marked:
                class_of[p] = class_of[q]
                break
    return states, class_of


def table_filling_minimal(n_states, n_symbols, transitions, initial, accepting):
    """Minimal automaton as plain data: (n, transitions, initial, accepting)."""
    states, class_of = table_filling_classes(
        n_states, n_symbols, transitions, initial, accepting
    )
    reps = sorted(set(class_of.values()))
    number = {rep: i for i, rep in enumerate(reps)}
    new_trans = [
        [number[class_of[transitions[rep][c]]] for c in range(n_symbols)]
        for rep in reps
    ]
    new_acc = {number[rep] for rep in reps if rep in accepting}
    return len(reps), new_trans, number[class_of[initial]], new_acc


# ---------------------------------------------------------------------------
# Green's relations by principal ideals (triple products; small monoids only)


def _compose(first, then):
    return tuple(then[q] for q in first)


def brute_green_classes(elements):
    """Principal left/right/two-sided ideals of a transformation monoid.

    elements: iterable of transformation tuples, closed under composition and
    containing the identity.  Returns dicts element -> frozenset ideal.
    """
    elems = list(elements)
    right = {}
    left = {}
    two_sided = {}
    for x in elems:
        right[x] = frozenset(_compose(x, b) for b in elems)
        left[x] = frozenset(_compose(a, x) for a in elems)
        two_sided[x] = frozenset(
            _compose(_compose(a, x), b) for a in elems for b in elems
        )
    return right, left, two_sided


def _distinct(ideals):
    """True iff no two of the ideals are equal; stops at the first repeat."""
    seen = set()
    for ideal in ideals:
        if ideal in seen:
            return False
        seen.add(ideal)
    return True


def brute_r_trivial(elements):
    """Distinct principal right ideals xM, built one at a time (quadratic)."""
    elems = list(elements)
    return _distinct(frozenset(_compose(x, b) for b in elems) for x in elems)


def brute_l_trivial(elements):
    """Distinct principal left ideals Mx, built one at a time (quadratic)."""
    elems = list(elements)
    return _distinct(frozenset(_compose(a, x) for a in elems) for x in elems)


def brute_j_trivial(elements):
    _, _, two = brute_green_classes(elements)
    ideals = list(two.values())
    return len(set(ideals)) == len(ideals)


def brute_block_group(elements):
    right, left, _ = brute_green_classes(elements)
    idems = [x for x in elements if _compose(x, x) == x]
    for ideals in (right, left):
        for i, e in enumerate(idems):
            for f in idems[i + 1 :]:
                if ideals[e] == ideals[f]:
                    return False
    return True


if __name__ == "__main__":
    init1, obs1, acc1 = handmade_single_letter_acceptor()
    init2, obs2, acc2 = handmade_two_letter_acceptor()
    cases = [
        ("p(A[a], 'a')", brute_probability(init1, obs1, "a", acc1)),
        ("p(A[a], 'aa')", brute_probability(init1, obs1, "aa", acc1)),
        ("p(A[a,b], 'ab')", brute_probability(init2, obs2, "ab", acc2)),
        ("p(A[a,b], 'ba')", brute_probability(init2, obs2, "ba", acc2)),
        ("p(A[a], '')", brute_probability(init1, obs1, "", acc1)),
    ]
    for name, value in cases:
        print(f"{name} = {value!r}")
    print("exact [a] 'a' :", exact_pattern_probability(("a",), "a"))
    print("exact [a,b] 'ab' :", exact_pattern_probability(("a", "b"), "ab"))
    print("exact [a,b] 'ba' :", exact_pattern_probability(("a", "b"), "ba"))
