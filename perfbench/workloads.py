"""The five workloads: seeded inputs, known answers, execution and checks.

Each workload builds a fixed list of operations from its seed with moqfa's own
constructors (`build`), fixes every operation's answer with `referee`
(`answers`, untimed), runs one operation (`execute`) and compares its output
with the answer (`check`).  `check` returns None for a correct output,
KNOWN_DEFECT for the documented cut-point rounding failure of the float
evaluator, and WRONG for anything else.  Only WRONG counts as a failed
operation; KNOWN_DEFECT is counted and reported on its own, because it is the
same for every run of a seed and is a known property of the program, not of
the run.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from moqfa import algebra, automata, decision, quantum
from moqfa import (
    Dfa,
    MeasureOnlyAutomaton,
    Observable,
    SubsequencePattern,
    format_automaton,
    pattern_automaton,
    pattern_dfa,
    product,
    random_dfa,
    random_partially_ordered_dfa,
    serialize_dfa,
)

import referee
from referee import agree, oracles

KNOWN_DEFECT = "known-defect"
WRONG = "wrong"

# Probabilities are compared with the exact Fraction to this absolute error;
# float evaluation of a trace-one state is far more accurate than this.
PROBABILITY_TOLERANCE = 1e-12


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def permuted(dfa: Dfa, rng: random.Random) -> Dfa:
    """Isomorphic copy with the states renumbered at random (same language)."""
    perm = list(range(dfa.state_count))
    rng.shuffle(perm)
    rows = [None] * dfa.state_count
    for q, row in enumerate(dfa.transitions):
        rows[perm[q]] = tuple(perm[t] for t in row)
    return Dfa(dfa.alphabet, rows, perm[dfa.initial], {perm[q] for q in dfa.accepting})


def random_pattern(rng: random.Random, k: int, letters: str) -> tuple[str, ...]:
    out: list[str] = []
    while len(out) < k:
        c = rng.choice(letters)
        if not out or out[-1] != c:
            out.append(c)
    return tuple(out)


def cutpoint(k: int) -> tuple[float, float]:
    return math.ldexp(1.0, -(2 * k + 1)), math.ldexp(1.0, -(2 * k + 2))


def fmt(x) -> str:
    return f"{float(x):.12f}"


def flag(value: bool) -> str:
    return "true" if value else "false"


def permutation_dfa(rng: random.Random, n: int, full: bool) -> Dfa:
    """n-state DFA whose transition monoid is S_n (full=False) or T_n.

    Letters: a random n-cycle, a transposition of two cycle-adjacent points
    (together they generate S_n) and, for T_n, a map of rank n-1.  Any
    non-empty proper accepting set makes the DFA minimal, since S_n is
    n-transitive.
    """
    order = list(range(n))
    rng.shuffle(order)
    cycle = [0] * n
    for i in range(n):
        cycle[order[i]] = order[(i + 1) % n]
    swap = list(range(n))
    swap[order[0]], swap[order[1]] = order[1], order[0]
    gens = [cycle, swap]
    if full:
        collapse = list(range(n))
        collapse[order[2]] = order[3]
        gens.append(collapse)
    alphabet = "abc"[: len(gens)]
    accepting = set(rng.sample(range(n), rng.randrange(1, n)))
    return Dfa(alphabet, [tuple(g[q] for g in gens) for q in range(n)], 0, accepting)


def dfa_fields(result) -> dict:
    return {
        "minimal_state_count": result.minimal_state_count,
        "literally_idempotent": result.literally_idempotent,
        "partially_ordered": result.partially_ordered,
        "piecewise_testable": result.piecewise_testable,
        "verdict": result.verdict,
        "failure_reason": result.failure_reason,
    }


def green_fields(report) -> dict:
    return {
        "monoid_size": report.monoid_size,
        "r_trivial": report.r_trivial,
        "l_trivial": report.l_trivial,
        "j_trivial": report.j_trivial,
        "block_group": report.block_group,
        "letters_idempotent": report.letters_idempotent,
        "idempotent_count": report.idempotent_count,
    }


class Workload:
    name = ""
    #: (module or class, attribute, span name) wrapped in the traced run
    patches: tuple = ()

    def build(self, seed: int) -> list[dict]:
        raise NotImplementedError

    def answers(self, ops) -> None:
        """Attach the known answer to every op as op["answer"]."""
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, out):
        return None if out == op["answer"] else WRONG

    #: what items_per_s counts: words for verify and dense, operations elsewhere
    item_name = "operations"

    def items(self, op) -> int:
        return 1

    def items_per_round(self, ops) -> int:
        return sum(self.items(op) for op in ops)

    def fingerprint(self, ops) -> str:
        return digest(op["input"] for op in ops)


# ---------------------------------------------------------------------------
# decide: parse_dfa then diagnose


class Decide(Workload):
    """Members (pattern ideals and Boolean combinations of them) take most of
    the time through the PT check; random non-members take most operations
    and are decided by minimize and the literal-idempotency check."""

    name = "decide"
    # (xy)^j, 2j+1 states each; four per pass, so that the tail percentile
    # falls among them
    MEMBER_PATTERN_HALVES = (200, 200, 200, 200)
    COMBINATION_LENGTH = 24
    # product automata are redrawn until their size falls in this window, so
    # every seed gives members of about the same cost
    COMBINATION_STATES = (260, 300)
    # six random DFAs of 4,000 states (about 100 ms each) sit in the middle
    # of the latency order whatever the combinations cost, so that the median
    # falls among them for every seed
    RANDOM_SIZES = (1000, 2000) + (4000,) * 6 + (8000, 10000)
    ORDERED_SIZES = (1000, 2500, 6300, 10000)
    patches = (
        (automata, "parse_dfa", "automata.parse_dfa"),
        (decision, "diagnose", "decision.diagnose"),
        (decision, "minimize", "automata.minimize"),
        (decision, "is_literally_idempotent", "automata.is_literally_idempotent"),
        (decision, "is_partially_ordered", "automata.is_partially_ordered"),
        (decision, "is_piecewise_testable", "decision.is_piecewise_testable"),
    )

    def build(self, seed):
        rng = random.Random(f"decide:{seed}")
        ops = []
        for j in self.MEMBER_PATTERN_HALVES:
            x, y = rng.sample("abc", 2)
            pattern = SubsequencePattern((x, y) * j, "abc")
            ops.append({"kind": "pattern", "dfa": permuted(pattern_dfa(pattern), rng)})
        low, high = self.COMBINATION_STATES
        for mode in ("union", "intersection", "difference"):
            while True:
                first, second = (
                    pattern_dfa(SubsequencePattern(random_pattern(rng, self.COMBINATION_LENGTH, "abc"), "abc"))
                    for _ in range(2)
                )
                combined = product(first, second, mode)
                if low <= combined.state_count <= high:
                    break
            ops.append({"kind": "combination", "dfa": permuted(combined, rng)})
        for n in self.RANDOM_SIZES:
            ops.append({"kind": "random", "dfa": random_dfa(rng.randrange(2**31), n, "ab")})
        for n in self.ORDERED_SIZES:
            ops.append(
                {"kind": "ordered", "dfa": random_partially_ordered_dfa(rng.randrange(2**31), n, "abc")}
            )
        for op in ops:
            op["input"] = serialize_dfa(op["dfa"])
        return ops

    def answers(self, ops):
        for op in ops:
            answer = referee.dfa_answer(op["dfa"])
            agree(answer is not None, "no independent answer for a decide input")
            if op["kind"] == "pattern":
                # the shuffle ideal of (xy)^j: a 2j+1-state chain
                agree(answer["minimal_state_count"] == op["dfa"].state_count, "pattern DFA not minimal")
            if op["kind"] in ("pattern", "combination"):
                agree(answer["verdict"], "a Boolean combination of pattern ideals must be a member")
            if op["kind"] == "ordered":
                agree(answer["partially_ordered"], "a partially ordered DFA must stay partially ordered")
            op["answer"] = answer
            del op["dfa"]

    def execute(self, op):
        return dfa_fields(decision.diagnose(automata.parse_dfa(op["input"])))


# ---------------------------------------------------------------------------
# monoid: parse_dfa, minimize, green_report


class Monoid(Workload):
    """The only workload where `algebra` does most of the work: closure and
    the three SCC passes over monoids of 10^2 to 4*10^4 elements."""

    name = "monoid"
    # (states, full transformation monoid?) per operation; S_8 has 40,320
    # elements, S_7 5,040, T_5 3,125, S_6 720.  S_7 appears four times per
    # pass, so that the tail percentile falls among its samples, and S_6 six
    # times, so that the median does.
    GROUPS = (
        ((8, False),) + ((7, False),) * 4 + ((5, True),) * 2 + ((6, False),) * 6
        + ((4, True),) * 2 + ((5, False),)
    )
    # pattern shapes with 32 to 400 monoid elements; the seed relabels the
    # letters, which leaves the monoid unchanged up to isomorphism
    PATTERNS = ("abcabca", "abacbcab", "abcacbabc", "abcdabcd", "abcdbadc")
    patches = (
        (automata, "parse_dfa", "automata.parse_dfa"),
        (automata, "minimize", "automata.minimize"),
        (algebra, "green_report", "algebra.green_report"),
        (algebra, "transition_monoid", "algebra.transition_monoid"),
        (algebra, "is_r_trivial", "algebra.is_r_trivial"),
        (algebra, "is_l_trivial", "algebra.is_l_trivial"),
        (algebra, "is_j_trivial", "algebra.is_j_trivial"),
        (algebra, "is_block_group", "algebra.is_block_group"),
    )

    def build(self, seed):
        rng = random.Random(f"monoid:{seed}")
        ops = []
        for n, full in self.GROUPS:
            ops.append({"kind": ("T", n) if full else ("S", n), "dfa": permutation_dfa(rng, n, full)})
        for shape in self.PATTERNS:
            alphabet = sorted(set(shape))
            relabel = dict(zip(alphabet, rng.sample(alphabet, len(alphabet))))
            pattern = SubsequencePattern([relabel[c] for c in shape], alphabet)
            ops.append({"kind": ("pattern", shape), "dfa": permuted(pattern_dfa(pattern), rng)})
        for op in ops:
            op["input"] = serialize_dfa(op["dfa"])
        return ops

    def answers(self, ops):
        for op in ops:
            kind = op["kind"]
            if kind[0] == "pattern":
                op["answer"] = referee.pattern_monoid_report(op["dfa"])
            else:
                op["answer"] = referee.group_report(kind[1], kind[0] == "T")
            del op["dfa"]

    def execute(self, op):
        return green_fields(algebra.green_report(automata.minimize(automata.parse_dfa(op["input"]))))


# ---------------------------------------------------------------------------
# verify: exhaustive check of the pattern acceptor


class Verify(Workload):
    """The structured, low-dimension acceptor with prefix-shared states."""

    name = "verify"
    # (pattern length, alphabet size, maximum word length); 1,093 to 2,047
    # words per operation
    SHAPES = tuple(
        (k, size, {2: 10, 3: 6, 4: 5}[size]) for k in range(1, 6) for size in (2, 3, 4)
    ) + ((2, 2, 10), (3, 2, 10), (4, 3, 6), (5, 4, 5))
    patches = (
        (decision, "verify_construction", "decision.verify_construction"),
        (decision, "measure", "quantum.measure"),
        (quantum.DensityMatrix, "__init__", "quantum.density_matrix"),
        (SubsequencePattern, "matches", "patterns.matches"),
    )

    def build(self, seed):
        rng = random.Random(f"verify:{seed}")
        ops = []
        for k, size, max_len in self.SHAPES:
            alphabet = "".join(rng.sample("abcd", size))
            # on three or four letters one letter stays outside the pattern
            letters = alphabet if size == 2 else alphabet[: size - 1]
            pattern = SubsequencePattern(random_pattern(rng, k, letters), alphabet)
            ops.append({"pattern": pattern, "max_len": max_len, "input": (pattern.letters, alphabet, max_len)})
        return ops

    def answers(self, ops):
        for op in ops:
            pattern = op["pattern"]
            lam, words, margin = exact_verification(pattern.letters, pattern.alphabet, op["max_len"])
            op["answer"] = {
                "cutpoint": float(lam),
                "isolation": float(lam / 2),
                "words_checked": words,
                "misclassified": (),
                "isolation_violations": (),
                "min_margin": float(margin),
            }

    def execute(self, op):
        report = decision.verify_construction(op["pattern"], op["max_len"])
        return {
            "cutpoint": report.cutpoint,
            "isolation": report.isolation,
            "words_checked": report.words_checked,
            "misclassified": report.misclassified,
            "isolation_violations": report.isolation_violations,
            "min_margin": report.min_margin,
        }

    item_name = "words"

    def items(self, op):
        return op["answer"]["words_checked"]


def exact_verification(letters, alphabet, max_len):
    """(cut point, word count, minimum margin) of the pattern acceptor over
    every word up to max_len, from the exact oracle; every word must be
    classified correctly, which is the paper's theorem."""
    lam = Fraction(1, 2 ** (2 * len(letters) + 1))
    words = 0
    margin = None
    frontier = [()]
    for _ in range(max_len + 1):
        for w in frontier:
            p = oracles.exact_pattern_probability(letters, w)
            agree((p > lam) == oracles.is_subsequence(letters, w), "the exact acceptor misclassifies a word")
            margin = abs(p - lam) if margin is None else min(margin, abs(p - lam))
            words += 1
        frontier = [w + (s,) for w in frontier for s in alphabet]
    return lam, words, margin


# ---------------------------------------------------------------------------
# dense: conjugated pattern acceptors, general density-matrix path


def conjugated_automaton(pattern: SubsequencePattern, rng: np.random.Generator):
    """The pattern acceptor in a seeded random basis: initial psi U^dagger and
    every projector U P U^dagger, so every probability is unchanged."""
    auto = pattern_automaton(pattern)
    d = auto.dimension
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, _ = np.linalg.qr(z)
    uh = u.conj().T

    def turn(obs: Observable) -> Observable:
        return Observable(d, [(label, u @ p @ uh) for label, p in obs.outcomes])

    return MeasureOnlyAutomaton(
        auto.alphabet,
        auto.initial @ uh,
        {sym: turn(obs) for sym, obs in auto.observables.items()},
        turn(auto.end_observable),
        auto.accepting,
    )


def member_word(rng: random.Random, letters, alphabet, length: int) -> tuple[str, ...]:
    """Random word with the pattern embedded at random positions."""
    length = max(length, len(letters))
    slots = sorted(rng.sample(range(length), len(letters)))
    word = [rng.choice(alphabet) for _ in range(length)]
    for slot, letter in zip(slots, letters):
        word[slot] = letter
    return tuple(word)


def non_member_word(rng: random.Random, letters, alphabet, length: int) -> tuple[str, ...]:
    """Random word that matches all but the last pattern letter: once the
    first k-1 letters are matched, the k-th never occurs again."""
    word = []
    matched = 0
    last = letters[-1]
    for _ in range(max(length, len(letters))):
        sym = rng.choice(alphabet)
        if matched == len(letters) - 1 and sym == last:
            sym = rng.choice([s for s in alphabet if s != last])
        if matched < len(letters) - 1 and sym == letters[matched]:
            matched += 1
        word.append(sym)
    return tuple(word)


class Dense(Workload):
    """Dense matrices on the general path.  At k >= 27 the cut point
    2^-(2k+1) is below the rounding error of a trace-one float state, so some
    verdicts flip although every probability is right to ~1e-16: those
    operations are counted as KNOWN_DEFECT and reported apart from failed
    ones.  The affected dimensions stay in the operation list."""

    name = "dense"
    DIMENSIONS = (3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 21, 23, 25, 27, 28, 29, 30, 31, 32, 33)
    # word lengths of every operation (16 to 256, geometric), in seeded order
    LENGTHS = (16, 24, 36, 54, 81, 122, 182, 256)
    patches = (
        (quantum, "parse_automaton", "quantum.parse_automaton"),
        (quantum, "validate_observable", "quantum.validate_observable"),
        (quantum, "recognizes_with_cutpoint", "quantum.recognizes_with_cutpoint"),
        (quantum, "acceptance_probability", "quantum.acceptance_probability"),
        (quantum, "measure", "quantum.measure"),
        (quantum.DensityMatrix, "__init__", "quantum.density_matrix"),
    )

    def build(self, seed):
        rng = random.Random(f"dense:{seed}")
        np_rng = np.random.default_rng(rng.randrange(2**63))
        ops = []
        for i, d in enumerate(self.DIMENSIONS):
            k = d - 1
            alphabet = "".join(rng.sample("abcd", 2 + i % 3))
            letters = random_pattern(rng, k, alphabet)
            pattern = SubsequencePattern(letters, alphabet)
            words = []
            for i, length in enumerate(rng.sample(self.LENGTHS, len(self.LENGTHS))):
                make = member_word if i % 2 == 0 else non_member_word
                words.append(make(rng, letters, alphabet, length))
            text = format_automaton(conjugated_automaton(pattern, np_rng))
            ops.append({"k": k, "letters": letters, "words": words, "input": (text, words)})
        return ops

    def answers(self, ops):
        for op in ops:
            member = {w: oracles.is_subsequence(op["letters"], w) for w in op["words"]}
            op["member"] = member
            op["answer"] = [oracles.exact_pattern_probability(op["letters"], w) for w in op["words"]]

    def execute(self, op):
        text, words = op["input"]
        auto = quantum.parse_automaton(text)
        problems = []
        for obs in list(auto.observables.values()) + [auto.end_observable]:
            problems += quantum.validate_observable(obs)
        if problems:
            raise ValueError("; ".join(problems))
        lam, delta = cutpoint(op["k"])
        return quantum.recognizes_with_cutpoint(auto, lam, delta, op["member"].__getitem__, words)

    def check(self, op, out):
        if isinstance(out, Exception) or len(out.checks) != len(op["words"]):
            return WRONG
        flipped = False
        for check, word, exact in zip(out.checks, op["words"], op["answer"]):
            member = op["member"][word]
            if abs(check.probability - float(exact)) > PROBABILITY_TOLERANCE or check.word != word:
                return WRONG
            flipped |= check.member != member or check.accepted != member or not check.isolated
        # Every probability is within the tolerance of the exact value, so a
        # flipped verdict means the isolation radius 2^-(2k+2) is below that
        # tolerance: the float cut-point defect, not a wrong number.
        if flipped:
            return KNOWN_DEFECT
        return None if out.ok else WRONG

    item_name = "words"

    def items(self, op):
        return len(op["words"])


# ---------------------------------------------------------------------------
# cli: one `python -m moqfa` process at a time


class Cli(Workload):
    """Interpreter start plus `import moqfa` make up most of each call; the
    only workload where import-time work shows."""

    name = "cli"
    patches = ()

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def build(self, seed):
        rng = random.Random(f"cli:{seed}")
        ops = []

        def dfa_op(command, dfa, extra=(), kind=""):
            ops.append({"command": command, "kind": kind, "dfa": dfa, "extra": list(extra),
                        "files": {f"in{len(ops)}.dfa": serialize_dfa(dfa)}})

        def pattern_args(k, size):
            alphabet = "".join(rng.sample("abcd", size))
            letters = random_pattern(rng, k, alphabet)
            return letters, alphabet

        x, y = rng.sample("abc", 2)
        dfa_op("check", permuted(pattern_dfa(SubsequencePattern((x, y) * rng.randrange(5, 21), "abc")), rng), kind="member")
        dfa_op("check", random_partially_ordered_dfa(rng.randrange(2**31), 50, "abc"))
        dfa_op("check", random_dfa(rng.randrange(2**31), rng.randrange(20, 51), "ab"))
        dfa_op("monoid", permutation_dfa(rng, 4, True), kind=("T", 4))
        letters, alphabet = pattern_args(4, 3)
        dfa_op("monoid", permuted(pattern_dfa(SubsequencePattern(letters, alphabet)), rng), kind=("pattern",))
        letters, alphabet = pattern_args(4, 3)
        dfa_op("variation", permuted(pattern_dfa(SubsequencePattern(letters, alphabet)), rng),
               kind=("sup", len(letters)))
        word = "".join(rng.choice("ab") for _ in range(30))
        dfa_op("variation", random_dfa(rng.randrange(2**31), 40, "ab"), ["--word", word], kind=("word", word))
        for from_file in (False, True):
            letters, alphabet = pattern_args(rng.randrange(1, 5), rng.randrange(2, 5))
            word = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 11)))
            op = {"command": "prob", "letters": letters, "word": word, "files": {}}
            if from_file:
                name = f"in{len(ops)}.qfa"
                op["files"][name] = format_automaton(pattern_automaton(SubsequencePattern(letters, alphabet)))
                op["args"] = ["--qfa", name, "--word", word]
            else:
                op["args"] = ["--letters", *letters, "--alphabet", alphabet, "--word", word]
            ops.append(op)
        for k in (1, 4):
            letters, alphabet = pattern_args(k, rng.randrange(2, 5))
            ops.append({"command": "synth", "letters": letters, "files": {},
                        "args": ["--letters", *letters, "--alphabet", alphabet]})
        for k, size, max_len in ((3, 3, 6), (4, 2, 11)):
            letters, alphabet = pattern_args(k, size)
            ops.append({"command": "verify", "letters": letters, "alphabet": alphabet, "max_len": max_len,
                        "files": {}, "args": ["--letters", *letters, "--alphabet", alphabet, "--maxlen", str(max_len)]})
        for op in ops:
            if "dfa" in op:
                op["args"] = [next(iter(op["files"]))] + op["extra"]
            op["argv"] = [sys.executable, "-m", "moqfa", op["command"], *op["args"]]
            op["input"] = (op["argv"][2:], sorted(op["files"].items()))
        return ops

    def write_files(self, ops):
        for op in ops:
            for name, text in op["files"].items():
                (self.workdir / name).write_text(text, encoding="utf-8")

    def answers(self, ops):
        for op in ops:
            op["answer"] = getattr(self, "_answer_" + op["command"])(op)
            op.pop("dfa", None)

    def _answer_check(self, op):
        answer = referee.dfa_answer(op["dfa"])
        agree(answer is not None, "no independent answer for a check input")
        agree(
            referee.minimal_count_by_table_filling(op["dfa"]) == answer["minimal_state_count"],
            "table filling and Moore's refinement disagree",
        )
        if op["kind"] == "member":
            agree(answer["verdict"], "a pattern ideal must be a member")
        lines = [
            f"minimal_states: {answer['minimal_state_count']}",
            f"literally_idempotent: {flag(answer['literally_idempotent'])}",
            f"partially_ordered: {flag(answer['partially_ordered'])}",
            f"piecewise_testable: {flag(answer['piecewise_testable'])}",
            "verdict: MEMBER" if answer["verdict"] else f"verdict: NON-MEMBER ({answer['failure_reason']})",
        ]
        return 0 if answer["verdict"] else 3, lines

    def _answer_monoid(self, op):
        kind = op["kind"]
        if kind[0] == "pattern":
            report = referee.pattern_monoid_report(op["dfa"])
        else:
            report = referee.group_report(kind[1], kind[0] == "T")
        return 0, [
            f"size: {report['monoid_size']}",
            f"r_trivial: {flag(report['r_trivial'])}",
            f"l_trivial: {flag(report['l_trivial'])}",
            f"j_trivial: {flag(report['j_trivial'])}",
            f"block_group: {flag(report['block_group'])}",
            f"letters_idempotent: {flag(report['letters_idempotent'])}",
            f"idempotent_count: {report['idempotent_count']}",
        ]

    def _answer_variation(self, op):
        what, value = op["kind"]
        if what == "word":
            return 0, [f"variation: {referee.variation_answer(op['dfa'], value)}"]
        # a pattern DFA is a chain of k+1 states: at most k state changes
        return 0, [f"sup: {value}"]

    def _answer_prob(self, op):
        return 0, [fmt(oracles.exact_pattern_probability(op["letters"], op["word"]))]

    def _answer_synth(self, op):
        k = len(op["letters"])
        lam, delta = cutpoint(k)
        return 0, [f"dim: {k + 1}", f"lambda: {fmt(lam)}", f"delta: {fmt(delta)}"]

    def _answer_verify(self, op):
        lam, words, margin = exact_verification(op["letters"], op["alphabet"], op["max_len"])
        return 0, [
            f"lambda: {fmt(lam)}",
            f"delta: {fmt(lam / 2)}",
            f"max_len: {op['max_len']}",
            f"words_checked: {words}",
            f"min_margin: {fmt(margin)}",
            "misclassified:",
            "isolation_violations:",
            "verdict: PASS",
        ]

    def execute(self, op):
        done = subprocess.run(op["argv"], cwd=self.workdir, env=self.env, capture_output=True, timeout=60)
        return done.returncode, done.stdout

    def check(self, op, out):
        if isinstance(out, Exception):
            return WRONG
        code, lines = op["answer"]
        expected = ("\n".join(lines) + "\n").encode("utf-8")
        return None if out == (code, expected) else WRONG


def make(name: str, root: Path, workdir: Path) -> Workload:
    if name == "cli":
        return Cli(root, workdir)
    return {"decide": Decide, "monoid": Monoid, "verify": Verify, "dense": Dense}[name]()
