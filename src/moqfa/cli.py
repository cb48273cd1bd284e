"""Command-line front end.

Exit codes: 0 for a passing/member verdict, 3 for a negative verdict, 1 for
usage or parse errors, 2 when a resource budget is exceeded.  All numeric
output uses fixed 12-decimal formatting and reports are byte-stable across
runs for identical inputs.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .algebra import green_report
from .automata import minimize, parse_dfa, sup_variation, variation
from .decision import diagnose, verify_construction
from .errors import ResourceLimitError
from .patterns import SubsequencePattern
from .quantum import (
    acceptance_probability,
    cutpoint_params,
    format_automaton,
    parse_automaton,
    pattern_automaton,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_NEGATIVE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def _fmt(value: float) -> str:
    return f"{value:.12f}"


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _symbols(text: str, what: str) -> tuple[str, ...]:
    for ch in text:
        if ch.isspace() or not ch.isprintable():
            raise ValueError(f"{what} may only contain printable characters")
    return tuple(text)


def _pattern_from_args(args) -> SubsequencePattern:
    letters = []
    for token in args.letters:
        if len(token) != 1:
            raise ValueError(f"pattern letters must be single characters, got {token!r}")
        letters.append(token)
    return SubsequencePattern(letters, _symbols(args.alphabet, "the alphabet"))


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _quoted_words(words) -> str:
    return " ".join('"' + "".join(w) + '"' for w in words)


def _cmd_synth(args) -> int:
    pattern = _pattern_from_args(args)
    auto = pattern_automaton(pattern)
    cutpoint, isolation = cutpoint_params(pattern)
    print(f"dim: {auto.dimension}")
    print(f"lambda: {_fmt(cutpoint)}")
    print(f"delta: {_fmt(isolation)}")
    if args.emit:
        Path(args.emit).write_text(format_automaton(auto), encoding="utf-8")
    return EXIT_OK


def _cmd_prob(args) -> int:
    if args.qfa is not None:
        if args.letters is not None or args.alphabet is not None:
            raise _UsageError("give either --qfa or --letters/--alphabet, not both")
        auto = parse_automaton(_read(args.qfa))
    else:
        if args.letters is None or args.alphabet is None:
            raise _UsageError("need --letters and --alphabet (or --qfa)")
        auto = pattern_automaton(_pattern_from_args(args))
    word = tuple(args.word)
    print(_fmt(acceptance_probability(auto, word)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    pattern = _pattern_from_args(args)
    report = verify_construction(pattern, args.maxlen, max_words=args.budget)
    print(f"lambda: {_fmt(report.cutpoint)}")
    print(f"delta: {_fmt(report.isolation)}")
    print(f"max_len: {report.max_len}")
    print(f"words_checked: {report.words_checked}")
    print(f"min_margin: {_fmt(report.min_margin)}")
    print(("misclassified: " + _quoted_words(report.misclassified)).rstrip())
    print(("isolation_violations: " + _quoted_words(report.isolation_violations)).rstrip())
    print(f"verdict: {'PASS' if report.ok else 'FAIL'}")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_check(args) -> int:
    result = diagnose(parse_dfa(_read(args.dfa)))
    print(f"minimal_states: {result.minimal_state_count}")
    print(f"literally_idempotent: {_fmt_bool(result.literally_idempotent)}")
    print(f"partially_ordered: {_fmt_bool(result.partially_ordered)}")
    print(f"piecewise_testable: {_fmt_bool(result.piecewise_testable)}")
    if result.verdict:
        print("verdict: MEMBER")
        return EXIT_OK
    print(f"verdict: NON-MEMBER ({result.failure_reason})")
    return EXIT_NEGATIVE


def _cmd_monoid(args) -> int:
    report = green_report(minimize(parse_dfa(_read(args.dfa))))
    print(f"size: {report.monoid_size}")
    print(f"r_trivial: {_fmt_bool(report.r_trivial)}")
    print(f"l_trivial: {_fmt_bool(report.l_trivial)}")
    print(f"j_trivial: {_fmt_bool(report.j_trivial)}")
    print(f"block_group: {_fmt_bool(report.block_group)}")
    print(f"letters_idempotent: {_fmt_bool(report.letters_idempotent)}")
    print(f"idempotent_count: {report.idempotent_count}")
    return EXIT_OK


def _cmd_variation(args) -> int:
    minimal = minimize(parse_dfa(_read(args.dfa)))
    if args.word is not None:
        print(f"variation: {variation(minimal, tuple(args.word))}")
    else:
        bound = sup_variation(minimal)
        print(f"sup: {'INFINITE' if bound == math.inf else bound}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="moqfa",
        description=(
            "Simulate measurement-only quantum word acceptors, synthesize "
            "acceptors for subsequence patterns, and decide whether a regular "
            "language is recognizable by that machine class."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="build the acceptor for a pattern")
    synth.add_argument("--letters", nargs="*", required=True, metavar="LETTER")
    synth.add_argument("--alphabet", required=True)
    synth.add_argument("--emit", metavar="PATH", help="write the acceptor in text form")
    synth.set_defaults(func=_cmd_synth)

    prob = sub.add_parser("prob", help="acceptance probability of a word")
    prob.add_argument("--letters", nargs="*", metavar="LETTER")
    prob.add_argument("--alphabet")
    prob.add_argument("--qfa", metavar="PATH", help="read the acceptor from a file")
    prob.add_argument("--word", required=True)
    prob.set_defaults(func=_cmd_prob)

    verify = sub.add_parser(
        "verify", help="exhaustively check a pattern acceptor's cut point"
    )
    verify.add_argument("--letters", nargs="*", required=True, metavar="LETTER")
    verify.add_argument("--alphabet", required=True)
    verify.add_argument("--maxlen", type=int, required=True)
    verify.add_argument("--budget", type=int, default=2_000_000)
    verify.set_defaults(func=_cmd_verify)

    check = sub.add_parser("check", help="membership pipeline on a DFA file")
    check.add_argument("dfa")
    check.set_defaults(func=_cmd_check)

    monoid = sub.add_parser("monoid", help="syntactic-monoid diagnostics for a DFA file")
    monoid.add_argument("dfa")
    monoid.set_defaults(func=_cmd_monoid)

    var = sub.add_parser("variation", help="variation analysis for a DFA file")
    var.add_argument("dfa")
    var.add_argument("--word")
    var.set_defaults(func=_cmd_variation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
