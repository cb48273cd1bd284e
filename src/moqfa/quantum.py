"""Density-matrix simulation of measurement-only word acceptors.

A word acceptor here carries one observable per alphabet symbol plus an
end-word observable.  Reading a word applies, letter by letter, the
nonselective measurement channel rho -> sum_i P_i rho P_i of that letter's
observable; the acceptance probability is then the probability mass the final
state assigns to the accepting outcomes of the end-word observable.

The module also builds the canonical acceptor for a subsequence pattern:
dimension k+1 tracking subsequence progress, an up/down projector pair for
every pattern letter, the identity observable for all other letters, and an
end-word observable that accepts on the last coordinate.  That acceptor
separates members from non-members of the pattern's shuffle ideal around the
cut point 2^-(2k+1) with isolation radius 2^-(2k+2).

numpy is bound lazily: importing this module executes none of numpy's code
(unless numpy is already loaded), and numpy's `__init__` runs on the first
array operation, so callers that never build a matrix never pay for it.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import sys
import threading
import types
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import FormatError, _check_alphabet, _TokenLines
from .patterns import SubsequencePattern


class _UnexecutedModule(types.ModuleType):
    """A module in `sys.modules` whose code runs on its first attribute
    access, which then makes it a plain module.  The lock makes other
    threads wait for the finished module, while the loading thread, running
    the module's own code, reads it as it is built.  (The standard
    `importlib.util.LazyLoader` of Python 3.11 and 3.12.1 lets a second
    thread read it half-built.)"""

    _lock = threading.RLock()
    _executing = False

    def __getattribute__(self, name):
        cls = _UnexecutedModule
        with cls._lock:
            if type(self) is cls and not cls._executing:
                cls._executing = True
                try:
                    types.ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    cls._executing = False
        return types.ModuleType.__getattribute__(self, name)


def _lazy_numpy():
    """numpy itself when `sys.modules` holds it, otherwise an unexecuted
    numpy registered there.  Every use of `np` below sits in a function body
    or a string annotation, so importing this module runs no numpy code."""
    if "numpy" in sys.modules:  # loaded, or blocked by None: import reports that
        import numpy

        return numpy
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _UnexecutedModule
    sys.modules["numpy"] = module
    return module


np = _lazy_numpy()

EPS = 1e-9

Word = Sequence[str]


def _frozen_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=np.complex128)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Observable:
    """A finite family of labelled projectors that sum to the identity.

    The constructor normalises its inputs and refuses, with one ValueError
    listing every violation found by `validate_observable`, any family that
    breaks the projector-family laws (Hermitian, idempotent, pairwise
    orthogonal, complete) or whose labels cannot be written to the text
    format, so every observable that exists is valid.
    """

    dimension: int
    outcomes: tuple[tuple[str, np.ndarray], ...]

    def __init__(self, dimension: int, outcomes: Iterable[tuple[str, object]]):
        if dimension < 1:
            raise ValueError("observable dimension must be positive")
        normalised = tuple((label, _frozen_matrix(entries)) for label, entries in outcomes)
        if not normalised:
            raise ValueError("an observable needs at least one outcome")
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "outcomes", normalised)
        problems = validate_observable(self)
        if problems:
            raise ValueError("; ".join(problems))

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)


def identity_observable(dimension: int) -> Observable:
    return Observable(dimension, (("pass", np.eye(dimension)),))


def validate_observable(obs: Observable) -> list[str]:
    """Check the projector-family laws; return human-readable violations.

    Structural problems (labels that are not a non-empty string without
    whitespace, duplicate labels, wrong shapes, non-finite entries) are
    prefixed "structural:"; numeric law violations at tolerance `EPS` are
    prefixed "numeric:".  `Observable` runs this check when it is built, so
    the list is empty for every observable that exists.
    """
    report: list[str] = []
    d = obs.dimension
    labels = obs.labels()
    for label in labels:
        # one token of the text format: what str.split() keeps whole
        if not isinstance(label, str) or label.split() != [label]:
            report.append(
                f"structural: outcome label {label!r} is not a non-empty string without whitespace"
            )
    names = [label for label in labels if isinstance(label, str)]
    if len(set(names)) != len(names):
        seen = sorted({l for l in names if names.count(l) > 1})
        report.append(f"structural: duplicate outcome labels {seen}")
    usable = []
    for label, p in obs.outcomes:
        if p.ndim != 2 or p.shape != (d, d):
            report.append(
                f"structural: projector {label!r} has shape {p.shape}, expected ({d}, {d})"
            )
            continue
        if not np.all(np.isfinite(p)):
            report.append(f"structural: projector {label!r} has non-finite entries")
            continue
        usable.append((label, p))
    for label, p in usable:
        if np.max(np.abs(p - p.conj().T)) > EPS:
            report.append(f"numeric: projector {label!r} is not Hermitian")
        if np.max(np.abs(p @ p - p)) > EPS:
            report.append(f"numeric: projector {label!r} is not idempotent")
    for i, (label_i, p_i) in enumerate(usable):
        for label_j, p_j in usable[i + 1 :]:
            if np.max(np.abs(p_i @ p_j)) > EPS:
                report.append(
                    f"numeric: projectors {label_i!r} and {label_j!r} are not orthogonal"
                )
    if usable and len(usable) == len(obs.outcomes):
        total = sum(p for _, p in usable)
        if np.max(np.abs(total - np.eye(d))) > EPS:
            report.append("numeric: projectors do not sum to the identity")
    return report


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one state matrix."""

    matrix: np.ndarray

    def __init__(self, matrix):
        m = _frozen_matrix(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix has non-finite entries")
        if np.max(np.abs(m - m.conj().T)) > EPS:
            raise ValueError("density matrix is not Hermitian")
        trace = m.trace()
        if abs(trace - 1.0) > EPS:
            raise ValueError(f"density matrix trace is {trace:.12g}, not 1")
        if np.linalg.eigvalsh(m).min() < -EPS:
            raise ValueError("density matrix is not positive semidefinite")
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, amplitudes) -> "DensityMatrix":
        """State of a unit row vector v: the outer product with entries conj(v_i) v_j."""
        v = np.asarray(amplitudes, dtype=np.complex128)
        if v.ndim != 1:
            raise ValueError(f"amplitudes must be one-dimensional, got shape {v.shape}")
        return cls(np.outer(v.conj(), v))


def _stack(obs: Observable) -> np.ndarray:
    """The observable's projectors as one (r, d, d) array."""
    return np.array([p for _, p in obs.outcomes])


def _channel(stack: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_i P_i rho P_i as one batched product; each slice is the same BLAS
    product as `p @ rho @ p`, and the sum over the first axis adds the slices
    in order, so the result equals the one-projector-at-a-time sum."""
    return (stack @ rho @ stack).sum(0)


def measure(rho: DensityMatrix, obs: Observable) -> DensityMatrix:
    """Nonselective measurement channel: rho -> sum_i P_i rho P_i.

    The outcome is discarded, so the channel preserves the trace and is
    idempotent for any valid observable.
    """
    if obs.dimension != rho.dimension:
        raise ValueError(
            f"dimension mismatch: state is {rho.dimension}, observable is {obs.dimension}"
        )
    return DensityMatrix(_channel(_stack(obs), rho.matrix))


@dataclass(frozen=True)
class MeasureOnlyAutomaton:
    """Word acceptor driven purely by projective measurements.

    Fields: an ordered alphabet, a unit initial row vector, one observable per
    alphabet symbol, the end-word observable, and the set of its outcome
    labels that count as accepting.  Observables check their own laws when
    they are built, so evaluation trusts them.
    """

    alphabet: tuple[str, ...]
    initial: np.ndarray
    observables: dict[str, Observable]
    end_observable: Observable
    accepting: frozenset[str]

    def __init__(self, alphabet, initial, observables, end_observable, accepting):
        alphabet = _check_alphabet(alphabet)
        init = _frozen_matrix(initial)
        if init.ndim != 1:
            raise ValueError(f"initial vector must be one-dimensional, got shape {init.shape}")
        norm = math.sqrt(float(np.sum(np.abs(init) ** 2)))
        if not abs(norm - 1.0) <= EPS:  # also refuses NaN
            raise ValueError(f"initial vector norm is {norm:.12g}, not 1")
        observables = dict(observables)
        if set(observables) != set(alphabet):
            raise ValueError("need exactly one observable per alphabet symbol")
        dimension = init.shape[0]
        for sym, obs in observables.items():
            if obs.dimension != dimension:
                raise ValueError(f"observable for {sym!r} has the wrong dimension")
        if end_observable.dimension != dimension:
            raise ValueError("end-word observable has the wrong dimension")
        accepting = frozenset(accepting)
        unknown = accepting - set(end_observable.labels())
        if unknown:
            raise ValueError(
                f"accepting labels {sorted(unknown)} are not outcomes of the end-word observable"
            )
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "observables", observables)
        object.__setattr__(self, "end_observable", end_observable)
        object.__setattr__(self, "accepting", accepting)

    @property
    def dimension(self) -> int:
        return self.initial.shape[0]

    def accepting_projector(self) -> np.ndarray:
        """Sum of the projectors of the accepting end-word outcomes."""
        total = np.zeros((self.dimension, self.dimension), dtype=np.complex128)
        for label, p in self.end_observable.outcomes:
            if label in self.accepting:
                total += p
        return total


def acceptance_probability(auto: MeasureOnlyAutomaton, word: Word) -> float:
    """Probability that the acceptor accepts `word`, clamped to [0, 1]."""
    return next(acceptance_probabilities(auto, (word,)))


def acceptance_probabilities(auto: MeasureOnlyAutomaton, words: Iterable[Word]) -> Iterator[float]:
    """Acceptance probability of each word in turn, clamped to [0, 1], on raw
    arrays.  Each word starts from the state of the prefix it shares with the
    previous word, so a word list in length-lexicographic order costs a few
    channels per word.  An unknown symbol raises ValueError when reached.
    """
    channels = {sym: _stack(obs) for sym, obs in auto.observables.items()}
    accepting = auto.accepting_projector()
    # states[i] is the state after the first i letters of `previous`
    previous, states = (), [np.outer(auto.initial.conj(), auto.initial)]
    for word in map(tuple, words):
        shared, limit = 0, min(len(word), len(previous))
        while shared < limit and word[shared] == previous[shared]:
            shared += 1
        del states[shared + 1 :]
        for sym in word[shared:]:
            stack = channels.get(sym)
            if stack is None:
                raise ValueError(f"symbol {sym!r} is not in the alphabet")
            states.append(_channel(stack, states[-1]))
        previous = word
        yield min(1.0, max(0.0, float(np.trace(accepting @ states[-1]).real)))


# ---------------------------------------------------------------------------
# the pattern acceptor


def up_projector(pattern: SubsequencePattern, letter: str) -> np.ndarray:
    """(k+1)x(k+1) "advance" projector of a pattern letter.

    With j ranging over the 1-based positions of `letter` in the pattern, the
    entry at (r, s) is 1/2 whenever both r and s lie in a block {j, j+1}, 1 on
    the diagonal outside every block, and 0 elsewhere.  Blocks of one letter
    never overlap because adjacent pattern letters differ.
    """
    k = len(pattern.letters)
    d = k + 1
    p = np.zeros((d, d), dtype=np.complex128)
    covered = set()
    for j in pattern.occurrence_positions(letter):
        p[j - 1 : j + 1, j - 1 : j + 1] = 0.5
        covered.update((j, j + 1))
    for r in range(1, d + 1):
        if r not in covered:
            p[r - 1, r - 1] = 1.0
    p.setflags(write=False)
    return p


def down_projector(pattern: SubsequencePattern, letter: str) -> np.ndarray:
    """Orthogonal complement of `up_projector`: +1/2 on each block diagonal,
    -1/2 on the block off-diagonals, 0 everywhere else."""
    p = np.eye(len(pattern.letters) + 1) - up_projector(pattern, letter)
    p.setflags(write=False)
    return p


def pattern_automaton(pattern: SubsequencePattern) -> MeasureOnlyAutomaton:
    """Measurement-only acceptor for the pattern's shuffle ideal.

    Dimension k+1; the initial state is the first basis vector; every pattern
    letter carries its up/down projector pair, other letters the identity
    observable; the end-word observable accepts exactly on the last basis
    state.  The empty pattern yields the 1-dimensional acceptor with constant
    acceptance probability 1.
    """
    k = len(pattern.letters)
    d = k + 1
    in_pattern = set(pattern.letters)
    observables = {}
    for sym in pattern.alphabet:
        if sym in in_pattern:
            observables[sym] = Observable(
                d,
                (
                    ("up", up_projector(pattern, sym)),
                    ("down", down_projector(pattern, sym)),
                ),
            )
        else:
            observables[sym] = identity_observable(d)
    final = np.zeros((d, d), dtype=np.complex128)
    final[d - 1, d - 1] = 1.0
    end = Observable(d, (("accept", final), ("reject", np.eye(d) - final)))
    initial = np.zeros(d, dtype=np.complex128)
    initial[0] = 1.0
    return MeasureOnlyAutomaton(
        pattern.alphabet, initial, observables, end, frozenset({"accept"})
    )


def cutpoint_params(pattern: SubsequencePattern) -> tuple[float, float]:
    """Cut point and isolation radius of the pattern acceptor.

    Returns (2^-(2k+1), 2^-(2k+2)) for a pattern of length k, both exact
    binary floating-point values.  From k = 537 the radius underflows to 0,
    which would make every isolation check vacuous, so that raises ValueError.
    """
    k = len(pattern.letters)
    radius = math.ldexp(1.0, -(2 * k + 2))
    if not radius > 0:
        raise ValueError(f"isolation radius 2^-{2 * k + 2} of a {k}-letter pattern underflows")
    return 2 * radius, radius


@dataclass(frozen=True)
class WordCheck:
    word: tuple[str, ...]
    probability: float
    member: bool
    accepted: bool
    isolated: bool


@dataclass(frozen=True)
class CutpointReport:
    cutpoint: float
    isolation: float
    checks: tuple[WordCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.accepted == c.member and c.isolated for c in self.checks)


def recognizes_with_cutpoint(
    auto: MeasureOnlyAutomaton,
    cutpoint: float,
    isolation: float,
    member: Callable[[tuple[str, ...]], bool],
    words: Iterable[Word],
) -> CutpointReport:
    """Check cut-point recognition over a finite word set.

    A word passes when acceptance (probability strictly above `cutpoint`)
    agrees with `member` and the probability stays at distance at least
    `isolation` - EPS from the cut point.  The report passes iff every word
    does; an empty word set passes vacuously.  A NaN cut point or radius
    would make every comparison false, so both raise ValueError.
    """
    if not isolation > 0:
        raise ValueError("isolation radius must be positive")
    if math.isnan(cutpoint):
        raise ValueError("cut point must not be NaN")
    words, evaluated = itertools.tee(map(tuple, words))
    checks = tuple(
        WordCheck(word, p, bool(member(word)), p > cutpoint, abs(p - cutpoint) >= isolation - EPS)
        for word, p in zip(words, acceptance_probabilities(auto, evaluated))
    )
    return CutpointReport(cutpoint, isolation, checks)


# ---------------------------------------------------------------------------
# text format (used by the CLI's synth --emit and prob --qfa)


def _format_real(x: float) -> str:
    if x == 0:
        x = 0.0  # normalise -0.0
    return repr(float(x))


def _format_entry(z: complex) -> str:
    return f"{_format_real(z.real)},{_format_real(z.imag)}"


def format_automaton(auto: MeasureOnlyAutomaton) -> str:
    """Render the acceptor in the line-oriented text format.

    Header `mon1qfa dim=<m> alphabet=<symbols>`, the initial vector as m
    `re,im` entries, one `observable <symbol>` section per alphabet symbol
    with an `outcome <label>` block (m rows of m entries) per projector, the
    `end-observable` section in the same shape, and `accepting: <labels>`.
    """
    lines = [f"mon1qfa dim={auto.dimension} alphabet={''.join(auto.alphabet)}"]
    lines.append("initial: " + " ".join(_format_entry(z) for z in auto.initial))

    def emit_outcomes(obs: Observable) -> None:
        for label, p in obs.outcomes:
            lines.append(f"outcome {label}")
            for row in np.asarray(p):
                lines.append(" ".join(_format_entry(z) for z in row))

    for sym in auto.alphabet:
        lines.append(f"observable {sym}")
        emit_outcomes(auto.observables[sym])
    lines.append("end-observable")
    emit_outcomes(auto.end_observable)
    lines.append("accepting: " + " ".join(sorted(auto.accepting)))
    return "\n".join(lines) + "\n"


def _parse_entry(token: str, line: int) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise FormatError(f"expected 're,im' entry, got {token!r}", line)
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise FormatError(f"bad numeric entry {token!r}", line) from None


def _parse_entries(rows: list[tuple[int, list[str]]]) -> np.ndarray:
    """The `re,im` entries of (line, tokens) rows as one flat complex array.

    When every token has exactly one comma, all halves go through `float` in
    one pass and are read in pairs: the values `_parse_entry` gives, bit for
    bit.  Otherwise the per-entry loop raises the FormatError of the first
    bad entry.
    """
    tokens = [token for _, row in rows for token in row]
    if set(map(str.count, tokens, itertools.repeat(","))) == {1}:
        try:
            halves = list(map(float, ",".join(tokens).split(",")))
        except ValueError:  # a half that is not a number
            pass
        else:
            return np.array(halves).view(np.complex128)
    entries = [_parse_entry(token, line) for line, row in rows for token in row]
    return np.array(entries, dtype=np.complex128)


def parse_automaton(text: str) -> MeasureOnlyAutomaton:
    """Parse the text format produced by `format_automaton`.

    Syntax errors and observables that break the projector-family laws raise
    FormatError naming the line (an observable's section header); the other
    semantic problems (norm, missing observables, unknown accepting labels)
    surface as ValueError from the automaton constructor.
    """
    rows = _TokenLines(text)
    line, tokens = rows.take("header")
    if len(tokens) != 3 or tokens[0] != "mon1qfa":
        raise FormatError("expected header 'mon1qfa dim=<m> alphabet=<symbols>'", line)
    if not tokens[1].startswith("dim=") or not tokens[2].startswith("alphabet="):
        raise FormatError("expected header 'mon1qfa dim=<m> alphabet=<symbols>'", line)
    try:
        dim = int(tokens[1][len("dim=") :])
    except ValueError:
        raise FormatError("bad dimension in header", line) from None
    if dim < 1:
        raise FormatError("dimension must be positive", line)
    try:
        alphabet = _check_alphabet(tokens[2][len("alphabet=") :])
    except ValueError as exc:
        raise FormatError(str(exc), line) from None

    line, tokens = rows.take("'initial:'")
    if tokens[0] != "initial:":
        raise FormatError("expected 'initial:' line", line)
    if len(tokens) != 1 + dim:
        raise FormatError(f"expected {dim} initial entries, got {len(tokens) - 1}", line)
    initial = _parse_entries([(line, tokens[1:])])

    def parse_observable(context: str, header_line: int) -> Observable:
        outcomes = []
        while True:
            row = rows.peek()
            if row is None or row[1][0] != "outcome":
                break
            line, tokens = rows.take("'outcome <label>'")
            if len(tokens) != 2:
                raise FormatError("expected 'outcome <label>'", line)
            label = tokens[1]
            matrix = []
            for _ in range(dim):
                row = rows.peek()
                if row is None or len(row[1]) != dim:
                    _parse_entries(matrix)  # a bad entry in an earlier row is the first error
                entry_line, entry_tokens = rows.take(f"{dim} matrix rows for {context}")
                if len(entry_tokens) != dim:
                    raise FormatError(
                        f"expected {dim} entries in matrix row, got {len(entry_tokens)}",
                        entry_line,
                    )
                matrix.append((entry_line, entry_tokens))
            outcomes.append((label, _parse_entries(matrix).reshape(dim, dim)))
        if not outcomes:
            row = rows.peek()
            where = row[0] if row else rows.last_line
            raise FormatError(f"{context} has no outcomes", where)
        try:
            return Observable(dim, outcomes)
        except ValueError as exc:
            raise FormatError(f"{context}: {exc}", header_line) from None

    observables: dict[str, Observable] = {}
    while True:
        row = rows.peek()
        if row is None or row[1][0] != "observable":
            break
        line, tokens = rows.take("'observable <symbol>'")
        if len(tokens) != 2:
            raise FormatError("expected 'observable <symbol>'", line)
        sym = tokens[1]
        if sym not in alphabet:
            raise FormatError(f"symbol {sym!r} is not in the declared alphabet", line)
        if sym in observables:
            raise FormatError(f"duplicate observable for symbol {sym!r}", line)
        observables[sym] = parse_observable(f"observable {sym!r}", line)

    line, tokens = rows.take("'end-observable'")
    if tokens != ["end-observable"]:
        raise FormatError("expected 'end-observable'", line)
    end = parse_observable("end-observable", line)

    line, tokens = rows.take("'accepting:'")
    if tokens[0] != "accepting:":
        raise FormatError("expected 'accepting:' line", line)
    accepting = frozenset(tokens[1:])

    trailing = rows.peek()
    if trailing is not None:
        raise FormatError("unexpected content after 'accepting:'", trailing[0])
    return MeasureOnlyAutomaton(alphabet, initial, observables, end, accepting)
