"""Density-matrix simulation of measurement-only word acceptors.

A word acceptor here carries one observable per alphabet symbol plus an
end-word observable.  Reading a word applies, letter by letter, the
nonselective measurement channel rho -> sum_i P_i rho P_i of that letter's
observable; the acceptance probability is then the probability mass the final
state assigns to the accepting outcomes of the end-word observable.

`pattern_automaton` renders into matrices the acceptor of a subsequence
pattern that `moqfa.patterns.pattern_acceptor` writes as exact sparse data:
dimension k+1 tracking subsequence progress, an up/down projector pair for
every pattern letter, the identity observable for all other letters, and an
end-word observable that accepts on the last coordinate.  Its cut point and
isolation radius, 2^-(2k+1) and 2^-(2k+2), come from
`moqfa.patterns.cutpoint_params`.

Each function that builds a matrix imports numpy in its body, so importing
this module does not import numpy; `format_automaton` writes any acceptor
from its sparse form, and so needs numpy only for a matrix acceptor.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import FormatError, _check_alphabet, _Frozen, _TokenLines
from .patterns import SparseAcceptor, SubsequencePattern, pattern_acceptor

if TYPE_CHECKING:
    import numpy as np

EPS = 1e-9

Word = Sequence[str]


def _frozen_matrix(entries) -> np.ndarray:
    import numpy as np
    m = np.array(entries, dtype=np.complex128)
    m.setflags(write=False)
    return m


class Observable(_Frozen):
    """A finite family of labelled projectors that sum to the identity.

    The constructor normalises its inputs and refuses, with one ValueError
    listing every violation found by `validate_observable`, any family that
    breaks the projector-family laws (Hermitian, idempotent, pairwise
    orthogonal, complete) or whose labels cannot be written to the text
    format, so every observable that exists is valid.
    """

    dimension: int
    outcomes: tuple[tuple[str, np.ndarray], ...]

    __eq__ = object.__eq__  # the fields hold arrays: equality is identity
    __hash__ = object.__hash__

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
    import numpy as np
    return Observable(dimension, (("pass", np.eye(dimension)),))


def validate_observable(obs: Observable) -> list[str]:
    """Check the projector-family laws; return human-readable violations.

    Structural problems (labels that are not a non-empty string without
    whitespace, duplicate labels, wrong shapes, non-finite entries) are
    prefixed "structural:"; numeric law violations at tolerance `EPS` are
    prefixed "numeric:".  `Observable` runs this check when it is built, so
    the list is empty for every observable that exists.
    """
    import numpy as np
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
    # a huge finite entry overflows a product to inf or NaN; a residual that
    # is not at most EPS, NaN included, is a violation
    with np.errstate(over="ignore", invalid="ignore"):
        for label, p in usable:
            if not np.max(np.abs(p - p.conj().T)) <= EPS:
                report.append(f"numeric: projector {label!r} is not Hermitian")
            if not np.max(np.abs(p @ p - p)) <= EPS:
                report.append(f"numeric: projector {label!r} is not idempotent")
        for i, (label_i, p_i) in enumerate(usable):
            for label_j, p_j in usable[i + 1 :]:
                if not np.max(np.abs(p_i @ p_j)) <= EPS:
                    report.append(
                        f"numeric: projectors {label_i!r} and {label_j!r} are not orthogonal"
                    )
        if usable and len(usable) == len(obs.outcomes):
            total = sum(p for _, p in usable)
            if not np.max(np.abs(total - np.eye(d))) <= EPS:
                report.append("numeric: projectors do not sum to the identity")
    return report


class DensityMatrix(_Frozen):
    """Hermitian, positive-semidefinite, trace-one state matrix."""

    matrix: np.ndarray

    __eq__ = object.__eq__  # the fields hold arrays: equality is identity
    __hash__ = object.__hash__

    def __init__(self, matrix):
        import numpy as np
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
        import numpy as np
        v = np.asarray(amplitudes, dtype=np.complex128)
        if v.ndim != 1:
            raise ValueError(f"amplitudes must be one-dimensional, got shape {v.shape}")
        return cls(np.outer(v.conj(), v))


def _stack(obs: Observable) -> np.ndarray:
    """The observable's projectors as one (r, d, d) array."""
    import numpy as np
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


class MeasureOnlyAutomaton(_Frozen):
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

    __eq__ = object.__eq__  # the fields hold arrays: equality is identity
    __hash__ = object.__hash__

    def __init__(self, alphabet, initial, observables, end_observable, accepting):
        import numpy as np
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

    def sparse(self) -> SparseAcceptor:
        """The acceptor as the nonzero entries of its vector and matrices,
        each a Python complex.  Its observables were checked within `EPS`
        when they were built; the exact law check is not run on them."""

        def outcomes(obs: Observable):
            found = []
            for label, p in obs.outcomes:
                rows, cols = p.nonzero()
                where = zip(rows.tolist(), cols.tolist())
                found.append((label, dict(zip(where, p[rows, cols].tolist()))))
            return tuple(found)

        return SparseAcceptor(
            self.alphabet,
            tuple(self.initial.tolist()),
            {sym: outcomes(self.observables[sym]) for sym in self.alphabet},
            outcomes(self.end_observable),
            self.accepting,
        )

    def accepting_projector(self) -> np.ndarray:
        """Sum of the projectors of the accepting end-word outcomes."""
        import numpy as np
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
    arrays.  Each word starts from the initial state, and only its current
    d x d state is kept.  An unknown symbol raises ValueError when reached.
    """
    import numpy as np
    channels = {sym: _stack(obs) for sym, obs in auto.observables.items()}
    accepting = auto.accepting_projector()
    start = np.outer(auto.initial.conj(), auto.initial)
    for word in words:
        rho = start
        for sym in word:
            try:
                stack = channels[sym]
            except (KeyError, TypeError):  # TypeError: an unhashable symbol
                raise ValueError(f"symbol {sym!r} is not in the alphabet") from None
            rho = _channel(stack, rho)
        yield min(1.0, max(0.0, float(np.trace(accepting @ rho).real)))


# ---------------------------------------------------------------------------
# the pattern acceptor


def _matrix(d: int, entries) -> np.ndarray:
    """The read-only d x d complex matrix with the given nonzero entries."""
    import numpy as np
    m = np.zeros((d, d), dtype=np.complex128)
    if entries:
        m[tuple(zip(*entries))] = list(entries.values())
    m.setflags(write=False)
    return m


def pattern_automaton(pattern: SubsequencePattern) -> MeasureOnlyAutomaton:
    """Measurement-only acceptor for the pattern's shuffle ideal: the matrices
    of `moqfa.patterns.pattern_acceptor`, entry for entry.

    Dimension k+1; the initial state is the first basis vector; every pattern
    letter carries its up/down projector pair, other letters the identity
    observable; the end-word observable accepts exactly on the last basis
    state.  The empty pattern yields the 1-dimensional acceptor with constant
    acceptance probability 1.
    """
    acceptor = pattern_acceptor(pattern)
    d = acceptor.dimension

    def observable(outcomes) -> Observable:
        return Observable(d, ((label, _matrix(d, p)) for label, p in outcomes))

    return MeasureOnlyAutomaton(
        acceptor.alphabet,
        acceptor.initial,
        {sym: observable(acceptor.observables[sym]) for sym in acceptor.alphabet},
        observable(acceptor.end_observable),
        acceptor.accepting,
    )


class WordCheck(NamedTuple):
    word: tuple[str, ...]
    probability: float
    member: bool
    accepted: bool
    isolated: bool


class CutpointReport(NamedTuple):
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
    words = list(map(tuple, words))
    checks = tuple(
        WordCheck(word, p, bool(member(word)), p > cutpoint, abs(p - cutpoint) >= isolation - EPS)
        for word, p in zip(words, acceptance_probabilities(auto, words))
    )
    return CutpointReport(cutpoint, isolation, checks)


# ---------------------------------------------------------------------------
# text format (written by the CLI's synth --emit, read by prob --qfa)


def _format_real(x: float) -> str:
    if x == 0:
        x = 0.0  # normalise -0.0
    return repr(float(x))


def _format_entry(z: complex) -> str:
    return f"{_format_real(z.real)},{_format_real(z.imag)}"


def format_automaton(auto: MeasureOnlyAutomaton | SparseAcceptor) -> str:
    """Render the acceptor in the line-oriented text format, from its sparse
    form: a `MeasureOnlyAutomaton` through `.sparse()`, a `SparseAcceptor` as
    given, each entry it omits written as zero.

    Header `mon1qfa dim=<m> alphabet=<symbols>`, the initial vector as m
    `re,im` entries, one `observable <symbol>` section per alphabet symbol
    with an `outcome <label>` block (m rows of m entries) per projector, the
    `end-observable` section in the same shape, and `accepting: <labels>`.
    """
    if not isinstance(auto, SparseAcceptor):
        auto = auto.sparse()
    d = auto.dimension
    lines = [f"mon1qfa dim={d} alphabet={''.join(auto.alphabet)}"]
    lines.append("initial: " + " ".join(map(_format_entry, auto.initial)))

    def emit_outcomes(outcomes) -> None:
        for label, entries in outcomes:
            lines.append(f"outcome {label}")
            rows = [["0.0,0.0"] * d for _ in range(d)]
            for (r, c), z in entries.items():
                rows[r][c] = _format_entry(z)
            lines.extend(map(" ".join, rows))

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
    import numpy as np
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
