"""Measurement loop, latency statistics and the in-memory span tracer."""

from __future__ import annotations

import functools
import gzip
import json
import math
import statistics
import time
from dataclasses import dataclass, field

now = time.perf_counter


# ---------------------------------------------------------------------------
# statistics


def tail_rank(count: int, beyond: int = 10):
    """0-based rank of the highest nearest-rank percentile that leaves at
    least `beyond` samples above it, with that percentile; None when there
    are too few samples."""
    if count <= beyond:
        return None
    rank = count - beyond - 1
    return rank, 100.0 * (rank + 1) / count


def tail_value(samples, beyond: int = 10):
    """(value, percentile) of the tail rule, or None."""
    found = tail_rank(len(samples), beyond)
    if found is None:
        return None
    rank, percentile = found
    return sorted(samples)[rank], percentile


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


# ---------------------------------------------------------------------------
# tracing


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    size: tuple[int, int] = (0, 0)


@dataclass
class Tracer:
    """Spans recorded around calls into moqfa's public functions.

    Wrapping only replaces attributes from the benchmark's side (the module
    global that the calling module looks up, or a class attribute) and
    `restore` puts the originals back.  Spans stay in `spans` until `dump`.
    """

    spans: list[Span] = field(default_factory=list)
    op: int = -1
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, func, name, size=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, now(), 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = now()
                stack.pop()
            if size is not None:
                span.size = size(args, result)
            return result

        return traced

    def patch(self, owner, attribute, name, size=None):
        """Replace `owner.attribute` (a module global or a class attribute)
        with a traced wrapper; `restore` puts back exactly what was there."""
        self._saved.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, self.wrap(getattr(owner, attribute), name, size))

    def restore(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        return [
            (span.end - span.start) - union_length(children.get(i, ()))
            for i, span in enumerate(self.spans)
        ]

    def totals(self) -> dict[str, list]:
        """name -> [calls, seconds, self seconds, size 0, size 1] over every span."""
        out: dict[str, list] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(span.name, [0, 0.0, 0.0, 0, 0])
            entry[0] += 1
            entry[1] += span.end - span.start
            entry[2] += own
            entry[3] += span.size[0]
            entry[4] += span.size[1]
        return out

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as sink:
            for span in self.spans:
                sink.write(
                    json.dumps([span.name, span.start, span.end, span.parent, span.op, *span.size])
                    + "\n"
                )


# ---------------------------------------------------------------------------
# the closed loop


# ---------------------------------------------------------------------------
# host speed
#
# On a shared host the speed of a CPU drifts by 10-20% over seconds to tens of
# seconds, as long as a run.  A fixed pure-Python probe, which shares no code
# with moqfa, is timed before the first operation of a round and after every
# operation; the round's times are divided by the probe's median over
# REFERENCE_PROBE_S, so reported times read as if the probe had taken
# REFERENCE_PROBE_S.  The probe mixes an arithmetic loop with building and
# sorting a dict of tuples, because moqfa's work is mostly allocation and
# hashing: on decide and cli this tracked the drift better than the
# arithmetic loop alone.

REFERENCE_PROBE_S = 0.0045


def probe() -> float:
    t0 = now()
    total = 0
    for i in range(30_000):
        total += i * i
    table = {}
    for i in range(3_000):
        table[(i, i % 7)] = [i, total]
    sorted(table.items(), key=lambda item: item[0][1])
    return now() - t0


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class RoundResult:
    latencies: list[float]
    outputs: list
    #: probe median over REFERENCE_PROBE_S: above 1 means a slow host
    slowdown: float

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def adjusted(self) -> list[float]:
        return [x / self.slowdown for x in self.latencies]


def run_round(ops, execute, tracer: Tracer | None = None, first_op: int = 0) -> RoundResult:
    """Run every operation once, in order, one at a time (closed loop, one
    client), probing the host speed between operations.  An exception is kept
    as the operation's output."""
    latencies = []
    outputs = []
    probes = [probe()]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + i
        t0 = now()
        try:
            out = execute(op)
        except Exception as exc:  # an operation that raises counts as failed
            out = exc
        latencies.append(now() - t0)
        outputs.append(out)
        probes.append(probe())
    return RoundResult(latencies, outputs, statistics.median(probes) / REFERENCE_PROBE_S)


def run_for(ops, execute, seconds, check, tracer: Tracer | None = None):
    """Repeat the operation list until `seconds` have passed (at least once).

    Outputs are checked after each round, outside the timed region.  Returns
    the rounds and the per-operation failure flags of every round.
    """
    rounds = []
    failures = []
    deadline = now() + seconds
    while True:
        result = run_round(ops, execute, tracer, len(rounds) * len(ops))
        failures.append([check(op, out) for op, out in zip(ops, result.outputs)])
        result.outputs = None
        rounds.append(result)
        if now() >= deadline:
            return rounds, failures
