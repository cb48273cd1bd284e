"""Benchmark for moqfa: five closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/selftest.py          # tests of the benchmark itself

Each run builds its inputs from --seed with moqfa's own constructors, fixes a
known answer for every operation (untimed, see referee.py), then repeats the
workload's operation list until --seconds have passed and checks every
output.  The last line of stdout is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
IMPORT_REPEATS = 11
BUILD_REPEATS = 3
PROBE_REPEATS = 5

# BLAS stays single-threaded in this process and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

WORKLOADS = ("cli", "decide", "monoid", "verify", "dense")

CLI_COMMANDS = ("check", "monoid", "variation", "prob", "synth", "verify")

PER_LAYER = {
    "cli.python_start_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_moqfa_ms": "ms",
    **{f"cli.{c}_ms": "ms" for c in CLI_COMMANDS},
    "automata.parse_dfa.s": "s",
    "automata.parse_dfa.lines_per_s": "1/s",
    "automata.minimize.s": "s",
    "automata.minimize.states_in": "count",
    "automata.minimize.states_out": "count",
    "automata.is_literally_idempotent.s": "s",
    "automata.is_partially_ordered.s": "s",
    "automata.is_partially_ordered.calls": "count",
    "decision.is_piecewise_testable.s": "s",
    "decision.diagnose.s": "s",
    "decision.diagnose.self_s": "s",
    "algebra.transition_monoid.s": "s",
    "algebra.transition_monoid.elements": "count",
    "algebra.transition_monoid.elements_per_s": "1/s",
    "algebra.is_r_trivial.s": "s",
    "algebra.is_l_trivial.s": "s",
    "algebra.is_j_trivial.s": "s",
    "algebra.is_block_group.s": "s",
    "algebra.green_report.s": "s",
    "quantum.measure.calls": "count",
    "quantum.measure.us": "us",
    "quantum.density_matrix.us": "us",
    "quantum.acceptance_probability.us_per_letter": "us",
    "quantum.acceptance_probability.calls": "count",
    "quantum.parse_automaton.s": "s",
    "quantum.validate_observable.s": "s",
    "quantum.recognizes_with_cutpoint.s": "s",
    "decision.verify_construction.s": "s",
    "decision.verify_construction.words": "count",
    "patterns.matches.s": "s",
    "patterns.matches.calls": "count",
    "quantum.recognizes_with_cutpoint.defect_ops": "count",
    "trace.overhead_ratio": "ratio",
    "src.lines": "count",
}

# what each traced span records as its size
SIZES = {
    "automata.parse_dfa": lambda args, out: (args[0].count("\n"), 0),
    "automata.minimize": lambda args, out: (args[0].state_count, out.state_count),
    "algebra.transition_monoid": lambda args, out: (len(out), 0),
    "quantum.acceptance_probability": lambda args, out: (len(args[1]), 0),
    "decision.verify_construction": lambda args, out: (out.words_checked, 0),
}


def child_seconds(code: str) -> float:
    """Run `code` in a fresh interpreter that prints one float; return it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


IMPORT_MOQFA = "import time; t = time.perf_counter(); import moqfa; print(time.perf_counter() - t)"
# `import moqfa` scaled by the host-speed probe timed in the same fresh
# interpreter around it; the probe imports nothing
SCALED_IMPORT_MOQFA = (
    "from time import perf_counter as now\n"
    + inspect.getsource(harness.probe)
    + "probes = [probe() for _ in range(3)]\n"
    "t0 = now()\n"
    "import moqfa\n"
    "spent = now() - t0\n"
    "probes += [probe() for _ in range(2)]\n"
    f"print(spent * {harness.REFERENCE_PROBE_S!r} / sorted(probes)[2])\n"
)
IMPORT_NUMPY = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"


def process_seconds(argv) -> float:
    t0 = harness.now()
    subprocess.run(argv, capture_output=True, timeout=60, check=True)
    return harness.now() - t0


def setup(workload, seed):
    """`import moqfa` in fresh interpreters plus building the inputs, each
    repeated and scaled by the host-speed probe; the median of each is summed.
    The inputs must be byte-identical every time they are built."""
    imports = [child_seconds(SCALED_IMPORT_MOQFA) for _ in range(IMPORT_REPEATS)]
    builds = []
    prints = set()
    for _ in range(BUILD_REPEATS):
        factor = statistics.median(harness.probe() for _ in range(3)) / harness.REFERENCE_PROBE_S
        t0 = harness.now()
        ops = workload.build(seed)
        if workload.name == "cli":
            workload.write_files(ops)
        builds.append((harness.now() - t0) / factor)
        prints.add(workload.fingerprint(ops))
    return ops, statistics.median(imports) + statistics.median(builds), prints


def summarise(rounds, failures, ops, workload):
    """Latency and failure figures; times are scaled by each round's probe."""
    from workloads import KNOWN_DEFECT

    latencies = [x for r in rounds for x in r.adjusted()]
    wall = statistics.median(r.wall / r.slowdown for r in rounds)
    tail, percentile = harness.tail_value(latencies) or (max(latencies), 100.0)
    kinds = [kind for per_round in failures for kind in per_round]
    return {
        "wall": wall,
        "raw_wall": statistics.median(r.wall for r in rounds),
        "slowdown": statistics.median(r.slowdown for r in rounds),
        "p50": statistics.median(latencies),
        "tail": tail,
        "percentile": percentile,
        "samples": len(latencies),
        "items_per_s": workload.items_per_round(ops) / wall,
        "attempted": len(kinds),
        "failed": sum(1 for k in kinds if k not in (None, KNOWN_DEFECT)),
        "defect": sum(1 for k in kinds if k == KNOWN_DEFECT),
        "rounds": len(failures),
    }


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(workload, tracer, traced, untraced, ops, summary):
    """Per-layer metrics of the traced rounds, per pass over the operation
    list unless named as a mean or a rate; layers the workload does not reach
    read 0."""
    rounds = len(traced)
    totals = tracer.totals()

    def total(name, field=1):
        entry = totals.get(name)
        return entry[field] if entry else 0

    def per_round(name, field=1):
        return total(name, field) / rounds

    def ratio(amount, seconds, scale=1.0):
        return scale * amount / seconds if seconds else 0.0

    m = {name: 0.0 for name in PER_LAYER}
    if workload.name == "cli":
        m["cli.python_start_ms"] = 1e3 * statistics.median(
            process_seconds([sys.executable, "-c", "pass"]) for _ in range(PROBE_REPEATS)
        )
        m["cli.import_numpy_ms"] = 1e3 * statistics.median(
            child_seconds(IMPORT_NUMPY) for _ in range(PROBE_REPEATS)
        )
        m["cli.import_moqfa_ms"] = 1e3 * statistics.median(
            child_seconds(IMPORT_MOQFA) for _ in range(PROBE_REPEATS)
        )
        for command in CLI_COMMANDS:
            own = [r.latencies[i] for r in traced for i, op in enumerate(ops) if op["command"] == command]
            m[f"cli.{command}_ms"] = 1e3 * statistics.median(own)
    for metric in PER_LAYER:
        if metric.endswith(".s") and not metric.startswith("cli."):
            m[metric] = per_round(metric[: -len(".s")])
    m["automata.parse_dfa.lines_per_s"] = ratio(
        total("automata.parse_dfa", 3), total("automata.parse_dfa")
    )
    m["automata.minimize.states_in"] = per_round("automata.minimize", 3)
    m["automata.minimize.states_out"] = per_round("automata.minimize", 4)
    m["automata.is_partially_ordered.calls"] = per_round("automata.is_partially_ordered", 0)
    m["decision.diagnose.self_s"] = per_round("decision.diagnose", 2)
    m["algebra.transition_monoid.elements"] = per_round("algebra.transition_monoid", 3)
    m["algebra.transition_monoid.elements_per_s"] = ratio(
        total("algebra.transition_monoid", 3), total("algebra.transition_monoid")
    )
    m["quantum.measure.calls"] = per_round("quantum.measure", 0)
    m["quantum.measure.us"] = ratio(total("quantum.measure"), total("quantum.measure", 0), 1e6)
    m["quantum.density_matrix.us"] = ratio(
        total("quantum.density_matrix"), total("quantum.density_matrix", 0), 1e6
    )
    m["quantum.acceptance_probability.us_per_letter"] = ratio(
        total("quantum.acceptance_probability"), total("quantum.acceptance_probability", 3), 1e6
    )
    m["quantum.acceptance_probability.calls"] = per_round("quantum.acceptance_probability", 0)
    m["decision.verify_construction.words"] = per_round("decision.verify_construction", 3)
    m["patterns.matches.calls"] = per_round("patterns.matches", 0)
    m["quantum.recognizes_with_cutpoint.defect_ops"] = summary["defect"] / summary["rounds"]
    m["trace.overhead_ratio"] = statistics.median(r.wall / r.slowdown for r in traced) / statistics.median(
        r.wall / r.slowdown for r in untraced
    )
    m["src.lines"] = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return m


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, ROOT, workdir)
        ops, setup_s, prints = setup(workload, args.seed)
        workload.answers(ops)

        if args.trace:
            # untraced then traced halves; their ratio is the tracing overhead
            untraced, failures = harness.run_for(ops, workload.execute, args.seconds / 2, workload.check)
            tracer = harness.Tracer()
            execute = tracer.wrap(workload.execute, f"{workload.name}.op")
            for owner, attribute, name in workload.patches:
                tracer.patch(owner, attribute, name, SIZES.get(name))
            try:
                rounds, traced_failures = harness.run_for(
                    ops, execute, args.seconds / 2, workload.check, tracer
                )
            finally:
                tracer.restore()
            failures += traced_failures
        else:
            rounds, failures = harness.run_for(ops, workload.execute, args.seconds, workload.check)

        s = summarise(rounds, failures, ops, workload)
        corpus = sorted(prints)
        correct = s["failed"] == 0 and len(corpus) == 1
        if args.trace:
            metrics = layer_metrics(workload, tracer, rounds, untraced, ops, s)
            units = PER_LAYER
            tracer.dump(ROOT / ".perfbench_work" / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        else:
            metrics = {
                "setup_s": setup_s,
                "wall_s": s["wall"],
                "op_p50_ms": 1e3 * s["p50"],
                "op_tail_ms": 1e3 * s["tail"],
                "items_per_s": s["items_per_s"],
                "peak_rss_mb": peak_rss_mb(workload),
            }
            units = END_TO_END
        print(
            f"# workload={args.workload} seed={args.seed} corpus={','.join(corpus)} "
            f"rounds={len(rounds)} ops_per_round={len(ops)} "
            f"host_slowdown={s['slowdown']:.3f} raw_wall_s={s['raw_wall']:.4f} "
            f"tail=p{s['percentile']:.1f} of {s['samples']} samples "
            f"failed {s['failed']} of {s['attempted']}; "
            f"cut-point defect {s['defect']} of {s['attempted']}"
        )
        for name, value in metrics.items():
            print(f"# {name} = {value:.6g} {units[name]}")
        if not args.trace:
            print(
                f"# fail_ratio = {(s['failed'] + s['defect']) / s['attempted']:.6g} "
                f"(failed or cut-point defect over attempted operations)"
            )
            print(f"# items per operation list: {workload.items_per_round(ops)} {workload.item_name}")
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": s["attempted"],
                    "failed": s["failed"],
                    "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": v for w, r in results.items() for n, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/moqfa/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a moqfa checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
