"""Tests of the benchmark's own logic (not of moqfa).

    python3 perfbench/selftest.py

Kept out of the repository's pytest suite on purpose: the file name does not
match pytest's `test_*.py` pattern.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Corpus fingerprints for --seed 1.  A change here means the same seed no
# longer gives the same inputs, so runs before and after it are not comparable.
SEED_1_CORPUS = {
    "cli": "b45b32e4410866f0",
    "decide": "c1bf0c3b21b0e4f9",
    "monoid": "9887b3dab6c5a41f",
    "verify": "29ac5f89ef77f0f9",
    "dense": "e7e4f417b0c7a3f3",
}


def work_dir(name: str) -> Path:
    path = ROOT / ".perfbench_work" / f"selftest-{name}"
    path.mkdir(parents=True, exist_ok=True)
    return path


class TailRule(unittest.TestCase):
    def test_at_least_ten_samples_beyond(self):
        samples = list(range(1, 101))
        value, percentile = harness.tail_value(samples)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for x in samples if x > value), 10)
        self.assertEqual(percentile, 90.0)

    def test_smallest_sample_count(self):
        self.assertIsNone(harness.tail_rank(10))
        self.assertEqual(harness.tail_rank(11), (0, 100.0 / 11))
        self.assertEqual(harness.tail_value([5.0] * 3 + [1.0] * 8), (1.0, 100.0 / 11))

    def test_percentile_rises_with_samples(self):
        self.assertEqual(harness.tail_rank(36), (25, 100.0 * 26 / 36))
        self.assertEqual(harness.tail_rank(1000), (989, 99.0))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        t = harness.Tracer()
        t.spans = [
            harness.Span("root", 0.0, 10.0, None, 0),
            harness.Span("a", 1.0, 4.0, 0, 0),
            harness.Span("a.inner", 1.5, 2.0, 1, 0),
            harness.Span("b", 5.0, 6.0, 0, 0),
        ]
        self.assertEqual(t.self_times(), [6.0, 2.5, 0.5, 1.0])
        totals = t.totals()
        self.assertEqual(totals["root"][:3], [1, 10.0, 6.0])

    def test_overlapping_children_counted_once(self):
        self.assertEqual(harness.union_length([(1.0, 4.0), (2.0, 5.0), (7.0, 8.0)]), 5.0)
        self.assertEqual(harness.union_length([(1.0, 4.0), (2.0, 3.0)]), 3.0)

    def test_wrapped_calls_record_parents_and_restore(self):
        class Box:
            @staticmethod
            def inner(x):
                return x + 1

            @staticmethod
            def outer(x):
                return Box.inner(x) * 2

        original = Box.__dict__["inner"]
        t = harness.Tracer()
        t.patch(Box, "inner", "inner", lambda args, out: (args[0], out))
        t.patch(Box, "outer", "outer")
        self.assertEqual(Box.outer(3), 8)
        t.restore()
        self.assertIs(Box.__dict__["inner"], original)
        names = [(s.name, s.parent, s.size) for s in t.spans]
        self.assertEqual(names, [("outer", None, (0, 0)), ("inner", 0, (3, 4))])
        own = t.self_times()
        self.assertAlmostEqual(own[0], (t.spans[0].end - t.spans[0].start) - (t.spans[1].end - t.spans[1].start))


class Failures(unittest.TestCase):
    def test_planted_wrong_answer_counts_as_failed(self):
        w = workloads.make("monoid", ROOT, work_dir("monoid"))
        ops = [op for op in w.build(1) if op["kind"][0] == "pattern"][:3]
        w.answers(ops)
        ops[1]["answer"] = dict(ops[1]["answer"], monoid_size=ops[1]["answer"]["monoid_size"] + 1)
        rounds, failures = harness.run_for(ops, w.execute, 0.0, w.check)
        self.assertEqual(failures, [[None, workloads.WRONG, None]])
        s = run.summarise(rounds, failures, ops, w)
        self.assertEqual((s["attempted"], s["failed"], s["defect"]), (3, 1, 0))

    def test_known_defect_is_counted_apart_from_failures(self):
        w = workloads.make("dense", ROOT, work_dir("dense"))
        ops = [{"words": ("a",)}] * 3
        rounds = [harness.RoundResult([0.1, 0.2, 0.3], None, 1.0) for _ in range(2)]
        failures = [[None, workloads.KNOWN_DEFECT, workloads.WRONG], [None, workloads.KNOWN_DEFECT, None]]
        s = run.summarise(rounds, failures, ops, w)
        self.assertEqual((s["attempted"], s["failed"], s["defect"], s["rounds"]), (6, 1, 2, 2))

    def test_exception_counts_as_failed(self):
        w = workloads.make("decide", ROOT, work_dir("decide"))
        op = {"input": "states 1\nalphabet a\n", "answer": {}}
        rounds, failures = harness.run_for([op], w.execute, 0.0, w.check)
        self.assertIsInstance(rounds[0].latencies[0], float)
        self.assertEqual(failures, [[workloads.WRONG]])

    def test_dense_wrong_probability_is_not_the_known_defect(self):
        w = workloads.make("dense", ROOT, work_dir("dense"))
        ops = w.build(1)
        small = [op for op in ops if op["k"] == 2]
        big = [op for op in ops if op["k"] == 32]
        w.answers(small + big)
        self.assertIsNone(w.check(small[0], w.execute(small[0])))
        small[0]["answer"] = [p + 1 for p in small[0]["answer"]]
        self.assertEqual(w.check(small[0], w.execute(small[0])), workloads.WRONG)
        # at k = 32 only a flipped verdict with a correct probability is
        # the known cut-point defect
        self.assertIn(w.check(big[0], w.execute(big[0])), (None, workloads.KNOWN_DEFECT))


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                w = workloads.make(name, ROOT, work_dir(name))
                first = w.fingerprint(w.build(1))
                self.assertEqual(first, w.fingerprint(w.build(1)))
                self.assertNotEqual(first, w.fingerprint(w.build(2)))
                self.assertEqual(first, SEED_1_CORPUS[name])


class Checkout(unittest.TestCase):
    def test_refuses_a_tree_without_moqfa(self):
        bare = work_dir("bare")
        shutil.rmtree(bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "decide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
