"""Re-measure the four baseline figures quoted in ROADMAP.md.

    python3 perfbench/baseline.py

Prints, each as the median of a few runs: `moqfa check` on the 1,001-state
DFA of (ab)^500 over abc as a whole process, verify throughput for the
pattern ab over abc with maxlen 9, one `measure` call at dimension 3, and
`import moqfa` in a fresh interpreter.  The benchmark's workloads do not
contain these exact inputs, so this script is how the two sets of numbers
are reconciled.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets BLAS to one thread before numpy loads)
from harness import now  # noqa: E402


def median_of(repeats, measure):
    return statistics.median(measure() for _ in range(repeats))


def main() -> int:
    from moqfa import DensityMatrix, SubsequencePattern, measure, pattern_automaton
    from moqfa import pattern_dfa, serialize_dfa, verify_construction

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    member = work / "baseline-ab500.dfa"
    member.write_text(serialize_dfa(pattern_dfa(SubsequencePattern(("a", "b") * 500, "abc"))))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def check_process():
        t0 = now()
        done = subprocess.run([sys.executable, "-m", "moqfa", "check", str(member)],
                              env=env, capture_output=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError("the (ab)^500 DFA must be a member")
        return now() - t0

    pattern = SubsequencePattern(("a", "b"), "abc")

    def verify_rate():
        t0 = now()
        report = verify_construction(pattern, 9)
        return report.words_checked / (now() - t0)

    auto = pattern_automaton(pattern)
    rho = DensityMatrix.pure(auto.initial)
    obs = auto.observables["a"]

    def measure_us():
        t0 = now()
        for _ in range(2000):
            measure(rho, obs)
        return (now() - t0) / 2000 * 1e6

    print(f"check (ab)^500 over abc, whole process: {median_of(3, check_process):.2f} s")
    print(f"verify ab over abc, maxlen 9: {median_of(3, verify_rate):.0f} words/s")
    print(f"measure at dimension 3: {median_of(5, measure_us):.1f} us")
    print(f"import moqfa: {1e3 * median_of(5, lambda: run.child_seconds(run.IMPORT_MOQFA)):.0f} ms")
    member.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
