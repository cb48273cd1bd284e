"""The benchmark's traced runs (`perfbench/run.py --trace 1`) wrap moqfa
functions by module or class attribute.  A renamed or deleted attribute would
only show as a KeyError in a traced run, so every target is checked here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports referee.py
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    kinds = workloads.Workload.__subclasses__()
    assert {"verify", "dense"} <= {kind.name for kind in kinds}
    for kind in kinds:
        for owner, attribute, span in kind.patches:
            assert attribute in vars(owner), f"{kind.name}: {span} wraps a missing {attribute!r}"
