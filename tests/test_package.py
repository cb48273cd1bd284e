"""The package surface: lazy exports, the modules each command loads, and the
semantics of the immutable classes and result records."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import moqfa
from moqfa import (
    CutpointReport,
    DensityMatrix,
    Dfa,
    Diagnosis,
    GreenReport,
    MeasureOnlyAutomaton,
    Observable,
    ResourceLimitError,
    SubsequencePattern,
    VerificationReport,
    WordCheck,
    diagnose,
    green_report,
    identity_observable,
    pattern_automaton,
    recognizes_with_cutpoint,
    verify_construction,
)

CONTAINS_A = "states 2\nalphabet a b\ninitial 0\naccepting 1\ntrans 0 a 1\ntrans 0 b 0\ntrans 1 a 1\ntrans 1 b 1\n"

# Run in a fresh interpreter: the modules that `import moqfa`, and then
# `moqfa.cli.main(argv)`, add to those loaded after `import json, sys`.  The
# difference does not depend on what `site` loads at start-up.
FOOTPRINT = """\
import json, sys
baseline = set(sys.modules)
import moqfa
on_import = sorted(set(sys.modules) - baseline)
from moqfa.cli import main
code = main(sys.argv[1:])
print(json.dumps([on_import, code, sorted(set(sys.modules) - baseline)]))
"""

COMMANDS = {
    "check": ["check", "contains_a.dfa"],
    "monoid": ["monoid", "contains_a.dfa"],
    "variation": ["variation", "contains_a.dfa"],
    "synth": ["synth", "--letters", "a", "b", "--alphabet", "abc"],
    "synth_emit": ["synth", "--letters", "a", "b", "--alphabet", "abc", "--emit", "ab.qfa"],
    "verify": ["verify", "--letters", "a", "b", "--alphabet", "abc", "--maxlen", "3"],
    "prob": ["prob", "--letters", "a", "b", "--alphabet", "abc", "--word", "ab"],
}


def _footprint(tmp_path, argv):
    """The modules `import moqfa` adds, and those it and the command `argv`
    add together, in a fresh interpreter."""
    (tmp_path / "contains_a.dfa").write_text(CONTAINS_A)
    env = dict(os.environ, PYTHONPATH=str(Path(moqfa.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    on_import, code, added = json.loads(child.stdout.splitlines()[-1])
    assert code == 0
    return on_import, set(added)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_what_it_runs(tmp_path, command):
    on_import, added = _footprint(tmp_path, COMMANDS[command])
    assert on_import == ["moqfa"]
    assert "dataclasses" not in added
    absent = {
        "variation": {
            "moqfa.patterns", "moqfa.quantum", "moqfa.algebra", "moqfa.decision", "moqfa.exact"
        },
        "monoid": {"moqfa.patterns", "moqfa.quantum", "moqfa.decision", "moqfa.exact"},
        "synth": {
            "moqfa.automata", "moqfa.quantum", "moqfa.algebra", "moqfa.decision", "moqfa.exact",
            "numpy",
        },
        "synth_emit": {"moqfa.automata", "moqfa.algebra", "moqfa.decision", "moqfa.exact", "numpy"},
        "prob": {"moqfa.automata", "moqfa.quantum", "moqfa.algebra", "moqfa.decision", "numpy"},
        "check": {
            "moqfa.algebra", "moqfa.exact", "moqfa.patterns", "moqfa.quantum", "fractions",
            "numpy",
        },
        "verify": {"moqfa.algebra", "moqfa.decision", "moqfa.quantum", "numpy"},
    }.get(command, set())
    assert not absent & added


def test_decision_forwards_the_traced_names():
    # the benchmark traces `verify_construction` and `measure` on `decision`
    from moqfa import decision, exact

    assert moqfa.verify_construction is exact.verify_construction
    pattern = SubsequencePattern("aba", "abc")
    report = decision.verify_construction(pattern, 4, max_words=121)
    assert report == verify_construction(pattern, 4, 121) and report.ok
    with pytest.raises(ResourceLimitError, match="budget of 120"):
        decision.verify_construction(pattern, 4, 120)
    state = DensityMatrix.pure([1, 0])
    assert (decision.measure(state, identity_observable(2)).matrix == state.matrix).all()


def test_star_import_binds_all_from_the_defining_modules():
    namespace = {}
    exec("from moqfa import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(moqfa.__all__) == set(moqfa._EXPORTS)
    assert len(moqfa.__all__) == 58
    for name, value in namespace.items():
        module = importlib.import_module(f"moqfa.{moqfa._EXPORTS[name]}")
        assert value is vars(module)[name] is getattr(moqfa, name)
        if getattr(value, "__module__", "").startswith("moqfa."):
            assert value.__module__ == module.__name__, name


def test_dir_lists_all_and_unknown_names_raise():
    assert set(moqfa.__all__) <= set(dir(moqfa))
    with pytest.raises(AttributeError, match="no_such_name"):
        moqfa.no_such_name
    assert not hasattr(moqfa, "DEFAULT_WORD_BUDGET")


def test_from_import_returns_submodules():
    from moqfa import algebra, decision, quantum

    assert quantum is sys.modules["moqfa.quantum"]
    assert decision is sys.modules["moqfa.decision"]
    # the budgets live in errors and keep their old names
    assert decision.DEFAULT_WORD_BUDGET == 2_000_000
    assert algebra.DEFAULT_ELEMENT_CAP == decision.DEFAULT_ELEMENT_CAP == 1_000_000


# ---------------------------------------------------------------------------
# the ten classes that do not use dataclasses


def _contains_a() -> Dfa:
    return Dfa("ab", [(1, 0), (1, 1)], 0, {1})


def test_reprs_are_unchanged():
    assert repr(_contains_a()) == (
        "Dfa(alphabet=('a', 'b'), transitions=((1, 0), (1, 1)), initial=0, accepting=frozenset({1}))"
    )
    assert repr(SubsequencePattern("ab", "abc")) == (
        "SubsequencePattern(letters=('a', 'b'), alphabet=('a', 'b', 'c'))"
    )
    assert repr(green_report(_contains_a())) == (
        "GreenReport(monoid_size=2, r_trivial=True, l_trivial=True, j_trivial=True, "
        "block_group=True, letters_idempotent=True, idempotent_count=2)"
    )


def test_value_classes_compare_and_hash_by_fields():
    dfa = _contains_a()
    assert dfa == _contains_a() and hash(dfa) == hash(_contains_a())
    fields = (("a", "b"), ((1, 0), (1, 1)), 0, frozenset({1}))
    assert dfa.__eq__(fields) is NotImplemented and dfa != fields
    differing = [
        Dfa("ba", [(1, 0), (1, 1)], 0, {1}),
        Dfa("ab", [(1, 0), (0, 1)], 0, {1}),
        Dfa("ab", [(1, 0), (1, 1)], 1, {1}),
        Dfa("ab", [(1, 0), (1, 1)], 0, {0}),
    ]
    for other in differing:
        assert dfa != other and hash(dfa) != hash(other)
    pattern = SubsequencePattern("ab", "abc")
    assert pattern == SubsequencePattern(["a", "b"], "abc")
    assert hash(pattern) == hash(SubsequencePattern(["a", "b"], "abc"))
    assert pattern != SubsequencePattern("ab", "abd")
    assert pattern.__eq__(dfa) is NotImplemented


def test_quantum_classes_keep_identity_equality():
    for make in (
        lambda: identity_observable(2),
        lambda: DensityMatrix.pure([1, 0]),
        lambda: pattern_automaton(SubsequencePattern("a", "ab")),
    ):
        one, two = make(), make()
        assert one == one and one != two
        assert len({one, two}) == 2


def _instances():
    dfa = _contains_a()
    pattern = SubsequencePattern("ab", "abc")
    auto = pattern_automaton(SubsequencePattern("a", "ab"))
    report = recognizes_with_cutpoint(auto, 0.125, 0.0625, lambda w: "a" in w, ["", "a"])
    return [
        dfa,
        pattern,
        auto.end_observable,
        DensityMatrix.pure([1, 0]),
        auto,
        diagnose(dfa),
        green_report(dfa),
        verify_construction(pattern, 2),
        report.checks[0],
        report,
    ]


def test_no_field_can_be_assigned_or_deleted():
    instances = _instances()
    assert [type(x) for x in instances] == [
        Dfa, SubsequencePattern, Observable, DensityMatrix, MeasureOnlyAutomaton,
        Diagnosis, GreenReport, VerificationReport, WordCheck, CutpointReport,
    ]
    for instance in instances:
        for name in type(instance).__annotations__:
            with pytest.raises(AttributeError):
                setattr(instance, name, None)
            with pytest.raises(AttributeError):
                delattr(instance, name)
    with pytest.raises(AttributeError):
        instances[0].label = "new"


def test_records_unpack_in_field_order():
    dfa = _contains_a()
    assert tuple(diagnose(dfa)) == (2, True, True, True, True, None)
    size, r, l, j, block, letters, idempotents = green_report(dfa)
    assert (size, r, l, j, block, letters, idempotents) == (2, True, True, True, True, True, 2)
    pattern = SubsequencePattern("ab", "abc")
    report = verify_construction(pattern, 3)
    assert report == (pattern, 0.03125, 0.015625, 3, 40, (), (), 0.03125) and report.ok
    assert not report._replace(misclassified=(("a",),)).ok
    assert not report._replace(isolation_violations=(("b",),)).ok
    auto = pattern_automaton(SubsequencePattern("a", "ab"))
    cut = recognizes_with_cutpoint(auto, 0.125, 0.0625, lambda w: "a" in w, ["", "a", "ba"])
    cutpoint, isolation, checks = cut
    assert (cutpoint, isolation, len(checks)) == (0.125, 0.0625, 3) and cut.ok
    assert tuple(checks[1]) == (("a",), 0.5, True, True, True)
    assert not cut._replace(checks=(checks[0]._replace(isolated=False),)).ok
    assert not cut._replace(checks=(checks[1]._replace(member=False),)).ok
    assert cut._replace(checks=()).ok
