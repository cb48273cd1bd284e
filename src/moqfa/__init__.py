"""Measurement-only quantum word acceptors and the algebraic membership test
for the class of languages they recognize with an isolated cut point.

`import moqfa` loads no submodule: each public name is imported from its
defining module the first time it is read (PEP 562), so a program, or a
command of `moqfa`, loads only the modules it uses.
"""

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", "FormatError PatternError ResourceLimitError"),
        (
            "patterns",
            "SparseAcceptor SubsequencePattern cutpoint_params pattern_acceptor pattern_dfa",
        ),
        (
            "quantum",
            "EPS CutpointReport DensityMatrix MeasureOnlyAutomaton Observable WordCheck "
            "acceptance_probability acceptance_probabilities format_automaton identity_observable "
            "measure parse_automaton pattern_automaton recognizes_with_cutpoint validate_observable",
        ),
        (
            "automata",
            "Dfa complement equivalent is_empty is_literally_idempotent is_partially_ordered "
            "minimize parse_dfa product serialize_dfa sup_variation sup_variation_witness "
            "variation",
        ),
        (
            "algebra",
            "FiniteMonoid GreenReport Transformation compose green_report is_block_group "
            "is_j_trivial is_l_trivial is_r_trivial letters_idempotent transition_monoid",
        ),
        (
            "decision",
            "NOT_LI NOT_PT Diagnosis VerificationReport confluence_violation diagnose "
            "is_piecewise_testable monoid_oracle random_dfa random_partially_ordered_dfa "
            "verify_construction",
        ),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
