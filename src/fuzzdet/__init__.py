"""Fuzzy finite automata over complete residuated lattices.

Exact-arithmetic evaluation of fuzzy languages, four determinization
constructions producing crisp-deterministic fuzzy automata (forward and
reverse Nerode, the minimal inclusion-degree construction, double
reversal), a psi-glued generalization, a line-oriented document format and
DOT export.

Modules: lattice (the five structures), algebra (vectors, matrices, the
encoded carrier and the pre-flight closure), automata (fuzzy automata and
cdfa), determinize (the constructions), formats (documents, words, DOT),
errors, cli, and reference (the definitional oracles and the automaton
writers, which no command line call runs). The package imports a module
the first time one of its names is used (PEP 562), so `import fuzzdet`
loads none of them and each command compiles only what it runs.
"""

__version__ = "0.1.0"

# Each module and the public names it defines.
_EXPORTS = {
    "algebra": "DEFAULT_CAP FuzzyMatrix FuzzyVector PreflightReport SemiringClosure "
               "ValueSet automaton_values dot mat_compose preflight semiring_closure "
               "vec_mat",
    "automata": "Cdfa FuzzyAutomaton StateLabel Word cdfa_evaluate evaluate find_witness",
    "determinize": "BuildStats CapExceeded DetOutcome InvarianceViolation TransitionTree "
                   "TreeVertex brzozowski check_left_invariant d_automaton nerode "
                   "psi_d_automaton reverse_nerode reverse_nerode_tree",
    "errors": "AlphabetMismatch DimensionMismatch FormatError FuzzdetError InvalidCap "
              "LatticeMismatch PsiNotLeftInvariant PsiNotReflexive UnknownSymbol",
    "formats": "export_dot format_word parse_automaton parse_matrix parse_word",
    "lattice": "BOOLEAN GODEL GOGUEN LUKASIEWICZ Lattice Value chain",
    "reference": "cdfa_as_fuzzy_automaton cdfa_equivalent d_epsilon d_step "
                 "identity_matrix inclusion_degree mat_vec reverse right_language_step "
                 "serialize_automaton",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name from its module on first use, then keep it here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
