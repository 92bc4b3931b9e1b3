"""Fuzzy finite automata over complete residuated lattices.

Exact-arithmetic evaluation of fuzzy languages, four determinization
constructions producing crisp-deterministic fuzzy automata (forward and
reverse Nerode, the minimal inclusion-degree construction, double
reversal), a psi-glued generalization, a line-oriented document format and
DOT export.

Modules: lattice (the five structures), algebra (vectors, matrices, the
sup-product, the encoded carrier), automata (fuzzy automata, evaluate),
formats (documents, words), closure (the value closure and preflight),
determinize (the constructions, Cdfa, find_witness), errors, cli, detcli
(DOT export, parse_matrix) and usage (--help, a command line not plainly
spelt), and reference (what no command runs: the oracles,
reverse_nerode_tree, cdfa_evaluate, the automaton writers). The package
imports a module the first time one of its names is used (PEP 562), so
`import fuzzdet` loads none of them, and each command compiles only what
it runs: eval loads cli, formats, automata, algebra, lattice and errors;
semiring adds closure; det and equiv add detcli and determinize.
"""

__version__ = "0.1.0"

# Each module and the public names it defines.
_EXPORTS = {
    "algebra": "DEFAULT_CAP FuzzyMatrix FuzzyVector dot vec_mat",
    "automata": "FuzzyAutomaton Word evaluate",
    "closure": "PreflightReport SemiringClosure ValueSet automaton_values preflight "
               "semiring_closure",
    "detcli": "export_dot parse_matrix",
    "determinize": "BuildStats CapExceeded Cdfa DetOutcome InvarianceViolation StateLabel "
                   "TransitionTree brzozowski check_left_invariant d_automaton find_witness "
                   "mat_compose nerode psi_d_automaton reverse_nerode",
    "errors": "AlphabetMismatch DimensionMismatch FormatError FuzzdetError InvalidCap "
              "LatticeMismatch PsiNotLeftInvariant PsiNotReflexive UnknownSymbol",
    "formats": "format_word parse_automaton parse_word",
    "lattice": "BOOLEAN GODEL GOGUEN LUKASIEWICZ Lattice Value chain",
    "reference": "TreeVertex cdfa_as_fuzzy_automaton cdfa_equivalent cdfa_evaluate "
                 "d_epsilon d_step identity_matrix inclusion_degree mat_vec reverse "
                 "reverse_nerode_tree right_language_step serialize_automaton",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name from its module on first use, then keep it here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    value = globals()[name] = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
