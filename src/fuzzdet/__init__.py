"""Fuzzy finite automata over complete residuated lattices.

Exact-arithmetic evaluation of fuzzy languages, four determinization
constructions producing crisp-deterministic fuzzy automata (forward and
reverse Nerode, the minimal inclusion-degree construction, double
reversal), a psi-glued generalization, a line-oriented document format and
DOT export.

Modules: lattice (the five structures, their operations and the carrier,
which runs the sup-product), algebra (vectors, matrices), automata (fuzzy automata,
evaluate), formats (documents, words), closure (value closure, preflight),
determinize (the constructions, Cdfa, find_witness), psi (psi documents,
mat_compose, the left invariance check, the psi-glued construction),
errors, cli, detcli (det, equiv, DOT export), usage (--help, a command line
not plainly spelt) and reference (what no command runs). Each module loads
when one of its names is first used (PEP 562): `import fuzzdet` loads none,
eval cli, formats, automata, algebra, lattice and errors, semiring closure
too, and det and equiv detcli and determinize too, and psi for a file.
"""

__version__ = "0.1.0"

# Each module and the public names it defines.
_EXPORTS = {
    "algebra": "DEFAULT_CAP FuzzyMatrix FuzzyVector dot vec_mat",
    "automata": "FuzzyAutomaton Word evaluate",
    "closure": "PreflightReport SemiringClosure ValueSet automaton_values preflight "
               "semiring_closure",
    "detcli": "export_dot",
    "determinize": "BuildStats CapExceeded Cdfa DetOutcome TransitionTree brzozowski "
                   "d_automaton find_witness nerode psi_d_automaton reverse_nerode",
    "errors": "AlphabetMismatch DimensionMismatch FormatError FuzzdetError InvalidCap "
              "LatticeMismatch PsiNotLeftInvariant PsiNotReflexive UnknownSymbol",
    "formats": "format_word parse_automaton parse_word",
    "lattice": "BOOLEAN GODEL GOGUEN LUKASIEWICZ Lattice Value chain",
    "psi": "InvarianceViolation check_left_invariant mat_compose parse_matrix",
    "reference": "TreeVertex cdfa_evaluate inclusion_degree mat_vec reverse_nerode_tree "
                 "serialize_automaton",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def _bind(namespace: dict, module: str | None, name: str):
    """Import name from the package's module, bind it in namespace, a module's
    globals, and return it; None for module raises that module's AttributeError."""
    if module is None:
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    value = namespace[name] = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    return value


def __getattr__(name: str):
    """Import a public name from its module on first use, then keep it here."""
    return _bind(globals(), _MODULE_OF.get(name), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
