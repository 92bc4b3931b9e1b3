"""The det and equiv commands, and DOT (export_dot), which only they write.
cli loads this module when det or equiv runs; fuzzdet.psi reads a --psi
file and loads only when --psi names one. These commands read the library
functions they call as attributes of cli at each call, so that a name
replaced on cli is the one that runs.
"""

import sys

from . import cli
from .algebra import FuzzyMatrix
from .automata import FuzzyAutomaton
from .cli import (EXIT_CAP, EXIT_NOT_EQUIVALENT, EXIT_OK, METHODS, _check_cap, _closure_line,
                  _load, _read, _to_stderr)
from .determinize import Cdfa, DetOutcome
from .errors import FuzzdetError, PsiNotLeftInvariant, PsiNotReflexive
from .formats import _quote, format_word


# -- DOT export --------------------------------------------------------------


def export_dot(obj) -> str:
    """Render a cdfa, or a fuzzy automaton (see reference), as a DOT digraph.

    Cdfa: one node per state labelled 'word/terminal degree', a hidden
    start marker pointing at the initial state, merged symbol-only edges.
    """
    if isinstance(obj, Cdfa):
        return _cdfa_dot(obj)
    if isinstance(obj, FuzzyAutomaton):
        from .reference import _automaton_dot  # no command exports an automaton
        return _automaton_dot(obj)
    raise TypeError(f"cannot export {type(obj).__name__} as DOT")


def _cdfa_dot(c: Cdfa) -> str:
    fmt = c.lattice.format_value
    out = ["digraph cdfa {", "  rankdir=LR;"]
    out.append('  __start [shape=point, label=""];')
    for s in range(c.n):
        label = f"{format_word(c.words[s])}/{fmt(c.terminal[s])}"
        out.append(f"  s{s + 1} [shape=circle, label={_quote(label)}];")
    out.append(f"  __start -> s{c.initial + 1};")
    for s in range(c.n):
        grouped: dict[int, list[str]] = {}
        for t, x in zip(c.transitions[s], c.alphabet):
            grouped.setdefault(t, []).append(x)
        for t, symbols in grouped.items():
            label = ",".join(symbols)
            out.append(f"  s{s + 1} -> s{t + 1} [label={_quote(label)}];")
    out.append("}")
    return "\n".join(out) + "\n"


def _read_psi(psi_path: str | None, a: FuzzyAutomaton) -> FuzzyMatrix | None:
    """The --psi matrix for automaton a, None for no file or 'identity'. An
    unreadable or malformed file is an error whose message starts --psi:."""
    if psi_path is None or psi_path == "identity":
        return None
    from .psi import parse_matrix
    try:
        return parse_matrix(_read(psi_path), a.lattice, a.n)
    except FuzzdetError as e:
        raise FuzzdetError(f"--psi: {e}") from None


def _determinize(a: FuzzyAutomaton, method: str, cap: int,
                 psi: FuzzyMatrix | None) -> DetOutcome:
    construct = getattr(cli, METHODS[method])
    if method != "psi":
        return construct(a, cap)
    try:
        return construct(a, psi, cap)
    except (PsiNotReflexive, PsiNotLeftInvariant) as e:
        raise FuzzdetError(f"--psi: {e}") from None


def _check_psi_applies(psi_path: str | None, methods: list[str]) -> None:
    if psi_path is not None and "psi" not in methods:
        raise FuzzdetError("--psi applies only to --method psi")


def cmd_det(args) -> int:
    _check_cap("--max-states", args.max_states)
    _check_psi_applies(args.psi, [args.method])
    a = _load(args.file)
    psi = _read_psi(args.psi, a)
    closure = _closure_line(a)
    # construct, and write a DOT file, before the first report line, so that
    # a bad psi or an unwritable --dot PATH prints none
    outcome = _determinize(a, args.method, args.max_states, psi)
    dot = cli.export_dot(outcome.cdfa) if outcome.ok and args.dot is not None else None
    if dot is not None and args.dot != "-":
        try:
            with open(args.dot, "w", encoding="utf-8") as f:
                f.write(dot)
        except OSError as e:
            raise FuzzdetError(f"--dot: cannot write {args.dot}: {e.strerror}") from None
    print(f"semiring: {closure}")
    if closure.startswith("cap exceeded"):
        _to_stderr("warning: membership values did not close, termination is not guaranteed")
    if args.stats:
        s = outcome.stats
        _to_stderr(f"stats: vertices={s.vertices} closure_checks={s.closure_checks} "
                   f"elapsed={s.elapsed:.3f}s")
    if not outcome.ok:
        r = outcome.result
        print(f"cap exceeded: {r.states_built} states built (max-states {r.cap})")
        return EXIT_CAP
    c = outcome.cdfa
    fmt = c.lattice.format_value
    print(f"states: {c.n}")
    for s in range(c.n):
        word = cli.format_word(c.words[s])
        print(f"state {s + 1}: word={word}, terminal={fmt(c.terminal[s])}")
    if args.dot == "-":
        sys.stdout.write(dot)
    return EXIT_OK


def cmd_equiv(args) -> int:
    _check_cap("--max-states", args.max_states)
    methods = args.method.split(",")
    if len(methods) == 1:
        methods = methods * 2
    if len(methods) != 2 or any(m not in METHODS for m in methods):
        raise FuzzdetError("--method takes one or two of "
                           + ", ".join(m for m in METHODS if m != "rnerode"))
    if "rnerode" in methods:  # its cdfa reads each word reversed
        raise FuzzdetError("--method rnerode recognizes the reverse language; equiv takes the rest")
    _check_psi_applies(args.psi, methods)
    a1 = _load(args.file1)
    a2 = _load(args.file2)
    if a1.lattice != a2.lattice:
        raise FuzzdetError(
            f"lattices differ: {a1.lattice.describe()} vs {a2.lattice.describe()}")
    if set(a1.alphabet) != set(a2.alphabet):
        raise FuzzdetError(f"alphabets differ: {a1.alphabet} vs {a2.alphabet}")
    a2 = FuzzyAutomaton(a2.lattice, a1.alphabet, a2.sigma, a2.delta, a2.tau)  # in file1's order
    psis = [_read_psi(args.psi, a) if m == "psi" else None for a, m in zip((a1, a2), methods)]
    outcomes = []
    for a, m, psi in zip((a1, a2), methods, psis):
        outcome = _determinize(a, m, args.max_states, psi)
        if not outcome.ok:
            r = outcome.result
            _to_stderr(f"cap exceeded: {r.states_built} states built (max-states {r.cap})")
            return EXIT_CAP
        outcomes.append(outcome.cdfa)
    witness = cli.find_witness(outcomes[0], outcomes[1])
    if witness is None:
        print("equivalent")
        return EXIT_OK
    print(f"not equivalent, witness: {cli.format_word(witness)}")
    return EXIT_NOT_EQUIVALENT
