"""Command line front end.

Subcommands: eval, det, equiv, semiring. Reports go to stdout and are
byte-identical across runs on the same input; diagnostics and --stats go to
stderr. Exit codes: 0 success, 1 not equivalent, 2 usage or input errors,
3 a construction hit its state cap. Only det and equiv load determinize.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from .algebra import DEFAULT_CAP, FuzzyMatrix, preflight
from .automata import FuzzyAutomaton, evaluate, find_witness
from .errors import FormatError, FuzzdetError, PsiNotLeftInvariant, PsiNotReflexive
from .formats import (
    export_dot,
    format_word,
    parse_automaton,
    parse_matrix,
    parse_word,
)

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# Each --method and the determinize construction it runs. The constructions
# are bound as names of this module the first time det or equiv runs, and
# looked up by name at each call: the tracer in bench/ replaces them by name.
METHODS = {"nerode": "nerode", "rnerode": "reverse_nerode", "incl": "d_automaton",
           "brzozowski": "brzozowski", "psi": "psi_d_automaton"}


def _constructions() -> None:
    """Load determinize and bind each construction not bound yet."""
    from . import determinize
    for name in METHODS.values():
        globals().setdefault(name, getattr(determinize, name))


def __getattr__(name: str):
    if name in METHODS.values():
        _constructions()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _read(path: str) -> str:
    # The parsers split lines with str.splitlines, so reading bytes needs no
    # newline translation, and a decode error's offset is the file's.
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise FuzzdetError(f"cannot read {path}: {e.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FuzzdetError(f"cannot read {path}: not UTF-8 text "
                           f"(byte 0x{data[e.start]:02x} at offset {e.start})") from None


def _load(path: str) -> FuzzyAutomaton:
    return parse_automaton(_read(path))


def _read_psi(psi_path: str | None) -> str | None:
    """The text of the --psi file, None for no file or 'identity'."""
    if psi_path is None or psi_path == "identity":
        return None
    try:
        return _read(psi_path)
    except FuzzdetError as e:
        raise FuzzdetError(f"--psi: {e}") from None


def _parse_psi(text: str | None, a: FuzzyAutomaton) -> FuzzyMatrix | None:
    """The --psi matrix for automaton a, None for the identity relation."""
    if text is None:
        return None
    try:
        return parse_matrix(text, a.lattice, a.n)
    except FormatError as e:
        raise FuzzdetError(f"--psi: {e}") from None


def _determinize(a: FuzzyAutomaton, method: str, cap: int,
                 psi: FuzzyMatrix | None) -> DetOutcome:
    construct = globals()[METHODS[method]]
    if method != "psi":
        return construct(a, cap)
    try:
        return construct(a, psi, cap)
    except (PsiNotReflexive, PsiNotLeftInvariant) as e:
        raise FuzzdetError(f"--psi: {e}") from None


def _closure_line(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> str:
    report = preflight(a, cap)
    if report.closure.closed:
        k = report.closure.k
        return f"finite, k={k}, bound {k}^{report.n}={report.bound}"
    return f"cap exceeded at {report.closure.cap}"


def cmd_eval(args) -> int:
    a = _load(args.file)
    word = parse_word(args.word, a.alphabet)
    print(a.lattice.format_value(evaluate(a, word)))
    return EXIT_OK


def _check_psi_applies(psi_path: str | None, methods: list[str]) -> None:
    if psi_path is not None and "psi" not in methods:
        raise FuzzdetError("--psi applies only to --method psi")


def _check_cap(flag: str, n: int) -> None:
    if n < 1:
        raise FuzzdetError(f"{flag} must be at least 1, got {n}")


def cmd_det(args) -> int:
    _constructions()
    _check_cap("--max-states", args.max_states)
    _check_psi_applies(args.psi, [args.method])
    a = _load(args.file)
    psi = _parse_psi(_read_psi(args.psi), a)
    closure = _closure_line(a)
    # construct, and write a DOT file, before the first report line, so that
    # a bad psi or an unwritable --dot PATH prints none
    outcome = _determinize(a, args.method, args.max_states, psi)
    dot = export_dot(outcome.cdfa) if outcome.ok and args.dot is not None else None
    if dot is not None and args.dot != "-":
        try:
            with open(args.dot, "w", encoding="utf-8") as f:
                f.write(dot)
        except OSError as e:
            raise FuzzdetError(f"--dot: cannot write {args.dot}: {e.strerror}") from None
    print(f"semiring: {closure}")
    if closure.startswith("cap exceeded"):
        print("warning: membership values did not close, "
              "termination is not guaranteed", file=sys.stderr)
    if args.stats:
        s = outcome.stats
        print(f"stats: vertices={s.vertices} closure_checks={s.closure_checks} "
              f"elapsed={s.elapsed:.3f}s", file=sys.stderr)
    if not outcome.ok:
        r = outcome.result
        print(f"cap exceeded: {r.states_built} states built (max-states {r.cap})")
        return EXIT_CAP
    c = outcome.cdfa
    fmt = c.lattice.format_value
    print(f"states: {c.n}")
    for s in range(c.n):
        word = format_word(c.labels[s].word)
        print(f"state {s + 1}: word={word}, terminal={fmt(c.terminal[s])}")
    if args.dot == "-":
        sys.stdout.write(dot)
    return EXIT_OK


def cmd_equiv(args) -> int:
    _constructions()
    _check_cap("--max-states", args.max_states)
    methods = args.method.split(",")
    if len(methods) == 1:
        methods = methods * 2
    if len(methods) != 2 or any(m not in METHODS for m in methods):
        raise FuzzdetError(f"--method takes one or two of {', '.join(METHODS)}")
    _check_psi_applies(args.psi, methods)
    a1 = _load(args.file1)
    a2 = _load(args.file2)
    if a1.lattice != a2.lattice:
        raise FuzzdetError(
            f"lattices differ: {a1.lattice.describe()} vs {a2.lattice.describe()}")
    if a1.alphabet != a2.alphabet:
        raise FuzzdetError(f"alphabets differ: {a1.alphabet} vs {a2.alphabet}")
    psi_text = _read_psi(args.psi)
    psis = [_parse_psi(psi_text, a) if m == "psi" else None
            for a, m in zip((a1, a2), methods)]
    outcomes = []
    for a, m, psi in zip((a1, a2), methods, psis):
        outcome = _determinize(a, m, args.max_states, psi)
        if not outcome.ok:
            r = outcome.result
            print(f"cap exceeded: {r.states_built} states built "
                  f"(max-states {r.cap})", file=sys.stderr)
            return EXIT_CAP
        outcomes.append(outcome.cdfa)
    witness = find_witness(outcomes[0], outcomes[1])
    if witness is None:
        print("equivalent")
        return EXIT_OK
    print(f"not equivalent, witness: {format_word(witness)}")
    return EXIT_NOT_EQUIVALENT


def cmd_semiring(args) -> int:
    _check_cap("--cap", args.cap)
    a = _load(args.file)
    print(_closure_line(a, args.cap))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzdet",
        description="Evaluate and crisp-determinize fuzzy finite automata.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="membership degree of one word")
    p.add_argument("file", help="automaton document")
    p.add_argument("word", help="dot-separated symbols, or _ for the empty word")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("det", help="determinize to a cdfa and report it")
    p.add_argument("file", help="automaton document")
    p.add_argument("--method", choices=METHODS, default="incl")
    p.add_argument("--psi", default=None, metavar="FILE",
                   help="psi matrix document, or 'identity' (psi method only)")
    p.add_argument("--max-states", type=int, default=DEFAULT_CAP, metavar="N")
    p.add_argument("--dot", default=None, metavar="FILE",
                   help="write DOT here, '-' for stdout")
    p.add_argument("--stats", action="store_true",
                   help="print build counters to stderr")
    p.set_defaults(handler=cmd_det)

    p = sub.add_parser("equiv", help="compare the languages of two automata")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--method", default="incl", metavar="M[,M]",
                   help="construction per input, one name or a comma pair")
    p.add_argument("--psi", default=None, metavar="FILE")
    p.add_argument("--max-states", type=int, default=DEFAULT_CAP, metavar="N")
    p.set_defaults(handler=cmd_equiv)

    p = sub.add_parser("semiring", help="close the value set, report the k^n bound")
    p.add_argument("file", help="automaton document")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, metavar="N",
                   help="stop after this many distinct values")
    p.set_defaults(handler=cmd_semiring)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handler: Callable = args.handler
    try:
        return handler(args)
    except (FuzzdetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
