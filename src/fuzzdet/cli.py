"""Command line front end.

Subcommands: eval, det, equiv, semiring. Reports go to stdout and are
byte-identical across runs on the same input; diagnostics and --stats go to
stderr. Exit codes: 0 success, 1 not equivalent, 2 usage or input errors,
3 a construction hit its state cap.

Each call loads only what its command runs; det and equiv run in detcli.
The library functions a command calls are looked up as names of this
module at each call, so that bench/'s tracer can replace them by name.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable

from .algebra import DEFAULT_CAP
from .automata import FuzzyAutomaton, evaluate
from .errors import FuzzdetError
from .formats import parse_automaton, parse_word

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# Each --method and the determinize construction it runs.
METHODS = {"nerode": "nerode", "rnerode": "reverse_nerode", "incl": "d_automaton",
           "brzozowski": "brzozowski", "psi": "psi_d_automaton"}

# The names of this module that eval does not use, and the module each
# comes from; each is bound here the first time it is looked up.
_LAZY = {"format_word": "formats", "preflight": "closure", "export_dot": "detcli",
         "find_witness": "determinize", "cmd_det": "detcli", "cmd_equiv": "detcli",
         **dict.fromkeys(METHODS.values(), "determinize")}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    value = globals()[name] = getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)
    return value


def _bound(name: str) -> Callable:
    """What this module's name stands for now, binding it on first use."""
    return globals()[name] if name in globals() else __getattr__(name)


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


def _closure_line(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> str:
    report = _bound("preflight")(a, cap)
    if report.closure.closed:
        k = report.closure.k
        return f"finite, k={k}, bound {k}^{report.n}={report.bound}"
    return f"cap exceeded at {report.closure.cap}"


def cmd_eval(args) -> int:
    a = _load(args.file)
    word = parse_word(args.word, a.alphabet)
    print(a.lattice.format_value(evaluate(a, word)))
    return EXIT_OK


def _check_cap(flag: str, n: int) -> None:
    if n < 1:
        raise FuzzdetError(f"{flag} must be at least 1, got {n}")


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
    p.set_defaults(handler="cmd_eval")

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
    p.set_defaults(handler="cmd_det")

    p = sub.add_parser("equiv", help="compare the languages of two automata")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--method", default="incl", metavar="M[,M]",
                   help="construction per input, one name or a comma pair")
    p.add_argument("--psi", default=None, metavar="FILE")
    p.add_argument("--max-states", type=int, default=DEFAULT_CAP, metavar="N")
    p.set_defaults(handler="cmd_equiv")

    p = sub.add_parser("semiring", help="close the value set, report the k^n bound")
    p.add_argument("file", help="automaton document")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, metavar="N",
                   help="stop after this many distinct values")
    p.set_defaults(handler="cmd_semiring")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handler = _bound(args.handler)
    try:
        code = handler(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except BrokenPipeError as e:
        # The reader of stdout went away, which says nothing about the input.
        # Drop what stdout still buffers, so that exit does not fail again.
        print(f"error: cannot write stdout: {e.strerror}", file=sys.stderr)
        try:
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        except (AttributeError, OSError, ValueError):  # no file, as under a test
            pass
        return EXIT_USAGE
    except (FuzzdetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
