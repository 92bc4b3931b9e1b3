"""Command line front end.

Subcommands: eval, det, equiv, semiring. Reports go to stdout and are
byte-identical across runs on the same input; diagnostics and --stats go to
stderr. Exit codes: 0 success, 1 not equivalent, 2 usage or input errors,
3 a construction hit its state cap.

parse_args reads the command line as argparse read it, from COMMANDS; one
not plainly spelt, --help and usage errors load usage. Each call loads only
what its command runs; det and equiv run in detcli. The library functions a
command calls are looked up as names of this module at each call, so that
bench/'s tracer can replace them by name.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import _MODULE_OF
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

# Each command's positionals, and its flags with the kind of their value: str,
# int, a choice of METHODS, or bool for a switch. Each also takes -h/--help.
COMMANDS = {"eval": (("file", "word"), {}),
            "det": (("file",), {"--method": METHODS, "--psi": str, "--max-states": int,
                                "--dot": str, "--stats": bool}),
            "equiv": (("file1", "file2"), {"--method": str, "--psi": str, "--max-states": int}),
            "semiring": (("file",), {"--cap": int})}
DEFAULTS = {"--method": "incl", "--psi": None, "--max-states": DEFAULT_CAP, "--dot": None,
            "--stats": False, "--cap": DEFAULT_CAP}

# Names bound here the first time they are looked up, from their module: the
# det and equiv handlers, usage's read_argv and the package's public names.
_LAZY = {"cmd_det": "detcli", "cmd_equiv": "detcli", "read_argv": "usage"}


def __getattr__(name: str):
    module = _LAZY.get(name) or _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    value = globals()[name] = getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)
    return value


def _bound(name: str):
    """What this module's name stands for now, binding it on first use."""
    return globals()[name] if name in globals() else __getattr__(name)


def _read(path: str) -> str:
    # The parsers split lines at \r\n, \r and \n, so reading bytes needs no
    # newline translation, and a decode error's offset is the file's: a
    # leading byte order mark is dropped only once decoded.
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise FuzzdetError(f"cannot read {path}: {e.strerror}") from None
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
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


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """argv's namespace when it is plainly spelt, else None: a command, then
    its flags in full and values that start with no '-' but for '-' itself,
    one after each flag that takes one and one for each positional."""
    names, flags = COMMANDS.get(argv[0] if argv else "", ((), None))
    if flags is None:
        return None
    args = SimpleNamespace(command=argv[0], **{f[2:].replace("-", "_"): DEFAULTS[f] for f in flags})
    values, tokens = [], iter(argv[1:])
    for token in tokens:
        kind = flags.get(token)
        value = True if kind is bool else next(tokens, "--") if kind else token
        if value is not True and value[:1] == "-" and value != "-":
            return None  # an option, '--', a missing value or one like -5
        if kind is None:
            values.append(value)
            continue
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is METHODS and value not in METHODS:
            return None
        setattr(args, token[2:].replace("-", "_"), value)
    if len(values) != len(names):
        return None
    args.__dict__.update(zip(names, values))
    return args


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read as argparse read it: the command, and an attribute per
    positional and flag. --help prints its text and raises SystemExit(0); a
    usage error prints to stderr and raises SystemExit(2)."""
    return _read_plain(argv) or _bound("read_argv")(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return e.code
    handler = _bound(f"cmd_{args.command}")
    try:
        code = handler(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except (BrokenPipeError, UnicodeEncodeError) as e:
        # The reader of stdout went away, or stdout cannot encode a symbol of
        # the report: neither says anything about the input. Drop what stdout
        # still buffers, so that exit does not fail again.
        print(f"error: cannot write stdout: {getattr(e, 'strerror', e)}", file=sys.stderr)
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
