"""Command line front end.

Subcommands: eval, det, equiv, semiring. Reports go to stdout and are
byte-identical across runs on the same input; diagnostics and --stats go to
stderr; one that cannot be written is dropped. Exit codes: 0 success, 1 not
equivalent, 2 usage or input errors, 3 a state cap hit or out of memory.

main returns the code: 2 for a FuzzdetError, the input's fault, and for an
OSError, which can only be stdout's, --help's included, 3 for a MemoryError.
run, the entry point, exits with it and skips the interpreter's teardown.
parse_args reads the command line as argparse read it, from COMMANDS; one
not plainly spelt, --help and usage errors load usage. Each call loads only
what its command runs; det and equiv run in detcli. The library functions a
command calls are looked up as attributes of this module at each call, so
bench/'s tracer can replace them.
"""

import atexit
import os
import sys
from types import SimpleNamespace

from . import _MODULE_OF, _bind
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
_self = sys.modules[__name__]  # where a command looks up the names it calls


def __getattr__(name: str):
    return _bind(globals(), _LAZY.get(name) or _MODULE_OF.get(name), name)


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


def cmd_eval(args) -> int:
    a = _load(args.file)
    word = parse_word(args.word, a.alphabet)
    print(a.lattice.format_value(evaluate(a, word)))
    return EXIT_OK


def cmd_semiring(args) -> int:
    from .closure import require_cap  # loaded by preflight anyway
    require_cap(args.cap, "--cap")
    print(_self.preflight(_load(args.file), args.cap))
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
    return _read_plain(argv) or _self.read_argv(argv)


def _to_stderr(line: str) -> None:
    """Write a diagnostic line to stderr, or drop one that cannot be written."""
    try:
        sys.stderr.write(f"{line}\n")
    except (AttributeError, OSError, ValueError):  # no stderr, or a closed one
        pass


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:  # fd 1 was closed when the process started
        _to_stderr("error: cannot write stdout: Bad file descriptor")
        return EXIT_USAGE
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = getattr(_self, f"cmd_{args.command}")(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except SystemExit as e:  # --help, flushed as it is written, or a usage error
        return e.code
    except FuzzdetError as e:
        _to_stderr(f"error: {e}")
        return EXIT_USAGE
    except (OSError, UnicodeEncodeError) as e:
        # A command turns a file's OSError into a FuzzdetError, so stdout
        # failed. Drop what it still buffers, so that exit does not fail again.
        _to_stderr(f"error: cannot write stdout: {getattr(e, 'strerror', None) or e}")
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):  # no file, as under a test
            pass
        return EXIT_USAGE
    except MemoryError:  # reported once the except has freed the construction's frames
        pass
    else:
        return code
    _to_stderr("error: out of memory")
    return EXIT_CAP


def run() -> None:
    """The process entry point: run the atexit handlers, flush stdout and
    stderr, and exit with main's code without the interpreter's teardown."""
    code = main()
    atexit._run_exitfuncs()  # as the interpreter runs them, before its last flush
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    except Exception:  # no stream, one that fails, or a code that is no int:
        sys.exit(code)  # the interpreter ends the process, as it always did


if __name__ == "__main__":
    run()
