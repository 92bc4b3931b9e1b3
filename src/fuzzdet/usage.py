"""The command line read in full, as argparse read it, and its --help texts.

cli reads a plainly spelt command line itself and loads this module for any
other: one that asks for --help, one that is wrong, and one that spells a
flag as a unique prefix or with =VALUE, holds '--' or a value that starts
with '-'. read_argv reads it from cli.COMMANDS. The texts are fixed at 80
columns, and a usage error prints the first paragraph of one.

Where argparse changed between Python 3.10 and 3.13, this reads as 3.13.13
does: a prefix that matches several flags is an error only once it is
reached (so `det F -h --m` prints help), '--' may come before the command,
and --dot=-- gives '--'. The one exception: -h joined to letters other
than h, as in -hx, is an error, as it was before 3.13.
"""

import re
from types import SimpleNamespace

from .cli import COMMANDS, DEFAULTS, EXIT_OK, EXIT_USAGE, METHODS, _to_stderr

# Each command's --help text; "" is fuzzdet's own.
HELP = {"": """\
usage: fuzzdet [-h] {eval,det,equiv,semiring} ...

Evaluate and crisp-determinize fuzzy finite automata.

positional arguments:
  {eval,det,equiv,semiring}
    eval                membership degree of one word
    det                 determinize to a cdfa and report it
    equiv               compare the languages of two automata
    semiring            close the value set, report the k^n bound

options:
  -h, --help            show this help message and exit
""",
        "eval": """\
usage: fuzzdet eval [-h] file word

positional arguments:
  file        automaton document
  word        dot-separated symbols, or _ for the empty word

options:
  -h, --help  show this help message and exit
""",
        "det": """\
usage: fuzzdet det [-h] [--method {nerode,rnerode,incl,brzozowski,psi}]
                   [--psi FILE] [--max-states N] [--dot FILE] [--stats]
                   file

positional arguments:
  file                  automaton document

options:
  -h, --help            show this help message and exit
  --method {nerode,rnerode,incl,brzozowski,psi}
  --psi FILE            psi matrix document, or 'identity' (psi method only)
  --max-states N
  --dot FILE            write DOT here, '-' for stdout
  --stats               print build counters to stderr
""",
        "equiv": """\
usage: fuzzdet equiv [-h] [--method M[,M]] [--psi FILE] [--max-states N]
                     file1 file2

positional arguments:
  file1
  file2

options:
  -h, --help      show this help message and exit
  --method M[,M]  construction per input, one name or a comma pair
  --psi FILE
  --max-states N
""",
        "semiring": """\
usage: fuzzdet semiring [-h] [--cap N] file

positional arguments:
  file        automaton document

options:
  -h, --help  show this help message and exit
  --cap N     stop after this many distinct values
"""}

_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a negative number is a value, not a flag


def exit_with(command: str, message: str | None = None):
    """Print the --help text of command, flushed so that a stdout that cannot
    be written fails in cli.main, and exit 0; or, given an error message,
    print the text's usage lines and the message on stderr and exit 2."""
    if message is None:
        print(HELP[command], end="", flush=True)
        raise SystemExit(EXIT_OK)
    usage = HELP[command].split("\n\n", 1)[0]
    prog = f"fuzzdet {command}".rstrip()
    _to_stderr(f"{usage}\n{prog}: error: {message}")
    raise SystemExit(EXIT_USAGE)


def _choose(command: str, name: str, value: str, choices: dict) -> None:
    if value not in choices:
        exit_with(command, f"argument {name}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, choices))})")


def _option(token: str, options: dict, command: str) -> tuple | None:
    """None when token is a value, else (flag, the value joined to it or None);
    the flag is None for an option the command does not take."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return token, None
    if token[1] == "-":  # a long flag or a unique prefix of one, then =VALUE
        name, eq, value = token.partition("=")
        matches = [flag for flag in options if flag.startswith(name)]
        if len(matches) > 1:
            exit_with(command, f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[1] == "h":  # -h joined to more letters h, or to =VALUE
        return "-h", token[2:].removeprefix("=")
    return None if _NUMBER.match(token) or " " in token else (None, None)


def _parse(command: str, names: tuple, flags: dict, argv: list[str]) -> tuple:
    """(the namespace read, the tokens nothing took, the tokens after the command).

    A flag takes the next token as its value unless that is an option or
    '--'. '--' makes the rest values, and is dropped when a positional takes
    the token before or after it. Command "" is fuzzdet itself, which stops
    after the command.
    """
    options = {"-h": bool, "--help": bool, **flags}
    args = SimpleNamespace(command=command,
                           **{flag[2:].replace("-", "_"): DEFAULTS[flag] for flag in flags})
    todo, extras = list(names), []
    i, taken, dashed = 0, False, False
    while i < len(argv) and (command or todo):
        token = argv[i]
        i += 1
        if token == "--" and not dashed:
            dashed = True
            if not (taken or todo and i < len(argv)):
                extras.append(token)
            continue
        option = None if dashed else _option(token, options, command)
        taken = option is None and bool(todo)
        if taken:
            setattr(args, todo.pop(0), token)
        if option is None or option[0] is None:
            if not taken:
                extras.append(token)
            continue
        flag, value = option
        kind = options[flag]
        if kind is bool:  # a switch, which takes no value; -hh is -h
            extra = value.lstrip("h") if flag == "-h" and value else value
            if extra is not None and (extra or not value):
                name = "-h/--help" if flag in ("-h", "--help") else flag
                exit_with(command, f"argument {name}: ignored explicit argument {extra!r}")
            if flag not in flags:
                exit_with(command)
            value = True
        elif value is None:
            if i == len(argv) or argv[i] == "--" or _option(argv[i], options, command):
                exit_with(command, f"argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                exit_with(command, f"argument {flag}: invalid int value: {value!r}")
        elif kind is METHODS:
            _choose(command, flag, value, METHODS)
        setattr(args, flag[2:].replace("-", "_"), value)
    if todo:
        exit_with(command, f"the following arguments are required: {', '.join(todo)}")
    return args, extras, argv[i:]


def read_argv(argv: list[str]) -> SimpleNamespace:
    """What cli.parse_args returns for argv, for any argv."""
    top, extras, rest = _parse("", ("command",), {}, argv)
    _choose("", "command", top.command, COMMANDS)
    args, more, _ = _parse(top.command, *COMMANDS[top.command], rest)
    if extras + more:
        exit_with("", f"unrecognized arguments: {' '.join(extras + more)}")
    return args
