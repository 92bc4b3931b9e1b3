"""The command line reader against the argparse parser it replaced.

support.build_parser is that parser, kept as the oracle. A seeded corpus of
command lines goes through cli.main, with the four command handlers replaced
by recorders, and through the oracle: both must exit alike, parse the same
values and print the same --help text and usage errors. usage.read_argv, the
full reader that cli falls back on when a command line is not plainly spelt,
must agree with the oracle on every command line too.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from fuzzdet import cli, usage
from support import build_parser

DATA = Path(__file__).parent / "data"
HANDLERS = ("cmd_eval", "cmd_det", "cmd_equiv", "cmd_semiring")

# Each command's flags, with a value for those that take one.
FLAGS = {"eval": {},
         "det": {"--method": "incl", "--psi": "identity", "--max-states": "5", "--dot": "-",
                 "--stats": None},
         "equiv": {"--method": "incl,psi", "--psi": "identity", "--max-states": "5"},
         "semiring": {"--cap": "5"}}
EVERY_FLAG = sorted({flag for flags in FLAGS.values() for flag in flags} | {"--help"})
VALUES = ["-5", "-", "-x", "", "--", "identity", "F", "G", "_", "x.y", "incl", "psi",
          "nerode,incl", "magic", "7", "0", "+3", " 9", "-0", "-1.5", "--x", "-m", "x y",
          "-x y", "--he", "-h"]
NEAR_MISSES = ["ev", "evals", "Det", "equi", "semi", "", "-", "x", "-h", "--help", "--x"]
HELP_TOKENS = {"-h", "--h", "--he", "--hel", "--help"}


def _command(argv):
    """The first token that is no flag, the command if argv names one."""
    return next((t for t in argv if t[:1] != "-"), None)


def _ambiguous(token, command):
    """Whether token is a long-flag prefix that several of command's flags share."""
    name = token.partition("=")[0]
    options = ["--help", *FLAGS.get(command, ())]
    return token[:2] == "--" and sum(flag.startswith(name) for flag in options) > 1


def _varies_with_python(argv):
    """Whether argparse itself reads argv differently across Python 3.10 to 3.13.

    Such command lines are pinned in test_where_argparse_versions_differ
    instead: -h/--help before a prefix several flags share, -h joined to more
    letters, '--' as a joined value or twice, and '--' before the command.
    """
    command = _command(argv)
    help_at = min((i for i, t in enumerate(argv) if t in HELP_TOKENS), default=len(argv))
    return (any(_ambiguous(t, command) for t in argv[help_at:])
            or any(t[:2] == "-h" and len(t) > 2 for t in argv)
            or any(t.endswith("=--") for t in argv) or argv.count("--") > 1
            or "--" in argv[:argv.index(command) if command in argv else len(argv)])


def corpus(rng, count):
    """count command lines: commands and near-misses; positionals, missing,
    extra and dash-like values; each flag in full, as a prefix (unique or
    shared) and in '=' form; '--', and -h/--help anywhere."""
    argvs = []
    while len(argvs) < count:
        command = rng.choice(list(FLAGS)) if rng.random() < 0.93 else rng.choice(NEAR_MISSES)
        names = {"eval": 2, "equiv": 2}.get(command, 1)
        argv = [rng.choice(["F", "G", "_", "x.y"]) if rng.random() < 0.85 else rng.choice(VALUES)
                for _ in range(names if rng.random() < 0.7 else rng.randrange(4))]
        flags = FLAGS.get(command, {})
        for _ in range(rng.randrange(4)):
            own = list(flags) if flags and rng.random() < 0.9 else EVERY_FLAG
            flag = rng.choice(own)
            spelt = flag if rng.random() < 0.5 else flag[:rng.randrange(2, len(flag) + 1)]
            value = flags.get(flag, "5") if rng.random() < 0.7 else rng.choice(VALUES)
            at = rng.randrange(len(argv) + 1)
            if rng.random() < 0.2:
                argv.insert(at, f"{spelt}={value or ''}")
            else:
                argv[at:at] = [spelt] if value is None or rng.random() < 0.1 else [spelt, value]
        for token, chance in (("-h", 0.06), ("--help", 0.06), ("--", 0.1)):
            if rng.random() < chance:
                argv.insert(rng.randrange(len(argv) + 1), token)
        argv.insert(0, command)
        if rng.random() < 0.08:
            argv.insert(0, rng.choice(NEAR_MISSES))
        if not _varies_with_python(argv):
            argvs.append(argv)
    return argvs


def _quiet(call, argv):
    """(what call(argv) returns, or the code of the SystemExit it raises, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(list(argv))
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


@pytest.fixture
def recorded(monkeypatch):
    """The calls cli.main makes of its command handlers, each replaced by a
    recorder that returns 0: (handler name, the parsed attributes)."""
    calls = []
    for name in HANDLERS:
        monkeypatch.setattr(cli, name,
                            lambda args, name=name: calls.append((name, vars(args))) or 0)
    return calls


def test_reader_matches_argparse(monkeypatch, recorded):
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    argvs = corpus(random.Random(20260), 2400)
    accepted = helped = messages = 0
    for argv in argvs:
        want = _quiet(lambda a: vars(parser.parse_args(a)), argv)
        recorded.clear()
        got = _quiet(cli.main, argv)
        full = _quiet(lambda a: vars(usage.read_argv(a)), argv)
        if isinstance(want[0], dict):  # accepted: the same handler and values
            accepted += 1
            handler = want[0].pop("handler")
            assert (got, recorded) == ((0, "", ""), [(handler, want[0])]), argv
            assert full == want, argv
        else:  # --help or a usage error: the same exit code, stdout and stderr,
            # but for stderr where a prefix several flags share is read first
            # up to 3.13.0 and last after (test_where_argparse_versions_differ)
            helped += want[0] == 0
            n = 2 if any(_ambiguous(t, _command(argv)) for t in argv) else 3
            messages += n == 3 and want[0] != 0
            assert (got[:n], recorded) == (want[:n], []), argv
            assert full[:n] == want[:n], argv
    assert len(argvs) >= 2000 and accepted >= 200 and helped >= 200, (accepted, helped)
    assert messages >= 1000, messages


def _defaults(command, **given):
    flags = cli.COMMANDS[command][1]
    return {"command": command, **{f[2:].replace("-", "_"): cli.DEFAULTS[f] for f in flags},
            **given}


# Where argparse reads a command line differently from one Python version to
# the next, the reader follows 3.13.13, but for -h joined to other letters.
# The last four rows read alike on every version: a '--' after every
# positional is dropped (usage_errors.json pins where it is an extra).
@pytest.mark.parametrize("argv, want", [
    (["det", "F", "-h", "--m", "incl"], 0),  # 3.10 to 3.13.0: 2, the ambiguity first
    (["det", "F", "--m", "incl", "-h"], 2),
    (["det", "F", "-hh"], 0),
    (["det", "F", "-hx"], 2),  # 3.13: 0, help
    (["det", "F", "-h="], 2),
    (["det", "F", "--dot=--"], _defaults("det", file="F", dot="--")),  # 3.10 to 3.12: []
    (["semiring", "F", "--cap=--"], 2),  # 3.10 to 3.12: [], no error
    (["eval", "F", "--", "--"], _defaults("eval", file="F", word="--")),  # to 3.13.0: []
    (["--", "eval", "F", "_"], _defaults("eval", file="F", word="_")),  # 3.13.0 and before: 2
    (["eval", "F", "x", "--"], _defaults("eval", file="F", word="x")),
    (["det", "F", "--"], _defaults("det", file="F")),
    (["semiring", "F", "--"], _defaults("semiring", file="F")),
    (["equiv", "F", "G", "--"], _defaults("equiv", file1="F", file2="G")),
])
def test_where_argparse_versions_differ(argv, want):
    assert _quiet(lambda a: vars(cli.parse_args(a)), argv)[0] == want


GOLDEN = json.loads((DATA / "usage_errors.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("columns", ["80", "40"])
@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) or "none" for c in GOLDEN])
def test_usage_errors_unchanged(capsys, monkeypatch, case, columns):
    """Each usage error prints what argparse printed at 80 columns, now at
    any width of the terminal."""
    monkeypatch.setenv("COLUMNS", columns)
    code = cli.main(case["argv"])
    assert (code, *capsys.readouterr()) == (case["code"], case["stdout"], case["stderr"])
