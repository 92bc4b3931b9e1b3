"""Command line behavior: outputs, exit codes, determinism."""

import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fuzzdet
from fuzzdet import FuzzyAutomaton, chain, parse_automaton, serialize_automaton
from fuzzdet.cli import main
from dotcheck import validate_dot

BENCH = Path(__file__).parent.parent / "bench"
HELP = Path(__file__).parent / "data" / "help"


def run_cli(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_eval_fixture_words(capsys, goguen3_path):
    assert run_cli(capsys, "eval", goguen3_path, "_") == (0, "0\n", "")
    assert run_cli(capsys, "eval", goguen3_path, "x") == (0, "0.5\n", "")
    assert run_cli(capsys, "eval", goguen3_path, "y.y") == (0, "1\n", "")


def test_eval_bad_word(capsys, goguen3_path):
    code, out, err = run_cli(capsys, "eval", goguen3_path, "x.q")
    assert code == 2
    assert out == ""
    assert "q" in err


def test_eval_missing_file(capsys):
    code, _, err = run_cli(capsys, "eval", "/no/such/file.fza", "_")
    assert code == 2
    assert "cannot read" in err


def test_non_utf8_document_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.fza"
    bad.write_bytes(b"lattice boolean\n\xff\n")
    says = f"error: cannot read {bad}: not UTF-8 text (byte 0xff at offset 16)\n"
    for argv in (["eval", str(bad), "_"], ["det", str(bad)], ["semiring", str(bad)],
                 ["equiv", str(bad), str(bad)]):
        assert run_cli(capsys, *argv) == (2, "", says), argv


def test_eval_parse_error_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.fza"
    bad.write_text("lattice goguen\nalphabet x\nstates 1\ninitial 2\n"
                   "terminal 0\ntransitions x\n0\n")
    code, _, err = run_cli(capsys, "eval", str(bad), "_")
    assert code == 2
    assert "line 4" in err


def test_unreadable_count_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.fza"
    bad.write_text("lattice goguen\nalphabet x\nstates \u00b2\ninitial 1\n"
                   "terminal 0\ntransitions x\n0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "det", str(bad))
    assert (code, out) == (2, "")
    assert "line 3" in err


def test_det_incl_fixture(capsys, goguen3_path):
    code, out, err = run_cli(capsys, "det", goguen3_path, "--method", "incl")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "semiring: cap exceeded at 10000"
    assert lines[1] == "states: 3"
    assert lines[2] == "state 1: word=_, terminal=0"
    assert lines[3] == "state 2: word=x, terminal=0.5"
    assert lines[4] == "state 3: word=y, terminal=1"
    assert "termination is not guaranteed" in err


def test_det_nerode_boolean(capsys, boolean3_path):
    code, out, _ = run_cli(capsys, "det", boolean3_path, "--method", "nerode")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "semiring: finite, k=2, bound 2^3=8"
    assert lines[1] == "states: 7"
    assert len(lines) == 2 + 7


def test_det_rnerode_and_brzozowski(capsys, goguen3_path):
    code, out, _ = run_cli(capsys, "det", goguen3_path, "--method", "rnerode")
    assert code == 0
    assert "states: 4" in out
    code, out, _ = run_cli(capsys, "det", goguen3_path, "--method", "brzozowski")
    assert code == 0
    assert "states: 3" in out


def test_det_cap_exceeded(capsys, goguen3_path):
    code, out, _ = run_cli(capsys, "det", goguen3_path,
                           "--method", "nerode", "--max-states", "100")
    assert code == 3
    assert "cap exceeded: 100 states built (max-states 100)" in out


def test_det_unknown_method(capsys, goguen3_path):
    code, _, err = run_cli(capsys, "det", goguen3_path, "--method", "subset")
    assert code == 2
    assert "invalid choice" in err


def test_det_invalid_cap(capsys, goguen3_path):
    code, out, err = run_cli(capsys, "det", goguen3_path, "--max-states", "0")
    assert (code, out) == (2, "")
    assert "--max-states" in err


def test_equiv_invalid_cap(capsys, goguen3_path):
    code, out, err = run_cli(capsys, "equiv", goguen3_path, goguen3_path,
                             "--max-states", "-1")
    assert (code, out) == (2, "")
    assert "--max-states" in err


def test_det_dot_file(capsys, tmp_path, goguen3_path):
    out_path = tmp_path / "out.dot"
    code, out, _ = run_cli(capsys, "det", goguen3_path, "--dot", str(out_path))
    assert code == 0
    text = out_path.read_text()
    info = validate_dot(text)
    assert info["edges"] == 6
    assert "states: 3" in out


def test_det_dot_write_error_names_flag(capsys, goguen3_path):
    code, out, err = run_cli(capsys, "det", goguen3_path, "--dot", "/nonexistent/x.dot")
    assert (code, out) == (2, "")  # the file is written before any report line
    assert err.endswith("error: --dot: cannot write /nonexistent/x.dot: "
                        "No such file or directory\n")


def test_det_dot_stdout(capsys, goguen3_path):
    code, out, _ = run_cli(capsys, "det", goguen3_path, "--dot", "-")
    assert code == 0
    report, dot = out.split("digraph", 1)
    assert "states: 3" in report
    validate_dot("digraph" + dot)


def test_det_stats_on_stderr(capsys, goguen3_path):
    _, out_plain, _ = run_cli(capsys, "det", goguen3_path)
    code, out, err = run_cli(capsys, "det", goguen3_path, "--stats")
    assert code == 0
    assert "vertices=" in err and "elapsed=" in err
    assert out == out_plain  # stats never touch stdout


def test_det_psi_identity(capsys, goguen3_path):
    code, out, _ = run_cli(capsys, "det", goguen3_path,
                           "--method", "psi", "--psi", "identity")
    assert code == 0
    assert "states: 3" in out


def test_det_psi_from_file(capsys, tmp_path, goguen3_path):
    psi = tmp_path / "psi.mat"
    psi.write_text("1 0 0\n0 1 0\n0 0 1\n")
    code, out, _ = run_cli(capsys, "det", goguen3_path,
                           "--method", "psi", "--psi", str(psi))
    assert code == 0
    assert "states: 3" in out
    bad = tmp_path / "bad.mat"
    bad.write_text("1 1 1\n1 1 1\n1 1 1\n")
    code, _, err = run_cli(capsys, "det", goguen3_path,
                           "--method", "psi", "--psi", str(bad))
    assert code == 2
    assert "sigma" in err


def test_psi_file_errors_before_any_report(capsys, tmp_path, goguen3_path):
    wide = tmp_path / "wide.mat"
    wide.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n")
    latin = tmp_path / "latin.mat"
    latin.write_bytes(b"1 0 \xbd\n0 1 0\n0 0 1\n")
    ones = tmp_path / "ones.mat"
    ones.write_text("1 1 1\n1 1 1\n1 1 1\n")
    zero = tmp_path / "zero.mat"
    zero.write_text("0 0 0\n0 1 0\n0 0 1\n")
    for psi, says in (("/missing", "--psi: cannot read /missing: No such file"),
                      (str(wide), "--psi: line 1: row 1 needs 3 values, got 4"),
                      (str(latin), f"--psi: cannot read {latin}: not UTF-8 text "
                                   "(byte 0xbd at offset 4)"),
                      (str(ones), "--psi: (sigma ∘ psi)[2] = 1 exceeds sigma[2] = 0"),
                      (str(zero), "--psi: psi[1,1] = 0, expected top")):
        code, out, err = run_cli(capsys, "det", goguen3_path, "--method", "psi", "--psi", psi)
        assert (code, out) == (2, ""), psi
        assert err.startswith("error: " + says), err
        code, out, err = run_cli(capsys, "equiv", goguen3_path, goguen3_path,
                                 "--method", "incl,psi", "--psi", psi)
        assert (code, out) == (2, ""), psi
        assert err.startswith("error: " + says), err


def test_det_psi_needs_psi_method(capsys, goguen3_path):
    code, out, err = run_cli(capsys, "det", goguen3_path, "--psi", "/nonexistent")
    assert (code, out) == (2, "")
    assert "--psi" in err
    code, _, err = run_cli(capsys, "det", goguen3_path,
                           "--method", "brzozowski", "--psi", "identity")
    assert code == 2
    assert "--psi" in err


def test_equiv_psi_needs_psi_method(capsys, goguen3_path):
    code, out, err = run_cli(capsys, "equiv", goguen3_path, goguen3_path,
                             "--method", "incl,brzozowski", "--psi", "X")
    assert (code, out) == (2, "")
    assert "--psi" in err
    code, out, _ = run_cli(capsys, "equiv", goguen3_path, goguen3_path,
                           "--method", "incl,psi", "--psi", "identity")
    assert (code, out) == (0, "equivalent\n")


def test_equiv_checks_method_before_reading(capsys, tmp_path):
    missing = str(tmp_path / "missing.fza")
    code, out, err = run_cli(capsys, "equiv", missing, str(tmp_path / "other.fza"),
                             "--method", "magic")
    assert (code, out) == (2, "")
    assert "--method" in err


def test_equiv_methods_agree(capsys, goguen3_path):
    code, out, _ = run_cli(capsys, "equiv", goguen3_path, goguen3_path,
                           "--method", "incl,brzozowski")
    assert (code, out) == (0, "equivalent\n")
    code, out, _ = run_cli(capsys, "equiv", goguen3_path, goguen3_path)
    assert (code, out) == (0, "equivalent\n")


def test_equiv_flipped_terminal(capsys, tmp_path, boolean3_path):
    original = parse_automaton(Path(boolean3_path).read_text(encoding="utf-8"))
    flipped_tau = [str(1 - v) for v in original.tau]
    flipped = FuzzyAutomaton.build(
        original.lattice, original.alphabet,
        [original.lattice.format_value(v) for v in original.sigma],
        {x: [[original.lattice.format_value(v) for v in row]
             for row in original.delta[x].entries] for x in original.alphabet},
        flipped_tau)
    path = tmp_path / "flipped.fza"
    path.write_text(serialize_automaton(flipped))
    code, out, _ = run_cli(capsys, "equiv", boolean3_path, str(path))
    assert code == 1
    assert out == "not equivalent, witness: _\n"


def test_equiv_mismatched_alphabets(capsys, tmp_path, goguen3_path):
    other = tmp_path / "other.fza"
    other.write_text("lattice goguen\nalphabet a b\nstates 1\ninitial 1\n"
                     "terminal 1\ntransitions a\n1\ntransitions b\n1\n")
    code, _, err = run_cli(capsys, "equiv", goguen3_path, str(other))
    assert code == 2
    assert "alphabets differ" in err


def test_equiv_bad_method_pair(capsys, goguen3_path):
    code, _, err = run_cli(capsys, "equiv", goguen3_path, goguen3_path,
                           "--method", "incl,magic")
    assert code == 2
    assert "method" in err


def test_equiv_cap_exceeded(capsys, goguen3_path):
    code, _, err = run_cli(capsys, "equiv", goguen3_path, goguen3_path,
                           "--method", "nerode", "--max-states", "50")
    assert code == 3
    assert "cap exceeded" in err


def test_semiring_reports(capsys, goguen3_path, boolean3_path, tmp_path):
    assert run_cli(capsys, "semiring", boolean3_path)[:2] == (
        0, "finite, k=2, bound 2^3=8\n")
    assert run_cli(capsys, "semiring", goguen3_path)[:2] == (
        0, "cap exceeded at 10000\n")
    code, out, _ = run_cli(capsys, "semiring", goguen3_path, "--cap", "50")
    assert (code, out) == (0, "cap exceeded at 50\n")
    for cap in ("-5", "0"):
        code, out, err = run_cli(capsys, "semiring", goguen3_path, "--cap", cap)
        assert (code, out) == (2, "")
        assert "--cap" in err
    chain_doc = tmp_path / "chain.fza"
    chain_doc.write_text(serialize_automaton(FuzzyAutomaton.build(
        chain(4), ("x",), [3], {"x": [[2]]}, [4])))
    code, out, _ = run_cli(capsys, "semiring", str(chain_doc))
    assert code == 0
    k = int(out.split("k=")[1].split(",")[0])
    assert k <= 5


def test_stdout_byte_identical(capsys, goguen3_path):
    first = run_cli(capsys, "det", goguen3_path, "--method", "incl")
    second = run_cli(capsys, "det", goguen3_path, "--method", "incl")
    assert first[1] == second[1]


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli(capsys, )[0] == 2


def test_module_entry_point(python_child, goguen3_path):
    proc = python_child("-m", "fuzzdet", "eval", goguen3_path, "x")
    assert proc.returncode == 0
    assert proc.stdout == "0.5\n"


# bench/tracing.py replaces the functions fuzzdet.cli calls by setattr on the
# module; this child does the same, before any construction is loaded, and
# reports how often each replacement was called.
TRACED_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import WRAPPED
import fuzzdet, fuzzdet.cli as cli
counts = dict.fromkeys(WRAPPED, 0)
def counting(name):
    def call(*args, **kwargs):
        counts[name] += 1
        return getattr(fuzzdet, name)(*args, **kwargs)
    return call
for name in WRAPPED:
    setattr(cli, name, counting(name))
loaded = "fuzzdet.determinize" in sys.modules
code = cli.main(sys.argv[2:])
print(json.dumps([code, loaded, {k: n for k, n in counts.items() if n}]), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, code, counts", [
    (["eval", "goguen3", "x"], 0, {"parse_automaton": 1, "evaluate": 1}),
    (["semiring", "goguen3"], 0, {"parse_automaton": 1, "preflight": 1}),
    (["det", "goguen3", "--dot", "-"], 0,
     {"parse_automaton": 1, "preflight": 1, "d_automaton": 1, "format_word": 3,
      "export_dot": 1}),
    (["det", "boolean3", "--method", "nerode"], 0,
     {"parse_automaton": 1, "preflight": 1, "nerode": 1, "format_word": 7}),
    (["det", "goguen3", "--method", "brzozowski"], 0,
     {"parse_automaton": 1, "preflight": 1, "brzozowski": 1, "format_word": 3}),
    (["det", "goguen3", "--method", "psi", "--psi", "identity"], 0,
     {"parse_automaton": 1, "preflight": 1, "psi_d_automaton": 1, "format_word": 3}),
    (["equiv", "goguen3", "goguen3", "--method", "incl,brzozowski"], 0,
     {"parse_automaton": 2, "d_automaton": 1, "brzozowski": 1, "find_witness": 1}),
])
def test_tracer_replacements_take_effect(python_child, goguen3_path, boolean3_path,
                                        argv, code, counts):
    paths = {"goguen3": goguen3_path, "boolean3": boolean3_path}
    proc = python_child("-c", TRACED_CHILD, str(BENCH), *(paths.get(a, a) for a in argv))
    assert json.loads(proc.stderr.splitlines()[-1]) == [code, False, counts], proc.stderr


class ClosedStdout:
    """A stdout whose reader has gone away: every write and flush fails."""

    def write(self, text):
        self.flush()

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["eval", "goguen3", "x"],
    ["semiring", "goguen3"],
    ["det", "boolean3", "--method", "nerode", "--dot", "-"],
    ["equiv", "goguen3", "goguen3"],
])
def test_closed_stdout_is_named(capsys, monkeypatch, goguen3_path, boolean3_path, argv):
    paths = {"goguen3": goguen3_path, "boolean3": boolean3_path}
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    code = main([paths.get(a, a) for a in argv])
    assert (code, capsys.readouterr().err) == (2, "error: cannot write stdout: Broken pipe\n")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_exits_2(goguen3_path, unbuffered):
    """A reader that closes the pipe at once: one error line, exit 2, and no
    second failure when the interpreter flushes stdout at exit."""
    env = {**os.environ, "PYTHONPATH": str(Path(fuzzdet.__file__).parent.parent),
           "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen([sys.executable, "-m", "fuzzdet", "det", goguen3_path],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait()
    assert (code, err.splitlines()[-1:]) == (2, ["error: cannot write stdout: Broken pipe"]), err
    assert "Exception ignored" not in err


def test_stdout_that_cannot_encode_a_symbol(capsys, monkeypatch, tmp_path, boolean3_path):
    alpha = tmp_path / "alpha.fza"
    alpha.write_text(Path(boolean3_path).read_text(encoding="utf-8").replace("x", "\u03b1"),
                     encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    assert main(["det", str(alpha)]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write stdout: 'ascii' codec can't encode character '\\u03b1' "
        "in position 14: ordinal not in range(128)\n")


@pytest.mark.parametrize("command", ["", "eval", "det", "equiv", "semiring"])
def test_help_text_unchanged(capsys, monkeypatch, command):
    """Each --help prints, at 80 columns, what tests/data/help holds."""
    monkeypatch.setenv("COLUMNS", "80")
    expected = (HELP / f"{command or 'top'}.txt").read_text(encoding="utf-8")
    assert main([command, "--help"] if command else ["--help"]) == 0
    assert capsys.readouterr() == (expected, "")


def test_help_text_ignores_terminal_width(capsys, monkeypatch):
    """argparse rewrapped --help to the terminal; the texts are now fixed."""
    monkeypatch.setenv("COLUMNS", "40")
    for command in ("", "eval", "det", "equiv", "semiring"):
        expected = (HELP / f"{command or 'top'}.txt").read_text(encoding="utf-8")
        assert main([command, "--help"] if command else ["--help"]) == 0
        assert capsys.readouterr() == (expected, ""), command
