"""Command line behavior: outputs, exit codes, determinism."""

import errno
import importlib.util
import io
import json
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import fuzzdet
from fuzzdet import FuzzyAutomaton, chain, parse_automaton, serialize_automaton
from fuzzdet.cli import main
from conftest import child_env
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


BOM = b"\xef\xbb\xbf"
PSI3 = b"1 0 0\n0 1 0\n0 0 1\n"


def test_byte_order_mark_before_a_document_is_dropped(capsys, tmp_path, boolean3_path):
    marked = tmp_path / "marked.fza"
    marked.write_bytes(BOM + Path(boolean3_path).read_bytes())
    for argv in (["eval", "{f}", "_"], ["eval", "{f}", "x.y.x"], ["det", "{f}"],
                 ["det", "{f}", "--method", "nerode"], ["equiv", "{f}", boolean3_path]):
        want = run_cli(capsys, *(a.format(f=boolean3_path) for a in argv))
        assert run_cli(capsys, *(a.format(f=marked) for a in argv)) == want, argv
        assert want[0] == 0, argv


def test_byte_order_mark_before_a_psi_file_is_dropped(capsys, tmp_path, boolean3_path):
    (tmp_path / "psi").write_bytes(PSI3)
    (tmp_path / "marked").write_bytes(BOM + PSI3)
    for argv in (["det", boolean3_path, "--method", "psi", "--psi", "{psi}"],
                 ["equiv", boolean3_path, boolean3_path, "--method", "incl,psi", "--psi", "{psi}"]):
        want = run_cli(capsys, *(a.format(psi=tmp_path / "psi") for a in argv))
        assert run_cli(capsys, *(a.format(psi=tmp_path / "marked") for a in argv)) == want, argv
        assert want[0] == 0, argv


def test_byte_order_mark_counts_in_decode_error_offsets(capsys, tmp_path, goguen3_path):
    """A decode error names the file's own offset, the mark's three bytes
    included, in a document and a psi file alike; without the bad byte, the
    same files read."""
    doc, psi = tmp_path / "doc.fza", tmp_path / "psi"
    text = Path(goguen3_path).read_bytes()
    for bad in (b"\xff", b"x"):
        doc.write_bytes(BOM + text + b"# " + bad + b"\n")
        psi.write_bytes(BOM + PSI3 + b"# " + bad + b"\n")
        eval_call = run_cli(capsys, "eval", str(doc), "x")
        psi_call = run_cli(capsys, "det", goguen3_path, "--method", "psi", "--psi", str(psi))
        if bad == b"x":
            assert eval_call == (0, "0.5\n", "")
            assert psi_call[0] == 0
            continue
        says = "cannot read {}: not UTF-8 text (byte 0xff at offset {})\n"
        assert eval_call == (2, "", "error: " + says.format(doc, 3 + len(text) + 2))
        assert psi_call == (2, "", "error: --psi: " + says.format(psi, 3 + len(PSI3) + 2))


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
    arabic = tmp_path / "arabic.mat"
    arabic.write_text("1 0 0\n0 \u0661 0\n0 0 1\n", encoding="utf-8")
    fullwidth = tmp_path / "fullwidth.mat"
    fullwidth.write_text("1 0 0\n0 1 0\n0 0 \uff11\n", encoding="utf-8")
    outside = tmp_path / "outside.mat"
    outside.write_text("1 0 0\n0 1 3/2\n0 0 1\n")
    for psi, says in (("/missing", "--psi: cannot read /missing: No such file"),
                      (str(wide), "--psi: line 1: row 1 needs 3 values, got 4"),
                      (str(latin), f"--psi: cannot read {latin}: not UTF-8 text "
                                   "(byte 0xbd at offset 4)"),
                      (str(ones), "--psi: (sigma ∘ psi)[2] = 1 exceeds sigma[2] = 0"),
                      (str(zero), "--psi: psi[1,1] = 0, expected top"),
                      (str(arabic), "--psi: line 2, column 3: not a value literal: '\u0661'\n"),
                      (str(fullwidth),
                       "--psi: line 3, column 5: not a value literal: '\uff11'\n"),
                      (str(outside), "--psi: line 2, column 5: 3/2 is outside goguen\n")):
        code, out, err = run_cli(capsys, "det", goguen3_path, "--method", "psi", "--psi", psi)
        assert (code, out) == (2, ""), psi
        assert err.startswith("error: " + says), err
        code, out, err = run_cli(capsys, "equiv", goguen3_path, goguen3_path,
                                 "--method", "incl,psi", "--psi", psi)
        assert (code, out) == (2, ""), psi
        assert err.startswith("error: " + says), err


def test_psi_violation_at_a_symbol_named_sigma(capsys, tmp_path):
    doc = tmp_path / "sigma.fza"
    doc.write_text("lattice boolean\nalphabet sigma\nstates 2\ninitial 1 1\n"
                   "terminal 1 0\ntransitions sigma\n1 0\n0 0\n")
    psi = tmp_path / "psi.mat"
    psi.write_text("1 1\n0 1\n")
    code, out, err = run_cli(capsys, "det", str(doc), "--method", "psi", "--psi", str(psi))
    assert (code, out) == (2, "")
    assert err == ("error: --psi: (delta_sigma ∘ psi)[1,2] = 1 exceeds "
                   "(psi ∘ delta_sigma)[1,2] = 0\n")


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


def _boolean3_as(tmp_path, boolean3_path, name, **lines):
    """A copy of boolean3 with whole lines replaced, by their first word."""
    text = Path(boolean3_path).read_text(encoding="utf-8")
    out = [lines.get(line.split(" ", 1)[0], line) for line in text.splitlines()]
    path = tmp_path / f"{name}.fza"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return str(path)


def test_equiv_mismatched_alphabets(capsys, tmp_path, goguen3_path, boolean3_path):
    other = tmp_path / "other.fza"
    other.write_text("lattice goguen\nalphabet a b\nstates 1\ninitial 1\n"
                     "terminal 1\ntransitions a\n1\ntransitions b\n1\n")
    code, _, err = run_cli(capsys, "equiv", goguen3_path, str(other))
    assert code == 2
    assert "alphabets differ" in err
    # sets that share a symbol differ too, in whatever order each lists them
    xz = Path(_boolean3_as(tmp_path, boolean3_path, "xz", alphabet="alphabet z x"))
    xz.write_text(xz.read_text(encoding="utf-8").replace("transitions y", "transitions z"),
                  encoding="utf-8")
    assert run_cli(capsys, "equiv", boolean3_path, str(xz)) == (
        2, "", "error: alphabets differ: ('x', 'y') vs ('z', 'x')\n")


def test_equiv_reads_the_alphabet_as_a_set(capsys, tmp_path, boolean3_path):
    """The same symbols listed in another order are the same alphabet: the
    second automaton is compared in the first one's order."""
    yx = _boolean3_as(tmp_path, boolean3_path, "yx", alphabet="alphabet y x")
    for pair in ((boolean3_path, yx), (yx, boolean3_path)):
        assert run_cli(capsys, "equiv", *pair) == (0, "equivalent\n", "")
        assert run_cli(capsys, "equiv", *pair, "--method", "nerode,psi", "--psi", "identity") == (
            0, "equivalent\n", "")


def test_equiv_witness_is_shortlex_least_in_the_first_files_order(capsys, tmp_path,
                                                                   boolean3_path):
    """Swapping the terminal degrees of states 2 and 3 changes both one-letter
    words, so the witness is file1's first symbol."""
    miss = _boolean3_as(tmp_path, boolean3_path, "miss", alphabet="alphabet y x",
                        terminal="terminal 1 1 0")
    assert run_cli(capsys, "equiv", boolean3_path, miss) == (
        1, "not equivalent, witness: x\n", "")
    assert run_cli(capsys, "equiv", miss, boolean3_path) == (
        1, "not equivalent, witness: y\n", "")


def test_equiv_mismatched_lattices(capsys, goguen3_path, boolean3_path):
    assert run_cli(capsys, "equiv", goguen3_path, boolean3_path) == (
        2, "", "error: lattices differ: goguen vs boolean\n")


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


# Runs each argv of argv[1] through fuzzdet.cli.main in this one process and
# prints [exit code, stdout, stderr] for each, as JSON.
CALLS_CHILD = """
import contextlib, io, json, sys
from fuzzdet.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_output_is_the_same_under_every_hash_seed(tmp_path, goguen3_path, boolean3_path):
    """String hashing is seeded per process, so a report that iterated a set
    or a dict of strings in hash order would differ between processes."""
    calls = [["equiv", goguen3_path, boolean3_path]]
    for f in (goguen3_path, boolean3_path):
        calls += [["det", f, "--method", m, "--max-states", "100"] for m in fuzzdet.cli.METHODS]
        # a copy whose terminal degrees differ, so that equiv finds a witness
        near_miss = tmp_path / Path(f).name
        near_miss.write_text(re.sub(r"(?m)^terminal .*$", "terminal 0 1 1",
                                    Path(f).read_text(encoding="utf-8")), encoding="utf-8")
        calls += [["det", f, "--dot", "-"],
                  ["equiv", f, str(near_miss), "--method", "brzozowski,incl"],
                  ["eval", f, "x.y"], ["semiring", f, "--cap", "100"]]
    children = [subprocess.Popen([sys.executable, "-c", CALLS_CHILD, json.dumps(calls)],
                                 env=child_env(PYTHONHASHSEED=seed), stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
                for seed in ("0", "12345")]
    (out0, err0), (out1, err1) = (child.communicate(timeout=60) for child in children)
    assert [child.returncode for child in children] == [0, 0], (err0, err1)
    assert out0 == out1
    results = json.loads(out0)
    # the lattices differ; nerode on goguen3 meets its cap
    assert [code for code, _, _ in results] == [2, 3, 0, 0, 0, 0, 0, 1, 0, 0,
                                                0, 0, 0, 0, 0, 0, 1, 0, 0]
    assert all(out for _, out, _ in results[1:])


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
    (["det", "goguen3", "--method", "psi", "--psi", "psi3"], 0,
     {"parse_automaton": 1, "preflight": 1, "psi_d_automaton": 1, "format_word": 3}),
    (["equiv", "goguen3", "goguen3", "--method", "incl,brzozowski"], 0,
     {"parse_automaton": 2, "d_automaton": 1, "brzozowski": 1, "find_witness": 1}),
])
def test_tracer_replacements_take_effect(python_child, tmp_path, goguen3_path, boolean3_path,
                                        argv, code, counts):
    psi3 = tmp_path / "psi3"
    psi3.write_text("1 0 0\n0 1 0\n0 0 1\n", encoding="utf-8")
    paths = {"goguen3": goguen3_path, "boolean3": boolean3_path, "psi3": str(psi3)}
    proc = python_child("-c", TRACED_CHILD, str(BENCH), *(paths.get(a, a) for a in argv))
    assert json.loads(proc.stderr.splitlines()[-1]) == [code, False, counts], proc.stderr


def test_tracer_records_spans_and_probe_counts(capsys, boolean3_path):
    """bench/tracing.py run in process, as a traced bench pass runs it: its
    wrappers time one det and one equiv call, then probe the layers below
    incl. Each name it reads from fuzzdet must still be there."""
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    wrappers = tracing.Wrappers(tracer)
    with wrappers.installed():
        assert run_cli(capsys, "det", boolean3_path)[0] == 0
        assert run_cli(capsys, "equiv", boolean3_path, boolean3_path)[:2] == (0, "equivalent\n")
    assert all(getattr(fuzzdet.cli, name) is fn for name, fn in wrappers.originals.items())
    assert [s[0] for s in tracer.spans] == [
        "formats.parse", "determinize.preflight", "determinize.incl", *["formats.serialize"] * 4,
        "formats.parse", "formats.parse", "determinize.incl", "determinize.incl",
        "automata.witness"]
    called = len(tracer.spans)
    _, a, outcome = wrappers.last_incl
    found = wrappers.probe(a, outcome.cdfa, [(), ("x",), ("x", "y")])
    assert [s[0] for s in tracer.spans[called:]] == [
        "determinize.rn_tree", "determinize.to_cdfa", "algebra.mat_vec",
        "automata.cdfa_evaluate", "lattice.ops"]
    assert all(end >= start for _, start, end, *_ in tracer.spans)
    assert found["rn_states"] == 4
    assert found["rn_vertices"] == found["rn_states"] * len(a.alphabet) + 1


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


@pytest.mark.parametrize("argv, unbuffered", [(["det", "{f}"], ""), (["det", "{f}"], "1"),
                                               (["det", "--help"], ""), (["det", "--help"], "1")],
                         ids=["", "1", "--help", "--help-1"])
def test_closed_stdout_pipe_exits_2(goguen3_path, argv, unbuffered):
    """A reader that closes the pipe at once: one error line, exit 2, and no
    second failure when the interpreter flushes stdout at exit. --help is
    flushed as it is written, so it fails in main too."""
    argv = [a.format(f=goguen3_path) for a in argv]
    with subprocess.Popen([sys.executable, "-m", "fuzzdet", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env(PYTHONUNBUFFERED=unbuffered)) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait()
    assert (code, err.splitlines()[-1:]) == (2, ["error: cannot write stdout: Broken pipe"]), err
    assert "Exception ignored" not in err and "Traceback" not in err


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
