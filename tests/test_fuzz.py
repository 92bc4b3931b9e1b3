"""A seeded mutation fuzzer over the command line's inputs, run in process.

Each call takes a valid document, ψ file, word and command line, changes one
token of one of them (or one line break, or nothing), and runs cli.main with
stdout and stderr captured. Whatever the input, the call must exit 0, 1, 2 or
3 without an exception, an exit 2 must leave stdout empty, and a message that
names a line (and column) must name one that exists in the file it read.
A second test pins each call's exact exit code and output, as digests
recorded in tests/data/fuzz_outputs.json. One command re-records it and
test_parity's corpus of valid calls, from the repository's root:
PYTHONPATH=src:tests python tests/test_fuzz.py
"""

import contextlib
import hashlib
import io
import json
import random
import re
import tempfile
from pathlib import Path

from fuzzdet import cli
from conftest import DATA

# One document per lattice the fixtures leave out; comments included.
CHAIN = """# a chain document
lattice chain 4
alphabet a b
states 3
initial 4 0 1
terminal 0 2 4   # degrees are indices
transitions a
0 4 1
2 0 0
0 3 4
transitions b
1 0 0
0 0 4
4 2 0
"""
LUKASIEWICZ = """lattice lukasiewicz
alphabet x y
states 3
initial 1 0.5 0
terminal 0 0.25 1
transitions x
0 1 0.5
0.75 0 0
0 0.5 1
transitions y
1/2 0 0
0 0 1
1 1/4 0
"""
GODEL = """lattice godel
alphabet x y z
states 3
initial 1 0 0.4
terminal 0.6 0 1
# rows of each matrix
transitions x
0 1 0.4
0.6 0 0
0 0 1
transitions y
1 0 0
0 0.4 1
0 0 0
transitions z
0 0 1
1 0 0
0 0.6 0
"""
DOCUMENTS = [(DATA / "boolean3.fza").read_text(encoding="utf-8"),
             (DATA / "goguen3.fza").read_text(encoding="utf-8"),
             CHAIN, LUKASIEWICZ, GODEL]

# Replacement tokens: values of every lattice, bad values, directives, symbols.
TOKENS = ["0", "1", "2", "4", "5", "0.5", "0.25", "1/2", "3/4", "1/3", "0.3", "0.40",
          "2/2", "1.5", "3/2", "1/0", "-1", ".5", "0x1", "٣", "lattice", "alphabet", "states",
          "initial", "terminal", "transitions", "x", "y", "z", "a", "b", "_", "x.y",
          "chain", "goguen", "boolean", "#", "# comment", " ", "\x0c"]
SEPARATORS = [" ", "\t", "\n", "\r", "\r\n", " ", "\x85", "\x0b", "  ", ""]
METHODS = list(cli.METHODS)
# Flag value replacements; none unbounds --max-states, so no call runs long.
FLAG_VALUES = ["0", "-1", "x", "", "1", "2", "+3", "٣", "3.5", "incl,nerode", "psi,psi",
               "bogus", "incl,", "identity", "-"]


def mutate_text(rng, text):
    """text with one token, one line break or nothing changed."""
    pieces = re.split(r"(\S+)", text)  # separators at even indices, tokens at odd
    tokens = range(1, len(pieces), 2)
    roll = rng.random()
    if roll < 0.15:
        return text
    i = rng.choice(tokens)
    if roll < 0.45:  # a value the document could hold: often still valid
        value = pieces[i]
        if re.fullmatch(r"[\d./]+", value):
            pieces[i] = rng.choice(["0", "1", "0.5", "1/4", "2", "3", "4", "0.6", "0.4"])
        else:
            pieces[i] = rng.choice(TOKENS)
    elif roll < 0.60:
        pieces[i] = rng.choice(TOKENS)
    elif roll < 0.70:
        pieces[i] = ""
    elif roll < 0.78:
        pieces[i] += " " + pieces[i]
    elif roll < 0.90:
        j = rng.randrange(0, len(pieces), 2)
        pieces[j] = rng.choice(SEPARATORS)
    else:
        pieces[i] += "#" if rng.random() < 0.5 else pieces[i][-1:]
    return "".join(pieces)


def _identity(text):
    """The identity ψ for text's automaton, which must parse."""
    lines = [line.split("#")[0].split() for line in text.splitlines()]
    n = next(int(line[1]) for line in lines if line[:1] == ["states"])
    top = next(line[2] if line[1] == "chain" else "1" for line in lines if line[:1] == ["lattice"])
    return "".join(" ".join(top if i == j else "0" for j in range(n)) + "\n" for i in range(n))


def _word(rng, text):
    """A word over text's alphabet, now and then a malformed one."""
    alphabet = next((line.split("#")[0].split()[1:] for line in text.splitlines()
                     if line.startswith("alphabet")), None) or ["x"]
    word = ".".join(rng.choice(alphabet) for _ in range(rng.randrange(4))) or "_"
    if rng.random() < 0.2:
        word = rng.choice(["", "..", "_._", "q", word + ".", "." + word, word + " x"])
    return word


def _argv(rng, doc, other, psi, text):
    """A command line over the document files doc and other and the ψ file psi."""
    command = rng.choice(["eval", "semiring", "det", "det", "equiv"])
    if command == "eval":
        argv = ["eval", doc, _word(rng, text)]
    elif command == "semiring":
        argv = ["semiring", doc, "--cap", rng.choice(["3", "50", "1000"])]
    elif command == "det":
        method = rng.choice(METHODS)
        argv = ["det", doc, "--method", method, "--max-states", "60"]
        if method == "psi" and rng.random() < 0.8:
            argv += ["--psi", psi]
        argv += ["--dot", "-"] * (rng.random() < 0.3) + ["--stats"] * (rng.random() < 0.3)
    else:
        methods = rng.choice(["incl", "incl,brzozowski", "nerode,incl", "psi,incl", "rnerode"])
        argv = ["equiv", doc, rng.choice([doc, other]), "--method", methods,
                "--max-states", "60"]
        if "psi" in methods:
            argv += ["--psi", psi]
    if rng.random() < 0.1:  # one flag or value changed
        roll, i = rng.random(), rng.randrange(1, len(argv))
        if roll < 0.4:
            argv[i] = rng.choice(FLAG_VALUES)
        elif roll < 0.6:
            argv.insert(i, rng.choice(["--stats", "--psi", "--dot", "--cap", "--nope", "-"]))
        elif roll < 0.8 and argv[i] != "--max-states":
            del argv[i]
        else:
            argv.append(rng.choice(["--help", "--stats", "extra", "--method"]))
    return argv


def _lines(path):
    """The file's lines, ended by \\r\\n, \\r or \\n as universal newlines end them."""
    text = Path(path).read_text(encoding="utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")


WHERE = re.compile(r"^error: (--psi: )?line (\d+)(?:, column (\d+))?: ")


def _names_a_real_place(err, argv, psi):
    """Whether a message that names a line names one of a file the call read
    that holds a token, and a column where one of its tokens starts."""
    m = WHERE.match(err)
    if m is None:
        return re.search(r"\bline \d", err) is None
    files = [psi] if m.group(1) else [a for a in argv[1:3] if a.endswith(".fza")]
    line, column = int(m.group(2)), int(m.group(3) or 0)
    for f in files:
        lines = _lines(f)
        body = lines[line - 1].split("#")[0] if line <= len(lines) else ""
        if column == 0 and body.strip():
            return True
        if 0 < column <= len(body) and not body[column - 1].isspace() and (
                column == 1 or body[column - 2].isspace()):
            return True
    return False


def _calls(tmp_path):
    """The seeded calls, each as (index, argv, document, ψ text, exit code,
    stdout, stderr), run on files under tmp_path."""
    rng = random.Random(2014)
    doc, other, psi = (str(tmp_path / name) for name in ("doc.fza", "other.fza", "psi.txt"))
    for call in range(1_500):
        text = rng.choice(DOCUMENTS)
        psi_text = _identity(text)
        target = rng.random()
        mutated = mutate_text(rng, text) if target < 0.7 else text
        Path(doc).write_text(mutated, encoding="utf-8", newline="")
        Path(other).write_text(mutate_text(rng, text), encoding="utf-8", newline="")
        if 0.7 <= target < 0.85:
            psi_text = mutate_text(rng, psi_text)
        Path(psi).write_text(psi_text, encoding="utf-8", newline="")
        argv = _argv(rng, doc, other, psi, mutated)
        yield call, argv, mutated, psi_text, *run(argv, mutated)


def run(argv, context=""):
    """(exit code, stdout, stderr) of cli.main(argv), run in process; any
    exception, SystemExit too, fails the call, reported with context."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as e:  # any escape is the failure
            raise AssertionError(f"{argv} on {context!r} raised {e!r}") from e
    return code, out.getvalue(), err.getvalue()


def test_mutated_inputs_keep_the_exit_contract(tmp_path):
    psi = str(tmp_path / "psi.txt")
    codes = dict.fromkeys(range(4), 0)
    for call, argv, mutated, psi_text, code, out, err in _calls(tmp_path):
        context = (call, argv, mutated, psi_text, err)
        assert code in codes, context
        codes[code] += 1
        if code == 2:
            assert out == "", context
            assert err.startswith(("error: ", "usage: ")), context
            assert _names_a_real_place(err, argv, psi), context
    assert codes[0] + codes[1] + codes[3] >= 300, codes
    assert min(codes.values()) > 0, codes


OUTPUTS = DATA / "fuzz_outputs.json"


def recorded(tmp_path, code, out, err):
    """[code, the first 16 hex digits of the sha256 of out + "\\0" + err],
    with tmp_path and each elapsed time masked: what an output corpus holds."""
    text = re.sub(r"elapsed=[0-9.]+s", "elapsed=?s", f"{out}\0{err}")
    return [code, hashlib.sha256(text.replace(str(tmp_path), "TMP").encode()).hexdigest()[:16]]


def _outputs(tmp_path):
    """Each call's recorded exit code and output digest."""
    for call, argv, _, _, code, out, err in _calls(tmp_path):
        yield call, argv, out, err, recorded(tmp_path, code, out, err)


def test_mutated_inputs_give_the_recorded_outputs(tmp_path):
    """Every call gives the exit code and output digest that OUTPUTS records.

    A change that means to alter some output re-records it with the command
    the module's docstring names.
    """
    want = json.loads(OUTPUTS.read_text(encoding="utf-8"))
    assert len(want) == 1_500
    for call, argv, out, err, got in _outputs(tmp_path):
        assert got == want[call], (call, argv, out, err)


if __name__ == "__main__":  # re-records this corpus and test_parity's
    from test_parity import record_parity
    with tempfile.TemporaryDirectory() as tmp:
        lines = [json.dumps(got) for *_, got in _outputs(Path(tmp))]
    OUTPUTS.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        record_parity(Path(tmp))
