"""How a fuzzdet process ends: `python -m fuzzdet` against main in process,
atexit handlers, the fallback to the interpreter's own exit, streams that
cannot be written, and a construction that runs out of memory."""

import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzdet.cli as cli
from conftest import child_env
from fuzzdet.cli import main

try:
    import resource
except ImportError:  # not on Windows
    resource = None


def _calls(tmp_path, goguen3_path, boolean3_path) -> dict[str, list[str]]:
    """One call for each way a command ends, by name."""
    text = Path(boolean3_path).read_text(encoding="utf-8")
    near_miss = tmp_path / "near_miss.fza"
    near_miss.write_text(text.replace("terminal 1 0 1", "terminal 0 1 0"), encoding="utf-8")
    return {
        "eval": ["eval", goguen3_path, "x"],
        "det --dot -": ["det", boolean3_path, "--dot", "-"],
        "det warns": ["det", goguen3_path, "--stats"],
        "semiring": ["semiring", goguen3_path, "--cap", "100"],
        "equiv": ["equiv", boolean3_path, boolean3_path],
        "not equivalent": ["equiv", boolean3_path, str(near_miss)],
        "missing file": ["equiv", boolean3_path, str(tmp_path / "missing.fza")],
        "missing --psi file": ["det", boolean3_path, "--method", "psi",
                               "--psi", str(tmp_path / "missing.psi")],
        "unwritable --dot file": ["det", boolean3_path, "--dot", str(tmp_path / "no" / "x.dot")],
        "det cap": ["det", goguen3_path, "--method", "nerode", "--max-states", "10"],
        "equiv cap": ["equiv", goguen3_path, goguen3_path, "--method", "nerode",
                      "--max-states", "10"],
        "--help": ["det", "--help"],
        "usage error": ["det", goguen3_path, "--method", "subset"],
    }


# --stats prints an elapsed time, which differs between two runs
TIMED = {"det warns"}


def test_module_ends_as_main_returns(capsys, python_child, tmp_path, goguen3_path,
                                     boolean3_path):
    """`python -m fuzzdet` writes what main writes in process and exits
    with its code, though the process skips the interpreter's teardown."""
    codes = set()
    for name, argv in _calls(tmp_path, goguen3_path, boolean3_path).items():
        code = main(argv)
        out, err = capsys.readouterr()
        proc = python_child("-m", "fuzzdet", *argv)
        if name in TIMED:
            err, proc.stderr = err.split("elapsed=")[0], proc.stderr.split("elapsed=")[0]
        assert (proc.stdout, proc.stderr, proc.returncode) == (out, err, code), name
        codes.add(code)
    assert codes == {0, 1, 2, 3}


@pytest.mark.parametrize("module", ["fuzzdet", "fuzzdet.cli"])
def test_atexit_handlers_run_and_are_flushed(python_child, goguen3_path, module):
    """A handler registered before the entry point runs, as `python -m`
    runs it, still runs after main, and what it prints is written."""
    proc = python_child("-c", f"""
import atexit, runpy, sys
atexit.register(print, "handler ran")
sys.argv = ["fuzzdet", "eval", {goguen3_path!r}, "x"]
runpy.run_module({module!r}, run_name="__main__", alter_sys=True)
print("not reached")
""")
    assert (proc.stdout, proc.stderr, proc.returncode) == ("0.5\nhandler ran\n", "", 0)


FALLBACK_CHILD = """
import errno, sys
import fuzzdet.cli as cli

class Failing:
    def write(self, text):
        return len(text)

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

def main():
    if sys.argv[1] == "failing stdout":
        sys.stdout = Failing()
        return 0
    return "bye"

cli.main = main
cli.run()
"""


def test_a_code_that_is_no_int_exits_as_sys_exit(python_child):
    proc = python_child("-c", FALLBACK_CHILD, "no int")
    assert (proc.stdout, proc.stderr, proc.returncode) == ("", "bye\n", 1)


def test_a_flush_that_fails_ends_in_the_interpreter(python_child):
    """The interpreter flushes again at exit, reports the failure, and exits 120."""
    proc = python_child("-c", FALLBACK_CHILD, "failing stdout")
    assert proc.returncode == 120, proc.stderr
    assert proc.stderr.startswith("Exception ignored") and "BrokenPipeError" in proc.stderr


def test_no_stdout_exits_2(capsys, monkeypatch, tmp_path, goguen3_path, boolean3_path):
    """fd 1 closed when the process started leaves sys.stdout None: no
    command runs, and none ends with exit 1, which means not equivalent."""
    monkeypatch.setattr(sys, "stdout", None)
    for name, argv in _calls(tmp_path, goguen3_path, boolean3_path).items():
        assert main(argv) == 2, name
        assert capsys.readouterr().err == "error: cannot write stdout: Bad file descriptor\n"


class Unwritable:
    """A stream on a descriptor that cannot be written, as one open only for reading."""

    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")

    def flush(self):
        pass


@pytest.mark.parametrize("stderr", [Unwritable(), None], ids=["EBADF", "None"])
def test_a_diagnostic_that_cannot_be_written_is_dropped(capsys, monkeypatch, tmp_path,
                                                        goguen3_path, boolean3_path, stderr):
    """Stdout and the exit code are what they are with a working stderr,
    and the report goes on after a warning that could not be written."""
    calls = _calls(tmp_path, goguen3_path, boolean3_path)
    expected, diagnostics = {}, {}
    for name, argv in calls.items():
        code = main(argv)
        out, diagnostics[name] = capsys.readouterr()
        expected[name] = code, out
    assert diagnostics["det warns"].startswith("warning: membership values did not close")
    assert expected["det warns"][1].endswith("state 3: word=y, terminal=1\n")
    assert expected["missing file"] == (2, "")
    monkeypatch.setattr(sys, "stderr", stderr)
    for name, argv in calls.items():
        code = main(argv)
        assert (code, capsys.readouterr().out) == expected[name], name


def test_a_stdout_that_cannot_be_written_is_named(capsys, monkeypatch, tmp_path, goguen3_path,
                                                  boolean3_path):
    """Every call that writes stdout, --help included, exits 2 and names
    stdout. A file that cannot be read or written is named as that file, so
    an OSError that reaches main is stdout's."""
    calls = _calls(tmp_path, goguen3_path, boolean3_path)
    says = "error: cannot write stdout: Bad file descriptor\n"
    expected = {}
    for name, argv in calls.items():
        code = main(argv)
        out, err = capsys.readouterr()
        expected[name] = (2, says) if out else (code, err)
    missing = "No such file or directory\n"
    assert expected["missing file"] == (2, f"error: cannot read {tmp_path}/missing.fza: {missing}")
    assert expected["missing --psi file"] == (
        2, f"error: --psi: cannot read {tmp_path}/missing.psi: {missing}")
    assert expected["unwritable --dot file"] == (
        2, f"error: --dot: cannot write {tmp_path}/no/x.dot: {missing}")
    writes_no_stdout = {"missing file", "missing --psi file", "unwritable --dot file",
                        "equiv cap", "usage error"}
    assert {name for name, (_, err) in expected.items() if err != says} == writes_no_stdout
    monkeypatch.setattr(sys, "stdout", Unwritable())
    for name, argv in calls.items():
        assert (main(argv), capsys.readouterr().err) == expected[name], name


@pytest.mark.parametrize("argv", [["eval", "{f}", "x"], ["det", "--help"]],
                         ids=["eval", "--help"])
def test_a_stdout_open_only_for_reading_exits_2(boolean3_path, argv):
    with open(os.devnull, "rb") as stdout:
        proc = subprocess.run([sys.executable, "-m", "fuzzdet",
                               *(a.format(f=boolean3_path) for a in argv)],
                              stdout=stdout, stderr=subprocess.PIPE, text=True, env=child_env())
    assert (proc.returncode, proc.stderr) == (
        2, "error: cannot write stdout: Bad file descriptor\n")


def test_out_of_memory_exits_3_with_empty_stdout(capsys, monkeypatch, boolean3_path):
    """A MemoryError is reported as a state cap is, never as exit 1, which
    means not equivalent."""
    def exhausted(a, cap):
        raise MemoryError
    monkeypatch.setattr(cli, "d_automaton", exhausted)
    for argv in (["det", boolean3_path], ["equiv", boolean3_path, boolean3_path]):
        assert main(argv) == 3, argv
        assert capsys.readouterr() == ("", "error: out of memory\n"), argv


# Two Łukasiewicz states whose reverse Nerode tree is a path: each level
# adds about one new state, so a state's word is about as long as the count
# of states before it, and the tree runs to any cap.
PATH_LIKE = """\
lattice lukasiewicz
alphabet x y
states 2
initial 1 0
terminal 0 1
transitions x
0.999999999999 0.3
0 1
transitions y
0 1/99991
1/99989 0
"""


@pytest.mark.skipif(resource is None or not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS is enforced on Linux")
def test_a_path_like_tree_reaches_its_cap_in_256_mib(tmp_path):
    """Growing a tree keeps no word per state, so on a path, where the words
    would take memory quadratic in the states, det and equiv reach the
    default cap of 10,000 states inside a 256 MiB address space."""
    doc = tmp_path / "path.fza"
    doc.write_text(PATH_LIKE, encoding="utf-8")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    cap = "cap exceeded: 10000 states built (max-states 10000)\n"
    warning = "warning: membership values did not close, termination is not guaranteed\n"
    for argv, out, err in ((["det", doc], f"semiring: cap exceeded at 10000\n{cap}", warning),
                           (["equiv", doc, doc], "", cap)):
        proc = subprocess.run([sys.executable, "-m", "fuzzdet", *argv], capture_output=True,
                              text=True, env=child_env(), preexec_fn=limit_memory)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, out, err), argv[0]
