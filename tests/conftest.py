import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzdet
from fuzzdet import parse_automaton
from fuzzdet.lattice import Lattice

DATA = Path(__file__).parent / "data"


def load_fixture(name):
    return parse_automaton((DATA / name).read_text(encoding="utf-8"))


@pytest.fixture
def goguen3():
    return load_fixture("goguen3.fza")


@pytest.fixture
def boolean3():
    return load_fixture("boolean3.fza")


@pytest.fixture
def check_calls(monkeypatch):
    """The values Lattice.check is called on from here on, in call order."""
    calls = []
    check = Lattice.check

    def counted(self, v, token=None):
        calls.append(v)
        return check(self, v, token)
    monkeypatch.setattr(Lattice, "check", counted)
    return calls


@pytest.fixture
def goguen3_path():
    return str(DATA / "goguen3.fza")


@pytest.fixture
def boolean3_path():
    return str(DATA / "boolean3.fza")


def child_env(**extra: str) -> dict[str, str]:
    """The environment of a child interpreter on the fuzzdet these tests import.

    The child's PYTHONPATH is the directory above the package, so it does
    not depend on how pytest itself was given the package, and the child
    writes no bytecode, as the test run itself does not.
    """
    return {**os.environ, "PYTHONPATH": str(Path(fuzzdet.__file__).parent.parent),
            "PYTHONDONTWRITEBYTECODE": "1", **extra}


@pytest.fixture
def python_child():
    """Run the interpreter in a child with child_env()."""
    env = child_env()

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    return run
