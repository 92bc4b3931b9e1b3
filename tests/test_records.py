"""The package's records: value equality, immutability, and no dataclasses or typing
on import; the lazy package, and the modules each command loads."""

import importlib
import pickle
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

import fuzzdet
from fuzzdet import (
    BOOLEAN,
    GODEL,
    BuildStats,
    Cdfa,
    FuzzyVector,
    Lattice,
    StateLabel,
    TreeVertex,
    chain,
    d_automaton,
)
from fuzzdet.lattice import Record


def _cdfa():
    one = FuzzyVector(BOOLEAN, (F(1),))
    return Cdfa(lattice=BOOLEAN, alphabet=("a",), transitions=((0,),), initial=0,
                terminal=(F(1),), labels=(StateLabel((), one),))


def test_records_built_twice_are_equal_and_hash_equal():
    for make in (lambda: chain(3), lambda: Lattice("godel"),
                 lambda: FuzzyVector(GODEL, (F(1, 2), F(1))), _cdfa):
        x, y = make(), make()
        assert x is not y
        assert x == y and hash(x) == hash(y)
    assert chain(3) != chain(4)
    assert FuzzyVector(GODEL, (F(1),)) != FuzzyVector(BOOLEAN, (F(1),))
    assert Lattice("godel") != "godel"


def test_frozen_records_refuse_assignment():
    v = FuzzyVector(GODEL, (F(1),))
    with pytest.raises(AttributeError):
        v.entries = (F(0),)
    with pytest.raises(AttributeError):
        GODEL.kind = "goguen"
    with pytest.raises(AttributeError):
        del GODEL.kind
    with pytest.raises(AttributeError):
        _cdfa().initial = 1
    assert GODEL.kind == "godel" and v.entries == (F(1),)


def test_mutable_records_stay_mutable_and_unhashable(goguen3):
    stats = BuildStats()
    stats.vertices += 2
    assert stats == BuildStats(vertices=2)
    vertex = TreeVertex((), 1, False, None, None)
    vertex.closed = True
    assert vertex.closed
    for record in (stats, vertex, goguen3):
        with pytest.raises(TypeError):
            hash(record)


def test_record_fields_are_its_slots():
    importlib.import_module("fuzzdet.determinize")  # and every module it builds on
    classes = Record.__subclasses__()
    assert {"Cdfa", "FuzzyVector", "BuildStats", "TreeVertex"} <= {c.__name__ for c in classes}
    for cls in classes:
        assert cls._fields == cls.__slots__, cls


def test_records_survive_pickle(goguen3):
    c = d_automaton(goguen3).cdfa
    again = pickle.loads(pickle.dumps(c))
    assert again == c and again.step(0, "x") == c.step(0, "x")
    assert pickle.loads(pickle.dumps(chain(2))) == chain(2)


def test_cli_import_loads_no_dataclasses(python_child):
    proc = python_child(
        "-S", "-c",
        "import sys, fuzzdet.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis', 'typing'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def _imported(proc) -> set[str]:
    """The modules a `-X importtime` child imported."""
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def _loaded(proc) -> set[str]:
    """The fuzzdet modules a `-X importtime` child imported."""
    return {n for n in _imported(proc) if n.startswith("fuzzdet.")}


def test_import_loads_no_submodule(python_child):
    proc = python_child("-S", "-X", "importtime", "-c", "import fuzzdet")
    assert proc.returncode == 0, proc.stderr
    assert _loaded(proc) == set()


# Most lines one call may compile: the package, __main__ and every module the
# call loads. Without a bytecode cache each call compiles them, at about 12 µs
# a line (2-core x86-64 host, Python 3.11).
LINE_BUDGETS = {"eval": 1_200, "semiring": 1_350, "det": 2_072, "equiv": 2_072}


def _lines(module: str) -> int:
    return (Path(fuzzdet.__file__).parent / f"{module}.py").read_text(encoding="utf-8").count("\n")


@pytest.mark.parametrize("argv", [
    ["eval", "{f}", "x"],
    ["semiring", "{f}"],
    ["det", "{f}", "--method", "brzozowski", "--dot", "-"],
    ["equiv", "{f}", "{f}", "--method", "incl,brzozowski"],
])
def test_command_loads_only_what_it_runs(python_child, goguen3_path, argv):
    proc = python_child("-S", "-X", "importtime", "-m", "fuzzdet",
                        *(a.format(f=goguen3_path) for a in argv))
    assert proc.returncode == 0, proc.stderr
    loaded = _loaded(proc)
    command = argv[0]
    assert not {"argparse", "gettext", "locale"} & _imported(proc)
    assert "fuzzdet.cli" in loaded and not {"fuzzdet.reference", "fuzzdet.usage"} & loaded
    assert ("fuzzdet.determinize" in loaded) == (command in ("det", "equiv"))
    assert ("fuzzdet.detcli" in loaded) == (command in ("det", "equiv"))
    assert ("fuzzdet.closure" in loaded) == (command != "eval")
    modules = ["__init__", "__main__", *(name.split(".", 1)[1] for name in loaded)]
    compiled = sum(map(_lines, modules))
    assert compiled <= LINE_BUDGETS[command], (compiled, sorted(loaded))


def test_every_export_resolves_to_its_module_object():
    for name in fuzzdet.__all__:
        module = importlib.import_module(f"fuzzdet.{fuzzdet._MODULE_OF[name]}")
        value = getattr(fuzzdet, name)
        assert value is getattr(module, name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module.__name__, name
    assert set(fuzzdet.__all__) <= set(dir(fuzzdet))
    with pytest.raises(AttributeError):
        fuzzdet.nonexistent


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fuzzdet import *", namespace)
    del namespace["__builtins__"]
    assert len(namespace) == 63
    assert sorted(namespace) == fuzzdet.__all__
