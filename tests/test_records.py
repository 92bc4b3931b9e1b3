"""The package's records: value equality, immutability, and no dataclasses or typing
on import; the lazy package, and the modules each command loads."""

import importlib
import pickle
import pkgutil
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

import fuzzdet
from fuzzdet import (
    BOOLEAN,
    GODEL,
    BuildStats,
    CapExceeded,
    Cdfa,
    FuzzyAutomaton,
    FuzzyVector,
    InvarianceViolation,
    Lattice,
    automaton_values,
    chain,
    d_automaton,
    nerode,
    preflight,
    reverse_nerode_tree,
)
from fuzzdet.lattice import Record


def _cdfa():
    one = FuzzyVector(BOOLEAN, (F(1),))
    return Cdfa(lattice=BOOLEAN, alphabet=("a",), transitions=((0,),), initial=0,
                terminal=(F(1),), words=((),), vectors=(one,))


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


def _one_of_each_record(goguen3, boolean3) -> list:
    """An instance of every Record subclass, built as the package builds them."""
    outcome = d_automaton(boolean3)
    report = preflight(boolean3)
    return [GODEL, goguen3.sigma, goguen3.delta["x"], goguen3, automaton_values(goguen3),
            report, report.closure, outcome, outcome.stats, outcome.cdfa,
            nerode(boolean3, 1).result,
            InvarianceViolation("sigma", (0,), F(1), F(0)),
            reverse_nerode_tree(boolean3).vertices[1]]


def test_every_record_is_immutable_and_hashes_by_value(goguen3, boolean3):
    records = _one_of_each_record(goguen3, boolean3)
    assert {type(r) for r in records} == set(Record.__subclasses__())
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = None
        again = pickle.loads(pickle.dumps(record))
        assert again is not record and again == record
        if isinstance(record, FuzzyAutomaton):  # its delta is a dict
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(again) == hash(record)


def test_record_init_sets_fields_by_position_or_name():
    assert CapExceeded(3, 4) == CapExceeded(states_built=3, cap=4) == CapExceeded(3, cap=4)
    stats = BuildStats(5, 7, elapsed=0.5)
    assert (stats.vertices, stats.closure_checks, stats.elapsed) == (5, 7, 0.5)
    assert CapExceeded(cap=4, states_built=3).cap == 4
    assert Lattice(kind="chain", top_index=3) == chain(3)


@pytest.mark.parametrize("args, named", [
    ((3,), {}),  # cap missing
    ((), {"cap": 3}),  # states_built missing
    ((3,), {"states_built": 3, "cap": 3}),  # states_built twice
    ((3, 3, 3), {}),  # one value too many
    ((3, 3), {"size": 3}),  # size unknown
    ((3,), {"cap": 3, "size": 3}),
    ((3,), {"size": 3}),
])
def test_record_init_refuses_missing_repeated_and_unknown_fields(args, named):
    with pytest.raises(TypeError) as err:
        CapExceeded(*args, **named)
    assert str(err.value) == (f"CapExceeded(states_built, cap) takes each field once: "
                              f"got {len(args)} by position and {sorted(named)} by name")


def test_record_fields_are_its_slots():
    """__slots__ lists a record's fields; only the records that check their
    arguments, and FuzzyVector, made once per cdfa state, have an __init__ of
    their own."""
    importlib.import_module("fuzzdet.reference")  # and every module it builds on
    classes = Record.__subclasses__()
    assert {"Cdfa", "FuzzyVector", "BuildStats", "TreeVertex"} <= {c.__name__ for c in classes}
    for cls in classes:
        assert cls._fields == cls.__slots__, cls
    own = {c.__name__ for c in classes if "__init__" in vars(c)}
    assert own == {"Lattice", "FuzzyVector", "FuzzyMatrix", "FuzzyAutomaton", "ValueSet",
                   "Cdfa"}


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
# call loads, keyed by command, and "psi" for a call whose --psi names a file.
# Without a bytecode cache each call compiles them, at about 12 µs a line
# (2-core x86-64 host, Python 3.11).
LINE_BUDGETS = {"eval": 1_108, "semiring": 1_313, "det": 1_890, "equiv": 1_890, "psi": 1_991}


def _lines(module: str) -> int:
    return (Path(fuzzdet.__file__).parent / f"{module}.py").read_text(encoding="utf-8").count("\n")


@pytest.mark.parametrize("argv", [
    ["eval", "{f}", "x"],
    ["semiring", "{f}"],
    ["det", "{f}", "--method", "brzozowski", "--dot", "-"],
    ["equiv", "{f}", "{f}", "--method", "incl,brzozowski"],
    ["det", "{f}", "--method", "psi", "--psi", "identity"],
    ["det", "{f}", "--method", "psi", "--psi", "{psi}"],
])
def test_command_loads_only_what_it_runs(python_child, goguen3_path, tmp_path, argv):
    psi = tmp_path / "psi"
    psi.write_text("1 0 0\n0 1 0\n0 0 1\n", encoding="utf-8")
    proc = python_child("-S", "-X", "importtime", "-m", "fuzzdet",
                        *(a.format(f=goguen3_path, psi=psi) for a in argv))
    assert proc.returncode == 0, proc.stderr
    loaded = _loaded(proc)
    command = argv[0]
    psi_file = "{psi}" in argv
    assert not {"argparse", "gettext", "locale", "__future__"} & _imported(proc)
    assert "fuzzdet.cli" in loaded and not {"fuzzdet.reference", "fuzzdet.usage"} & loaded
    assert ("fuzzdet.determinize" in loaded) == (command in ("det", "equiv"))
    assert ("fuzzdet.detcli" in loaded) == (command in ("det", "equiv"))
    assert ("fuzzdet.closure" in loaded) == (command != "eval")
    assert ("fuzzdet.psi" in loaded) == psi_file
    modules = ["__init__", "__main__", *(name.split(".", 1)[1] for name in loaded)]
    compiled = sum(map(_lines, modules))
    assert compiled <= LINE_BUDGETS["psi" if psi_file else command], (compiled, sorted(loaded))


def test_no_submodule_is_named_like_an_export():
    """Importing a submodule binds its name on the package, so a module named
    like an export would replace that export, the function or class, with
    the module."""
    modules = {m.name for m in pkgutil.iter_modules(fuzzdet.__path__)}
    assert "psi" in modules
    assert not modules & set(fuzzdet.__all__)


def test_every_export_resolves_to_its_module_object():
    for name in fuzzdet.__all__:
        module = importlib.import_module(f"fuzzdet.{fuzzdet._MODULE_OF[name]}")
        value = getattr(fuzzdet, name)
        assert value is getattr(module, name), name
        # on 3.10 a generic alias, such as Word, passes for a type but has no module
        if isinstance(value, (type, types.FunctionType)) and type(value) is not types.GenericAlias:
            assert value.__module__ == module.__name__, name
    assert set(fuzzdet.__all__) <= set(dir(fuzzdet))
    with pytest.raises(AttributeError):
        fuzzdet.nonexistent


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fuzzdet import *", namespace)
    del namespace["__builtins__"]
    assert len(namespace) == 55
    assert sorted(namespace) == fuzzdet.__all__
