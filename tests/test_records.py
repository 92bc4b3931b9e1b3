"""The package's records: value equality, immutability, and no dataclasses or typing
on import; the lazy package, and the modules each command loads."""

import ast
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
    GOGUEN,
    BuildStats,
    CapExceeded,
    Cdfa,
    DetOutcome,
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyVector,
    InvarianceViolation,
    Lattice,
    LatticeMismatch,
    ValueSet,
    automaton_values,
    chain,
    d_automaton,
    nerode,
    preflight,
    reverse_nerode_tree,
)
from fuzzdet.lattice import Record
from support import G, K


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


ONE, ZERO = FuzzyVector(BOOLEAN, (F(1),)), FuzzyVector(BOOLEAN, (F(0),))

# Each checking record, built by make(table) with table(...) turning each of
# its tables, and each row of a table of rows, into the caller's container.
CHECKING = {
    "vector": lambda table: FuzzyVector(GODEL, table([F(1, 2), F(1), F(1, 2)])),
    "matrix": lambda table: FuzzyMatrix(chain(4), table([table([1, 2]), table([0, 4])])),
    "value set": lambda table: ValueSet(GODEL, table([F(1, 3), F(1), F(1, 3)])),
    "cdfa": lambda table: Cdfa(BOOLEAN, table(["x", "y"]), table([table([1, 0]), table([1, 1])]),
                               0, table([F(1), F(0)]), table([(), ("x",)]), table([ONE, ZERO])),
}


@pytest.mark.parametrize("make", CHECKING.values(), ids=CHECKING)
def test_checking_records_read_a_callers_table_once(make):
    """A checking record takes its tables as any iterables, read once into
    tuples, so it equals and hashes like its tuple-built twin and keeps none
    of the caller's containers."""
    twin, lists = make(tuple), []

    def as_list(values):
        lists.append(list(values))
        return lists[-1]

    by_list = make(as_list)
    containers = [lambda values: (v for v in values)]
    if make is CHECKING["value set"]:
        containers.append(set)
    for record in (by_list, *map(make, containers)):
        assert record == twin and hash(record) == hash(twin)
    for made in lists:  # the caller edits its lists afterwards
        made[:] = [F(5)]
    assert by_list == twin and hash(by_list) == hash(twin)


@pytest.mark.parametrize("make", [
    lambda: FuzzyVector(GODEL, (v for v in [F(5), F(1, 2)])),
    lambda: FuzzyMatrix(GODEL, (row for row in [[F(1, 2)], (v for v in [F(5)])])),
    lambda: ValueSet(GODEL, (v for v in [F(5), F(1, 2)])),
    lambda: Cdfa(BOOLEAN, ("x",), ((0,),), 0, (v for v in [F(5)]), ((),), (ONE,)),
], ids=CHECKING)
def test_a_callers_generator_has_every_value_checked(make):
    with pytest.raises(LatticeMismatch, match="^5 is outside"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: FuzzyVector(GOGUEN, [G(1, 2)]), r"expected a Fraction in \[0, 1\], got G\(1, 2\)"),
    (lambda: FuzzyMatrix(chain(4), [[K.FOUR]]), "expected a chain index, got <K.FOUR: 4>"),
], ids=["vector", "matrix"])
def test_a_checking_record_refuses_a_subclass_value(make, message):
    """A value of an int or Fraction subclass is no carrier value."""
    with pytest.raises(LatticeMismatch, match=f"^{message}$"):
        make()


def test_from_values_and_from_rows_read_a_subclass_as_its_plain_type():
    (half,) = FuzzyVector.from_values(GOGUEN, [G(1, 2)])
    assert half == F(1, 2) and type(half) is F
    ((four,),) = FuzzyMatrix.from_rows(chain(4), [[K.FOUR]]).entries
    assert four == 4 and type(four) is int


def test_record_init_sets_fields_by_position_or_name():
    cap, stats = CapExceeded(4), BuildStats(5, 7, elapsed=0.5)
    assert DetOutcome(cap, stats) == DetOutcome(result=cap, stats=stats)
    assert DetOutcome(cap, stats=stats) == DetOutcome(cap, stats)
    assert (stats.vertices, stats.closure_checks, stats.elapsed) == (5, 7, 0.5)
    assert DetOutcome(stats=stats, result=cap).result == CapExceeded(cap=4)
    assert Lattice(kind="chain", top_index=3) == chain(3)


def test_reprs_name_each_field_or_entry():
    assert repr(CapExceeded(4)) == "CapExceeded(cap=4)"
    assert str(CapExceeded(4)) == "cap exceeded: 4 states built (max-states 4)"
    assert repr(chain(4)) == "Lattice(kind='chain', top_index=4)"
    assert repr(InvarianceViolation("x", (0, 1), F(1, 2), F(0))) == (
        "InvarianceViolation(constraint='x', position=(0, 1), lhs=Fraction(1, 2), "
        "rhs=Fraction(0, 1))")
    assert repr(FuzzyVector(GODEL, (F(1, 2), F(1), F(1, 3)))) == "<vector godel [0.5 1 1/3]>"
    assert repr(FuzzyMatrix(chain(4), ((1, 2), (0, 4)))) == "<matrix chain 4 [1 2; 0 4]>"
    assert repr(FuzzyMatrix(BOOLEAN, ((F(1),),))) == "<matrix boolean [1]>"


def test_report_records_write_their_own_lines(boolean3, goguen3):
    """str() of a preflight report and of build stats is the line semiring,
    det and det --stats print for it."""
    assert str(preflight(boolean3)) == "finite, k=2, bound 2^3=8"
    assert str(preflight(goguen3, 100)) == "cap exceeded at 100"
    assert str(BuildStats(5, 7, elapsed=0.5)) == "vertices=5 closure_checks=7 elapsed=0.500s"


@pytest.mark.parametrize("args, named", [
    ((3,), {}),  # stats missing
    ((), {"stats": 3}),  # result missing
    ((3,), {"result": 3, "stats": 3}),  # result twice
    ((3, 3, 3), {}),  # one value too many
    ((3, 3), {"size": 3}),  # size unknown
    ((3,), {"stats": 3, "size": 3}),
    ((3,), {"size": 3}),
])
def test_record_init_refuses_missing_repeated_and_unknown_fields(args, named):
    with pytest.raises(TypeError) as err:
        DetOutcome(*args, **named)
    assert str(err.value) == (f"DetOutcome(result, stats) takes each field once: "
                              f"got {len(args)} by position and {sorted(named)} by name")


def test_record_fields_are_its_slots():
    """__slots__ lists a record's fields; only the records that check their
    arguments have an __init__ of their own."""
    importlib.import_module("fuzzdet.reference")  # and every module it builds on
    classes = Record.__subclasses__()
    assert {"Cdfa", "FuzzyVector", "BuildStats", "TreeVertex"} <= {c.__name__ for c in classes}
    for cls in classes:
        assert cls._fields == cls.__slots__, cls
    own = {c.__name__ for c in classes if "__init__" in vars(c)}
    assert own == {"Lattice", "FuzzyVector", "FuzzyMatrix", "FuzzyAutomaton", "ValueSet",
                   "Cdfa"}


def test_derived_records_skip_only_the_subclass_checks():
    """Record._derived sets the fields as Record.__init__ does, for values
    the package derived from checked ones, without the subclass's checks."""
    assert FuzzyVector._derived(GODEL, (F(1, 2),)) == FuzzyVector(GODEL, (F(1, 2),))
    assert FuzzyVector._derived(GODEL, ()).entries == ()  # FuzzyVector(GODEL, ()) raises
    with pytest.raises(TypeError):
        FuzzyVector._derived(GODEL)


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
LINE_BUDGETS = {"eval": 1_100, "semiring": 1_306, "det": 1_890, "equiv": 1_890, "psi": 1_990}


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


def _unused_imports(source: str) -> set[str]:
    """The names a module imports and never uses; a name inside a string
    annotation, such as "Carrier", counts as used."""
    imported, used, annotations = set(), set(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for node in (n for a in annotations for n in ast.walk(a)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports("import os\nfrom x import A, B as C\ndef f(a: 'A') -> int: ...") \
        == {"os", "C"}
    package = Path(fuzzdet.__file__).parent
    unused = {p.name: names for p in sorted(package.glob("*.py"))
              if (names := _unused_imports(p.read_text(encoding="utf-8")))}
    assert not unused


def test_every_support_helper_is_named_by_a_test_module():
    """A public function or class of tests/support.py that no other tests/*.py
    module names, by a name, an attribute or an import, is a dead oracle."""
    tests = Path(__file__).parent
    support = ast.parse((tests / "support.py").read_text(encoding="utf-8"))
    helpers = {node.name for node in support.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[:1] != "_"}
    named = set()
    for path in set(tests.glob("*.py")) - {tests / "support.py"}:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert len(helpers) >= 20 and not helpers - named, sorted(helpers - named)


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


@pytest.mark.parametrize("module", ["fuzzdet", "fuzzdet.cli"])
def test_an_unknown_name_raises_its_modules_attribute_error(module):
    """The package and cli bind their lazy names through one binder, and an
    unknown name raises the AttributeError of the module it was looked up on."""
    with pytest.raises(AttributeError, match=f"^module '{module}' has no attribute 'nonexistent'$"):
        getattr(importlib.import_module(module), "nonexistent")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fuzzdet import *", namespace)
    del namespace["__builtins__"]
    assert len(namespace) == 55
    assert sorted(namespace) == fuzzdet.__all__
