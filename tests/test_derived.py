"""Records the package derives from checked values skip their constructors'
checks (Record._derived): state vectors, run-built cdfas, value sets,
parsed automata, vectors and matrices, the results of the algebra, and the
records the raw builders make from values they have coerced, and so
checked, once each.

The oracle builds each such record again through its class's constructor,
which runs every check, and asks for an equal record. A value outside its
lattice's carrier or of the wrong type (a code that leaked undecoded), a
ragged table or an unreachable state makes the constructor raise. Counting
Lattice.check calls shows that each raw value is checked once.
"""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from fuzzdet import (
    BOOLEAN,
    GODEL,
    GOGUEN,
    LUKASIEWICZ,
    Cdfa,
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyVector,
    ValueSet,
    automaton_values,
    brzozowski,
    chain,
    d_automaton,
    mat_compose,
    mat_vec,
    nerode,
    parse_automaton,
    parse_matrix,
    preflight,
    psi_d_automaton,
    reverse_nerode,
    semiring_closure,
    serialize_automaton,
    vec_mat,
)
from fuzzdet import cli
from fuzzdet.lattice import Record
from conftest import load_fixture
from support import (
    identity_matrix,
    moore_cases,
    nth_from_end,
    quasi_order_automaton,
    random_automaton,
    random_matrix,
    random_value,
    random_vector,
    reverse,
)

LATTICES = (BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ, chain(2), chain(4))
CAP = 200


def _records(value):
    """value and every record inside it, through fields, tuples and dicts."""
    if isinstance(value, Record):
        yield value
        for field in value._fields:
            yield from _records(getattr(value, field))
    elif isinstance(value, tuple):
        for v in value:
            yield from _records(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _records(v)


def assert_rebuilds(*values) -> int:
    """Every record in values equals itself rebuilt through its checking
    constructor; returns how many cdfas were rebuilt."""
    cdfas = 0
    for record in _records(values):
        assert type(record)(*(getattr(record, f) for f in record._fields)) == record, record
        if isinstance(record, FuzzyAutomaton):  # dict equality ignores order
            assert list(record.delta) == list(record.alphabet), record
        cdfas += isinstance(record, Cdfa)
    return cdfas


def test_every_method_on_every_lattice_builds_checked_records():
    """nerode, reverse_nerode, d_automaton, brzozowski and psi_d_automaton
    with the identity on random automata, and psi_d_automaton with a
    left invariant quasi-order coarser than the identity."""
    rng = random.Random(2207)
    for lattice in LATTICES:
        built = [0] * 6
        coarser = 0
        for k in range(24):
            alphabet = ("x", "y", "z")[:k % 3 + 1]
            a = random_automaton(rng, lattice, rng.randint(1, 4), alphabet)
            b, psi = quasi_order_automaton(rng, lattice, rng.randint(2, 4), alphabet)
            coarser += psi != identity_matrix(lattice, b.n)
            outcomes = (nerode(a, CAP), reverse_nerode(a, CAP), d_automaton(a, CAP),
                        brzozowski(a, CAP),
                        psi_d_automaton(a, identity_matrix(lattice, a.n), CAP),
                        psi_d_automaton(b, psi, CAP))
            for i, outcome in enumerate(outcomes):
                built[i] += assert_rebuilds(outcome)
            values = automaton_values(a)
            assert_rebuilds(values, preflight(a), semiring_closure(lattice, values, CAP))
        assert min(built) >= 5 and coarser >= 5, (lattice, built, coarser)


def test_blowup_family_and_its_mirror_build_checked_records():
    for n in range(1, 11):
        for a in (nth_from_end(n), reverse(nth_from_end(n))):
            outcomes = (nerode(a), reverse_nerode(a), d_automaton(a), brzozowski(a),
                        psi_d_automaton(a, identity_matrix(BOOLEAN, a.n)))
            assert assert_rebuilds(outcomes) == 5
        assert d_automaton(nth_from_end(n)).cdfa.n == 2 ** n


def test_moore_quotient_cases_build_checked_records():
    built = 0
    for lattice, a in moore_cases():
        built += assert_rebuilds(nerode(a, 1_000), d_automaton(a, 1_000), brzozowski(a, 1_000),
                                 psi_d_automaton(a, identity_matrix(lattice, a.n), 1_000))
    assert built >= 1_000


def test_parsed_documents_are_checked_records():
    """The fixtures, and serialized random documents on every lattice with
    their transitions blocks shuffled: the parser checks a document itself
    and hands its delta over in alphabet order."""
    for name in ("goguen3.fza", "boolean3.fza"):
        a = load_fixture(name)
        assert assert_rebuilds(a, automaton_values(a), preflight(a), d_automaton(a),
                               brzozowski(a)) == 2
        assert_rebuilds(parse_matrix("1 0 0\n0 1 0\n0 0 1\n", a.lattice, a.n))
    rng = random.Random(2411)
    shuffled = 0
    for lattice in LATTICES:
        for k in range(12):
            a = random_automaton(rng, lattice, rng.randint(1, 4), ("x", "y", "z")[:k % 3 + 1])
            head, *blocks = serialize_automaton(a).split("transitions ")
            rng.shuffle(blocks)
            shuffled += blocks != sorted(blocks)
            parsed = parse_automaton("transitions ".join([head, *blocks]))
            assert parsed == a
            assert_rebuilds(parsed)
    assert shuffled >= 10


def test_algebra_results_are_checked_records():
    rng = random.Random(1965)
    for lattice in LATTICES:
        for n in range(1, 5):
            f, m, g = (random_vector(rng, lattice, n), random_matrix(rng, lattice, n),
                       random_matrix(rng, lattice, n))
            assert_rebuilds(vec_mat(f, m), mat_vec(m, f), mat_compose(m, g))


def _raw_values(rng, lattice, n) -> list:
    """n raw values as a caller passes them: document text, the value
    itself, or an int for 0 and 1 on a rational lattice."""
    raw = []
    for _ in range(n):
        v = random_value(rng, lattice)
        kind = rng.randrange(3)
        if kind == 0:
            raw.append(lattice.format_value(v))
        elif kind == 1 and v.denominator == 1:
            raw.append(int(v))
        else:
            raw.append(v)
    return raw


def test_raw_builders_build_checked_records():
    """from_values, from_rows, ValueSet.of and FuzzyAutomaton.build on raw
    text, ints and Fractions, on every lattice."""
    rng = random.Random(2610)
    for lattice in LATTICES:
        for n in range(1, 5):
            alphabet = ("x", "y", "z")[:n % 3 + 1]
            built = (FuzzyVector.from_values(lattice, _raw_values(rng, lattice, n)),
                     FuzzyMatrix.from_rows(lattice, [_raw_values(rng, lattice, n)
                                                     for _ in range(n)]),
                     ValueSet.of(lattice, _raw_values(rng, lattice, n)),
                     ValueSet.of(lattice, []),
                     FuzzyAutomaton.build(
                         lattice, alphabet, _raw_values(rng, lattice, n),
                         {x: [_raw_values(rng, lattice, n) for _ in range(n)]
                          for x in reversed(alphabet)},
                         _raw_values(rng, lattice, n)))
            assert_rebuilds(*built)


TWO_STATES = {"x": [["0.5", "1"], ["0", "1/3"]], "y": [[0, 1], [F(2, 3), "0.25"]]}


@pytest.mark.parametrize("build, checks", [
    (lambda: FuzzyVector.from_values(GODEL, ["0.5", "1", "1/3"]), 3),
    (lambda: FuzzyMatrix.from_rows(chain(4), [[1, "2"], [0, 4]]), 4),
    (lambda: ValueSet.of(GOGUEN, ["1/2", F(1, 3)]), 2),
    (lambda: FuzzyAutomaton.build(LUKASIEWICZ, ("x", "y"), ["1", 0], TWO_STATES, [0, "1"]), 12),
], ids=["from_values", "from_rows", "ValueSet.of", "build"])
def test_raw_builders_check_each_value_once(check_calls, build, checks):
    build()
    assert len(check_calls) == checks


def test_equiv_checks_no_value_beyond_parsing(check_calls, monkeypatch, capsys, goguen3_path,
                                              tmp_path):
    """file2 is goguen3 with its alphabet, and so its transitions blocks, in
    the other order. equiv puts file2's delta in file1's alphabet order
    without a checking constructor, as the parser builds an automaton."""
    a = load_fixture("goguen3.fza")
    swapped = tmp_path / "swapped.fza"
    swapped.write_text(serialize_automaton(FuzzyAutomaton(
        a.lattice, ("y", "x"), a.sigma, a.delta, a.tau)), encoding="utf-8")
    del check_calls[:]
    for path in (goguen3_path, swapped):
        parse_automaton(Path(path).read_text(encoding="utf-8"))
    parsing = len(check_calls)
    del check_calls[:]
    constructed, determinized = [], []
    init, d_automaton = FuzzyAutomaton.__init__, cli.d_automaton
    monkeypatch.setattr(FuzzyAutomaton, "__init__",
                        lambda self, *args: constructed.append(args) or init(self, *args))
    monkeypatch.setattr(cli, "d_automaton",
                        lambda a, cap: determinized.append(a) or d_automaton(a, cap))
    assert cli.main(["equiv", goguen3_path, str(swapped)]) == 0
    assert capsys.readouterr() == ("equivalent\n", "")
    assert (len(check_calls), constructed) == (parsing, [])
    assert determinized == [a, a] and determinized[1].alphabet == ("x", "y")
    assert_rebuilds(*determinized)
