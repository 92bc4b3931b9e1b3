"""Numbers of any length print and parse.

Python 3.11 and 3.10.7+ refuse int-string conversions past
sys.get_int_max_str_digits() digits (4,300 by default). Exact values grow
past that: a Goguen degree of 1/2^7000 prints as 7,000 decimal digits. The
expected texts here are built in chunks of 500 digits, each under the
smallest limit, 640 digits, so that the tests also pass with
PYTHONINTMAXSTRDIGITS=640; the limit itself is never changed.
"""

import sys
from fractions import Fraction as F

import pytest

from fuzzdet import (GOGUEN, LUKASIEWICZ, FuzzyMatrix, FuzzyVector, InvarianceViolation,
                     LatticeMismatch, PreflightReport, SemiringClosure, ValueSet, chain,
                     d_automaton, parse_automaton, serialize_automaton)
from fuzzdet import cli
from fuzzdet.lattice import Record
from dotcheck import validate_dot
from test_records import _one_of_each_record

CHUNK = 10 ** 500


def _digits(n: int) -> str:
    """str(n) of a nonnegative int, 500 digits at a time."""
    chunks = []
    while n >= CHUNK:
        n, low = divmod(n, CHUNK)
        chunks.append(f"{low:0500d}")
    return str(n) + "".join(reversed(chunks))


TINY = F(1, 2 ** 7000)
TINY_TEXT = "0." + _digits(5 ** 7000).zfill(7000)  # 1/2^7000 = 5^7000 / 10^7000
DOC = ("lattice goguen\nalphabet x\nstates 1\ninitial 1\n"
       f"terminal 1/{_digits(2 ** 7000)}\ntransitions x\n1\n")


@pytest.fixture(autouse=True)
def _limit_unchanged():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    yield
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.fixture
def tiny_path(tmp_path):
    path = tmp_path / "tiny.fza"
    path.write_text(DOC, encoding="utf-8")
    return str(path)


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_eval_prints_a_long_degree(capsys, tiny_path):
    assert len(TINY_TEXT) == 7002 and TINY_TEXT.endswith("625")
    assert run_cli(capsys, "eval", tiny_path, "_") == (0, TINY_TEXT + "\n", "")


def test_eval_on_a_long_word(capsys, tmp_path):
    half = tmp_path / "half.fza"
    half.write_text("lattice goguen\nalphabet x\nstates 1\ninitial 1\nterminal 1\n"
                    "transitions x\n1/2\n", encoding="utf-8")
    assert run_cli(capsys, "eval", str(half), ".".join(["x"] * 7000)) == (0, TINY_TEXT + "\n", "")


def test_det_prints_a_long_terminal_degree(capsys, tiny_path):
    code, out, _ = run_cli(capsys, "det", tiny_path)
    assert (code, out) == (0, "semiring: cap exceeded at 10000\nstates: 1\n"
                              f"state 1: word=_, terminal={TINY_TEXT}\n")


def test_det_dot_labels_a_long_terminal_degree(capsys, tiny_path):
    code, out, _ = run_cli(capsys, "det", tiny_path, "--dot", "-")
    assert code == 0
    report, dot = out.split("digraph", 1)
    assert report.endswith(f"terminal={TINY_TEXT}\n")
    validate_dot("digraph" + dot)
    assert f'  s1 [shape=circle, label="_/{TINY_TEXT}"];\n' in dot


def test_serialize_round_trips_a_long_value():
    a = parse_automaton(DOC)
    assert a.tau.entries == (TINY,)
    text = serialize_automaton(a)
    assert f"terminal {TINY_TEXT}\n" in text
    assert parse_automaton(text) == a


def test_long_literals_parse():
    ones = "1" * 5000
    assert GOGUEN.parse_value("0." + "0" * 4999 + "5") == F(1, 2 * 10 ** 4999)
    assert GOGUEN.parse_value(f"1/{ones}") == F(1, (10 ** 5000 - 1) // 9)
    assert LUKASIEWICZ.parse_value(f"{ones}/{ones}") == 1
    assert chain(4).parse_value("0" * 4999 + "3") == 3
    assert LUKASIEWICZ.format_value(F(1, 3 ** 9000)) == f"1/{_digits(3 ** 9000)}"
    assert chain(4).format_value(3) == "3"


def test_semiring_bound_of_any_length(capsys, monkeypatch, goguen3_path):
    closure = SemiringClosure(True, ValueSet(GOGUEN, frozenset({F(0), F(1)})), 2, 10_000)
    monkeypatch.setattr(cli, "preflight", lambda a, cap: PreflightReport(closure, 15_000))
    assert run_cli(capsys, "semiring", goguen3_path) == (
        0, f"finite, k=2, bound 2^15000={_digits(2 ** 15_000)}\n", "")


# 1/2^15000, a psi entry of 4,516 digits
PSI_TEXT = f"1/{_digits(2 ** 15_000)}"
# sigma = (1, 0) and delta_x = [[0, 1], [0, 0]]: a psi whose first row holds a
# positive second entry breaks sigma ∘ psi <= sigma at position 2
SIGMA_DOC = ("lattice goguen\nalphabet x\nstates 2\ninitial 1 0\nterminal 0 1\n"
             "transitions x\n0 1\n0 0\n")


@pytest.mark.parametrize("doc, psi, message", [
    (DOC, f"{PSI_TEXT}\n", f"psi[1,1] = {PSI_TEXT}, expected top"),
    (SIGMA_DOC, f"1 {PSI_TEXT}\n0 1\n", f"(sigma ∘ psi)[2] = {PSI_TEXT} exceeds sigma[2] = 0"),
], ids=["reflexive", "invariant"])
def test_psi_errors_name_a_long_entry(capsys, tmp_path, doc, psi, message):
    """A psi that is not reflexive or not left invariant exits 2 and names
    the entry with every digit."""
    paths = tmp_path / "a.fza", tmp_path / "psi"
    for path, text in zip(paths, (doc, psi)):
        path.write_text(text, encoding="utf-8")
    argv = "det", str(paths[0]), "--method", "psi", "--psi", str(paths[1])
    assert run_cli(capsys, *argv) == (2, "", f"error: --psi: {message}\n")


def test_invariance_violation_writes_a_long_side():
    violation = InvarianceViolation("x", (0, 1), F(1, 2 ** 15_000), F(0))
    assert str(violation) == f"(delta_x ∘ psi)[1,2] = {PSI_TEXT} exceeds (psi ∘ delta_x)[1,2] = 0"


@pytest.mark.parametrize("lattice, value, message", [
    (GOGUEN, F(10 ** 5000), "{} is outside goguen"),
    (chain(3), 10 ** 5000, "{} is outside chain 3"),
    (GOGUEN, 10 ** 5000, "expected a Fraction in [0, 1], got {}"),
], ids=["fraction", "chain", "int"])
def test_a_long_value_outside_the_carrier_is_named(lattice, value, message):
    with pytest.raises(LatticeMismatch) as err:
        FuzzyVector(lattice, (value,))
    assert str(err.value) == message.format("1" + "0" * 5000)


def test_a_vector_repr_writes_a_long_entry():
    assert repr(FuzzyVector(GOGUEN, (TINY, F(1)))) == f"<vector goguen [{TINY_TEXT} 1]>"


# 1/2^15000 as a Fraction's repr writes it, with all 4,516 digits of 2^15000
LONG_REPR = f"Fraction(1, {_digits(2 ** 15_000)})"
GOGUEN_REPR = "Lattice(kind='goguen', top_index=None)"


def test_a_value_set_repr_writes_a_long_element():
    text = repr(ValueSet(GOGUEN, frozenset({F(1, 2 ** 15_000)})))
    assert text == f"ValueSet(lattice={GOGUEN_REPR}, elements=frozenset({{{LONG_REPR}}}))"


def test_a_chain_repr_writes_a_long_top_index():
    assert repr(chain(10 ** 5000)) == f"Lattice(kind='chain', top_index=1{'0' * 5000})"


def test_a_cdfa_repr_writes_a_long_terminal_degree():
    """The one-state Goguen document with terminal degree 1/2^15000."""
    c = d_automaton(parse_automaton(DOC.replace(f"1/{_digits(2 ** 7000)}", PSI_TEXT))).cdfa
    assert c.terminal == (F(1, 2 ** 15_000),)
    (d,) = c.vectors
    assert repr(c) == (f"Cdfa(lattice={GOGUEN_REPR}, alphabet=('x',), transitions=((0,),), "
                       f"initial=0, terminal=({LONG_REPR},), words=((),), vectors=({d!r},))")


def test_an_invariance_violation_repr_writes_a_long_side():
    violation = InvarianceViolation("x", (0, 1), F(1, 2 ** 15_000), F(0))
    assert repr(violation) == (f"InvarianceViolation(constraint='x', position=(0, 1), "
                               f"lhs={LONG_REPR}, rhs=Fraction(0, 1))")


def _old_record_repr(self) -> str:
    body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
    return f"{type(self).__qualname__}({body})"


def _old_vector_repr(self) -> str:
    body = " ".join(self.lattice.format_value(v) for v in self.entries)
    return f"<vector {self.lattice.describe()} [{body}]>"


def _old_matrix_repr(self) -> str:
    rows = "; ".join(
        " ".join(self.lattice.format_value(v) for v in row) for row in self.entries)
    return f"<matrix {self.lattice.describe()} [{rows}]>"


def test_reprs_of_ordinary_values_read_as_the_field_reprs_did(monkeypatch, goguen3, boolean3):
    """Every record that test_records builds, and records with empty,
    one-element and long tuples and sets: the one repr writer gives the text
    that repr of each field gave, through the former Record.__repr__ and the
    vector's and matrix's own."""
    records = [*_one_of_each_record(goguen3, boolean3), chain(7),
               ValueSet(GOGUEN, frozenset()), ValueSet(GOGUEN, frozenset({F(1, 3)})),
               FuzzyVector._derived(GOGUEN, ()), FuzzyMatrix(chain(4), ((1, 2), (0, 4))),
               SemiringClosure(False, None, 10_001, 10_000),
               InvarianceViolation("sigma", (2,), F(2, 3), F(10 ** 40, 10 ** 41 + 1))]
    new = [repr(r) for r in records]
    monkeypatch.setattr(Record, "__repr__", _old_record_repr)
    monkeypatch.setattr(FuzzyVector, "__repr__", _old_vector_repr, raising=False)
    monkeypatch.setattr(FuzzyMatrix, "__repr__", _old_matrix_repr, raising=False)
    assert new == [repr(r) for r in records]
