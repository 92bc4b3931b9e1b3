"""Document parsing, canonical serialization, DOT export."""

import random
from fractions import Fraction as F

import pytest

from fuzzdet import (
    BOOLEAN,
    GODEL,
    GOGUEN,
    LUKASIEWICZ,
    FormatError,
    FuzzyAutomaton,
    FuzzyMatrix,
    UnknownSymbol,
    chain,
    d_automaton,
    export_dot,
    format_word,
    parse_automaton,
    parse_matrix,
    parse_word,
    serialize_automaton,
)
from fuzzdet.cli import main
from dotcheck import validate_dot
from support import random_automaton

GOGUEN3_CANONICAL = """lattice goguen
alphabet x y
states 3
initial 1 0 0
terminal 0 1 0
transitions x
0 0.5 1
0 1 0
0 1 0.5
transitions y
0 1 0.3
0 1 0
0 0.3 1
"""

# the same automaton with its blocks in another order the parser accepts
GOGUEN3_REORDERED = """states 3
alphabet x y
lattice goguen
transitions y
0 1 0.3
0 1 0
0 0.3 1
terminal 0 1 0
transitions x
0 0.5 1
0 1 0
0 1 0.5
initial 1 0 0
"""


def test_parse_fixture_document(goguen3):
    for a in (goguen3, parse_automaton(GOGUEN3_REORDERED)):
        assert a == parse_automaton(GOGUEN3_CANONICAL)
        assert a.lattice == GOGUEN
        assert a.alphabet == ("x", "y")
        assert a.n == 3
        assert a.delta["x"].row(0) == (F(0), F(1, 2), F(1))
        assert a.sigma.entries == (F(1), F(0), F(0))
        assert a.tau.entries == (F(0), F(1), F(0))


def test_parse_tolerates_comments_blank_lines_tabs():
    text = ("# heading comment\n\nlattice\tboolean\n alphabet x\nstates 1\n"
            "initial 1  # trailing comment\nterminal\t0\ntransitions x\n1\n\n")
    a = parse_automaton(text)
    assert a.lattice == BOOLEAN
    assert a.n == 1


def test_parse_dimension_error_carries_line():
    text = "lattice goguen\nalphabet x\nstates 2\ninitial 1 0 0\nterminal 0 0\ntransitions x\n0 0\n0 0\n"
    with pytest.raises(FormatError) as err:
        parse_automaton(text)
    assert err.value.line == 4
    assert "3" in str(err.value)


def test_parse_value_error_carries_line_and_column():
    text = "lattice goguen\nalphabet x\nstates 2\ninitial 1 oops\nterminal 0 0\ntransitions x\n0 0\n0 0\n"
    with pytest.raises(FormatError) as err:
        parse_automaton(text)
    assert err.value.line == 4
    assert err.value.column == 11


def test_repeated_bad_value_is_reported_where_it_first_stands():
    """Each distinct token text is parsed once per document; a bad one still
    fails at its first position, and a good one gives one shared value."""
    text = ("lattice goguen\nalphabet x\nstates 2\ninitial 1 0\nterminal 0 1/2\n"
            "transitions x\n0 3/2\n3/2 0\n")
    with pytest.raises(FormatError) as err:
        parse_automaton(text)
    assert (err.value.line, err.value.column) == (7, 3)
    a = parse_automaton(text.replace("3/2", "1/2"))
    assert a.tau[1] is a.delta["x"].entries[0][1] is a.delta["x"].entries[1][0]
    with pytest.raises(FormatError) as err:
        parse_matrix("1 3/2\n3/2 1\n", GOGUEN, 2)
    assert (err.value.line, err.value.column) == (1, 3)


def test_empty_value_line_names_its_line(capsys, tmp_path):
    """An initial or terminal line with no values has no value token to take
    the line from; the error names the directive's line."""
    for kw, line in (("initial", 4), ("terminal", 5)):
        lines = ["lattice goguen", "alphabet x", "states 2", "initial 1 0", "terminal 0 1",
                 "transitions x", "0 1", "0 0"]
        lines[line - 1] = kw
        with pytest.raises(FormatError) as err:
            parse_automaton("\n".join(lines) + "\n")
        assert (err.value.line, err.value.column) == (line, None)
        assert str(err.value) == f"line {line}: {kw} needs 2 values, got 0"
        doc = tmp_path / f"{kw}.fza"
        doc.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(doc), "_"]) == 2
        assert capsys.readouterr() == ("", f"error: line {line}: {kw} needs 2 values, got 0\n")


def test_parse_chain_range_error():
    text = "lattice chain 4\nalphabet x\nstates 1\ninitial 5\nterminal 0\ntransitions x\n0\n"
    with pytest.raises(FormatError) as err:
        parse_automaton(text)
    assert err.value.line == 4
    assert "chain 4" in str(err.value)


def test_parse_structural_errors():
    base = "lattice goguen\nalphabet x\nstates 1\ninitial 1\nterminal 1\ntransitions x\n1\n"
    with pytest.raises(FormatError, match="duplicate lattice"):
        parse_automaton("lattice godel\n" + base)
    with pytest.raises(FormatError, match="missing transitions"):
        parse_automaton(base.replace("transitions x\n1\n", ""))
    with pytest.raises(FormatError, match="missing blocks: terminal"):
        parse_automaton(base.replace("terminal 1\n", ""))
    with pytest.raises(FormatError, match="unknown directive"):
        parse_automaton(base + "epilogue\n")
    with pytest.raises(FormatError, match="not in the alphabet"):
        parse_automaton(base + "transitions y\n1\n")
    with pytest.raises(FormatError, match="duplicate transitions"):
        parse_automaton(base + "transitions x\n1\n")
    with pytest.raises(FormatError, match="needs 1 rows|document ends"):
        parse_automaton(base.replace("transitions x\n1\n", "transitions x\n"))
    with pytest.raises(FormatError, match="unknown lattice"):
        parse_automaton(base.replace("lattice goguen", "lattice fancy"))
    with pytest.raises(FormatError, match="before lattice"):
        parse_automaton("initial 1\n" + base)
    # not positive, not decimal (a superscript two), or longer than int() converts
    for count in ("\u00b2", "0", "-1", "9" * 5000):
        with pytest.raises(FormatError, match="states needs one positive integer"):
            parse_automaton(base.replace("states 1", f"states {count}"))
        with pytest.raises(FormatError, match="chain needs a positive top index"):
            parse_automaton(base.replace("lattice goguen", f"lattice chain {count}"))


def test_parse_rejects_reserved_alphabet_symbols():
    base = "lattice goguen\nalphabet x {}\nstates 1\ninitial 1\nterminal 1\n"
    for symbol in ("_", "a.b", "."):
        with pytest.raises(FormatError, match="reserved") as err:
            parse_automaton(base.format(symbol))
        assert (err.value.line, err.value.column) == (2, 12)
    text = base.format("a_b") + "transitions x\n1\ntransitions a_b\n1\n"
    assert parse_automaton(text).alphabet == ("x", "a_b")


def test_serialize_canonical_form(goguen3):
    assert serialize_automaton(goguen3) == GOGUEN3_CANONICAL


def test_round_trip_fixtures(goguen3, boolean3):
    for a in (goguen3, boolean3):
        assert parse_automaton(serialize_automaton(a)) == a


def test_boolean_and_chain_serialization():
    a = FuzzyAutomaton.build(BOOLEAN, ("x",), [1], {"x": [[1]]}, [0])
    text = serialize_automaton(a)
    assert "initial 1" in text and "terminal 0" in text
    b = FuzzyAutomaton.build(chain(4), ("x",), [4], {"x": [[2]]}, [0])
    text = serialize_automaton(b)
    assert "lattice chain 4" in text
    assert "\n2\n" in text
    for built in (a, b):
        assert parse_automaton(serialize_automaton(built)) == built


def test_round_trip_random_automata():
    rng = random.Random(67)
    lattices = (BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ, chain(4))
    for i in range(100):
        lat = lattices[i % len(lattices)]
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 4)
        a = random_automaton(rng, lat, n, alphabet=("x", "y", "z")[:m])
        assert parse_automaton(serialize_automaton(a)) == a


def test_parse_matrix():
    m = parse_matrix("0 0.5\n# comment\n1 1\n", GOGUEN, 2)
    assert m == FuzzyMatrix.from_rows(GOGUEN, [["0", "0.5"], ["1", "1"]])
    with pytest.raises(FormatError):
        parse_matrix("0 0.5\n", GOGUEN, 2)
    with pytest.raises(FormatError):
        parse_matrix("0 0.5\n1\n", GOGUEN, 2)


def test_word_syntax():
    assert format_word(()) == "_"
    assert format_word(("x", "y", "x")) == "x.y.x"
    assert parse_word("_", ("x", "y")) == ()
    assert parse_word("x.y.x", ("x", "y")) == ("x", "y", "x")
    with pytest.raises(UnknownSymbol):
        parse_word("x.q", ("x", "y"))
    with pytest.raises(UnknownSymbol):
        parse_word("x..y", ("x", "y"))


def test_dot_cdfa_fixture_topology(goguen3):
    c = d_automaton(goguen3).cdfa
    text = export_dot(c)
    info = validate_dot(text)
    state_nodes = {i for i in info["node_ids"] if i.startswith("s")}
    assert len(state_nodes) == 3
    assert info["nodes"] == 4  # three states plus the hidden start marker
    assert info["edges"] == 6  # five merged transitions plus the start arrow
    assert '"_/0"' in text and '"x/0.5"' in text and '"y/1"' in text
    assert '"x,y"' in text  # absorbing state edge merged


def test_dot_fuzzy_automaton_zero_edges_omitted():
    a = FuzzyAutomaton.build(
        GOGUEN, ("x", "y"), ["1", "0"],
        {"x": [["0", "0"], ["0", "0"]],
         "y": [["0", "1"], ["0", "0"]]},
        ["0", "1"])
    text = export_dot(a)
    validate_dot(text)
    assert "x/" not in text
    assert '"y/1"' in text


def test_dot_boolean_labels_shortened(boolean3):
    text = export_dot(boolean3)
    info = validate_dot(text)
    assert '"x,y"' in text       # a2 reaches a1 by both symbols
    assert "/1" not in text      # no degree suffix in the boolean rendering
    assert "doublecircle" in text
    assert info["edges"] >= 7


def test_dot_valid_across_lattices():
    rng = random.Random(71)
    for lat in (BOOLEAN, GODEL, GOGUEN, chain(3)):
        for _ in range(5):
            a = random_automaton(rng, lat, 3)
            validate_dot(export_dot(a))
            outcome = d_automaton(a, cap=2000)
            if outcome.ok:
                validate_dot(export_dot(outcome.cdfa))


def test_dot_validator_rejects_garbage():
    with pytest.raises(ValueError):
        validate_dot("digraph {")
    with pytest.raises(ValueError):
        validate_dot('digraph g { a [label="unterminated] }')
    with pytest.raises(ValueError):
        validate_dot("graph g { a -- b }")
    with pytest.raises(ValueError):
        validate_dot("digraph g { a -> }")


def test_export_dot_rejects_other_types():
    with pytest.raises(TypeError):
        export_dot("not an automaton")
