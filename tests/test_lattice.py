"""Lattice kernel: operation tables, residuation laws, value syntax."""

import random
from fractions import Fraction as F

import pytest

from fuzzdet import BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ, LatticeMismatch, chain
from fuzzdet.lattice import Lattice
from support import G, K, S, value_pool

RATIONAL = (BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ)


def rand_value(rng, lat):
    if lat.kind == "chain":
        return rng.randrange(0, lat.top_index + 1)
    if lat.kind == "boolean":
        return F(rng.randrange(2))
    den = rng.randrange(1, 40)
    return F(rng.randrange(0, den + 1), den)


def test_meet_join_examples():
    assert GODEL.meet(F(3, 10), F(1, 2)) == F(3, 10)
    assert chain(4).meet(2, 3) == 2
    assert chain(4).join(2, 3) == 3
    rng = random.Random(7)
    for lat in (*RATIONAL, chain(4)):
        for _ in range(50):
            x = rand_value(rng, lat)
            assert lat.join(x, lat.bottom) == x
            assert lat.meet(x, lat.top) == x


def test_tmul_examples():
    assert LUKASIEWICZ.tmul(F(7, 10), F(6, 10)) == F(3, 10)
    assert GOGUEN.tmul(F(1, 2), F(3, 10)) == F(3, 20)
    assert GODEL.tmul(F(1, 2), F(3, 10)) == F(3, 10)
    assert chain(4).tmul(3, 3) == 2
    assert chain(4).tmul(1, 2) == 0
    rng = random.Random(11)
    for lat in (*RATIONAL, chain(4), chain(1)):
        for _ in range(50):
            x = rand_value(rng, lat)
            assert lat.tmul(x, lat.top) == x
            assert lat.tmul(x, lat.bottom) == lat.bottom


def test_resid_examples():
    assert GOGUEN.resid(F(1, 2), F(3, 10)) == F(3, 5)
    assert LUKASIEWICZ.resid(F(7, 10), F(4, 10)) == F(7, 10)
    assert GODEL.resid(F(7, 10), F(4, 10)) == F(4, 10)
    assert chain(4).resid(3, 1) == 2
    rng = random.Random(13)
    for lat in (*RATIONAL, chain(4)):
        for _ in range(50):
            y = rand_value(rng, lat)
            assert lat.resid(lat.bottom, y) == lat.top
            assert lat.resid(lat.top, y) == y


def test_biresid_examples():
    assert GOGUEN.biresid(F(1, 2), F(3, 10)) == F(3, 5)
    assert chain(4).biresid(1, 3) == 2
    rng = random.Random(17)
    for lat in (*RATIONAL, chain(4)):
        for _ in range(50):
            x = rand_value(rng, lat)
            assert lat.biresid(x, x) == lat.top


def test_biresid_is_the_meet_of_both_residua_on_every_pool_pair(check_calls):
    """biresid checks each argument once, then meets the two residua."""
    for lat in (*RATIONAL, chain(2), chain(4)):
        pool = value_pool(lat)
        for x in pool:
            for y in pool:
                expected = lat.meet(lat.resid(x, y), lat.resid(y, x))
                del check_calls[:]
                assert lat.biresid(x, y) == expected, (lat, x, y)
                assert check_calls == [x, y]


@pytest.mark.parametrize("lat, x, y, message", [
    (GODEL, F(2), F(3), "2 is outside godel"),
    (GODEL, F(1), 5, "expected a Fraction in [0, 1], got 5"),
    (chain(4), 1, F(1, 2), "expected a chain index, got 1/2"),
    (chain(4), True, 1, "expected a chain index, got True"),
    (BOOLEAN, F(1, 2), F(1), "1/2 is not a boolean degree"),
])
def test_biresid_names_a_bad_argument_as_resid_does(lat, x, y, message):
    for op in (lat.biresid, lat.resid):
        with pytest.raises(LatticeMismatch) as err:
            op(x, y)
        assert str(err.value) == message


def test_adjunction_sampled():
    rng = random.Random(19)
    for lat in (*RATIONAL, chain(4), chain(6)):
        for _ in range(500):
            x, y, z = (rand_value(rng, lat) for _ in range(3))
            assert (lat.tmul(x, y) <= z) == (x <= lat.resid(y, z))


def test_residuation_consequences_sampled():
    rng = random.Random(23)
    for lat in (*RATIONAL, chain(5)):
        for _ in range(500):
            x, y = rand_value(rng, lat), rand_value(rng, lat)
            assert lat.tmul(lat.resid(x, y), x) <= y
            assert y <= lat.resid(x, lat.tmul(x, y))


def test_tmul_monoid_sampled():
    rng = random.Random(29)
    for lat in (*RATIONAL, chain(4)):
        for _ in range(300):
            x, y, z = (rand_value(rng, lat) for _ in range(3))
            assert lat.tmul(x, y) == lat.tmul(y, x)
            assert lat.tmul(lat.tmul(x, y), z) == lat.tmul(x, lat.tmul(y, z))
            if y <= z:
                assert lat.tmul(x, y) <= lat.tmul(x, z)
                assert lat.resid(z, x) <= lat.resid(y, x)
                assert lat.resid(x, y) <= lat.resid(x, z)


def test_boolean_matches_chain_one():
    b, c = BOOLEAN, chain(1)
    embed = {F(0): 0, F(1): 1}
    for x in (F(0), F(1)):
        for y in (F(0), F(1)):
            assert embed[b.meet(x, y)] == c.meet(embed[x], embed[y])
            assert embed[b.join(x, y)] == c.join(embed[x], embed[y])
            assert embed[b.tmul(x, y)] == c.tmul(embed[x], embed[y])
            assert embed[b.resid(x, y)] == c.resid(embed[x], embed[y])


def test_format_value():
    assert GOGUEN.format_value(F(1, 2)) == "0.5"
    assert GOGUEN.format_value(F(1, 3)) == "1/3"
    assert GOGUEN.format_value(F(3, 50)) == "0.06"
    assert GOGUEN.format_value(F(0)) == "0"
    assert GOGUEN.format_value(F(1)) == "1"
    assert LUKASIEWICZ.format_value(F(7, 8)) == "0.875"
    assert chain(4).format_value(3) == "3"


def test_parse_value():
    assert GOGUEN.parse_value("0.25") == F(1, 4)
    assert GOGUEN.parse_value("3/10") == F(3, 10)
    assert GOGUEN.parse_value("1") == F(1)
    assert chain(4).parse_value("4") == 4
    with pytest.raises(ValueError):
        GOGUEN.parse_value("abc")
    with pytest.raises(ValueError):
        GOGUEN.parse_value("1/0")
    with pytest.raises(ValueError):
        chain(4).parse_value("0.5")
    with pytest.raises(LatticeMismatch):
        GOGUEN.parse_value("7/6")
    with pytest.raises(LatticeMismatch):
        BOOLEAN.parse_value("0.5")
    with pytest.raises(LatticeMismatch):
        chain(4).parse_value("5")
    # a value is the whole token, in ASCII digits: no final newline and no
    # Arabic-Indic or fullwidth digits, though int() and Fraction() take both
    for lattice, token in ((chain(4), "3\n"), (GOGUEN, "1\n"), (GOGUEN, "1/2\n"),
                           (GOGUEN, "0.5\n"), (chain(4), "\u0663"), (GOGUEN, "\uff10.\uff15"),
                           (GOGUEN, "\u0661/\u0662")):
        for read in (lattice.parse_value, lattice.coerce):
            with pytest.raises(ValueError, match="^not a (chain index|value literal): "):
                read(token)


def test_parse_format_round_trip():
    rng = random.Random(31)
    for lat in (*RATIONAL, chain(9)):
        for _ in range(200):
            v = rand_value(rng, lat)
            assert lat.parse_value(lat.format_value(v)) == v


def test_value_guards():
    with pytest.raises(LatticeMismatch):
        GODEL.tmul(F(1, 2), 2)
    with pytest.raises(LatticeMismatch):
        chain(4).meet(2, F(1, 2))
    with pytest.raises(LatticeMismatch):
        chain(4).meet(True, 3)
    with pytest.raises(LatticeMismatch):
        chain(4).tmul(True, 4)
    # the scalar operations check the range too, not only the type
    with pytest.raises(LatticeMismatch):
        chain(4).tmul(7, 7)
    with pytest.raises(LatticeMismatch):
        LUKASIEWICZ.resid(F(3, 2), F(-1))
    with pytest.raises(LatticeMismatch):
        GODEL.meet(F(2), F(1, 2))
    with pytest.raises(LatticeMismatch):
        chain(4).join(-1, 2)
    with pytest.raises(LatticeMismatch):
        GOGUEN.coerce(0.5)
    with pytest.raises(LatticeMismatch):
        chain(4).coerce(True)
    with pytest.raises(LatticeMismatch):
        GOGUEN.coerce(True)
    with pytest.raises(LatticeMismatch):
        BOOLEAN.coerce(False)
    with pytest.raises(LatticeMismatch):
        GOGUEN.check(F(3, 2))
    with pytest.raises(LatticeMismatch):
        BOOLEAN.check(F(1, 2))
    assert GOGUEN.coerce("0.5") == F(1, 2)
    assert GOGUEN.coerce(1) == F(1)
    assert chain(4).coerce("3") == 3
    # check admits only a plain int or Fraction; coerce reads a subclass as one
    for lattice, raw, plain in ((chain(4), K.FOUR, 4), (GOGUEN, G(1, 2), F(1, 2)),
                                (GOGUEN, K.ZERO, F(0))):
        got = lattice.coerce(raw)
        assert got == plain and type(got) is type(plain), (lattice, raw)


@pytest.mark.parametrize("read, value, message", [
    (GOGUEN.check, F(3, 2), "3/2 is outside goguen"),
    (BOOLEAN.check, F(1, 2), "1/2 is not a boolean degree"),
    (chain(4).check, 7, "7 is outside chain 4"),
    (chain(4).check, F(1, 2), "expected a chain index, got 1/2"),
    (chain(4).check, True, "expected a chain index, got True"),
    (GOGUEN.check, 2, "expected a Fraction in [0, 1], got 2"),
    (GOGUEN.check, "0.5", "expected a Fraction in [0, 1], got '0.5'"),
    (GOGUEN.coerce, 0.5, "float 0.5 rejected, pass a string, int or Fraction instead"),
    (GOGUEN.coerce, True, "cannot read True as a goguen value"),
    (chain(4).check, K.FOUR, "expected a chain index, got <K.FOUR: 4>"),
    (GOGUEN.check, G(1, 2), "expected a Fraction in [0, 1], got G(1, 2)"),
    (chain(3).coerce, K.FOUR, "4 is outside chain 3"),
    (chain(4).coerce, G(1, 2), "expected a chain index, got 1/2"),
])
def test_value_errors_write_numbers_as_reports_do(read, value, message):
    """A plain int or Fraction is named as format_value's p/q would write it,
    any other value, a subclass too, by its repr."""
    with pytest.raises(LatticeMismatch) as err:
        read(value)
    assert str(err.value) == message


def test_lattice_descriptor_validation():
    with pytest.raises(ValueError):
        Lattice("chain")
    with pytest.raises(ValueError):
        Lattice("chain", 0)
    with pytest.raises(ValueError):
        Lattice("chain", True)
    with pytest.raises(ValueError):  # a top index is a plain int, as check's chain values are
        chain(K.FOUR)
    with pytest.raises(ValueError):
        Lattice("godel", 4)
    with pytest.raises(ValueError):
        Lattice("heyting")
    with pytest.raises(ValueError) as err:  # a kind is a plain str, whatever it equals
        Lattice(S.GODEL)
    assert str(err.value) == "unknown lattice kind <S.GODEL: 'godel'>"
    assert chain(4).describe() == "chain 4"
    assert GOGUEN.describe() == "goguen"
