"""Vector and matrix compositions, inclusion degree, value-set closure."""

import random
from fractions import Fraction as F

import pytest

from fuzzdet import (
    BOOLEAN,
    GODEL,
    GOGUEN,
    LUKASIEWICZ,
    DimensionMismatch,
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyVector,
    InvalidCap,
    LatticeMismatch,
    ValueSet,
    chain,
    dot,
    identity_matrix,
    inclusion_degree,
    mat_compose,
    mat_vec,
    preflight,
    semiring_closure,
    vec_mat,
)
from support import (
    _inf_resid,
    _sup,
    random_matrix,
    random_value,
    random_vector,
    saturate_closure,
)

# the three-state product-structure fixture, built directly
DELTA_X = FuzzyMatrix.from_rows(GOGUEN, [
    ["0", "0.5", "1"], ["0", "1", "0"], ["0", "1", "0.5"]])
DELTA_Y = FuzzyMatrix.from_rows(GOGUEN, [
    ["0", "1", "0.3"], ["0", "1", "0"], ["0", "0.3", "1"]])
SIGMA = FuzzyVector.from_values(GOGUEN, ["1", "0", "0"])
TAU = FuzzyVector.from_values(GOGUEN, ["0", "1", "0"])


def test_identity_neutral():
    rng = random.Random(3)
    for _ in range(20):
        m = random_matrix(rng, GOGUEN, 3)
        i = identity_matrix(GOGUEN, 3)
        assert mat_compose(m, i) == m
        assert mat_compose(i, m) == m


def test_compose_against_plain_arithmetic():
    # independent oracle: plain max of Fraction products, no shortcuts
    product = mat_compose(DELTA_X, DELTA_X)
    for i in range(3):
        for j in range(3):
            expected = max(DELTA_X.entries[i][k] * DELTA_X.entries[k][j]
                           for k in range(3))
            assert product.entries[i][j] == expected
    assert product.row(0) == (F(0), F(1), F(1, 2))


def test_boolean_compose_is_relational_composition():
    rels = [
        {(0, 1), (1, 2)},
        {(0, 0), (1, 1), (2, 2)},
        {(2, 0), (0, 2), (1, 1)},
        {(0, 1), (1, 0), (2, 1), (2, 2)},
    ]

    def matrix(rel):
        return FuzzyMatrix(BOOLEAN, tuple(
            tuple(F(1) if (i, j) in rel else F(0) for j in range(3))
            for i in range(3)))

    for r in rels:
        for s in rels:
            composed = {(i, j) for i, k1 in r for k2, j in s if k1 == k2}
            assert mat_compose(matrix(r), matrix(s)) == matrix(composed)


def test_vec_mat_and_mat_vec_fixture_values():
    assert vec_mat(SIGMA, DELTA_X).entries == (F(0), F(1, 2), F(1))
    assert mat_vec(DELTA_X, TAU).entries == (F(1, 2), F(1), F(1))
    assert mat_vec(DELTA_Y, TAU).entries == (F(1), F(1), F(3, 10))


def test_dot_examples():
    tau_x = mat_vec(DELTA_X, TAU)
    assert dot(SIGMA, tau_x) == F(1, 2)
    assert dot(SIGMA, TAU) == F(0)
    zeros = FuzzyVector(GOGUEN, (F(0), F(0), F(0)))
    assert dot(tau_x, zeros) == F(0)


def test_dot_symmetric():
    rng = random.Random(5)
    for _ in range(100):
        f = random_vector(rng, GOGUEN, 4)
        g = random_vector(rng, GOGUEN, 4)
        assert dot(f, g) == dot(g, f)


def test_compose_associative():
    rng = random.Random(9)
    for lat in (GOGUEN, GODEL, chain(4)):
        for _ in range(30):
            a = random_matrix(rng, lat, 3)
            b = random_matrix(rng, lat, 3)
            c = random_matrix(rng, lat, 3)
            assert mat_compose(mat_compose(a, b), c) == mat_compose(a, mat_compose(b, c))
            f = random_vector(rng, lat, 3)
            assert vec_mat(vec_mat(f, a), b) == vec_mat(f, mat_compose(a, b))
            g = random_vector(rng, lat, 3)
            assert mat_vec(a, mat_vec(b, g)) == mat_vec(mat_compose(a, b), g)


def _random_rect(rng, lat, n_rows, n_cols):
    return FuzzyMatrix(lat, tuple(tuple(random_value(rng, lat) for _ in range(n_cols))
                                  for _ in range(n_rows)))


def test_public_algebra_against_the_scalar_folds():
    """vec_mat, mat_vec, dot, mat_compose and inclusion_degree give what the
    folds of checked scalar operations give, in the lattice's own type."""
    rng = random.Random(41)
    for lat in (BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ, chain(1), chain(3), chain(7)):
        kind = int if lat.kind == "chain" else F
        for _ in range(40):
            n, m, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a, b = _random_rect(rng, lat, n, m), _random_rect(rng, lat, m, p)
            f, g, h = (random_vector(rng, lat, k) for k in (n, m, m))
            got_vm, got_mv = vec_mat(f, a).entries, mat_vec(a, g).entries
            got_mc = mat_compose(a, b).entries
            got_dot, got_incl = dot(g, h), inclusion_degree(g, h)
            assert got_vm == tuple(_sup(lat, f, col) for col in zip(*a.entries))
            assert got_mv == tuple(_sup(lat, row, g) for row in a.entries)
            assert got_mc == tuple(tuple(_sup(lat, row, col) for col in zip(*b.entries))
                                   for row in a.entries)
            assert got_dot == _sup(lat, g, h)
            assert got_incl == _inf_resid(lat, g, h)
            values = [*got_vm, *got_mv, *(v for row in got_mc for v in row),
                      got_dot, got_incl]
            assert all(type(v) is kind for v in values)


def test_boolean_code_carrier_keeps_values_fractions(python_child):
    """A boolean code carrier has int codes on 0..1, the ends of the boolean
    values as numbers. Built first in a fresh interpreter, it must not hand
    its int operations to the lattice's values."""
    done = python_child("-c", """if True:
        from fractions import Fraction as F
        from fuzzdet import BOOLEAN, FuzzyMatrix, FuzzyVector, vec_mat
        from fuzzdet.closure import carrier_of
        c = carrier_of(BOOLEAN, {F(0), F(1)})
        v = vec_mat(FuzzyVector(BOOLEAN, (F(1), F(0))),
                    FuzzyMatrix(BOOLEAN, ((F(1), F(0)), (F(1), F(1)))))
        ops = BOOLEAN.tmul(F(1), F(1)), BOOLEAN.tmul(F(1), F(0)), BOOLEAN.resid(F(0), F(1))
        print(type(c.tmul(1, 1)).__name__, *(type(x).__name__ for x in (*ops, *v)))
    """)
    assert (done.returncode, done.stdout) == (0, "int" + " Fraction" * 5 + "\n"), done.stderr


def test_inclusion_degree_examples():
    f = FuzzyVector.from_values(GOGUEN, ["0.5", "1"])
    g = FuzzyVector.from_values(GOGUEN, ["0.3", "1"])
    assert inclusion_degree(f, g) == F(3, 5)
    assert inclusion_degree(g, f) == F(1)


def test_inclusion_degree_top_iff_pointwise_leq():
    rng = random.Random(15)
    for lat in (GOGUEN, GODEL, chain(4)):
        for _ in range(200):
            f = random_vector(rng, lat, 3)
            g = random_vector(rng, lat, 3)
            contained = all(a <= b for a, b in zip(f, g))
            assert (inclusion_degree(f, g) == lat.top) == contained


def test_inclusion_degree_of_fixture_root():
    # meet over the four right-language vectors of the fixture,
    # first component: the value the canonization starts from
    tau_x = mat_vec(DELTA_X, TAU)
    tau_y = mat_vec(DELTA_Y, TAU)
    tau_xx = mat_vec(DELTA_X, tau_x)
    states = [TAU, tau_x, tau_y, tau_xx]
    lat = GOGUEN
    component = lat.top
    for mu in states:
        component = lat.meet(component, lat.resid(mu[0], dot(SIGMA, mu)))
    assert component == F(1)


def test_dimension_errors():
    short = FuzzyVector.from_values(GOGUEN, ["1", "0"])
    with pytest.raises(DimensionMismatch):
        vec_mat(short, DELTA_X)
    with pytest.raises(DimensionMismatch):
        mat_vec(DELTA_X, short)
    with pytest.raises(DimensionMismatch):
        dot(short, TAU)
    with pytest.raises(DimensionMismatch):
        inclusion_degree(short, TAU)
    two = FuzzyMatrix.from_rows(GOGUEN, [["0", "1"], ["1", "0"]])
    with pytest.raises(DimensionMismatch):
        mat_compose(DELTA_X, two)
    with pytest.raises(DimensionMismatch):
        FuzzyMatrix.from_rows(GOGUEN, [["0", "1"], ["1"]])
    with pytest.raises(DimensionMismatch):
        FuzzyVector.from_values(GOGUEN, [])
    with pytest.raises(DimensionMismatch):
        FuzzyVector(GOGUEN, ())
    with pytest.raises(DimensionMismatch):
        FuzzyMatrix(GOGUEN, ())
    with pytest.raises(DimensionMismatch):
        FuzzyMatrix(GOGUEN, ((F(0),), (F(0), F(1))))
    with pytest.raises(DimensionMismatch):
        FuzzyAutomaton(GOGUEN, ("x",), FuzzyVector(GOGUEN, ()),
                       {"x": FuzzyMatrix(GOGUEN, ())}, FuzzyVector(GOGUEN, ()))


def test_lattice_mismatch_errors():
    godel_vec = FuzzyVector.from_values(GODEL, ["1", "0", "0"])
    with pytest.raises(LatticeMismatch):
        vec_mat(godel_vec, DELTA_X)
    with pytest.raises(LatticeMismatch):
        dot(godel_vec, TAU)


def test_closure_boolean_and_chain_close():
    result = semiring_closure(BOOLEAN, [F(0), F(1)], 10)
    assert result.closed and result.k == 2
    result = semiring_closure(chain(4), [0, 2, 4], 100)
    assert result.closed
    assert set(result.values) <= set(range(5))
    result = semiring_closure(GODEL, [F(1, 3), F(1, 2)], 100)
    assert result.closed and result.k == 4  # godel adds nothing new
    result = semiring_closure(GOGUEN, [F(0), F(1)], 10)
    assert result.closed and result.k == 2


def test_closure_caps_on_product_fixture_values():
    seed = ValueSet.of(GOGUEN, ["0", "0.3", "0.5", "1"])
    result = semiring_closure(GOGUEN, seed, 1000)
    assert not result.closed
    assert result.values is None
    assert result.reached == 1001
    assert result.k is None


def test_closure_rejects_caps_below_one(goguen3):
    for cap in (0, -5, True):
        with pytest.raises(InvalidCap):
            semiring_closure(GOGUEN, [F(1, 2)], cap)
        with pytest.raises(InvalidCap):
            preflight(goguen3, cap)
    smallest = semiring_closure(GOGUEN, [F(1, 2)], 1)
    assert (smallest.closed, smallest.reached, smallest.cap) == (False, 3, 1)


def test_closure_monotone_and_idempotent():
    small = semiring_closure(chain(6), [1, 2], 1000)
    large = semiring_closure(chain(6), [1, 2, 5], 1000)
    assert small.closed and large.closed
    assert set(small.values) <= set(large.values)
    again = semiring_closure(chain(6), small.values, 1000)
    assert again.closed
    assert set(again.values) == set(small.values)


def test_closure_contains_seed_and_constants():
    result = semiring_closure(GODEL, [F(1, 4)], 10)
    assert result.closed
    assert F(0) in result.values and F(1) in result.values and F(1, 4) in result.values


def test_closure_checks_value_set_seed():
    with pytest.raises(LatticeMismatch):
        semiring_closure(GOGUEN, ValueSet(GOGUEN, frozenset({F(2)})), 10)
    with pytest.raises(LatticeMismatch):
        semiring_closure(GODEL, ValueSet(chain(2), frozenset({1})), 10)


def _random_seed(rng, lattice):
    size = rng.randrange(5)
    if lattice.kind == "chain":
        return [rng.randrange(lattice.top_index + 1) for _ in range(size)]
    if lattice.kind == "boolean":
        return [F(rng.randrange(2)) for _ in range(size)]
    dens = [rng.randint(1, 97)]
    if rng.random() < 0.3:
        dens.append(rng.randint(1, 97))
    seed = []
    for _ in range(size):
        d = rng.choice(dens)
        seed.append(F(rng.randrange(d + 1), d))
    return seed


def test_closure_matches_saturation_oracle():
    rng = random.Random(29)
    lattices = (BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ,
                chain(1), chain(3), chain(7), chain(20))
    for lattice in lattices:
        caps = (1, 2, 3, 5, 10, 50, 200) + (() if lattice == GOGUEN else (1000,))
        for cap in caps:
            for _ in range(25):
                seed = _random_seed(rng, lattice)
                if rng.random() < 0.5:
                    seed = ValueSet.of(lattice, seed)
                assert semiring_closure(lattice, seed, cap) == \
                    saturate_closure(lattice, seed, cap), (lattice, seed, cap)
