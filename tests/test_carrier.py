"""Differential tests for the encoded carrier the constructions run on.

Every construction encodes the values that enter it once (lattice.Carrier)
and decodes at the cdfa boundary. Each method's cdfa is compared with
support.oracle_cdfa, which grows FuzzyVectors from the definitions with the
lattice's scalar operations. Cdfa equality cannot see a leaked code, since
Fraction(1) == 1, so the types of the decoded values are checked apart.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache, reduce

from fuzzdet import (
    BOOLEAN,
    GODEL,
    GOGUEN,
    LUKASIEWICZ,
    CapExceeded,
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyVector,
    brzozowski,
    chain,
    check_left_invariant,
    d_automaton,
    nerode,
    psi_d_automaton,
    reverse_nerode,
    reverse_nerode_tree,
    semiring_closure,
)
from fuzzdet.closure import carrier_of
from support import identity_matrix, oracle_cdfa, value_check_left_invariant

CAP = 40

# (lattice, values of the automata, values only psi uses)
CASES = (
    (BOOLEAN, (F(1),), ()),
    (GODEL, (F(1, 3), F(1, 2), F(1)), (F(2, 5), F(5, 7))),
    (LUKASIEWICZ, (F(1, 2), F(3, 4), F(1)), (F(1, 3), F(2, 3))),
    (LUKASIEWICZ, (F(1, 7), F(4, 7), F(1)), (F(1, 97), F(60, 97))),
    (LUKASIEWICZ, (F(3, 97), F(96, 97), F(6, 7)), (F(1, 5),)),
    (chain(1), (1,), ()),
    (chain(3), (1, 2, 3), ()),
    (chain(7), (2, 5, 6, 7), ()),
    (GOGUEN, (F(1),), ()),
    (GOGUEN, (F(1, 2), F(2, 3), F(1)), (F(1, 5),)),
)

METHODS = {
    "nerode": nerode,
    "rnerode": reverse_nerode,
    "incl": d_automaton,
    "brzozowski": brzozowski,
}


def _automaton(rng, lattice, pool, n, alphabet):
    def vector():
        return tuple(rng.choice(pool) if rng.random() < 0.6 else lattice.bottom
                     for _ in range(n))
    return FuzzyAutomaton(
        lattice, alphabet, FuzzyVector(lattice, vector()),
        {x: FuzzyMatrix(lattice, tuple(vector() for _ in range(n))) for x in alphabet},
        FuzzyVector(lattice, vector()))


def _with_psi(rng, a, pool):
    """a changed so that a psi relating state i to j with a value from pool,
    and otherwise the identity, is left invariant; returns (automaton, psi).

    Raising j's incoming degrees to at least i's (column j of sigma and of
    every delta_x becomes the max of columns i and j) makes
    sigma ∘ psi <= sigma and delta_x ∘ psi <= psi ∘ delta_x for any value.
    """
    lat = a.lattice
    i, j = rng.sample(range(a.n), 2)

    def lifted(row):
        row = list(row)
        row[j] = max(row[i], row[j])
        return tuple(row)

    b = FuzzyAutomaton(
        lat, a.alphabet, FuzzyVector(lat, lifted(a.sigma.entries)),
        {x: FuzzyMatrix(lat, tuple(map(lifted, m.entries))) for x, m in a.delta.items()},
        a.tau)
    rows = [list(r) for r in identity_matrix(lat, a.n).entries]
    rows[i][j] = rng.choice(pool)
    return b, FuzzyMatrix(lat, tuple(map(tuple, rows)))


@lru_cache(maxsize=1)
def _instances():
    """(automaton, psi or None) per case: seeded sizes 1-4 and alphabets of 1-3."""
    rng = random.Random(4041)
    out = []
    for lattice, pool, psi_pool in CASES:
        for _ in range(10):
            n = rng.randint(1, 4)
            alphabet = ("x", "y", "z")[:rng.randint(1, 3)]
            a = _automaton(rng, lattice, pool, n, alphabet)
            psi = None
            if psi_pool and n >= 2:
                a, psi = _with_psi(rng, a, psi_pool)
            out.append((a, psi))
    return tuple(out)


def _types_ok(c):
    """Every terminal and state vector entry has the lattice's own value type."""
    want = int if c.lattice.kind == "chain" else F
    entries = itertools.chain(c.terminal, *(v.entries for v in c.vectors))
    return all(type(v) is want for v in entries)


def test_methods_match_definition_oracle():
    outcomes = set()
    for a, _ in _instances():
        for method, construct in METHODS.items():
            got = construct(a, CAP).result
            assert got == oracle_cdfa(a, method, cap=CAP), (method, a)
            outcomes.add(isinstance(got, CapExceeded))
            if not isinstance(got, CapExceeded):
                assert _types_ok(got), (method, a)
    assert outcomes == {True, False}


def test_psi_values_outside_the_automaton():
    checked = 0
    for a, psi in _instances():
        if psi is None:
            continue
        assert check_left_invariant(a, psi) is None
        fresh = {v for row in psi.entries for v in row} - {a.lattice.bottom, a.lattice.top}
        assert fresh and fresh.isdisjoint(
            {*a.sigma.entries, *a.tau.entries,
             *(v for m in a.delta.values() for row in m.entries for v in row)})
        got = psi_d_automaton(a, psi, CAP).result
        assert got == oracle_cdfa(a, "psi", psi, CAP), a
        if not isinstance(got, CapExceeded):
            assert _types_ok(got), a
            checked += 1
    assert checked >= 20


def _changed(rows, i, j, v):
    rows = [list(row) for row in rows]
    rows[i][j] = v
    return tuple(map(tuple, rows))


def test_left_invariance_check_matches_the_value_oracle():
    """check_left_invariant runs on the construction's codes, and finds what
    the value-level oracle finds: None, or the same first violation. Each psi
    starts left invariant, with values the automaton does not hold where the
    case has them; then one entry of psi changes, or one of a delta_x rises
    to top, or psi is drawn at random."""
    rng = random.Random(1606)
    found = Counter()
    for lattice, pool, psi_pool in CASES:
        values = (lattice.bottom, *pool, *psi_pool)
        for _ in range(60):
            n = rng.randint(2, 4)
            a = _automaton(rng, lattice, pool, n, ("x", "y", "z"))
            a, psi = _with_psi(rng, a, psi_pool or pool)
            i, j, v = rng.randrange(n), rng.randrange(n), rng.choice(values)
            how = rng.choice((0, 1, 2, 2, 2, 3))  # most changes are to a delta_x
            if how == 1:
                psi = FuzzyMatrix(lattice, _changed(psi.entries, i, j, v))
            elif how == 2:
                x = rng.choice(a.alphabet)
                delta = dict(a.delta, **{x: FuzzyMatrix(
                    lattice, _changed(a.delta[x].entries, i, j, lattice.top))})
                a = FuzzyAutomaton(lattice, a.alphabet, a.sigma, delta, a.tau)
            elif how == 3:
                psi = FuzzyMatrix(lattice, tuple(
                    tuple(rng.choice(values) for _ in range(n)) for _ in range(n)))
            got, want = check_left_invariant(a, psi), value_check_left_invariant(a, psi)
            assert got == want and str(got) == str(want), (a, psi)
            if got is not None:
                assert (type(got.lhs), type(got.rhs)) == (type(want.lhs), type(want.rhs))
            found[None if got is None else got.constraint] += 1
    assert min(found[k] for k in (None, "sigma", "x", "y", "z")) >= 10, found


def test_public_reverse_tree_is_decoded():
    for a, _ in _instances():
        tree = reverse_nerode_tree(a, CAP)
        want = oracle_cdfa(a, "rnerode", cap=CAP)
        if isinstance(want, CapExceeded):
            assert tree == want
            continue
        assert tree.state_vectors == list(want.vectors)
        assert tree.state_terminals == list(want.terminal)
        kind = int if a.lattice.kind == "chain" else F
        assert all(type(v) is kind for v in tree.state_terminals)
        assert all(type(v) is kind for mu in tree.state_vectors for v in mu)


def test_carrier_operations_match_the_lattice():
    """On every pair from a finite closure, the coded operations decode to the
    lattice's, and the codes keep the order of the values. The two loops on
    codes decode to the folds of the lattice's operations: product to the
    join of tmul and implication to the meet of resid, row by row, on rows
    that are all bottom, all top or drawn; v's top and bottom at its head stop
    the all-top row's loops early."""
    rng = random.Random(1911)
    for lattice, pool, psi_pool in CASES:
        closure = semiring_closure(lattice, pool + psi_pool, 200)
        values = sorted(closure.values) if closure.closed else sorted({*pool, *psi_pool})
        c = carrier_of(lattice, values)
        for x, y in itertools.product(values, repeat=2):
            cx, cy = c.encode(x), c.encode(y)
            assert c.decode(cx) == x and type(c.decode(cx)) is type(x)
            assert (cx <= cy) == (x <= y)
            assert c.decode(c.tmul(cx, cy)) == lattice.tmul(x, y)
            assert c.decode(c.resid(cx, cy)) == lattice.resid(x, y)
        assert c.decode(c.bottom) == lattice.bottom
        assert c.decode(c.top) == lattice.top
        codes = [c.bottom, c.top, *map(c.encode, values)]
        rows = [(c.bottom,) * 5, (c.top,) * 5,
                *(tuple(rng.choice(codes) for _ in range(5)) for _ in range(4))]
        v = (c.top, c.bottom, *(rng.choice(codes) for _ in range(3)))
        kind = type(lattice.top)
        for loop, fold, tie, start in ((c.product, lattice.join, lattice.tmul, lattice.bottom),
                                       (c.implication, lattice.meet, lattice.resid, lattice.top)):
            got = c.values(loop(rows)(v))
            want = tuple(reduce(fold, map(tie, c.values(row), c.values(v)), start)
                         for row in rows)
            assert got == want and all(type(x) is kind for x in got), (lattice, loop)
