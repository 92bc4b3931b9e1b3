"""Differential tests for the encoded carrier the constructions run on.

Every construction encodes the values that enter it once (algebra.Carrier)
and decodes at the cdfa boundary. Each method's cdfa is compared with
support.oracle_cdfa, which grows FuzzyVectors from the definitions with the
lattice's scalar operations. Cdfa equality cannot see a leaked code, since
Fraction(1) == 1, so the types of the decoded values are checked apart.
"""

import itertools
import random
from fractions import Fraction as F
from functools import lru_cache

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
    identity_matrix,
    nerode,
    psi_d_automaton,
    reverse_nerode,
    reverse_nerode_tree,
    semiring_closure,
)
from fuzzdet.closure import carrier_of
from support import oracle_cdfa

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
    """Every terminal and label entry has the lattice's own value type."""
    want = int if c.lattice.kind == "chain" else F
    entries = itertools.chain(c.terminal, *(lab.vector.entries for lab in c.labels))
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


def test_public_reverse_tree_is_decoded():
    for a, _ in _instances():
        tree = reverse_nerode_tree(a, CAP)
        want = oracle_cdfa(a, "rnerode", cap=CAP)
        if isinstance(want, CapExceeded):
            assert tree == want
            continue
        assert tree.state_vectors == [lab.vector for lab in want.labels]
        assert tree.state_terminals == list(want.terminal)
        kind = int if a.lattice.kind == "chain" else F
        assert all(type(v) is kind for v in tree.state_terminals)
        assert all(type(v) is kind for mu in tree.state_vectors for v in mu)


def test_carrier_operations_match_the_lattice():
    """On every pair from a finite closure, the coded operations decode to the
    lattice's, and the codes keep the order of the values."""
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
