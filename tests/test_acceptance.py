"""Release gate: one test per shipped criterion, exact arithmetic throughout.

Every test prints a single pass/fail line; run with -s to see them all.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from functools import lru_cache

from fuzzdet import (
    BOOLEAN,
    GODEL,
    GOGUEN,
    LUKASIEWICZ,
    CapExceeded,
    brzozowski,
    cdfa_evaluate,
    chain,
    d_automaton,
    dot,
    evaluate,
    export_dot,
    find_witness,
    nerode,
    parse_automaton,
    psi_d_automaton,
    reverse_nerode_tree,
    serialize_automaton,
    vec_mat,
)
from support import all_words, random_automaton, subset_dfa, moore_classes
from dotcheck import validate_dot


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


def test_criterion_01_reverse_tree_fixture(goguen3):
    with criterion(1, "reverse tree on the goguen fixture"):
        t0 = time.perf_counter()
        tree = reverse_nerode_tree(goguen3)
        elapsed = time.perf_counter() - t0
        assert not isinstance(tree, CapExceeded)
        assert tree.n_states == 4
        assert [v.entries for v in tree.state_vectors] == [
            (F(0), F(1), F(0)),
            (F(1, 2), F(1), F(1)),
            (F(1), F(1), F(3, 10)),
            (F(1), F(1), F(1)),
        ]
        assert tree.state_terminals == [F(0), F(1, 2), F(1), F(1)]

        pointers = {v.word: v.pointer for v in tree.vertices}

        def ptr(*word):
            return pointers[word]

        assert ptr("x", "y") == ptr("x")
        assert ptr("y", "y") == ptr("y")
        assert (ptr("y", "x") == ptr("x", "x")
                == ptr("x", "x", "x") == ptr("y", "x", "x"))
        assert elapsed < 1.0


def test_criterion_02_inclusion_fixture(goguen3):
    with criterion(2, "inclusion-degree construction on the goguen fixture"):
        t0 = time.perf_counter()
        c = d_automaton(goguen3).cdfa
        elapsed = time.perf_counter() - t0
        assert c.n == 3
        assert [v.entries for v in c.vectors] == [
            (F(1), F(0), F(1, 2)),
            (F(1, 2), F(1, 2), F(1)),
            (F(1), F(1), F(1)),
        ]
        assert c.terminal == (F(0), F(1, 2), F(1))
        # from the x state, x leads on and y loops back; the y state absorbs
        assert c.transitions == ((1, 2), (2, 1), (2, 2))
        assert elapsed < 1.0


def test_criterion_03_nerode_diverges_under_cap(goguen3):
    with criterion(3, "nerode cap trips on the goguen fixture"):
        outcome = nerode(goguen3, cap=100)
        assert not outcome.ok
        assert outcome.result == CapExceeded(cap=100)


def test_criterion_04_boolean_counts(boolean3):
    with criterion(4, "boolean fixture state counts"):
        assert boolean3.sigma.entries == (F(1), F(0), F(0))
        assert boolean3.tau.entries == (F(1), F(0), F(1))
        assert d_automaton(boolean3).cdfa.n == 4
        assert nerode(boolean3).cdfa.n == 7


def test_criterion_05_double_reversal(goguen3, boolean3):
    with criterion(5, "double reversal matches the inclusion construction"):
        for a in (goguen3, boolean3):
            ad = d_automaton(a).cdfa
            bz = brzozowski(a).cdfa
            assert bz.n == ad.n
            assert find_witness(bz, ad) is None


@lru_cache(maxsize=1)
def _random_instances():
    rng = random.Random(41)
    out = []
    for lat in (GODEL, chain(4)):
        for _ in range(30):
            out.append(random_automaton(rng, lat, rng.randint(1, 4)))
    return tuple(out)


def _sigma_along(a, word):
    v = a.sigma
    for x in word:
        v = vec_mat(v, a.delta[x])
    return v


def test_criterion_06_dot_identity(goguen3, boolean3):
    with criterion(6, "d vectors agree with initial vectors on reverse states"):
        for a in (goguen3, boolean3) + _random_instances():
            tree = reverse_nerode_tree(a)
            assert not isinstance(tree, CapExceeded)
            c = d_automaton(a).cdfa
            for word, vector in zip(c.words, c.vectors):
                s_u = _sigma_along(a, word)
                for tau_v in tree.state_vectors:
                    assert dot(vector, tau_v) == dot(s_u, tau_v)


def test_criterion_07_language_equality(goguen3, boolean3):
    with criterion(7, "construction preserves the language up to length 6"):
        for a in (goguen3, boolean3) + _random_instances():
            c = d_automaton(a).cdfa
            for w in all_words(a.alphabet, 6):
                assert cdfa_evaluate(c, w) == evaluate(a, w)


def test_criterion_08_boolean_oracle():
    with criterion(8, "boolean sizes match the minimal-DFA oracle"):
        t0 = time.perf_counter()
        rng = random.Random(88)
        top = F(1)
        for _ in range(100):
            a = random_automaton(rng, BOOLEAN, rng.randint(1, 5))
            c = d_automaton(a).cdfa
            transitions, accepting = subset_dfa(a)
            assert c.n == len(set(moore_classes(transitions, accepting)))
            sym = {x: i for i, x in enumerate(a.alphabet)}
            for w in all_words(a.alphabet, 6):
                s = 0
                for x in w:
                    s = transitions[s][sym[x]]
                assert (cdfa_evaluate(c, w) == top) == accepting[s]
        assert time.perf_counter() - t0 < 60.0


def _random_rational(rng, lat):
    if lat.kind == "boolean":
        return F(rng.randint(0, 1))
    den = rng.randint(1, 24)
    return F(rng.randint(0, den), den)


def test_criterion_09_lattice_laws():
    with criterion(9, "adjunction and residuation laws"):
        for k in range(1, 7):
            lat = chain(k)
            for x, y, z in itertools.product(range(k + 1), repeat=3):
                assert (lat.tmul(x, y) <= z) == (x <= lat.resid(y, z))
                assert lat.tmul(lat.resid(x, y), x) <= y
                assert y <= lat.resid(x, lat.tmul(x, y))
        rng = random.Random(99)
        for lat in (LUKASIEWICZ, GOGUEN, GODEL, BOOLEAN):
            for _ in range(10_000):
                x = _random_rational(rng, lat)
                y = _random_rational(rng, lat)
                z = _random_rational(rng, lat)
                assert (lat.tmul(x, y) <= z) == (x <= lat.resid(y, z))
                assert lat.tmul(lat.resid(x, y), x) <= y
                assert y <= lat.resid(x, lat.tmul(x, y))


def test_criterion_10_psi_identity(goguen3, boolean3):
    with criterion(10, "identity psi reproduces the plain construction"):
        for a in (goguen3, boolean3):
            assert psi_d_automaton(a).cdfa == d_automaton(a).cdfa


def test_criterion_11_round_trip(goguen3, boolean3):
    with criterion(11, "serialize round trip and DOT validity"):
        rng = random.Random(7)
        lattices = (BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ,
                    chain(2), chain(3), chain(5))
        docs = [goguen3, boolean3]
        for i in range(100):
            lat = lattices[i % len(lattices)]
            docs.append(random_automaton(rng, lat, rng.randint(1, 5)))
        for a in docs:
            assert parse_automaton(serialize_automaton(a)) == a
        for a in (goguen3, boolean3):
            validate_dot(export_dot(a))
            validate_dot(export_dot(d_automaton(a).cdfa))
        for a in docs[2:12]:
            validate_dot(export_dot(a))
