"""Transition-tree constructions: Nerode both ways, inclusion degrees,
double reversal, the psi variant, and the pre-flight bound."""

import random
from collections import deque
from fractions import Fraction as F

import pytest

from fuzzdet import (
    BOOLEAN,
    GODEL,
    GOGUEN,
    LUKASIEWICZ,
    CapExceeded,
    FuzzyAutomaton,
    FuzzyMatrix,
    FuzzyVector,
    InvalidCap,
    PsiNotLeftInvariant,
    PsiNotReflexive,
    UnknownSymbol,
    automaton_values,
    brzozowski,
    cdfa_equivalent,
    cdfa_evaluate,
    chain,
    check_left_invariant,
    d_automaton,
    d_epsilon,
    d_step,
    evaluate,
    identity_matrix,
    nerode,
    preflight,
    psi_d_automaton,
    reverse,
    reverse_nerode,
    reverse_nerode_tree,
)
from support import (
    all_words,
    boolean_accepts_from,
    clone_extend,
    moore_classes,
    random_automaton,
)


def test_reverse_nerode_tree_fixture(goguen3):
    tree = reverse_nerode_tree(goguen3)
    assert tree.n_states == 4
    expected = [
        (F(0), F(1), F(0)),
        (F(1, 2), F(1), F(1)),
        (F(1), F(1), F(3, 10)),
        (F(1), F(1), F(1)),
    ]
    assert [v.entries for v in tree.state_vectors] == expected
    assert tree.state_terminals == [F(0), F(1, 2), F(1), F(1)]
    # closures hold by exact vector equality, checked through the glue pointers
    by_word = {v.word: v for v in tree.vertices}
    assert by_word[("x", "y")].closed
    assert by_word[("x", "y")].pointer == by_word[("x",)].pointer
    assert by_word[("y", "y")].closed
    assert by_word[("y", "y")].pointer == by_word[("y",)].pointer
    for closed_word in (("y", "x"), ("x", "x", "x"), ("y", "x", "x")):
        assert by_word[closed_word].closed
        assert by_word[closed_word].pointer == by_word[("x", "x")].pointer
    assert not by_word[("x", "x")].closed
    # non-closed vertices carry consecutive pointers in creation order
    open_pointers = [v.pointer for v in tree.vertices if not v.closed]
    assert open_pointers == [1, 2, 3, 4]
    assert tree.canonical_words() == [(), ("x",), ("y",), ("x", "x")]


def test_reverse_nerode_language_is_mirror(goguen3):
    c = reverse_nerode(goguen3).cdfa
    r = reverse(goguen3)
    for word in all_words(goguen3.alphabet, 5):
        assert cdfa_evaluate(c, word) == evaluate(r, word)


def test_nerode_boolean_fixture(boolean3):
    outcome = nerode(boolean3)
    c = outcome.cdfa
    assert c.n == 7
    support_sets = [tuple(v for v in lab.vector) for lab in c.labels]
    assert support_sets == [
        (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)),
        (F(1), F(0), F(1)), (F(1), F(1), F(0)), (F(0), F(1), F(1)),
        (F(1), F(1), F(1)),
    ]
    for word in all_words(boolean3.alphabet, 5):
        assert cdfa_evaluate(c, word) == evaluate(boolean3, word)


def test_nerode_caps_on_divergent_input(goguen3):
    outcome = nerode(goguen3, cap=100)
    assert not outcome.ok
    assert outcome.result == CapExceeded(states_built=100, cap=100)
    with pytest.raises(ValueError):
        outcome.cdfa


def test_one_state_crisp_automaton():
    a = FuzzyAutomaton.build(GOGUEN, ("x",), ["1"], {"x": [["1"]]}, ["1"])
    for construct in (nerode, reverse_nerode, d_automaton, brzozowski):
        c = construct(a).cdfa
        assert c.n == 1
        assert c.terminal == (F(1),)


def test_empty_language_automaton():
    a = FuzzyAutomaton.build(GOGUEN, ("x", "y"), ["0", "0"],
                             {"x": [["0", "1"], ["1", "0"]],
                              "y": [["1", "0"], ["0", "1"]]},
                             ["0", "0"])
    c = d_automaton(a).cdfa
    assert c.n == 1
    assert c.terminal == (F(0),)


def test_d_epsilon_fixture(goguen3):
    tree = reverse_nerode_tree(goguen3)
    root = d_epsilon(goguen3, tree.state_vectors)
    assert root.entries == (F(1), F(0), F(1, 2))


def test_d_epsilon_all_ones():
    a = FuzzyAutomaton.build(GOGUEN, ("x",), ["1"],
                             {"x": [["1"]]}, ["1"])
    tree = reverse_nerode_tree(a)
    assert d_epsilon(a, tree.state_vectors).entries == (F(1),)


def test_d_epsilon_boolean_semantics():
    # d_eps(i) must say: every word accepted from i is in the language
    rng = random.Random(47)
    for _ in range(25):
        a = random_automaton(rng, BOOLEAN, rng.randrange(2, 5))
        tree = reverse_nerode_tree(a)
        depth = max(len(v.word) for v in tree.vertices)
        root = d_epsilon(a, tree.state_vectors)
        init = [i for i in range(a.n) if a.sigma[i] == 1]
        for i in range(a.n):
            contained = all(
                boolean_accepts_from(a, init, w)
                for w in all_words(a.alphabet, depth)
                if boolean_accepts_from(a, [i], w))
            assert root[i] == (F(1) if contained else F(0))


def test_d_step_fixture(goguen3):
    tree = reverse_nerode_tree(goguen3)
    d_eps = d_epsilon(goguen3, tree.state_vectors)
    d_x = d_step(goguen3, d_eps, "x", tree)
    d_y = d_step(goguen3, d_eps, "y", tree)
    assert d_x.entries == (F(1, 2), F(1, 2), F(1))
    assert d_y.entries == (F(1), F(1), F(1))
    assert d_step(goguen3, d_x, "y", tree).entries == d_x.entries
    assert d_step(goguen3, d_x, "x", tree).entries == d_y.entries
    with pytest.raises(UnknownSymbol):
        d_step(goguen3, d_eps, "z", tree)


def test_d_automaton_fixture_structure(goguen3):
    c = d_automaton(goguen3).cdfa
    assert c.n == 3
    assert c.terminal == (F(0), F(1, 2), F(1))
    assert [lab.word for lab in c.labels] == [(), ("x",), ("y",)]
    assert [lab.vector.entries for lab in c.labels] == [
        (F(1), F(0), F(1, 2)),
        (F(1, 2), F(1, 2), F(1)),
        (F(1), F(1), F(1)),
    ]
    assert c.transitions == ((1, 2), (2, 1), (2, 2))


def test_d_automaton_boolean_fixture(boolean3):
    c = d_automaton(boolean3).cdfa
    assert c.n == 4
    assert c.terminal == (F(1), F(0), F(1), F(1))
    assert c.transitions == ((1, 2), (3, 3), (0, 1), (3, 3))


def test_d_automaton_never_larger_than_nerode():
    rng = random.Random(53)
    for lat in (BOOLEAN, GODEL, chain(3)):
        for _ in range(10):
            a = random_automaton(rng, lat, 3)
            ner = nerode(a, cap=2000)
            can = d_automaton(a, cap=2000)
            if ner.ok and can.ok:
                assert can.cdfa.n <= ner.cdfa.n


def test_brzozowski_fixtures(goguen3, boolean3):
    for a in (goguen3, boolean3):
        d = d_automaton(a).cdfa
        b = brzozowski(a).cdfa
        assert b.n == d.n
        assert cdfa_equivalent(b, d)


def test_deterministic_construction(goguen3):
    assert d_automaton(goguen3).cdfa == d_automaton(goguen3).cdfa
    assert nerode(goguen3, cap=50).result == nerode(goguen3, cap=50).result


def test_cap_boundary(goguen3):
    assert reverse_nerode(goguen3, cap=4).ok
    outcome = reverse_nerode(goguen3, cap=3)
    assert not outcome.ok
    assert outcome.result == CapExceeded(states_built=3, cap=3)


def test_invalid_cap(goguen3):
    for construct in (nerode, reverse_nerode, d_automaton, brzozowski,
                      psi_d_automaton):
        for cap in (0, True):
            with pytest.raises(InvalidCap):
                construct(goguen3, cap=cap)


def test_stats_counters(goguen3):
    outcome = d_automaton(goguen3)
    assert outcome.stats.vertices > 0
    assert outcome.stats.closure_checks > 0
    assert outcome.stats.elapsed >= 0.0


def test_check_left_invariant(goguen3):
    n = goguen3.n
    assert check_left_invariant(goguen3, identity_matrix(GOGUEN, n)) is None
    zeros = FuzzyMatrix(GOGUEN, ((F(0),) * n,) * n)
    assert check_left_invariant(goguen3, zeros) is None
    ones = FuzzyMatrix(GOGUEN, ((F(1),) * n,) * n)
    violation = check_left_invariant(goguen3, ones)
    assert violation is not None
    assert violation.constraint == "sigma"
    assert "sigma" in str(violation)


def test_psi_identity_collapses_to_d(goguen3, boolean3):
    for a in (goguen3, boolean3):
        assert psi_d_automaton(a).cdfa == d_automaton(a).cdfa
        ident = identity_matrix(a.lattice, a.n)
        assert psi_d_automaton(a, ident).cdfa == d_automaton(a).cdfa


def test_psi_must_be_reflexive(goguen3):
    zeros = FuzzyMatrix(GOGUEN, ((F(0),) * 3,) * 3)
    with pytest.raises(PsiNotReflexive):
        psi_d_automaton(goguen3, zeros)


def test_psi_must_be_left_invariant(goguen3):
    ones = FuzzyMatrix(GOGUEN, ((F(1),) * 3,) * 3)
    with pytest.raises(PsiNotLeftInvariant):
        psi_d_automaton(goguen3, ones)


def test_psi_glues_clone_states():
    rng = random.Random(59)
    found = 0
    for _ in range(12):
        base = random_automaton(rng, chain(3), 3)
        extended, psi = clone_extend(base)
        assert check_left_invariant(extended, psi) is None
        glued = psi_d_automaton(extended, psi, cap=3000)
        plain = d_automaton(extended, cap=3000)
        if not (glued.ok and plain.ok):
            continue
        found += 1
        assert cdfa_equivalent(glued.cdfa, plain.cdfa)
        assert glued.cdfa.n <= plain.cdfa.n
    assert found >= 8


def test_preflight_bounds(goguen3, boolean3):
    report = preflight(boolean3)
    assert report.closure.closed
    assert report.closure.k == 2
    assert report.bound == 8
    report = preflight(goguen3)
    assert not report.closure.closed
    assert report.bound is None
    values = automaton_values(goguen3)
    assert F(3, 10) in values and F(1, 2) in values


def test_preflight_bound_respected_by_constructions():
    rng = random.Random(61)
    for _ in range(10):
        a = random_automaton(rng, chain(3), 3)
        report = preflight(a)
        assert report.closure.closed
        for construct in (nerode, reverse_nerode, d_automaton):
            outcome = construct(a, cap=report.bound + 1)
            assert outcome.ok
            assert outcome.cdfa.n <= report.bound


def _isomorphic(c, transitions, terminals, initial):
    """Whether cdfa c is the automaton (transitions, terminals, initial):
    states paired by a breadth-first search in alphabet order from the
    initial ones, with equal terminal degrees."""
    pair = {c.initial: initial}
    queue = deque([c.initial])
    while queue:
        s = queue.popleft()
        if c.terminal[s] != terminals[pair[s]]:
            return False
        for t, u in zip(c.transitions[s], transitions[pair[s]]):
            if t not in pair:
                pair[t] = u
                queue.append(t)
            elif pair[t] != u:
                return False
    return len(pair) == c.n == len(transitions) == len(set(pair.values()))


def test_minimal_on_every_lattice_against_moore_quotient():
    """incl, brzozowski and psi with the identity are the Moore quotient of
    nerode's cdfa, the minimal cdfa, wherever all four finish."""
    rng = random.Random(5)
    cap = 1_000
    agreed = skipped = 0
    for lattice in (BOOLEAN, GODEL, LUKASIEWICZ, chain(3), chain(7)):
        for n in range(2, 6):
            for _ in range(15):
                a = random_automaton(rng, lattice, n)
                full = nerode(a, cap)
                minimal = [d_automaton(a, cap), brzozowski(a, cap),
                           psi_d_automaton(a, identity_matrix(lattice, n), cap)]
                if not all(outcome.ok for outcome in (full, *minimal)):
                    skipped += 1  # nerode or the reverse phase hit the cap
                    continue
                c = full.cdfa
                cls = moore_classes(c.transitions, c.terminal)
                k = len(set(cls))
                transitions = [None] * k
                terminals = [None] * k
                for s in range(c.n):
                    transitions[cls[s]] = [cls[t] for t in c.transitions[s]]
                    terminals[cls[s]] = c.terminal[s]
                for outcome in minimal:
                    assert _isomorphic(outcome.cdfa, transitions, terminals,
                                       cls[c.initial]), (lattice, a)
                agreed += 1
    assert agreed >= 250 and skipped <= 50, (agreed, skipped)
