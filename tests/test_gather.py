"""Differential tests for the index gather behind incl, psi and brzozowski.

Each construction is checked against its definition: d_automaton and
psi_d_automaton against support's d_epsilon and d_step over the reverse
tree, brzozowski against reverse Nerode run twice through
support's cdfa_as_fuzzy_automaton.
"""

import random
from functools import lru_cache

from fuzzdet import (
    BOOLEAN,
    DEFAULT_CAP,
    GODEL,
    GOGUEN,
    LUKASIEWICZ,
    CapExceeded,
    FuzzyAutomaton,
    brzozowski,
    chain,
    d_automaton,
    nerode,
    psi_d_automaton,
    reverse_nerode,
    reverse_nerode_tree,
)
from conftest import load_fixture
from support import (
    cdfa_as_fuzzy_automaton,
    clone_extend,
    identity_matrix,
    psi_glued,
    quasi_order_automaton,
    random_automaton,
    slow_d_forward,
)

LATTICES = (BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ, chain(2), chain(4))
CAPS = (3, 8, 60)


def _third_from_end():
    """Boolean: the third symbol from the end is x. 5 reverse states, 8 forward."""
    shift = [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
    move = [[1, 1, 0, 0]] + shift
    stay = [[1, 0, 0, 0]] + shift
    return FuzzyAutomaton.build(BOOLEAN, ("x", "y"), [1, 0, 0, 0],
                                {"x": move, "y": stay}, [0, 0, 0, 1])


@lru_cache(maxsize=1)
def _instances():
    """(automaton, cap): both fixtures, a family whose forward phase outgrows
    its reverse one, then seeded automata over every lattice."""
    rng = random.Random(2014)
    out = [(load_fixture("goguen3.fza"), DEFAULT_CAP),
           (load_fixture("boolean3.fza"), DEFAULT_CAP),
           (load_fixture("goguen3.fza"), 3),
           (_third_from_end(), DEFAULT_CAP),
           (_third_from_end(), 6)]
    for k in range(90):
        alphabet = ("x", "y", "z")[:rng.randint(1, 3)]
        a = random_automaton(rng, LATTICES[k % len(LATTICES)], rng.randint(1, 4), alphabet)
        out.append((a, rng.choice(CAPS)))
    return tuple(out)


@lru_cache(maxsize=1)
def _psi_instances():
    """(automaton, psi, cap) with the identity, clone gluings and quasi-orders."""
    rng = random.Random(1962)
    out = []
    for a, cap in _instances()[:30]:
        out.append((a, identity_matrix(a.lattice, a.n), cap))
    for k in range(24):
        base = random_automaton(rng, LATTICES[k % len(LATTICES)], rng.randint(1, 3))
        out.append((*clone_extend(base), rng.choice(CAPS)))
    for k in range(48):
        a, psi = quasi_order_automaton(rng, LATTICES[k % len(LATTICES)], rng.randint(2, 4),
                                       zero_bias=0.3)
        out.append((a, psi, rng.choice(CAPS)))
    return tuple(out)


def _check_against_d_oracle(a, outcome, rn, rn_stats, cap):
    """outcome must be the d-vector forward phase over rn, built by definition."""
    if isinstance(rn, CapExceeded):
        assert outcome.result == rn
        return "reverse"
    expected, checks = slow_d_forward(a, rn, cap)
    assert outcome.stats.closure_checks == rn_stats.closure_checks + checks
    if isinstance(expected, CapExceeded):
        assert outcome.result == expected
        assert outcome.stats.vertices == rn_stats.vertices + checks
        return "forward"
    c = outcome.cdfa
    assert (c.transitions, c.terminal, list(c.words), list(c.vectors)) == expected
    assert outcome.stats.vertices == rn_stats.vertices + checks + 1
    return "ok"


def test_d_automaton_matches_d_step_oracle():
    seen = set()
    for a, cap in _instances():
        rn_outcome = reverse_nerode(a, cap)
        seen.add(_check_against_d_oracle(
            a, d_automaton(a, cap), reverse_nerode_tree(a, cap), rn_outcome.stats, cap))
    assert seen == {"ok", "reverse", "forward"}


def test_psi_d_automaton_matches_d_step_oracle():
    seen = set()
    moved_tau = 0
    for a, psi, cap in _psi_instances():
        glued = psi_glued(a, psi)
        kind = _check_against_d_oracle(
            a, psi_d_automaton(a, psi, cap), reverse_nerode_tree(glued, cap),
            reverse_nerode(glued, cap).stats, cap)
        seen.add(kind)
        moved_tau += kind == "ok" and glued.tau != a.tau
    assert seen == {"ok", "reverse", "forward"}
    assert moved_tau >= 15


def test_brzozowski_matches_double_reverse_nerode():
    seen = set()
    for a, cap in _instances():
        first = reverse_nerode(a, cap)
        outcome = brzozowski(a, cap)
        if not first.ok:
            assert outcome.result == first.result
            seen.add("first")
            continue
        second = reverse_nerode(cdfa_as_fuzzy_automaton(first.cdfa), cap)
        assert outcome.stats.vertices == first.stats.vertices + second.stats.vertices
        assert (outcome.stats.closure_checks
                == first.stats.closure_checks + second.stats.closure_checks)
        if not second.ok:
            assert outcome.result == second.result
            seen.add("second")
            continue
        got, want = outcome.cdfa, second.cdfa
        assert got.transitions == want.transitions
        assert got.terminal == want.terminal
        assert got.vectors == want.vectors
        assert got.transitions == d_automaton(a, cap).cdfa.transitions
        seen.add("ok")
    assert seen == {"ok", "first", "second"}


def _first_words(c):
    """The shortlex-first word reaching each state.

    Dynamic programming over lengths: the least word of length k reaching t
    is the least of w + (x,) over the least words w of length k - 1
    reaching a state that x leads to t.
    """
    def key(word):
        return [c.alphabet.index(x) for x in word]

    first = {}
    layer = {c.initial: ()}
    for _ in range(c.n):
        for s, w in layer.items():
            first.setdefault(s, w)
        longer = {}
        for s, w in layer.items():
            for i, x in enumerate(c.alphabet):
                t = c.transitions[s][i]
                if t not in longer or key(w + (x,)) < key(longer[t]):
                    longer[t] = w + (x,)
        layer = longer
    return [first[s] for s in range(c.n)]


def test_label_words_are_shortlex_first_access_words():
    outcomes = []
    for a, cap in _instances():
        outcomes += [nerode(a, min(cap, 60)), d_automaton(a, cap), brzozowski(a, cap)]
    outcomes += [psi_d_automaton(a, psi, cap) for a, psi, cap in _psi_instances()]
    checked = 0
    for outcome in outcomes:
        if not outcome.ok:
            continue
        c = outcome.cdfa
        assert _first_words(c) == list(c.words)
        checked += 1
    assert checked >= 150
