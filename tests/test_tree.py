"""The transition tree's derived views: its vertex list and canonical words.

A TransitionTree keeps only its glued state table; these tests check the
vertices it derives, and the words of forward trees, against a plain
breadth-first search that records every vertex, and the words of reverse
trees against an enumeration of every word in shortlex order.
"""

import random

from fuzzdet import (
    BOOLEAN,
    GODEL,
    GOGUEN,
    LUKASIEWICZ,
    CapExceeded,
    brzozowski,
    chain,
    d_automaton,
    nerode,
    parse_automaton,
    reverse_nerode,
    reverse_nerode_tree,
)
from fuzzdet import determinize
from support import (_sup, oracle_vertices, random_automaton, shortlex_first_words,
                     shortlex_least_words)

LATTICES = (BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ, chain(2), chain(4))
CAP = 200


def _automata():
    rng = random.Random(1959)
    for k in range(120):
        alphabet = ("x", "y", "z")[:rng.randint(1, 3)]
        yield random_automaton(rng, LATTICES[k % len(LATTICES)], rng.randint(1, 4), alphabet)


def _rows(vertices):
    return [(v.word, v.pointer, v.closed, v.parent, v.symbol) for v in vertices]


def test_reverse_tree_vertices_match_breadth_first_oracle(goguen3):
    compared = 0
    for a in (goguen3, *_automata()):
        lat, rows = a.lattice, {x: a.delta[x].entries for x in a.alphabet}

        def step(v, x):
            return tuple(_sup(lat, row, v) for row in rows[x])

        expected = oracle_vertices(a.alphabet, a.tau.entries, step, True, CAP)
        tree = reverse_nerode_tree(a, CAP)
        if expected is None:
            assert isinstance(tree, CapExceeded)
            continue
        compared += 1
        assert _rows(tree.vertices) == expected
        taus = [mu.entries for mu in tree.state_vectors]
        assert tree.canonical_words() == shortlex_first_words(a.alphabet, a.tau.entries, step,
                                                              lambda v: v, taus)
        assert reverse_nerode(a, CAP).stats.vertices == len(tree.vertices)
    assert compared > 100


class _TreeRun(determinize._Run):
    """A construction run that hands back its last tree instead of decoding it."""

    def done(self, tree, recover=None):
        return tree


def test_forward_words_are_least_over_derived_vertices(monkeypatch):
    """Forward words are made in shortlex order, so canonical_words reads them off."""
    monkeypatch.setattr(determinize, "_Run", _TreeRun)
    compared = 0
    for a in _automata():
        for construct in (nerode, d_automaton, brzozowski):
            tree = construct(a, CAP)
            if isinstance(tree, CapExceeded):
                continue
            compared += 1
            assert not tree.prepend
            assert tree.canonical_words() == shortlex_least_words(a.alphabet,
                                                                  _rows(tree.vertices))
    assert compared > 300



# chain 3 over a, b, c: the reverse tree makes its state 9 from b.a by a, so
# a left-growing word from each maker's word names it a.b.a, yet a.a.b,
# grown from the least word a.b of its state 5, reaches the same tau_u
REPRODUCER = """lattice chain 3
alphabet a b c
states 3
initial 2 2 0
terminal 1 3 0
transitions a
0 0 2
2 0 0
0 3 0
transitions b
3 0 0
0 1 0
0 0 1
transitions c
1 0 0
0 0 3
0 3 0
"""


def test_reverse_words_are_shortlex_least_over_all_words():
    """Each reverse Nerode state's word is the first word u, in shortlex order
    over every word, with its tau_u, found by enumerating the words."""
    rng = random.Random(1956)
    cases = [parse_automaton(REPRODUCER)]
    for k in range(300):
        alphabet = ("a", "b", "c")[:rng.randint(2, 3)]
        cases.append(random_automaton(rng, LATTICES[k % len(LATTICES)], rng.randint(2, 4),
                                      alphabet))
    states = 0
    for a in cases:
        c = reverse_nerode(a, CAP).result
        if isinstance(c, CapExceeded):
            continue
        lat, rows = a.lattice, {x: a.delta[x].entries for x in a.alphabet}
        taus = [mu.entries for mu in c.vectors]
        assert list(c.words) == shortlex_first_words(
            a.alphabet, a.tau.entries,
            lambda v, x: tuple(_sup(lat, row, v) for row in rows[x]), lambda v: v, taus), a
        states += c.n
    assert states > 1000
    assert reverse_nerode(cases[0]).cdfa.words[8] == ("a", "a", "b")
