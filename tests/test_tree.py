"""The transition tree's derived views: its vertex list and canonical words.

A TransitionTree keeps only its glued state table; these tests check the
vertices and words it derives against a plain breadth-first search that
records every vertex.
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
    reverse_nerode,
    reverse_nerode_tree,
)
from fuzzdet import determinize
from support import _sup, oracle_vertices, random_automaton, shortlex_least_words

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
        expected = oracle_vertices(
            a.alphabet, a.tau.entries,
            lambda v, x: tuple(_sup(lat, row, v) for row in rows[x]), True, CAP)
        tree = reverse_nerode_tree(a, CAP)
        if expected is None:
            assert isinstance(tree, CapExceeded)
            continue
        compared += 1
        assert _rows(tree.vertices) == expected
        assert tree.canonical_words() == shortlex_least_words(a.alphabet, expected)
        assert reverse_nerode(a, CAP).stats.vertices == len(tree.vertices)
    assert compared > 100


class _TreeRun(determinize._Run):
    """A construction run that hands back its last tree instead of decoding it."""

    def done(self, tree, labels=None):
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

