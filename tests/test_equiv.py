"""equiv through fuzzdet.cli.main: every method that reads words forward
gives the same answer and the same witness, and rnerode, whose cdfa reads
each word reversed, is rejected."""

import itertools
import random
from pathlib import Path

from fuzzdet import (BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ, FuzzyAutomaton, FuzzyMatrix,
                     FuzzyVector, chain, evaluate, parse_word, serialize_automaton)
from fuzzdet.cli import METHODS, main
from support import all_words, random_automaton, value_pool

RNERODE = "error: --method rnerode recognizes the reverse language; equiv takes the rest\n"
FORWARD = ("nerode", "incl", "brzozowski", "psi")


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _boolean(x, y, terminal):
    """A boolean automaton over x and y that starts in its first state."""
    initial = [1] + [0] * (len(terminal) - 1)
    return FuzzyAutomaton.build(BOOLEAN, ("x", "y"), initial, {"x": x, "y": y}, terminal)


def test_equiv_rejects_rnerode_on_either_side(capsys, tmp_path):
    """Each of these ran rnerode's reversed table against a forward one:
    b against itself was not equivalent, b against c was equivalent, and xy
    against none had the witness y.x, on which both give 0."""
    automata = {"b": _boolean([[0, 1], [0, 1]], [[0, 0], [0, 1]], [0, 1]),  # starts with x
                "c": _boolean([[0, 1], [0, 1]], [[1, 0], [1, 0]], [0, 1]),  # ends with x
                "xy": _boolean([[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                               [[0, 0, 0], [0, 0, 1], [0, 0, 0]], [0, 0, 1]),  # only x.y
                "none": _boolean([[0]], [[0]], [0])}
    paths = {name: str(tmp_path / f"{name}.fza") for name in automata}
    for name, a in automata.items():
        Path(paths[name]).write_text(serialize_automaton(a), encoding="utf-8")
    for f1, f2, methods in (("b", "b", "incl,rnerode"), ("b", "c", "incl,rnerode"),
                            ("xy", "none", "rnerode")):
        argv = ["equiv", paths[f1], paths[f2], "--method", methods]
        assert _run(capsys, argv) == (2, "", RNERODE), argv
    # the forward methods find that b and c differ, and xy and none, first at x.y
    for f1, f2 in (("b", "c"), ("xy", "none")):
        assert _run(capsys, ["equiv", paths[f1], paths[f2]])[:2] == (
            1, "not equivalent, witness: x.y\n")
    assert _run(capsys, ["det", paths["xy"], "--method", "rnerode"])[0] == 0


def test_equiv_lists_only_the_methods_it_takes(capsys, boolean3_path):
    assert _run(capsys, ["equiv", boolean3_path, boolean3_path, "--method", "foo"]) == (
        2, "", "error: --method takes one or two of nerode, incl, brzozowski, psi\n")


def _shortlex_least_difference(a, b, length):
    """The first word, in shortlex order, of length at most length on which
    a and b give different degrees, or None."""
    return next((w for w in all_words(a.alphabet, length) if evaluate(a, w) != evaluate(b, w)),
                None)


def _near_miss(rng, a):
    """a with one terminal degree or one transition degree changed."""
    def changed(entries, i):
        other = rng.choice([v for v in value_pool(a.lattice) if v != entries[i]])
        return entries[:i] + (other,) + entries[i + 1:]
    if rng.random() < 0.5:
        tau = FuzzyVector(a.lattice, changed(a.tau.entries, rng.randrange(a.n)))
        return FuzzyAutomaton(a.lattice, a.alphabet, a.sigma, a.delta, tau)
    x, i = rng.choice(a.alphabet), rng.randrange(a.n)
    rows = a.delta[x].entries
    m = FuzzyMatrix(a.lattice, rows[:i] + (changed(rows[i], rng.randrange(a.n)),) + rows[i + 1:])
    return FuzzyAutomaton(a.lattice, a.alphabet, a.sigma, {**a.delta, x: m}, a.tau)


def test_equiv_agrees_across_methods(capsys, tmp_path):
    """Each seeded automaton against itself, against the next one drawn and
    against a near miss: every pair of forward methods prints the same line
    and exits alike, a witness is the shortlex-least word on which the
    degrees differ, and every pair that names rnerode exits 2 with an empty
    stdout."""
    rng = random.Random(1971)
    seen = {"equivalent": 0, "witness _": 0, "longer witness": 0}
    for k, lattice in enumerate((BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ, chain(3))):
        # a sparse Goguen automaton has a finite cdfa more often
        zero_bias = 0.6 if lattice is GOGUEN else 0.3
        automata = [random_automaton(rng, lattice, rng.randint(1, 3), zero_bias=zero_bias)
                    for _ in range(5)]
        automata += [_near_miss(rng, a) for a in automata]
        paths = [str(tmp_path / f"{k}-{i}.fza") for i in range(len(automata))]
        for path, a in zip(paths, automata):
            Path(path).write_text(serialize_automaton(a), encoding="utf-8")
        for i, j in itertools.chain(*(((i, i), (i, (i + 1) % 5), (i, i + 5)) for i in range(5))):
            answers = set()
            for m1, m2 in itertools.product(FORWARD, repeat=2):
                argv = ["equiv", paths[i], paths[j], "--method", f"{m1},{m2}", "--max-states", "60",
                        *["--psi", "identity"] * ("psi" in (m1, m2))]
                code, out, _ = _run(capsys, argv)
                if code != 3:  # a side that meets the cap has no answer
                    answers.add((code, out))
            for m1, m2 in itertools.product(METHODS, repeat=2):
                if "rnerode" in (m1, m2):
                    argv = ["equiv", paths[i], paths[j], "--method", f"{m1},{m2}"]
                    assert _run(capsys, argv) == (2, "", RNERODE), argv
            assert len(answers) <= 1, (paths[i], paths[j], answers)
            if not answers:
                continue
            (code, out), = answers
            a, b = automata[i], automata[j]
            if code == 0:
                assert out == "equivalent\n"
                assert _shortlex_least_difference(a, b, 3) is None
                seen["equivalent"] += 1
            else:
                assert (code, out[:25]) == (1, "not equivalent, witness: ")
                witness = parse_word(out[25:].rstrip("\n"), a.alphabet)
                assert _shortlex_least_difference(a, b, len(witness)) == witness, out
                seen["longer witness" if witness else "witness _"] += 1
    assert seen["equivalent"] >= 40, seen
    assert seen["witness _"] >= 10 and seen["longer witness"] >= 5, seen
