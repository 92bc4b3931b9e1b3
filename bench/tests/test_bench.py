"""Self-tests of the benchmark: seeded inputs, the oracle, and the checker.

Run with `python3 -m pytest bench/tests` from the repository root.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fuzzdet import FuzzyAutomaton, chain, serialize_automaton  # noqa: E402
from fuzzdet.lattice import NAMED  # noqa: E402

GOGUEN3 = (ROOT / "tests" / "data" / "goguen3.fza").read_text(encoding="utf-8")
FIXTURES = {f: (ROOT / "tests" / "data" / f"{f}.fza").read_text(encoding="utf-8")
            for f in run.FIXTURES}

# The det report for goguen3 as the README prints it.
GOGUEN3_DET = """semiring: cap exceeded at 10000
states: 3
state 1: word=_, terminal=0
state 2: word=x, terminal=0.5
state 3: word=y, terminal=1
"""


def serialize(doc):
    lattice = chain(doc.top_index) if doc.kind == "chain" else NAMED[doc.kind]
    return serialize_automaton(
        FuzzyAutomaton.build(lattice, doc.alphabet, doc.sigma, doc.delta, doc.tau))


def written(name, seed, tmp_path):
    out = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    out.mkdir()
    w = workloads.build(name, seed, out, FIXTURES)
    workloads.write_docs(w, serialize)
    return w, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_documents(name, tmp_path):
    w1, first = written(name, 7, tmp_path)
    w2, again = written(name, 7, tmp_path)
    assert first == again
    assert [[Path(a).name for a in op.args] for op in w1.ops] == \
        [[Path(a).name for a in op.args] for op in w2.ops]


@pytest.mark.parametrize("name", ["cli_mixed", "det_blowup"])
def test_other_seed_other_documents(name, tmp_path):
    assert written(name, 7, tmp_path)[1] != written(name, 8, tmp_path)[1]


def test_oracle_goguen3_degrees():
    doc = oracle.parse_doc(GOGUEN3)
    assert doc.degree(("x", "y")) == Fraction(1, 2)
    assert doc.degree(("x",)) == Fraction(1, 2)
    assert doc.degree(()) == 0
    assert oracle.semiring_line(doc) == "cap exceeded at 10000"


def test_oracle_goguen3_minimal_size_is_the_readme_count():
    goguen3 = workloads.DocFile("goguen3", oracle.parse_doc(GOGUEN3), GOGUEN3, "fixture")
    assert goguen3.expected_states("incl") == 3
    assert goguen3.expected_states("brzozowski") == 3
    assert oracle.count_vectors(goguen3.doc, forward=True, cap=100) is None


def test_brzozowski_labels_pass_either_way_round_but_not_mixed():
    doc = oracle.parse_doc(GOGUEN3)
    words = [w for w in oracle.words_up_to(doc.alphabet, 2)
             if doc.degree(w) != doc.degree(w[::-1])]
    assert words, "goguen3 needs a word whose reversal has another degree"
    w = words[0]

    def report(*labels):
        lines = [f"state {k}: word={oracle.format_word(u)}, "
                 f"terminal={oracle.format_value(doc, doc.degree(v))}"
                 for k, (u, v) in enumerate(labels, 1)]
        return "\n".join(["semiring: cap exceeded at 10000", f"states: {len(labels)}",
                          *lines]) + "\n"

    canonical = report(((), ()), (w, w))
    reversed_ = report(((), ()), (w, w[::-1]))
    for text in (canonical, reversed_):
        assert oracle.check_det(doc, "brzozowski", text)[0] == []
    assert oracle.check_det(doc, "incl", canonical)[0] == []
    assert oracle.check_det(doc, "incl", reversed_)[0] != []
    mixed = report(((), ()), (w, w[::-1]), (w[::-1], w[::-1]))
    assert oracle.check_det(doc, "brzozowski", mixed)[0] != []


def test_oracle_accepts_the_readme_report():
    problems, report = oracle.check_det(oracle.parse_doc(GOGUEN3), "incl", GOGUEN3_DET, 3)
    assert problems == []
    assert report.n == 3


@pytest.mark.parametrize("bad", [
    GOGUEN3_DET.replace("terminal=0.5", "terminal=0.25"),
    GOGUEN3_DET.replace("word=y", "word=x.y"),
    GOGUEN3_DET.replace("states: 3", "states: 4"),
    GOGUEN3_DET.replace("state 3: word=y, terminal=1\n", ""),
    GOGUEN3_DET.replace("cap exceeded at 10000", "finite, k=2, bound 2^3=8"),
    GOGUEN3_DET.replace("terminal=0.5", "terminal=1/2"),
])
def test_corrupted_report_is_a_failure(bad):
    goguen3 = workloads.DocFile("goguen3", oracle.parse_doc(GOGUEN3), GOGUEN3, "fixture",
                                path="goguen3.fza")
    op = workloads._det(goguen3, "incl")
    assert op.check(0, GOGUEN3_DET) == []
    assert op.check(0, bad) != []
    assert op.check(1, GOGUEN3_DET) != []


def test_corrupted_equiv_and_eval_are_failures():
    a = oracle.parse_doc(GOGUEN3)
    b = gen.near_miss(__import__("random").Random(3), a)
    witness = next(w for w in oracle.words_up_to(a.alphabet, 2)
                   if a.degree(w) != b.degree(w))
    good = f"not equivalent, witness: {oracle.format_word(witness)}\n"
    assert oracle.check_equiv(a, b, False, 1, good) == []
    assert oracle.check_equiv(a, b, False, 0, "equivalent\n") != []
    assert oracle.check_equiv(a, b, False, 1, "not equivalent, witness: x.x.x.x\n") != []
    assert oracle.check_equiv(a, a, True, 0, "equivalent\n") == []
    assert oracle.check_eval(a, ("x", "y"), "0.5\n") == []
    assert oracle.check_eval(a, ("x", "y"), "1\n") != []
    assert oracle.check_semiring(a, "cap exceeded at 1000\n", 1000) == []
    assert oracle.check_semiring(a, "cap exceeded at 1000\n") != []


@pytest.mark.parametrize("n", range(1, 8))
def test_closed_forms_match_subset_and_moore(n):
    fam = gen.nth_from_end(n)
    assert oracle.boolean_minimal_size(fam) == oracle.family_size(n)
    assert oracle.boolean_subset_size(fam) == oracle.family_size(n)
    mirror = gen.mirror(fam)
    assert oracle.boolean_minimal_size(mirror) == oracle.mirror_size(n)
    assert oracle.count_vectors(mirror, forward=True, cap=10_000) == oracle.mirror_size(n)
    assert oracle.count_vectors(fam, forward=False, cap=10_000) == oracle.mirror_size(n)


def test_tail_level_keeps_ten_samples_beyond():
    assert run.tail_level(40) == 75
    assert run.tail_level(100) == 90
    assert run.tail_level(12) == 50
