"""A recorded parity corpus: the exact outputs of valid calls, pinned.

The corpus holds, each run in process:
- every call of the three recorded bench workloads (WORKLOADS) at seeds 1
  and 2, drawn read-only through bench/workloads.py, with each DOT file it
  writes; a workload the bench adds later is not in the corpus;
- both fixtures through eval, semiring, and det by every method, plain,
  with --stats, --dot -, --max-states 3 and a ψ file;
- equiv pairs that are equal, unequal and capped;
- the record_repr of every method's result (a Cdfa or its cap report) on
  support.moore_cases() and on seeded automata over six lattices.
tests/data/parity_outputs.json records each one's exit code and output
digest, masked as test_fuzz masks its own (a library result counts as a
call that exits 0 with a cdfa and 3 at its cap, and prints its repr).

A change that means to alter some output re-records both corpora, from the
repository's root: PYTHONPATH=src:tests python tests/test_fuzz.py
"""

import json
import random
import sys
from pathlib import Path

from fuzzdet import (
    BOOLEAN,
    GODEL,
    GOGUEN,
    LUKASIEWICZ,
    FuzzyAutomaton,
    brzozowski,
    chain,
    d_automaton,
    nerode,
    psi_d_automaton,
    reverse_nerode,
    serialize_automaton,
)
from fuzzdet.cli import METHODS
from fuzzdet.lattice import NAMED
from conftest import DATA
from support import identity_matrix, moore_cases, random_automaton
from test_fuzz import recorded, run

PARITY = DATA / "parity_outputs.json"
BENCH = Path(__file__).parent.parent / "bench"
WORKLOADS = ("cli_mixed", "det_random", "det_blowup")
SEEDS = (1, 2)
FIXTURES = ("boolean3", "goguen3")
WORDS = ("_", "x", "x.y", "y.y.x", "x.x.y.y", "q")
# goguen3 has no finite nerode automaton: its nerode calls stop at this cap.
GOGUEN3_NERODE_CAP = "60"
# A near miss of each fixture: one degree changed.
NEAR_MISS = {"boolean3": ("terminal 1 0 1", "terminal 1 0 0"),
             "goguen3": ("terminal 0 1 0", "terminal 0.5 1 0")}
LIBRARY_CAP = 300
CONSTRUCTIONS = {"nerode": nerode, "rnerode": reverse_nerode, "incl": d_automaton,
                 "brzozowski": brzozowski,
                 "psi": lambda a, cap: psi_d_automaton(a, identity_matrix(a.lattice, a.n), cap)}


def _bench_calls(tmp_path):
    """(name, argv, DOT path or None) of every workload call, documents written."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))

    def serialize(doc):
        lattice = chain(doc.top_index) if doc.kind == "chain" else NAMED[doc.kind]
        return serialize_automaton(
            FuzzyAutomaton.build(lattice, doc.alphabet, doc.sigma, doc.delta, doc.tau))

    fixtures = {f: (DATA / f"{f}.fza").read_text(encoding="utf-8") for f in FIXTURES}
    for name in WORKLOADS:
        for seed in SEEDS:
            out = tmp_path / f"{name}-{seed}"
            out.mkdir()
            w = workloads.build(name, seed, out, fixtures)
            workloads.write_docs(w, serialize)
            for i, op in enumerate(w.ops):
                yield f"{name}:{seed}:{i}", [op.cmd, *op.args], op.dot


def _fixture_calls(tmp_path):
    """(name, argv, None) of the calls on the fixtures and their ψ files."""
    identity, top = tmp_path / "identity.psi", tmp_path / "top.psi"
    identity.write_text("1 0 0\n0 1 0\n0 0 1\n", encoding="utf-8")
    top.write_text("1 1 1\n1 1 1\n1 1 1\n", encoding="utf-8")
    for f in FIXTURES:
        text = (DATA / f"{f}.fza").read_text(encoding="utf-8")
        doc, miss = tmp_path / f"{f}.fza", tmp_path / f"{f}-miss.fza"
        doc.write_text(text, encoding="utf-8")
        miss.write_text(text.replace(*NEAR_MISS[f], 1), encoding="utf-8")
        doc, miss = str(doc), str(miss)
        calls = [["eval", doc, word] for word in WORDS]
        calls += [["semiring", doc], ["semiring", doc, "--cap", "3"]]
        for method in METHODS:
            cap = ["--max-states", GOGUEN3_NERODE_CAP] * ((f, method) == ("goguen3", "nerode"))
            for form in ([], ["--stats"], ["--dot", "-"], ["--psi", str(identity)]):
                calls.append(["det", doc, "--method", method, *form, *cap])
            calls.append(["det", doc, "--method", method, "--max-states", "3"])
        calls.append(["det", doc, "--method", "psi", "--psi", str(top)])
        for methods in ("incl", "incl,brzozowski", "psi,brzozowski"):
            calls += [["equiv", doc, doc, "--method", methods],
                      ["equiv", doc, miss, "--method", methods],
                      ["equiv", doc, miss, "--method", methods, "--max-states", "2"]]
        for i, argv in enumerate(calls):
            yield f"{f}:{i}", argv, None


def _library_cases():
    """(name, automaton) of the moore cases and of seeded automata over six lattices."""
    for i, (_, a) in enumerate(moore_cases()):
        yield f"moore:{i}", a
    rng = random.Random(31)
    for lattice in (BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ, chain(1), chain(4)):
        for i in range(10):
            alphabet = ("x", "y", "z")[:rng.randint(1, 3)]
            yield f"{lattice.describe()}:{i}", random_automaton(
                rng, lattice, rng.randint(1, 6), alphabet)


def parity_outputs(tmp_path):
    """(name, what it ran, what it wrote, its record) of every corpus entry."""
    for name, argv, dot in (*_bench_calls(tmp_path), *_fixture_calls(tmp_path)):
        code, out, err = run(argv)
        if dot is not None:
            out += Path(dot).read_text(encoding="utf-8")
        shown = " ".join(argv).replace(str(tmp_path), "TMP")
        yield name, shown, (out, err), recorded(tmp_path, code, out, err)
    for name, a in _library_cases():
        for method, construct in CONSTRUCTIONS.items():
            outcome = construct(a, LIBRARY_CAP)
            result = repr(outcome.result)
            yield (f"{name}:{method}", a, result,
                   recorded(tmp_path, 0 if outcome.ok else 3, result, ""))


def test_valid_calls_give_the_recorded_outputs(tmp_path):
    """Every corpus entry gives the exit code and output digest PARITY records."""
    want = json.loads(PARITY.read_text(encoding="utf-8"))
    got = {}
    for name, ran, wrote, record in parity_outputs(tmp_path):
        assert record == want.get(name), (name, ran, wrote)
        got[name] = record
    assert got.keys() == want.keys()


def record_parity(tmp_path):
    """Write PARITY from this tree's outputs."""
    lines = [f"{json.dumps(name)}: {json.dumps(record)}"
             for name, *_, record in parity_outputs(tmp_path)]
    PARITY.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
