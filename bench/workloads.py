"""The three seeded workloads: their documents, CLI calls and output checks.

A workload is a list of documents plus one pass of CLI calls over them. The
runner repeats whole passes, so every run sees the same mix of calls, and
the tail percentile of each subcommand is fixed by the pass and the minimum
number of passes, not by how fast the program happens to be.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle
from oracle import Doc

# Nerode counts past this are not checked; every generated document stays
# below it. goguen3's forward Nerode automaton is infinite, so nerode is
# never asked of it; its minimal size (3, as the README prints) comes from
# the finite reverse vectors alone.
ORACLE_CAP = 1_000


@dataclass
class DocFile:
    """One generated document on disk and what the oracle expects of it.

    family is 'family' or 'mirror' for the n-th-from-end automata, 'fixture'
    for the repository's test documents and 'random' otherwise. text is a
    fixture's own text, empty for a drawn document.
    """

    name: str
    doc: Doc
    text: str
    family: str
    size: int = 0
    path: str = ""
    reports: dict = field(default_factory=dict)
    _counts: dict = field(default_factory=dict)

    def expected_states(self, method: str) -> int | None:
        """Closed form for the families, subset and Moore sizes for boolean
        documents, otherwise counted Nerode vectors for nerode and the
        Myhill-Nerode size for the minimal methods; None past ORACLE_CAP."""
        if method in self._counts:
            return self._counts[method]
        if self.family == "family":
            want = oracle.family_size(self.size)
        elif self.family == "mirror":
            want = oracle.mirror_size(self.size)
        elif method == "nerode":
            want = (oracle.boolean_subset_size(self.doc) if self.doc.kind == "boolean"
                    else oracle.count_vectors(oracle.on_ints(self.doc), True, ORACLE_CAP))
        elif self.doc.kind == "boolean":
            want = oracle.boolean_minimal_size(self.doc)
        else:
            want = oracle.minimal_size(oracle.on_ints(self.doc), ORACLE_CAP)
        self._counts[method] = want
        return want


@dataclass
class Op:
    """One CLI call: `fuzzdet <cmd> <args...>`, with what it must print."""

    cmd: str
    args: list[str]
    docs: tuple[DocFile, ...]
    method: str = ""
    word: tuple = ()
    dot: str | None = None
    equivalent: bool = True
    expect_code: int = 0
    cap: int = 10_000

    def check(self, code: int, stdout: str) -> list[str]:
        if code != self.expect_code and self.cmd != "equiv":
            return [f"exit {code}, expected {self.expect_code}"]
        d = self.docs[0]
        if self.cmd == "eval":
            return oracle.check_eval(d.doc, self.word, stdout)
        if self.cmd == "semiring":
            return oracle.check_semiring(d.doc, stdout, self.cap)
        if self.cmd == "equiv":
            return oracle.check_equiv(d.doc, self.docs[1].doc, self.equivalent,
                                      code, stdout)
        dot = None
        if self.dot is not None:
            try:
                dot = Path(self.dot).read_text(encoding="utf-8")
            except OSError as e:
                return [f"DOT file not written: {e}"]
        problems, report = oracle.check_det(
            d.doc, self.method, stdout, d.expected_states(self.method), dot)
        if report is None:
            return problems
        # psi over the identity relation reproduces incl exactly, and
        # brzozowski is minimal like incl: compare with the earlier report.
        incl = d.reports.get("incl")
        if self.method == "incl":
            d.reports.setdefault("incl", stdout)
        elif self.method == "psi" and incl is not None and stdout != incl:
            problems.append("psi --psi identity differs from incl")
        elif self.method == "brzozowski" and incl is not None:
            if report.n != int(incl.splitlines()[1].split()[1]):
                problems.append("brzozowski and incl report different state counts")
        return problems


@dataclass
class Workload:
    """docs are the drawn documents; files adds their partners, in the order written."""

    name: str
    docs: list[DocFile]
    ops: list[Op]
    min_passes: int
    files: list[DocFile] = field(default_factory=list)


def _words(rng: random.Random, alphabet, count: int) -> list[tuple]:
    return [tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
            for _ in range(count)]


def _det(d: DocFile, method: str, dot: bool = False) -> Op:
    args = [d.path]
    if method != "incl":
        args += ["--method", method]
    if method == "psi":
        args += ["--psi", "identity"]
    out = None
    if dot:
        out = str(Path(d.path).with_suffix(f".{method}.dot"))
        args += ["--dot", out]
    return Op("det", args, (d,), method=method, dot=out)


def _equiv(a: DocFile, b: DocFile, equivalent: bool, methods: str) -> Op:
    args = [a.path, b.path, "--method", methods]
    if "psi" in methods:
        args += ["--psi", "identity"]
    return Op("equiv", args, (a, b), method=methods, equivalent=equivalent,
              expect_code=0 if equivalent else 1)


def _eval(d: DocFile, word: tuple) -> Op:
    return Op("eval", [d.path, oracle.format_word(word)], (d,), word=word)


def _semiring(d: DocFile, cap: int | None = None) -> Op:
    if cap is None:
        return Op("semiring", [d.path], (d,))
    return Op("semiring", [d.path, "--cap", str(cap)], (d,), cap=cap)


# -- workload definitions -------------------------------------------------------

WORKLOADS = {
    "cli_mixed": (
        "small documents over all five lattices plus both fixtures through every "
        "subcommand: start-up, parsing and Goguen preflight do nearly all the work"),
    "det_random": (
        "random chain 4, Gödel, Łukasiewicz and boolean automata sized so the "
        "constructions dominate: det by four methods, equiv of copies and near misses"),
    "det_blowup": (
        "boolean n-th-symbol-from-the-end family (2^n states) and its mirror (n+2), "
        "so per-state costs dominate"),
}


# Reverse Nerode states, minimal cdfa states and the cap on forward Nerode
# states of every drawn cli_mixed document: narrow, so that the det median,
# which sits high among the start-up-bound calls, moves little from seed to seed.
CLI_MIXED_BANDS = ((4, 12), (3, 8), 100)
GOGUEN_SEMIRING_CAP = 1_000


def cli_mixed(rng: random.Random, fixtures: dict[str, str]) -> Workload:
    """Small documents over every lattice plus both fixtures, every subcommand.

    Goguen documents carry fractions only on forward edges, so their
    constructions stay tiny while preflight runs to its 10,000-value cap.
    With goguen3 they are 2 of 7 documents and, with a third det by psi
    each, 6 of the 16 det calls of a pass: the det median falls among the
    start-up-bound calls. Two passes give 32 det calls, so the det tail
    (p68) falls among the 12 preflight-bound ones, and preflight shows in
    det_tail_s and ops_per_s. Every drawn document keeps its construction
    sizes in CLI_MIXED_BANDS, so that the constructions stay small.
    """
    docs = []
    kinds = [("boolean", None), ("godel", None), ("goguen", None),
             ("lukasiewicz", None), ("chain", rng.randint(3, 5))]
    for i, (kind, top) in enumerate(kinds):
        n = rng.randint(3, 6)
        alphabet = ("x", "y", "z")[:rng.randint(2, 3)]
        if kind == "goguen":
            doc = gen.forward_goguen_doc(rng, n, alphabet)
            while not gen.in_band(doc, *CLI_MIXED_BANDS):
                doc = gen.forward_goguen_doc(rng, n, alphabet)
        else:
            doc = gen.random_in_band(rng, kind, n, alphabet, top, 0.5, *CLI_MIXED_BANDS)
        docs.append(DocFile(f"m{i}", doc, "", "random", n))
    for name, text in sorted(fixtures.items()):
        docs.append(DocFile(name, oracle.parse_doc(text), text, "fixture"))
    for d in docs:
        d.size = d.doc.n
    return Workload("cli_mixed", docs, [], min_passes=2)


def _cli_mixed_ops(rng: random.Random, w: Workload, partner) -> list[Op]:
    ops = []
    for d in w.docs:
        # Generated documents compare through nerode and psi, the fixtures
        # through incl and brzozowski: goguen3 has no finite nerode automaton.
        methods = "incl,brzozowski" if d.family == "fixture" else "nerode,psi"
        ops += [_det(d, "incl"), _det(d, "brzozowski", dot=True)]
        if d.doc.kind == "goguen":
            ops.append(_det(d, "psi"))
        ops += [_equiv(d, *partner(d, True), methods),
                _equiv(d, *partner(d, False), methods)]
        ops += [_eval(d, word) for word in _words(rng, d.doc.alphabet, 2)]
        # The det calls already run preflight to its 10,000-value cap on the
        # Goguen documents; a lower cap keeps their semiring calls from
        # adding 2 s each to a run.
        ops.append(_semiring(d, GOGUEN_SEMIRING_CAP if d.doc.kind == "goguen" else None))
    return ops


# (kind, chain top, states, zero share) per lattice; |Σ| = 3 throughout.
DET_RANDOM_KINDS = [("chain", 4, 6, 0.6), ("godel", None, 5, 0.4),
                    ("lukasiewicz", None, 5, 0.5), ("boolean", None, 10, 0.82)]
DET_RANDOM_REVERSE = (45, 60)   # reverse Nerode states
DET_RANDOM_MINIMAL = (24, 32)   # minimal cdfa states, what incl and brzozowski build
DET_RANDOM_FORWARD_CAP = 200    # forward Nerode states


def det_random(rng: random.Random) -> Workload:
    """Three documents per lattice whose construction sizes lie in the bands above.

    One pass visits each document once: more distinct documents, not more
    repeats, is what keeps the medians the same from seed to seed.
    """
    docs = []
    for kind, top, n, zero_bias in DET_RANDOM_KINDS:
        for _ in range(3):
            doc = gen.random_in_band(rng, kind, n, ("x", "y", "z"), top, zero_bias,
                                     DET_RANDOM_REVERSE, DET_RANDOM_MINIMAL,
                                     DET_RANDOM_FORWARD_CAP)
            docs.append(DocFile(f"r{len(docs)}", doc, "", "random", n))
    return Workload("det_random", docs, [], min_passes=1)


def _det_random_ops(rng: random.Random, w: Workload, partner) -> list[Op]:
    ops = []
    for d in w.docs:
        ops += [_det(d, "incl"), _det(d, "brzozowski", dot=True), _det(d, "nerode"),
                _det(d, "psi"), _equiv(d, *partner(d, True), "incl,brzozowski"),
                _equiv(d, *partner(d, False), "nerode,psi"),
                _semiring(d)]
        ops += [_eval(d, word) for word in _words(rng, d.doc.alphabet, 1)]
    return ops


BLOWUP_SIZES = (7, 8, 9)
# Larger family members run only the calls listed: n = 10 is the size the
# ROADMAP baseline was taken at, n = 12 the 4096-state end of the family.
BLOWUP_LARGE = {10: (("incl", False), ("nerode", False)), 12: (("nerode", True),)}


def det_blowup(rng: random.Random) -> Workload:
    """Family and mirror for n in BLOWUP_SIZES, the family alone for BLOWUP_LARGE.

    Each is a seeded presentation: states renumbered and the alphabet order
    drawn, so the languages and all state counts are the same for every seed.
    """
    docs = []
    for n in BLOWUP_SIZES + tuple(BLOWUP_LARGE):
        alphabet = ("a", "b") if rng.random() < 0.5 else ("b", "a")
        fam = gen.nth_from_end(n)
        fam = gen.Doc(fam.kind, None, alphabet, fam.sigma, fam.delta, fam.tau)
        docs.append(DocFile(f"f{n}", gen.permuted(rng, fam), "", "family", n))
        if n in BLOWUP_SIZES:
            docs.append(DocFile(f"v{n}", gen.permuted(rng, gen.mirror(fam)), "",
                                "mirror", n))
    return Workload("det_blowup", docs, [], min_passes=2)


def _det_blowup_ops(rng: random.Random, w: Workload, partner) -> list[Op]:
    ops = []
    for d in w.docs:
        if d.size in BLOWUP_LARGE:
            ops += [_det(d, method, dot) for method, dot in BLOWUP_LARGE[d.size]]
            continue
        if d.family == "family":
            ops += [_det(d, "incl"), _det(d, "nerode"), _det(d, "brzozowski", dot=True),
                    _equiv(d, *partner(d, True), "incl,brzozowski")]
        else:
            # No brzozowski here: its second pass runs reverse Nerode over the
            # 2^n-state embedding with 2^n-wide vectors, 10 s at n = 10.
            ops += [_det(d, "incl"), _det(d, "nerode", dot=True),
                    _equiv(d, *partner(d, True), "psi,nerode")]
        ops += [_equiv(d, *partner(d, False), "nerode,nerode"), _semiring(d)]
        ops += [_eval(d, word) for word in _words(rng, d.doc.alphabet, 1)]
    return ops


BUILDERS = {
    "cli_mixed": (cli_mixed, _cli_mixed_ops),
    "det_random": (det_random, _det_random_ops),
    "det_blowup": (det_blowup, _det_blowup_ops),
}


def build(name: str, seed: int, outdir: Path, fixtures: dict[str, str]) -> Workload:
    """Draw one workload's documents and calls; nothing is written yet.

    Every document gets its path under outdir; write_docs puts it there.
    """
    make, make_ops = BUILDERS[name]
    rng = random.Random(f"{name}:{seed}")
    w = make(rng, fixtures) if name == "cli_mixed" else make(rng)
    partners: dict[tuple[str, bool], DocFile | None] = {}

    def add(d: DocFile) -> DocFile:
        d.path = str(outdir / f"{d.name}.fza")
        w.files.append(d)
        return d

    def partner(d: DocFile, equivalent: bool) -> tuple[DocFile, bool]:
        """A near miss when asked for and one exists, else a permuted copy; and which."""
        if not equivalent:
            if (d.name, False) not in partners:
                other = gen.near_miss(rng, d.doc)
                partners[d.name, False] = other and add(
                    DocFile(d.name + "m", other, "", "random", d.size))
            if partners[d.name, False] is not None:
                return partners[d.name, False], False
        if (d.name, True) not in partners:
            partners[d.name, True] = add(
                DocFile(d.name + "p", gen.permuted(rng, d.doc), "", d.family, d.size))
        return partners[d.name, True], True

    for d in w.docs:
        add(d)
    w.ops = make_ops(rng, w, partner)
    return w


def write_docs(w: Workload, serialize) -> None:
    """Write every document of w; the same seed writes the same bytes.

    serialize turns an oracle.Doc into document text (the program's own
    serialize_automaton). A fixture's given text is written back unchanged.
    """
    for d in w.files:
        Path(d.path).write_text(d.text or serialize(d.doc), encoding="utf-8")
