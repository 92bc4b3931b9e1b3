"""Traced run: the workload's CLI calls through fuzzdet.cli.main in process, with spans.

Each pass makes every call of the workload twice with `fuzzdet.cli.main(argv)`
in process, and the oracle checks the output of both: first as it is, then
with the library functions that fuzzdet.cli calls by module-level name
(WRAPPED) replaced by span wrappers. The ratio of the two summed walls is
the tracing overhead. Probes on each document that
`det` runs incl on add, through public calls, the layers below a
construction: the reverse Nerode tree and its to_cdfa, mat_vec over the
tree's state vectors, cdfa_evaluate and the lattice's scalar operations.

A span is (name, start, end, parent, op): name is `layer.call`, parent the
index of the enclosing span and op the id shared by the spans of one CLI
call. Spans stay in memory and are written to one JSON file at the end. A
layer's self time is its spans' time minus the part their child spans cover;
the report text the CLI prints around the wrapped calls is cli self time.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
import tracemalloc
from pathlib import Path

LAYERS = ("cli", "formats", "determinize", "automata", "algebra", "lattice")
# The ROADMAP re-anchor baseline: seconds for (document, det method, span).
# goguen3's 1.53 s is the whole CLI call's wall; the other two time the
# construction alone, for the n = 10 member of the n-th-from-end family.
BASELINE = {("goguen3", "incl", "cli.det"): 1.53,
            ("f10", "incl", "determinize.incl"): 0.89,
            ("f10", "nerode", "determinize.nerode"): 0.28}
# fuzzdet.cli name -> span name. format_word is how the det and equiv
# reports print their words, so its spans are formats.serialize.
WRAPPED = {"parse_automaton": "formats.parse", "format_word": "formats.serialize",
           "export_dot": "formats.dot", "preflight": "determinize.preflight",
           "d_automaton": "determinize.incl", "nerode": "determinize.nerode",
           "brzozowski": "determinize.brzozowski", "psi_d_automaton": "determinize.psi",
           "evaluate": "automata.evaluate", "find_witness": "automata.witness"}
CONSTRUCTIONS = ("d_automaton", "nerode", "brzozowski", "psi_d_automaton")
PROBE_CALLS = 200  # cdfa_evaluate and lattice calls per document and pass
CHILD_REPEATS = 5


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None,
               self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its children's.

        Children of one span run one after another, so the time they cover
        is the sum of their durations.
        """
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        out = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, own):
            out[s[0].split(".")[0]] += t
        return out

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n",
                        encoding="utf-8")


class Wrappers:
    """Span wrappers over fuzzdet.cli's module-level names, and what they count."""

    def __init__(self, tracer: Tracer):
        import fuzzdet
        import fuzzdet.cli
        self.fz = fuzzdet
        self.cli = fuzzdet.cli
        self.tr = tracer
        self.originals = {name: getattr(fuzzdet.cli, name) for name in WRAPPED}
        self.counts = dict.fromkeys(
            ("parse_bytes", "dot_bytes", "preflight_values", "cap_hits"), 0)
        self.last_incl = None  # (wall, automaton, outcome) of the latest d_automaton

    def _wrap(self, name: str):
        fn, span, tr = self.originals[name], WRAPPED[name], self.tr

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            with tr.span(span):
                result = fn(*args, **kwargs)
            self._count(name, args, result, time.perf_counter() - t0)
            return result
        return wrapper

    def _count(self, name: str, args: tuple, result, wall: float) -> None:
        counts = self.counts
        if name == "parse_automaton":
            counts["parse_bytes"] += len(args[0].encode())
        elif name == "export_dot":
            counts["dot_bytes"] += len(result.encode())
        elif name == "preflight":
            counts["preflight_values"] += result.closure.reached
        elif name in CONSTRUCTIONS:
            counts["cap_hits"] += not result.ok
            if name == "d_automaton":
                self.last_incl = (wall, args[0], result)

    @contextlib.contextmanager
    def installed(self):
        for name in WRAPPED:
            setattr(self.cli, name, self._wrap(name))
        try:
            yield
        finally:
            for name, fn in self.originals.items():
                setattr(self.cli, name, fn)

    def probe(self, a, cdfa, words) -> dict:
        """Layers below one incl construction; returns what it counted."""
        fz, tr = self.fz, self.tr
        with tr.span("determinize.rn_tree"):
            tree = fz.reverse_nerode_tree(a)
        with tr.span("determinize.to_cdfa"):
            tree.to_cdfa()
        with tr.span("algebra.mat_vec"):
            for v in tree.state_vectors:
                for x in a.alphabet:
                    fz.mat_vec(a.delta[x], v)
        calls = max(1, PROBE_CALLS // len(words))
        with tr.span("automata.cdfa_evaluate"):
            for _ in range(calls):
                for w in words:
                    fz.cdfa_evaluate(cdfa, w)
        lat = a.lattice
        values = sorted(fz.automaton_values(a).elements)
        pairs = [(v, w) for v in values for w in values][:PROBE_CALLS]
        with tr.span("lattice.ops"):
            for v, w in pairs:
                lat.tmul(v, w)
                lat.resid(v, w)
                lat.meet(v, w)
                lat.join(v, w)
        return {"rn_states": tree.n_states, "rn_vertices": len(tree.vertices),
                "mat_vec_calls": tree.n_states * len(a.alphabet),
                "cdfa_evaluate_calls": calls * len(words), "lattice_ops": 4 * len(pairs)}


def _child_seconds(bench, code: str) -> float:
    """Median over CHILD_REPEATS children of the float each prints, or of their wall."""
    times = []
    for _ in range(CHILD_REPEATS):
        rc, out, wall = bench.child(["-c", code])
        if rc != 0:
            raise RuntimeError(f"child failed: {code}")
        times.append(float(out) if out.strip() else wall)
    return statistics.median(times)


def _call(op) -> tuple[int, str]:
    """fuzzdet.cli.main on one call, in process; (exit code, stdout)."""
    from fuzzdet.cli import main as cli_main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([op.cmd, *op.args])
    return code, out.getvalue()


def run(bench, w, seconds: float, span_file: Path) -> dict:
    tr = Tracer()
    wr = Wrappers(tr)
    python_s = _child_seconds(bench, "pass")
    import_s = _child_seconds(
        bench, "import time; t = time.perf_counter(); import fuzzdet.cli; "
               "print(time.perf_counter() - t)")

    words = {d.name: [tuple(op.word) for op in w.ops if op.cmd == "eval" and op.docs[0] is d]
             or [()] for d in w.docs}
    counts: dict[str, int] = {}
    forward, peak_kib = [], 0.0
    traced = untraced = 0.0
    attempted = failed = passes = 0
    problems: list[str] = []

    def check(op, code: int, out: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        bad = op.check(code, out)
        if bad:
            failed += 1
            problems.append(f"{op.cmd} {' '.join(op.args)}: {bad[0]}")

    start = time.perf_counter()
    last = 0.0
    while passes < 1 or time.perf_counter() - start + last <= seconds:
        pass_start = time.perf_counter()
        incl = {}
        # Each call runs untraced, then traced, so that the host's speed
        # drifting between the two barely moves their ratio.
        for k, op in enumerate(w.ops):
            t0 = time.perf_counter()
            code, out = _call(op)
            untraced += time.perf_counter() - t0
            check(op, code, out)
            tr.op = f"p{passes}.{k}"
            with wr.installed():
                t0 = time.perf_counter()
                with tr.span(f"cli.{op.cmd}"):
                    code, out = _call(op)
                traced += time.perf_counter() - t0
            check(op, code, out)
            if op.cmd == "det" and op.method == "incl":
                incl.setdefault(op.docs[0].name, wr.last_incl)
        wr.last_incl = None
        for d in w.docs:
            if d.name not in incl:
                continue
            tr.op = f"p{passes}.probe.{d.name}"
            incl_wall, a, outcome = incl.pop(d.name)
            found = wr.probe(a, outcome.cdfa, words[d.name])
            forward.append(incl_wall - tr.durations("determinize.rn_tree")[-1])
            if passes == 0:
                for key, v in found.items():
                    counts[key] = counts.get(key, 0) + v
                for key in ("vertices", "closure_checks"):
                    counts[key] = counts.get(key, 0) + getattr(outcome.stats, key)
                counts["incl_states"] = counts.get("incl_states", 0) + outcome.cdfa.n
                tracemalloc.start()
                wr.fz.d_automaton(a)
                peak_kib = max(peak_kib, tracemalloc.get_traced_memory()[1] / 1024)
                tracemalloc.stop()
        if passes == 0:
            counts.update(wr.counts)
        tr.op = None
        passes += 1
        last = time.perf_counter() - pass_start
    tr.write(span_file)

    def busy(name: str) -> float:
        return sum(tr.durations(name)) / passes

    def per_call(name: str, calls_key: str) -> float:
        return sum(tr.durations(name)) / (counts[calls_key] * passes)

    selfs = tr.self_times()
    metrics, lines = {}, []

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<30} {value:<14.6g} {unit:<6} {note}")

    put("cli.python_s", python_s, "s", f"`python -c pass`, median of {CHILD_REPEATS}")
    put("cli.import_s", import_s, "s", f"`import fuzzdet.cli` in a child, median of {CHILD_REPEATS}")
    for call in ("parse", "serialize", "dot"):
        name = f"formats.{call}"
        put(f"{name}_s", busy(name), "s", f"per pass, {len(tr.durations(name))} calls")
    put("formats.parse_bytes", counts["parse_bytes"], "bytes", "per pass")
    put("formats.dot_bytes", counts["dot_bytes"], "bytes", "per pass")
    put("determinize.preflight_s", busy("determinize.preflight"), "s",
        f"per pass, {len(tr.durations('determinize.preflight'))} calls")
    put("determinize.preflight_values", counts["preflight_values"], "count",
        "closure values reached, per pass")
    for call in ("rn_tree", "incl", "brzozowski", "nerode", "psi", "to_cdfa"):
        name = f"determinize.{call}"
        put(f"{name}_s", busy(name), "s", f"per pass, {len(tr.durations(name))} calls")
    put("determinize.incl_forward_s", sum(forward) / passes, "s",
        "per pass, incl minus rn_tree on the same documents")
    put("determinize.rn_states", counts["rn_states"], "count", "per pass")
    put("determinize.rn_vertices", counts["rn_vertices"], "count", "per pass")
    put("determinize.incl_states", counts["incl_states"], "count", "per pass")
    put("determinize.vertices", counts["vertices"], "count", "incl, per pass")
    put("determinize.closure_checks", counts["closure_checks"], "count", "incl, per pass")
    put("determinize.new_state_ratio", counts["incl_states"] / counts["closure_checks"],
        "1", "incl states / closure checks")
    put("determinize.cap_hits", counts["cap_hits"], "count", "per pass")
    put("determinize.incl_peak_kib", peak_kib, "KiB", "tracemalloc peak of one incl, max")
    put("automata.witness_s", busy("automata.witness"), "s",
        f"per pass, {len(tr.durations('automata.witness'))} calls")
    put("automata.evaluate_s", busy("automata.evaluate"), "s",
        f"per pass, {len(tr.durations('automata.evaluate'))} calls")
    put("automata.cdfa_evaluate_s", per_call("automata.cdfa_evaluate", "cdfa_evaluate_calls"),
        "s", "mean per call")
    put("algebra.mat_vec_s", per_call("algebra.mat_vec", "mat_vec_calls"), "s",
        "mean per call over reverse-tree state vectors")
    put("lattice.ops_per_s", counts["lattice_ops"] * passes / sum(tr.durations("lattice.ops")),
        "ops/s", "tmul, resid, meet, join on value pairs")
    put("trace.overhead_ratio", traced / untraced, "1",
        f"cli.main traced {traced:.3f} s / untraced {untraced:.3f} s")
    for layer in LAYERS:
        put(f"{layer}.self_s", selfs[layer] / passes, "s", "self time per pass")
    lines += baseline_lines(tr, w)
    lines.append(f"spans: {len(tr.spans)} in {span_file}, {passes} passes")
    return {"metrics": metrics, "lines": lines, "attempted": attempted,
            "failed": failed, "problems": problems}


def baseline_lines(tr: Tracer, w) -> list[str]:
    """This run's first pass next to the ROADMAP baseline, flagging gaps over 2x."""
    out = []
    for k, op in enumerate(w.ops):
        for (doc, method, name), then in BASELINE.items():
            if op.cmd != "det" or op.docs[0].name != doc or op.method != method:
                continue
            spans = [s for s in tr.spans if s[4] == f"p0.{k}"]
            now = next(s[2] - s[1] for s in spans if s[0] == name)
            pre = next(s[2] - s[1] for s in spans if s[0] == "determinize.preflight")
            gap = max(now / then, then / now)
            out.append(f"baseline {doc} det --method {method}: {name} {now:.3f} s in "
                       f"process (preflight {pre:.3f} s), ROADMAP {then} s, "
                       f"{'GAP ' if gap > 2 else ''}{gap:.1f}x")
    return out
