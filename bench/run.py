#!/usr/bin/env python3
"""fuzzdet benchmark: seeded workloads through the real CLI, checked by an oracle.

Run from the repository root:

    python3 bench/run.py --workload cli_mixed --seed 1 --seconds 15 --trace 0

With --trace 0 every call is `python -m fuzzdet ...` in a child process, one
at a time (closed loop, one client), timed from outside and checked line by
line by bench/oracle.py, which does not import fuzzdet. The end-to-end
metrics come from these calls, scaled to a reference host speed (see
REFERENCE). With --trace 1 the same calls go through fuzzdet.cli.main in
process, with a span around each library call the CLI makes, and the
per-layer metrics come from the spans (see bench/tracing.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}). The lines before it give each metric with
its sample count, and the percentile behind every *_tail_s.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

SETUP_REPEATS = 9
CALL_TIMEOUT_S = 60
# No call starts after this much measuring, so that a run ends within
# 180 s even on a machine several times slower than the one it was tuned on.
MEASURE_LIMIT_S = 120
SUBCOMMANDS = ("det", "equiv", "eval", "semiring")
# A fixed stdlib-only child program timed between the CLI calls: interpreter
# start-up, stdlib imports like the CLI's, and Fraction, dict and tuple work
# like the constructions'. On a shared machine the host's speed drifts by
# tens of percent within seconds to minutes, CPU time as much as wall time,
# and this child drifts with it; the program's code never runs in it, so no
# change to the program moves it.
REFERENCE = """\
import argparse, dataclasses, re
from fractions import Fraction
values = [Fraction(i, 12) for i in range(13)]
seen = {}
for _ in range(30):
    for a in values:
        for b in values:
            seen[(a, b)] = max(min(a, b), a * b - Fraction(1, 12), Fraction(0))
"""
# Seconds the reference takes on the host the bounds were tuned on. Each
# timing is scaled by REFERENCE_S over the median of the REFERENCE_NEAREST
# reference walls measured closest to it in time, so it reads as on that host.
REFERENCE_S = 0.15
REFERENCE_EVERY = 4  # CLI calls between two reference children
REFERENCE_NEAREST = 3
FIXTURES = ("boolean3", "goguen3")


def tail_level(samples_per_run: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (50 at least)."""
    return max(50, math.floor(100 * (1 - 10 / samples_per_run)))


def percentile(values: list[float], level: int) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[level - 1]


class Bench:
    """Paths and child-process environment for one benchmark run."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONDONTWRITEBYTECODE="1")
        self.env.pop("PYTHONSTARTUP", None)
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        self.out = out
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=out))
        self.reference: list[tuple[float, float]] = []  # (end time, wall)

    def child(self, argv: list[str]) -> tuple[int, str, float]:
        """Run one child interpreter to completion; (exit code, stdout, wall seconds)."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        return proc.returncode, proc.stdout, time.perf_counter() - t0

    def time_reference(self) -> None:
        """Time one REFERENCE child; see host_scale."""
        wall = self.child(["-c", REFERENCE])[2]
        self.reference.append((time.perf_counter(), wall))

    def setup(self, name: str, seed: int
              ) -> tuple[workloads.Workload, list[tuple[float, float]]]:
        """Draw the documents once, then time SETUP_REPEATS set-ups.

        The draw (with the oracle's filters) is the benchmark's own work and
        is not timed. A set-up writes every document with the program's
        serialize_automaton, then makes one cold `import fuzzdet` in a child;
        a reference child follows each. Returns the workload and every
        set-up's (end time, wall). A set-up that writes different bytes than
        the first is a failure.
        """
        sys.path.insert(0, str(self.root / "src"))
        from fuzzdet import FuzzyAutomaton, chain, serialize_automaton
        from fuzzdet.lattice import NAMED

        def serialize(doc) -> str:
            lattice = chain(doc.top_index) if doc.kind == "chain" else NAMED[doc.kind]
            a = FuzzyAutomaton.build(lattice, doc.alphabet, doc.sigma, doc.delta, doc.tau)
            return serialize_automaton(a)

        fixtures = {f: (self.root / "tests" / "data" / f"{f}.fza").read_text(encoding="utf-8")
                    for f in FIXTURES}
        w = workloads.build(name, seed, self.work, fixtures)
        times, first = [], None
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workloads.write_docs(w, serialize)
            code, _, _ = self.child(["-c", "import fuzzdet"])
            end = time.perf_counter()
            times.append((end, end - t0))
            self.time_reference()
            if code != 0:
                raise RuntimeError("cold `import fuzzdet` failed")
            texts = [Path(d.path).read_bytes() for d in w.files]
            if first is None:
                first = texts
            elif texts != first:
                raise RuntimeError("the same seed wrote different documents")
        return w, times


def run_calls(bench: Bench, w: workloads.Workload, seconds: float) -> dict:
    """Closed loop over whole passes until `seconds` have passed and min_passes are done."""
    samples = {c: [] for c in SUBCOMMANDS}  # (end time, wall) per call
    attempted = failed = passes = 0
    problems: list[str] = []
    start = time.perf_counter()
    pass_s = 0.0
    # Start a pass only while it is expected to end within `seconds`.
    while passes < w.min_passes or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        for op in w.ops:
            if time.perf_counter() - start > MEASURE_LIMIT_S:
                break
            attempted += 1
            try:
                code, out, wall = bench.child(["-m", "fuzzdet", op.cmd, *op.args])
            except subprocess.TimeoutExpired:
                failed += 1
                problems.append(f"{op.cmd} {' '.join(op.args)}: timed out")
                continue
            samples[op.cmd].append((time.perf_counter(), wall))
            if attempted % REFERENCE_EVERY == 0:
                bench.time_reference()
            bad = op.check(code, out)
            if bad:
                failed += 1
                problems.append(f"{op.cmd} {' '.join(op.args)}: {bad[0]}")
        passes += 1
        pass_s = time.perf_counter() - pass_start
    return {"samples": samples, "reference": bench.reference,
            "attempted": attempted, "failed": failed,
            "problems": problems, "passes": passes,
            "elapsed": time.perf_counter() - start}


def host_scale(reference: list[tuple[float, float]], at: float) -> float:
    """REFERENCE_S over the median of the reference walls measured nearest to `at`."""
    nearest = sorted(reference, key=lambda r: abs(r[0] - at))[:REFERENCE_NEAREST]
    return REFERENCE_S / statistics.median(wall for _, wall in nearest)


def end_to_end(w: workloads.Workload, setup_times: list[tuple[float, float]], result: dict
               ) -> tuple[dict, list[str]]:
    """Every timing scaled to the reference host speed; the raw wall is printed beside."""
    reference = result["reference"]

    def scaled(timed):
        return [wall * host_scale(reference, end - wall / 2) for end, wall in timed]

    walls = [wall for _, wall in reference]
    metrics, lines = {}, [f"{'host reference':<16} {statistics.median(walls):12.6f} {'s':<6} "
                          f"median of {len(walls)} ({min(walls):.3f}-{max(walls):.3f})"]

    def put(name, timed, stat, unit, note):
        value = stat(scaled(timed))
        metrics[name] = {"value": value, "unit": unit}
        raw = stat([wall for _, wall in timed])
        lines.append(f"{name:<16} {value:12.6f} {unit:<6} raw {raw:.6f}, {note}")

    put("setup_s", setup_times, statistics.median, "s",
        f"median of {len(setup_times)} set-ups")
    timed = [t for c in SUBCOMMANDS for t in result["samples"][c]]
    put("ops_per_s", timed, lambda v: len(v) / sum(v), "ops/s",
        f"{len(timed)} calls / their summed time, {result['passes']} passes")
    per_pass = {c: sum(op.cmd == c for op in w.ops) for c in SUBCOMMANDS}
    for c in SUBCOMMANDS:
        timed = result["samples"][c]
        if not timed:
            continue
        put(f"{c}_p50_s", timed, statistics.median, "s", f"n={len(timed)}")
        if c in ("det", "equiv"):
            level = tail_level(per_pass[c] * w.min_passes)
            put(f"{c}_tail_s", timed, lambda v: percentile(v, level), "s",
                f"p{level}, n={len(timed)}")
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    lines.append(f"{'peak_rss_mb':<16} {rss:12.6f} {'MB':<6} largest max-RSS of any child")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"{'failed_ratio':<16} {ratio:12.6f} {'1':<6} "
                 f"{result['failed']} of {result['attempted']} calls")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    missing = [p for p in ("src/fuzzdet/__init__.py",
                           *(f"tests/data/{f}.fza" for f in FIXTURES))
               if not (root / p).is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    bench = Bench(root)
    try:
        w, setup_times = bench.setup(args.workload, args.seed)
        if args.trace:
            import tracing
            span_file = bench.out / f"spans-{args.workload}-seed{args.seed}.json"
            result = tracing.run(bench, w, args.seconds, span_file)
            metrics, lines = result["metrics"], result["lines"]
        else:
            result = run_calls(bench, w, args.seconds)
            metrics, lines = end_to_end(w, setup_times, result)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{workloads.WORKLOADS[args.workload]}")
    for line in lines:
        print(line)
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
