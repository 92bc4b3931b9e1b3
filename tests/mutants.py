"""Score the changed lines of src/ by one-operator mutants.

Reads `git diff` of src/ against a base revision, HEAD~1 by default (the
parent of a one-commit change; the working tree counts too), and makes every
mutant of each changed line: a comparison or arithmetic operator swapped,
`and` and `or` swapped, or an int literal raised by 1. Each mutant runs the
tier-1 tests once, with -x, in a temporary copy of the tree; it is killed
when they fail or time out. Prints each mutant as killed or survived, then
the score; nothing is drawn at random. From the repository's root:

    python tests/mutants.py [--base REV] [--line FILE:LINE ...]

--line mutates the named lines instead of the diff's. No run writes
bytecode, and every run is in the copy, so the repository's src/ gets no
__pycache__. Tier-1 does not collect this file: it is not named test_*.
"""

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]

COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
           ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
           ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
           ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is")}
ARITH = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"),
         ast.Div: ("/", "*"), ast.FloorDiv: ("//", "/"), ast.Mod: ("%", "//"),
         ast.Pow: ("**", "*"), ast.LShift: ("<<", ">>"), ast.RShift: (">>", "<<"),
         ast.BitAnd: ("&", "|"), ast.BitOr: ("|", "&"), ast.BitXor: ("^", "|")}
BOOL = {ast.And: ("and", "or"), ast.Or: ("or", "and")}


def changed_lines(base: str) -> dict[str, set[int]]:
    """{path: the line numbers the diff against base adds} for src/'s .py files."""
    diff = subprocess.run(["git", "diff", "-U0", base, "--", "src"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout
    lines: dict[str, set[int]] = {}
    path = None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            path = line[6:] if line.startswith("+++ b/") and line.endswith(".py") else None
        elif line.startswith("@@") and path:
            start, _, count = re.match(r"@@ -\S+ \+(\S+) @@", line).group(1).partition(",")
            added = range(int(start), int(start) + int(count or 1))
            lines.setdefault(path, set()).update(added)
    return lines


def _pattern(token: str) -> str:
    return r"\s+".join(map(re.escape, token.split()))


def _gap_operator(source: str, offsets: list[int], left, right, token: str):
    """The (start, end) of token, the only thing but parentheses, blanks and
    comments between the nodes left and right; None when it is not."""
    start = offsets[left.end_lineno - 1] + left.end_col_offset
    end = offsets[right.lineno - 1] + right.col_offset
    gap = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), source[start:end])
    m = re.fullmatch(rf"[\s()\\]*({_pattern(token)})[\s()\\]*", gap)
    return m and (start + m.start(1), start + m.end(1))


def mutants(path: str, source: str, wanted: set[int]) -> list[tuple]:
    """(path, line, old text, new text, mutated source) of every mutant whose
    operator or literal lies on a wanted line."""
    offsets = [0]
    for line in source.splitlines(keepends=True):
        offsets.append(offsets[-1] + len(line))
    spans = []  # (start, end, replacement)
    for node in ast.walk(ast.parse(source)):
        pairs = []
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = [(a, b, COMPARE[type(op)]) for a, b, op in
                     zip(operands, operands[1:], node.ops)]
        elif isinstance(node, ast.BinOp) and type(node.op) in ARITH:
            pairs = [(node.left, node.right, ARITH[type(node.op)])]
        elif isinstance(node, ast.AugAssign) and type(node.op) in ARITH:
            old, new = ARITH[type(node.op)]
            pairs = [(node.target, node.value, (old + "=", new + "="))]
        elif isinstance(node, ast.BoolOp):
            pairs = [(a, b, BOOL[type(node.op)]) for a, b in zip(node.values, node.values[1:])]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            start = offsets[node.lineno - 1] + node.col_offset
            end = offsets[node.end_lineno - 1] + node.end_col_offset
            spans.append((start, end, str(node.value + 1)))
        for left, right, (old, new) in pairs:
            span = _gap_operator(source, offsets, left, right, old)
            if span:
                spans.append((*span, new))
    found = []
    for start, end, new in sorted(set(spans)):
        line = source.count("\n", 0, start) + 1
        if line not in wanted:
            continue
        mutated = source[:start] + new + source[end:]
        try:
            if ast.dump(ast.parse(mutated)) == ast.dump(ast.parse(source)):
                continue
        except SyntaxError:
            continue
        found.append((path, line, source[start:end], new, mutated))
    return found


def copy_tree(into: Path) -> None:
    """Copy the files git tracks, and the untracked ones it does not ignore."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def run_tier1(tree: Path, timeout: float) -> tuple[bool, float]:
    """(whether tier-1 passes in tree, its seconds); a timeout fails it."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    try:
        passed = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    for cache in (tree / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    return passed, time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="the revision to diff against")
    parser.add_argument("--line", action="append", default=[], metavar="FILE:LINE",
                        help="mutate this line instead of the diff's (repeatable)")
    args = parser.parse_args(argv)
    if args.line:
        wanted: dict[str, set[int]] = {}
        for spot in args.line:
            path, _, line = spot.rpartition(":")
            wanted.setdefault(path, set()).add(int(line))
    else:
        wanted = changed_lines(args.base)
    found = [m for path, lines in sorted(wanted.items())
             for m in mutants(path, (ROOT / path).read_text(encoding="utf-8"), lines)]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        passed, seconds = run_tier1(tree, None)
        if not passed:
            print("tier-1 fails before any mutant", file=sys.stderr)
            return 1
        killed = 0
        for path, line, old, new, mutated in found:
            original = (tree / path).read_text(encoding="utf-8")
            (tree / path).write_text(mutated, encoding="utf-8")
            survived, _ = run_tier1(tree, max(60.0, 3 * seconds))
            (tree / path).write_text(original, encoding="utf-8")
            killed += not survived
            print(f"{path}:{line}  {old} -> {new}  {'survived' if survived else 'killed'}",
                  flush=True)
    print(f"killed {killed} of {len(found)} mutants on "
          f"{len({(m[0], m[1]) for m in found})} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
