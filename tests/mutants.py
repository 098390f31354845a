"""Operator mutants of one module, run against the tests that exercise it.

    python tests/mutants.py MODULE      e.g. python tests/mutants.py command

Each comparison, ``+``/``-``, ``and``/``or`` and ``is``/``is not`` in
``src/ultratree/MODULE.py`` is swapped once (SWAPS).  Each mutant is written
into a copy of ``src`` and ``tests`` in a temporary directory (``TMPDIR``
chooses where), and the module's tests run on the copy with ``-x``; a test
that fails or a run that times out kills it.  Every survivor is printed with
its line and swap, and with its reason when EQUIVALENT lists it.  The exit
status is 1 if a survivor is not listed.  Stdlib only; pytest does not
collect this file.
"""

from __future__ import annotations

import ast
import io
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Each operator's one swap.
SWAPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.And: ("and", "or"), ast.Or: ("or", "and"),
}

# Mutants no test can kill, as (module, line text, swap, reason).  GUARD checks that
# each line still occurs in its module, so it would kill them all; the runs leave it out.
GUARD = "tests/test_command.py::test_listed_equivalent_mutants_still_occur"
EQUIVALENT = [
    ("command", "while before < q and end[q] <= after:", "< as <=",
     "q climbs p's ancestors, and no ancestor of p is one of p's peers, so q never equals before"),
    ("lexdist", "if d < step:", "< as <=", "at d == step the assignment writes the value d holds"),
    ("lexdist", "pair = (x, y) if x <= y else (y, x)", "<= as <", "at x == y both branches give (x, x)"),
    ("lexdist", "if pair not in minima or d < minima[pair]:", "< as <=",
     "at d == minima[pair] the assignment writes the value the entry holds"),
    ("lexdist", "if pair not in combined or d < combined[pair]:", "< as <=",
     "at d == combined[pair] the assignment writes the value the entry holds"),
    ("lexdist", "rows = [tuple([combined.get((x, y) if x <= y else (y, x)) for y in ordered]) for x in ordered]",
     "<= as <", "at x == y both branches give (x, x)"),
    ("lexdist", "required = [(order[r], order[k], start + r) for r in range(n - 1) for k in range(r + 1, n)]",
     "- as +", "rows n - 1 and n have no k in range(r + 1, n), so range(n + 1) requires no more pairs"),
    ("matrix", "if not set(map(type, chain.from_iterable(rows))) <= {int}:", "<= as <",
     "only the empty set is a strict subset of {int}; on all-int rows the per-entry check then run passes every int"),
    ("ultrametric", "unit = chr if height[0] <= 0x10FFFF else lambda h: (h,)  # a row of one entry; 0x10FFFF is sys.maxunicode",
     "<= as <", "a root of exactly 0x10FFFF gets tuple rows, which hold the same entries as its code-point rows"),
    ("ultrametric", "if row[x] < best[k]:", "< as <=",
     "on a tie Prim's best weight is the same, only the vertex it attaches to changes, and any Prim order certifies"),
    ("ultrametric", "pairs = _above(m, zip(range(1, n), steps), form) if least > 0 else None", "> as >=",
     "with a zero step the own order is tried first; _above certifies it exactly when u = v, as Prim's order would"),
    ("ultrametric", "if least < 0:", "< as <=",
     "at a least entry of 0 every pair is scanned, and only the suspect pairs can add a triple, in the same order"),
    ("trees", "while arity > 1 and end[child] < end[p]:", "> as >=",
     "a unary node's one child ends where the node does, so the second test stops the loop at arity 1"),
    ("trees", "if h > height[parent]:", "> as >=", "at h == height[parent] the assignment writes the value held"),
    ("trees", "if (n := hi - lo) > 21:  # sample's set branch may take over from here", "> as >=",
     "at 21 candidates sample takes its pool branch, the stream the getrandbits copy draws"),
]


def tests_of(module: str) -> list[str]:
    """The module's own tests, the brute-force oracles and the acceptance criteria."""
    return [f"tests/test_{module}.py", "tests/test_oracles.py", "tests/test_acceptance.py"]


def _column(line: str, byte_offset: int) -> int:
    """The character column of an ``ast`` byte offset into ``line``."""
    return len(line.encode()[:byte_offset].decode())


def mutants(source: str) -> list[tuple[int, int, int, str, str]]:
    """Every (line, start, end, operator, swap): columns are characters of that
    1-based line, and the operator's tokens fill [start, end)."""
    lines = source.splitlines()
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type in (tokenize.OP, tokenize.NAME)]
    found = []

    def between(left: ast.expr, right: ast.expr, op: ast.AST) -> None:
        """The swap of ``op``, the operator token(s) after ``left`` and before ``right``."""
        if type(op) not in SWAPS:
            return
        text, swap = SWAPS[type(op)]
        lo = (left.end_lineno, _column(lines[left.end_lineno - 1], left.end_col_offset))
        hi = (right.lineno, _column(lines[right.lineno - 1], right.col_offset))
        words = text.split()
        span = [t for t in tokens if lo <= t.start and t.end <= hi]
        for k, t in enumerate(span):
            if [s.string for s in span[k : k + len(words)]] == words:
                last = span[k + len(words) - 1]
                if last.end[0] == t.start[0]:
                    found.append((t.start[0], t.start[1], last.end[1], text, swap))
                return

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                between(left, right, op)
        elif isinstance(node, ast.BinOp):
            between(node.left, node.right, node.op)
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                between(left, right, node.op)
    return sorted(found)


def _limited() -> None:
    """In the child: at most 2 GiB of address space, so a mutant that grows without end fails."""
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


def _run(copy: Path, tests: list[str], timeout: float) -> bool:
    """Whether the tests pass on the copy within ``timeout`` seconds."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", GUARD, *tests]
    try:
        child = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=timeout, preexec_fn=_limited)
    except subprocess.TimeoutExpired:
        return False
    return child.returncode == 0


def main(module: str) -> int:
    path = ROOT / "src" / "ultratree" / f"{module}.py"
    source = path.read_text()
    lines, tests = source.splitlines(keepends=True), tests_of(module)
    equivalent = {(line, swap): reason for name, line, swap, reason in EQUIVALENT if name == module}
    unlisted = killed = 0
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "artifacts")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "ultratree" / f"{module}.py"
        start = time.perf_counter()
        if not _run(copy, tests, timeout=600):
            print(f"the tests fail on the unchanged {module}.py", file=sys.stderr)
            return 2
        timeout = 10 * (time.perf_counter() - start) + 30
        found = mutants(source)
        for row, lo, hi, text, swap in found:
            line = lines[row - 1]
            target.write_text("".join([*lines[: row - 1], line[:lo] + swap + line[hi:], *lines[row:]]))
            if not _run(copy, tests, timeout):
                killed += 1
                continue
            reason = equivalent.get((line.strip(), f"{text} as {swap}"))
            unlisted += reason is None
            print(f"{module}.py:{row}:{lo + 1}: `{text}` as `{swap}`: {line.strip()}" + (f"  [equivalent: {reason}]" if reason else ""))
    print(f"{module}: {len(found)} mutants, {killed} killed, {len(found) - killed} survived, {unlisted} not listed")
    return 1 if unlisted else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/mutants.py MODULE")
    sys.exit(main(sys.argv[1]))
