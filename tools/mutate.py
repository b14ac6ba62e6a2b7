"""Mutation sweep: which one-operator changes to a module do its tests miss?

    python tools/mutate.py src/bch6351/channel_sim.py tests/test_channel_sim.py tests/test_cli.py

Each mutant makes one change to the module's source text: it flips one
comparison, boolean or bit operator, or negates the test of one `if`
statement.  Everything else, comments included, stays as it is, since
some tests read the package's source.  The mutant is written into a
temporary copy of the checkout, never into the working tree, and the
named test files run against it with `pytest -x -W error`.  A mutant the
tests pass survives; the survivors are printed by line.  The copy writes
no bytecode, so a mutant of the source's length and second is never
shadowed by a cached one.  A test that hangs is ended by the suite's own
hang bound (tests/conftest.py).  SIGTERM ends the sweep with the copy
removed.
"""

import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

# Operator -> (its source text, the text a mutant puts in its place).
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"),
         ast.IsNot: ("is not", "is"), ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
         ast.And: ("and", "or"), ast.Or: ("or", "and"), ast.BitAnd: ("&", "|"),
         ast.BitOr: ("|", "&"), ast.BitXor: ("^", "|"), ast.LShift: ("<<", ">>"),
         ast.RShift: (">>", "<<")}
# What may stand between an operand and its operator: blanks, brackets, comments.
_FILL = rb"((?:[\s()\\]|#[^\n]*)*)"


def mutants(source: bytes):
    """(line, change, mutated source) for each one-operator change, in ast.walk order."""
    starts = [0]
    for text in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(text))

    def end(node):  # ast columns count UTF-8 bytes
        return starts[node.end_lineno - 1] + node.end_col_offset

    def start(node):
        return starts[node.lineno - 1] + node.col_offset

    tree = ast.parse(source)
    # Annotations are not evaluated (the package imports annotations from __future__).
    notes = [getattr(node, field, None)
             for node in ast.walk(tree) for field in ("annotation", "returns")]
    unread = {id(node) for note in notes if note for node in ast.walk(note)}
    for node in ast.walk(tree):
        if id(node) in unread:
            continue
        if isinstance(node, ast.If):
            a, b = start(node.test), end(node.test)
            yield node.lineno, "negate if", source[:a] + b"not (" + source[a:b] + b")" + source[b:]
            continue
        if isinstance(node, ast.Compare):
            gaps = zip(node.ops, [node.left, *node.comparators], node.comparators)
        elif isinstance(node, ast.BoolOp):
            gaps = ((node.op, left, right) for left, right in zip(node.values, node.values[1:]))
        elif isinstance(node, ast.BinOp):
            gaps = [(node.op, node.left, node.right)]
        elif isinstance(node, ast.AugAssign):
            gaps = [(node.op, node.target, node.value)]
        else:
            continue
        suffix = "=" if isinstance(node, ast.AugAssign) else ""
        for op, left, right in gaps:
            if type(op) not in FLIPS:
                continue
            old, new = (text + suffix for text in FLIPS[type(op)])
            pattern = _FILL + re.escape(old.encode()).replace(rb"\ ", rb"\s+") + _FILL
            a, b = end(left), start(right)
            match = re.fullmatch(pattern, source[a:b])
            if match is None:
                raise ValueError(f"line {left.end_lineno}: no {old!r} between the operands")
            gap = match[1] + new.encode() + match[2]
            yield left.end_lineno, f"{old} -> {new}", source[:a] + gap + source[b:]


def main(module: str, *tests: str) -> int:
    root = Path(__file__).resolve().parent.parent
    # SIGTERM exits as sys.exit does: subprocess.run kills the running
    # child and the temporary copy is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*cache"))
        target = copy / module
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-W", "error",
                   "-p", "no:cacheprovider", *tests]

        def passes() -> bool:
            return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode == 0

        if not passes():
            sys.exit("the tests fail on the unmutated checkout")
        found = list(mutants(target.read_bytes()))
        survivors = []
        for line, change, text in found:
            target.write_bytes(text)
            survived = passes()
            print(f"{module}:{line}: {change}: {'SURVIVED' if survived else 'caught'}",
                  file=sys.stderr, flush=True)
            if survived:
                survivors.append((line, change))
    for line, change in sorted(survivors):
        print(f"{module}:{line}: {change}")
    print(f"{len(found)} mutants, {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
