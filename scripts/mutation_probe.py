#!/usr/bin/env python3
"""Count the operator mutants of one function that a test selection kills.

    python3 scripts/mutation_probe.py MODULE.FUNCTION [--sample N] \
        [--seed S] [-- PYTEST_ARGS...]

MODULE is a module of src/facadesim and FUNCTION a function in it, or
`Class.method`.  Each mutant swaps one operator inside that function: `+`
and `-`, `*` and `/`, `<` and `<=`, or `>` and `>=` (in augmented
assignments too).  `--sample N` draws N of those sites with `--seed S`.

Each mutant is written into a fresh temporary copy of the checkout, never
into the checkout itself, and pytest runs in that copy with its src/ first
on PYTHONPATH: `python -m pytest -q -x -p no:cacheprovider
--hypothesis-seed=0 PYTEST_ARGS`.  Hypothesis keeps its example database
in the copy, so no mutant's failing example replays in a later run.  A
mutant is killed when that run fails, or runs for more than ten times the
unmutated run plus 10 s.  The unmutated copy runs first and must pass.
The output is `killed K of N` and one line per survivor; the same seed
gives the same output.
"""

import argparse
import ast
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SWAPS = {"+": "-", "-": "+", "*": "/", "/": "*", "<": "<=", "<=": "<",
         ">": ">=", ">=": ">"}
SWAPS.update({a + "=": b + "=" for a, b in SWAPS.items() if len(a) == 1
              and a in "+-*/"})
_SKIP = (".git", ".hypothesis", ".pytest_cache", ".perfbench_out",
         ".benchmarks", "__pycache__", "*.egg-info", "build")
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
        ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


def _find(tree, qualname: str):
    node = tree
    for name in qualname.split("."):
        node = next((n for n in node.body if getattr(n, "name", None) == name
                     and isinstance(n, (ast.FunctionDef, ast.ClassDef))),
                    None)
        if node is None:
            return None
    return node if isinstance(node, ast.FunctionDef) else None


def _gaps(func, lines):
    """(operator, start, end) for each swappable operator in `func`: the
    operator token lies between the end of `start` and the start of
    `end`, each a (line, col) position in characters, as tokenize gives."""
    def at(line, byte_col):   # ast counts columns in UTF-8 bytes
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    for node in ast.walk(func):
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            pairs = [(_OPS[type(node.op)], node.left, node.right)]
        elif isinstance(node, ast.AugAssign) and type(node.op) in _OPS:
            pairs = [(_OPS[type(node.op)] + "=", node.target, node.value)]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = [(_OPS[type(op)], a, b) for op, a, b in
                     zip(node.ops, operands, operands[1:])
                     if type(op) in _OPS]
        else:
            continue
        for op, a, b in pairs:
            yield op, at(a.end_lineno, a.end_col_offset), at(b.lineno,
                                                             b.col_offset)


def sites(source: str, qualname: str):
    """Each swappable operator token of `qualname` as (line, col, token),
    in source order; None when the function is not found."""
    func = _find(ast.parse(source), qualname)
    if func is None:
        return None
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type == tokenize.OP and t.string in SWAPS]
    found = set()
    for op, start, end in _gaps(func, source.splitlines()):
        tok = next(t for t in tokens if t.string == op and start <= t.start
                   and t.end <= end)
        found.add((*tok.start, tok.string))
    return sorted(found)


def mutate(source: str, line: int, col: int, token: str) -> str:
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    assert text[col:col + len(token)] == token, (line, col, token)
    lines[line - 1] = text[:col] + SWAPS[token] + text[col + len(token):]
    return "".join(lines)


def run_tests(module_file: str, source: str, pytest_args: list,
              timeout: float | None) -> bool:
    """Whether the tests pass with `source` as `module_file` in a fresh
    copy of the checkout; a run past `timeout` counts as failed."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(*_SKIP))
        (root / "src" / "facadesim" / module_file).write_text(source)
        path = [str(root / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
               "no:cacheprovider", "--hypothesis-seed=0", *pytest_args]
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, timeout=timeout,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return False
        return proc.returncode == 0


def main(argv: list) -> int:
    pytest_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, pytest_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("target", help="MODULE.FUNCTION, e.g. "
                        "control.avoidance_command")
    parser.add_argument("--sample", type=int, default=None,
                        help="mutants to draw (default: every site)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the draw (default: 0)")
    args = parser.parse_args(argv)

    module, _, qualname = args.target.partition(".")
    module_file = f"{module}.py"
    path = SRC / "facadesim" / module_file
    if not qualname or not path.is_file():
        parser.error(f"no module {module!r} in src/facadesim")
    source = path.read_text()
    found = sites(source, qualname)
    if found is None:
        parser.error(f"no function {qualname!r} in {module_file}")
    if args.sample is not None and args.sample < 1:
        parser.error("--sample must be positive")
    n = len(found) if args.sample is None else min(args.sample, len(found))
    chosen = sorted(random.Random(args.seed).sample(found, n))
    print(f"{args.target}: {n} of {len(found)} sites, seed {args.seed}")

    start = time.perf_counter()
    if not run_tests(module_file, source, pytest_args, None):
        print("the unmutated code fails these tests", file=sys.stderr)
        return 1
    timeout = 10.0 * (time.perf_counter() - start) + 10.0

    survivors = [(line, col, token) for line, col, token in chosen
                 if run_tests(module_file, mutate(source, line, col, token),
                              pytest_args, timeout)]
    print(f"killed {n - len(survivors)} of {n}")
    for line, col, token in survivors:
        print(f"survived: line {line} col {col}: {token} -> {SWAPS[token]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
