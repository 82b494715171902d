"""Mutation census of one module of src/: which one-change mutants no test kills.

    python tools/mutate.py src/ctcsim/db_model.py
    python tools/mutate.py src/ctcsim/qlinalg.py --tests tests/test_qlinalg.py tests/test_db_model.py

Each mutant makes one change to the module: it swaps < and <=, > and >=,
+ and -, and and or, or is and is not, multiplies a float constant by 10
(one that this leaves as it is, 0.0 or inf, is skipped), or drops a
not.  The checkout is copied once into a temporary directory,
and each mutant is written over the module's copy there and run against
the module's tests (tests/test_<module>.py unless --tests names others)
with pytest -x.  A mutant survives when those tests pass; one that fails
them, or runs past the time limit, is killed.  The checkout itself is
never written, so an interrupted run leaves it as it was.

One line is printed per mutant, then the count of survivors.  The exit
code is 1 if any mutant survived, 0 otherwise, and 2 if the tests fail on
the unmutated module, whose census would mean nothing.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Add: "+",
          ast.Sub: "-", ast.And: "and", ast.Or: "or", ast.Is: "is", ast.IsNot: "is not"}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int, str]]:
    """Every place one mutation applies, in source order: the node, the
    index of the operator within it (0 if it has one), and a description."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    found.append((node, i, _swap_text(op)))
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            found.append((node, 0, _swap_text(node.op)))
        elif (isinstance(node, ast.Constant) and type(node.value) is float
              and node.value * 10 != node.value):  # 0.0 and inf stay as they are
            found.append((node, 0, f"{node.value!r} -> {node.value * 10!r}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((node, 0, "drop not"))
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset, site[1]))


def _swap_text(op: ast.AST) -> str:
    return f"{SYMBOL[type(op)]} -> {SYMBOL[SWAPS[type(op)]]}"


class _DropNot(ast.NodeTransformer):
    def __init__(self, target: ast.UnaryOp) -> None:
        self.target = target

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        self.generic_visit(node)
        return node.operand if node is self.target else node


def mutant(source: str, k: int) -> tuple[str, str, str]:
    """The source of mutant k, with the line:column and the description of its change."""
    tree = ast.parse(source)
    node, i, text = sites(tree)[k]
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif isinstance(node, (ast.BinOp, ast.BoolOp)):
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value = node.value * 10
    else:
        tree = _DropNot(node).visit(tree)
    return ast.unparse(tree), f"{node.lineno}:{node.col_offset + 1}", text


def run_tests(root: Path, tests: list[str], timeout: float) -> tuple[bool, float]:
    """Whether the tests pass in the copy at root, and how long they took.
    A run past timeout counts as a failure."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.monotonic() - t0
    return proc.returncode == 0, time.monotonic() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("module", help="path of the module under src/, from the checkout root")
    parser.add_argument("--tests", nargs="+", help="test files to run (tests/test_<module>.py)")
    args = parser.parse_args(argv)
    # relative to the checkout, so that the mutants go to the copy's module only
    module = Path(args.module).resolve()
    if not module.is_relative_to(REPO / "src"):
        parser.error(f"{args.module} is not under {REPO / 'src'}")
    module = module.relative_to(REPO)
    source = (REPO / module).read_text()
    tests = args.tests or [f"tests/test_{module.stem}.py"]
    count = len(sites(ast.parse(source)))
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        target = root / module
        # each mutant is unparsed source, so the unmutated module is too
        target.write_text(ast.unparse(ast.parse(source)))
        passed, baseline = run_tests(root, tests, timeout=600)
        if not passed:
            print(f"{' '.join(tests)} fail on the unmutated {module}", file=sys.stderr)
            return 2
        survivors = 0
        for k in range(count):
            text, where, change = mutant(source, k)
            target.write_text(text)
            survived, _ = run_tests(root, tests, timeout=max(60.0, 10 * baseline))
            survivors += survived
            print(f"{module}:{where}: {change}: {'SURVIVED' if survived else 'killed'}", flush=True)
    print(f"{module}: {count} mutants, {survivors} survived ({' '.join(tests)})")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
