"""Self-test of the benchmark at a tiny size (about a minute).

    python3 bench/selftest.py

Checks, on every workload bench/run.py defines, that
1. every end-to-end and per-layer metric in BENCHMARK.json is printed, with
   its unit, and a clean run reports no failed operation;
2. a deliberately corrupted reference shows up as failed operations;
3. per-layer counts repeat exactly between two traced runs;
4. in a directory holding only BENCHMARK.json and bench/, the benchmark exits
   non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def expect(cond: bool, what: str, problems: list[str]) -> None:
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        problems.append(what)


def main() -> int:
    problems: list[str] = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = result(bench(workload, trace))
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            printed = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(printed == wanted, f"{workload} --trace {trace}: metrics and units", problems)
            expect(out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
                   f"{workload} --trace {trace}: no failed operation", problems)
            if trace:
                again = result(bench(workload, 1))["metrics"]
                same = all(again[k]["value"] == v["value"]
                           for k, v in out["metrics"].items() if v["unit"] == "count")
                expect(same, f"{workload}: per-layer counts repeat", problems)
        corrupt = result(bench(workload, 0, "--corrupt-reference"))
        expect(not corrupt["correct"] and corrupt["failed"] > 0,
               f"{workload}: corrupted reference caught "
               f"({corrupt['failed']}/{corrupt['attempted']} failed)", problems)

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
    printed = proc.stdout.strip().splitlines()[-1:]
    expect(proc.returncode != 0 and not (printed and printed[0].startswith("{")),
           f"bare directory: exit {proc.returncode}, no result", problems)
    shutil.rmtree(bare)

    print("self-test " + ("FAILED: " + "; ".join(problems) if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
