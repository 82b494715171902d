"""Run the benchmark over many seeds: steadiness check and baseline.

    python3 bench/repeat.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--save F]
    python3 bench/repeat.py --seeds 1-10 --against F
    python3 bench/repeat.py --baseline

The first form prints, per workload and end-to-end metric, the median of the
runs and the spread (third minus first quartile over the median), against a
third of the metric's bound in BENCHMARK.json.  ``--against`` also compares
the medians with an earlier ``--save``d set.  ``--baseline`` runs seeds 1 and 2
traced and untraced and writes bench/baseline.json with the environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    summary = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-s{seed}-trace{trace}.json").read_text())
    summary["environment"] = record["environment"]
    summary["stdout_sha256"] = sorted({j["sha256"] for j in record["jobs"]})
    print(f"{workload} seed={seed} trace={trace} correct={summary['correct']} "
          f"failed={summary['failed']}/{summary['attempted']}", flush=True)
    return summary


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def report(runs: dict, against: dict | None) -> bool:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    steady = True
    for workload, by_seed in runs.items():
        for seed, s in by_seed.items():
            if not s["correct"]:
                steady = False
                print(f"{workload} seed={seed}: {s['failed']}/{s['attempted']} operations failed")
    for workload, by_seed in runs.items():
        for name, bound in bounds.items():
            values = [s["metrics"][name]["value"] for s in by_seed.values()]
            med, spr = spread(values)
            ok = name == "setup_s" or spr < bound / 3
            line = f"{workload:18} {name:12} median={med:<12.6g} spread={spr:.4f} bound={bound}"
            if against is not None:
                old = statistics.median(s["metrics"][name]["value"]
                                        for s in against[workload].values())
                better = next(m["better"] for m in SPEC["end_to_end"] if m["name"] == name)
                worse = (med - old) / old if better == "lower" else (old - med) / old
                ok = ok and worse <= bound
                line += f" vs {old:.6g} ({worse:+.4f} worse)"
            steady = steady and ok
            print(line + ("" if ok else "  <-- unsteady"))
    return steady


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    if args.baseline:
        runs = {w: {str(seed): {f"trace{t}": run_once(w, seed, t) for t in (0, 1)}
                    for seed in (1, 2)} for w in workloads}
        env = next(iter(next(iter(runs.values())).values()))["trace0"]["environment"]
        for by_seed in runs.values():
            for pair in by_seed.values():
                for summary in pair.values():
                    summary.pop("environment")
        baseline = {"environment": {k: v for k, v in env.items() if k != "seed"},
                    "run_seconds": SPEC["run_seconds"], "runs": runs}
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
        return 0

    runs = {w: {str(seed): run_once(w, seed, args.trace) for seed in args.seeds}
            for w in workloads}
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1) + "\n")
    if args.trace:
        return 0
    against = json.loads(args.against.read_text()) if args.against else None
    return 0 if report(runs, against) else 1


if __name__ == "__main__":
    raise SystemExit(main())
