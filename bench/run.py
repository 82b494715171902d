"""The ctcsim benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every job runs in a fresh, single-threaded interpreter (``bench/child.py``),
one at a time.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  A results
file with the environment, every job and the stdout hashes is written to
``bench/out/``; see ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
    "call_p50_ms": "ms", "call_p90_ms": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "setup.import_numpy_s": "s", "setup.import_ctcsim_s": "s",
    "compile.calls": "count", "compile.self_s": "s", "compile.us_per_call": "us",
    "compile.reuse_ratio": "ratio",
    "db.solve.calls": "count", "db.solve.self_s": "s", "db.bloch_affine.self_s": "s",
    "db.ctc_map.calls": "count", "db.ctc_map.self_s": "s", "db.degenerate": "count",
    "db.residual_max": "norm",
    "heis.bloch.self_s": "s", "heis.recurrence.calls": "count",
    "heis.recurrence.self_s": "s", "heis.recurrence.labels": "count",
    "heis.expectation.calls": "count", "heis.expectation.self_s": "s",
    "heis.unresolved": "count",
    "tp.conj_pair.calls": "count", "tp.apply_local.calls": "count", "tp.self_s": "s",
    "qlinalg.tensor.calls": "count",
    "cli.records_for.calls": "count", "cli.records_for.self_s": "s",
    "cli.emit.self_s": "s", "cli.records": "count",
    "scenario.compare.calls": "count", "scenario.run_db.self_s": "s",
    "scenario.run_heisenberg.self_s": "s",
    "trace.overhead_frac": "frac", "trace.unattributed_frac": "frac",
    "ops_failed_frac": "frac",
}

# Operations per job: grid points, trials or compare calls.  Jobs last about
# a second, so a 60-second run takes medians over 35 or more of them: on a
# shared host the speed of the machine changes by 25% within seconds, and a
# median over a few long jobs would pick one phase.  "tiny" is the
# self-test's size.
SIZES = {
    "full": {"sweep_cnot_both": 101, "sweep_chained_db": 501,
             "conjecture_random": 200, "compare_scalar": 150},
    "tiny": {"sweep_cnot_both": 11, "sweep_chained_db": 11,
             "conjecture_random": 10, "compare_scalar": 6},
}
WORKLOADS = tuple(SIZES["full"])
COMPARE_SCENARIOS = ("cnot", "cz", "chained_cnot_hadamard")
MIN_JOBS = 2       # timed jobs before the repeat of job 0
# Launch-to-exit time of bench/calib.py on a host of reference speed.  On a
# shared host the speed moves by 25% or more for minutes at a time, and all
# of a job's timings move with it.  A timed run therefore runs the
# calibration before and after every job, and scales the job's timings by
# CALIB_REF_S over the median of the CALIB_WINDOW calibrations on either side
# of the job: the end-to-end times are seconds on a host where the
# calibration takes CALIB_REF_S.  The
# calibration runs none of ctcsim's code, so a change to ctcsim moves the
# scaled times exactly as much as the raw ones.
CALIB_REF_S = 0.4
CALIB_WINDOW = 3
IMPORTTIME_RUNS = 3
RUN_LIMIT_S = 150  # every job ends by then, so a run ends within 180 s

CHILD_ENV = dict(
    os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
    OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


class BenchError(RuntimeError):
    """The program could not be started or measured at all."""


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# -- workloads -----------------------------------------------------------------


def make_job(workload: str, seed: int, index: int, size: str) -> dict:
    """Inputs of job `index`, drawn from the seed alone."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    n = SIZES[size][workload]
    if workload == "sweep_cnot_both":
        theta = rng.uniform(0.0, math.pi)
        argv = ["sweep", "cnot", "alpha2", "0", "1", str(n), "--model", "both",
                "--format", "csv", "--theta", repr(theta)]
        check = ("sweep", "cnot", ("db", "heisenberg"), "alpha2", 0.0, 1.0, n, theta)
    elif workload == "sweep_chained_db":
        alpha2 = rng.uniform(0.02, 0.98)
        argv = ["sweep", "chained_cnot_hadamard", "theta", "0", repr(math.pi), str(n),
                "--model", "db", "--format", "csv", "--alpha2", repr(alpha2)]
        check = ("sweep", "chained_cnot_hadamard", ("db",), "theta", 0.0, math.pi, n, alpha2)
    elif workload == "conjecture_random":
        argv = ["conjecture-check", "--seed", str(rng.randrange(2**31)), "--trials", str(n)]
        check = ("conjecture", n)
    elif workload == "compare_scalar":
        calls = [(COMPARE_SCENARIOS[i % 3], rng.uniform(0.02, 0.98), rng.uniform(0.0, math.pi))
                 for i in range(n)]
        return {"kind": "compare", "calls": calls, "ops": n, "check": ("compare",)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"kind": "cli", "argv": argv, "ops": n, "check": check}


def check_output(job: dict, text: str, skew: float) -> tuple[int, str]:
    kind, *args = job["check"]
    if kind == "sweep":
        return checks.check_sweep(text, *args, skew=skew)
    if kind == "conjecture":
        return checks.check_conjecture(text, *args, skew=skew)
    return checks.check_compare(text, job["calls"], skew=skew)


# -- one fresh interpreter -----------------------------------------------------


def run_child(job: dict, trace: bool, deadline: float, skew: float = 0.0) -> dict:
    """Launch bench/child.py on a job and check what it printed."""
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"job-{os.getpid()}.json"
    stdout_path = OUT / f"job-{os.getpid()}.stdout"
    result_path.unlink(missing_ok=True)
    spec = {k: job[k] for k in ("kind", "argv", "calls") if k in job}
    spec["trace"] = trace
    cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(spec), str(result_path)]
    with open(stdout_path, "wb") as out:
        t_launch = now_ns()
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE, env=CHILD_ENV,
                                  cwd=ROOT, timeout=max(5.0, deadline - time.monotonic()))
            rc, stderr = proc.returncode, proc.stderr.decode(errors="replace")
        except subprocess.TimeoutExpired:
            rc, stderr = None, "timed out"
        t_exit = now_ns()
    text = stdout_path.read_text(errors="replace")
    result = json.loads(result_path.read_text()) if rc == 0 and result_path.exists() else None
    rec = {"t_launch": t_launch, "t_exit": t_exit, "rc": rc, "result": result,
           "ops": job["ops"], "stdout": text,
           "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if result is not None:
        src = str((ROOT / "src").resolve())
        if not str(Path(result["ctcsim_file"]).resolve()).startswith(src + os.sep):
            raise BenchError(f"imported {result['ctcsim_file']}, not the checkout's src/")
    if result is None or result["rc"] != 0:
        code = rc if result is None else result["rc"]
        tail = stderr.strip().splitlines()[-1:] or [""]
        rec["failed"], rec["problem"] = job["ops"], f"exit {code}: {tail[0]}"
    elif job["kind"] == "setup":
        rec["failed"], rec["problem"] = 0, ""
    else:
        rec["failed"], rec["problem"] = check_output(job, text, skew)
    return rec


def run_time_ns(rec: dict) -> int:
    return rec["result"]["t_done"] - rec["result"]["t_start"]


def setup_ns(rec: dict) -> int:
    return rec["result"]["t_ready"] - rec["t_launch"]


def same_output(a: dict, b: dict, what: str) -> bool:
    if a["sha256"] == b["sha256"]:
        return True
    sys.stderr.write(f"determinism: {what} differ at "
                     f"{checks.first_difference(a['stdout'], b['stdout'])}\n")
    return False


def setup_probe(deadline: float) -> dict:
    rec = run_child({"kind": "setup", "ops": 0}, False, deadline)
    if rec["result"] is None:
        raise BenchError(f"ctcsim does not start: {rec['problem']}")
    return rec


def run_calib(deadline: float) -> float:
    """Seconds from launch to exit of one bench/calib.py run."""
    t_launch = now_ns()
    proc = subprocess.run([sys.executable, str(BENCH / "calib.py")], capture_output=True,
                          env=CHILD_ENV, cwd=ROOT, timeout=max(5.0, deadline - time.monotonic()))
    t_exit = now_ns()
    if proc.returncode != 0:
        raise BenchError(f"calibration exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace').strip()[-200:]}")
    return (t_exit - t_launch) / 1e9


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- the two kinds of run ----------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float, size: str,
              skew: float, deadline: float) -> tuple[dict, list[dict], int, dict]:
    """End-to-end metrics, tracing off, scaled to the reference host speed."""
    setup_probe(deadline)  # fills bytecode caches; not counted
    run_calib(deadline)
    calib = [run_calib(deadline)]
    jobs: list[dict] = []
    begin = time.monotonic()
    while True:
        jobs.append(run_child(make_job(workload, seed, len(jobs), size), False, deadline, skew))
        calib.append(run_calib(deadline))
        cycle = statistics.median((j["t_exit"] - j["t_launch"]) / 1e9 for j in jobs) + calib[-1]
        # Stop when neither another job nor the repeat below would fit.
        if len(jobs) >= MIN_JOBS and time.monotonic() - begin + 2 * cycle > seconds:
            break
        if time.monotonic() > deadline:
            break
    # Job 0 again: two runs of the same code and input must print the same bytes.
    jobs.append(run_child(make_job(workload, seed, 0, size), False, deadline, skew))
    calib.append(run_calib(deadline))
    mismatches = 0 if same_output(jobs[0], jobs[-1], "two runs of job 0") else 1

    # Job i ran between calibrations i and i + 1.  One calibration is as noisy
    # as one job, so the speed around a job is taken from a window of them.
    for i, job in enumerate(jobs):
        near = calib[max(0, i + 1 - CALIB_WINDOW):i + 1 + CALIB_WINDOW]
        job["scale"] = CALIB_REF_S / statistics.median(near)
    ok = [j for j in jobs if j["result"] is not None]
    if not ok:
        raise BenchError(f"every job failed: {jobs[0]['problem']}")
    if workload == "compare_scalar":
        latencies = [ns * j["scale"] / 1e6 for j in ok for ns in j["result"]["latencies_ns"]]
    else:  # single operations inside one CLI call are not visible untraced
        latencies = [run_time_ns(j) * j["scale"] / 1e6 / j["ops"] for j in ok]
    metrics = {
        "setup_s": statistics.median(setup_ns(j) * j["scale"] for j in ok) / 1e9,
        "wall_s": statistics.median((j["t_exit"] - j["t_launch"]) * j["scale"] for j in ok) / 1e9,
        "ops_per_s": statistics.median(j["ops"] * 1e9 / (run_time_ns(j) * j["scale"])
                                       for j in ok),
        "call_p50_ms": statistics.median(latencies),
        "call_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": statistics.median(j["result"]["maxrss_kb"] / 1024 for j in ok),
    }
    samples = {
        "jobs": len(ok), "call_latencies": len(latencies), "calibrations": calib,
        "host_scale_median": statistics.median(j["scale"] for j in ok),
        "unscaled": {"setup_s": statistics.median(setup_ns(j) for j in ok) / 1e9,
                     "wall_s": statistics.median((j["t_exit"] - j["t_launch"]) / 1e9
                                                 for j in ok)},
    }
    return metrics, jobs, mismatches, samples


def import_times(deadline: float) -> tuple[float, float]:
    """(numpy, ctcsim without numpy) cumulative import seconds, from -X importtime."""
    numpy_us, ctcsim_us = 0, 0
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ctcsim.cli"],
                          capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT,
                          timeout=max(5.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"import ctcsim.cli failed: {proc.stderr.strip()[-200:]}")
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, name = int(parts[1]), parts[2]
        if name.strip() == "numpy":
            numpy_us = cumulative
        elif name.strip().split(".")[0] == "ctcsim" and not name.startswith("  "):
            ctcsim_us += cumulative  # top-level ctcsim imports
    return numpy_us / 1e6, max(0, ctcsim_us - numpy_us) / 1e6


def traced_run(workload: str, seed: int, seconds: float, size: str,
               skew: float, deadline: float) -> tuple[dict, list[dict], int, dict]:
    """Per-layer metrics: pairs of untraced and traced runs of job 0."""
    setup_probe(deadline)
    imports = [import_times(deadline) for _ in range(IMPORTTIME_RUNS)]
    job = make_job(workload, seed, 0, size)
    plain: list[dict] = []
    traced: list[dict] = []
    begin = time.monotonic()
    while True:
        plain.append(run_child(job, False, deadline, skew))
        traced.append(run_child(job, True, deadline, skew))
        pair_s = (traced[-1]["t_exit"] - plain[-1]["t_launch"]) / 1e9
        if time.monotonic() - begin + pair_s > seconds or time.monotonic() > deadline:
            break
    jobs = plain + traced
    mismatches = sum(not same_output(plain[0], j, "untraced and traced runs of job 0")
                     for j in jobs[1:])
    pairs = [(p, t) for p, t in zip(plain, traced)
             if p["result"] is not None and t["result"] is not None]
    if not pairs:
        raise BenchError(f"every job failed: {jobs[0]['problem']}")
    per_job = [tracer.layer_metrics(t["result"]["trace"], run_time_ns(t)) for _, t in pairs]
    counts = [{k: v for k, v in m.items() if PER_LAYER[k] == "count"} for m in per_job]
    if any(c != counts[0] for c in counts):
        sys.stderr.write("trace: per-layer counts differ between traced runs of job 0\n")
        mismatches += 1
    metrics = {k: (statistics.median(m[k] for m in per_job) if PER_LAYER[k] != "count"
                   else per_job[0][k]) for k in per_job[0]}
    metrics["setup.import_numpy_s"] = statistics.median(i[0] for i in imports)
    metrics["setup.import_ctcsim_s"] = statistics.median(i[1] for i in imports)
    metrics["trace.overhead_frac"] = statistics.median(
        run_time_ns(t) / run_time_ns(p) for p, t in pairs) - 1.0
    absent = pairs[0][1]["result"]["trace"]["absent"]
    (OUT / f"spans-{workload}-s{seed}.json").write_text(json.dumps(pairs[0][1]["result"]["trace"]))
    samples = {"pairs": len(pairs), "importtime": len(imports), "absent": absent}
    return metrics, jobs, mismatches, samples


# -- results -------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(jobs: list[dict], seed: int) -> dict:
    first = next((j["result"] for j in jobs if j["result"] is not None), {})
    return {
        "commit": git_commit(), "source_sha256": source_digest(), "seed": seed,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": first.get("python"),
        "numpy": first.get("numpy"), "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        skew: float = 0.0) -> dict:
    if not (ROOT / "src" / "ctcsim" / "cli.py").is_file():
        raise BenchError(f"no ctcsim sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    measure = traced_run if trace else timed_run
    try:
        metrics, jobs, mismatches, samples = measure(workload, seed, seconds, size, skew, deadline)
    finally:
        for scratch in OUT.glob(f"job-{os.getpid()}.*"):
            scratch.unlink()
    attempted = sum(j["ops"] for j in jobs)
    failed = min(attempted, sum(j["failed"] for j in jobs) + mismatches)
    problems = [j["problem"] for j in jobs if j["problem"]]
    if problems:
        sys.stderr.write(f"{workload}: {len(problems)} job(s) failed, first: {problems[0]}\n")
    units = PER_LAYER if trace else END_TO_END
    if trace:
        metrics["ops_failed_frac"] = failed / attempted
    summary = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record = {
        "workload": workload, "trace": trace, "seconds": seconds, "size": size,
        "environment": environment(jobs, seed), "samples": samples, **summary,
        "jobs": [{"ops": j["ops"], "failed": j["failed"], "problem": j["problem"],
                  "sha256": j["sha256"], "wall_s": (j["t_exit"] - j["t_launch"]) / 1e9,
                  "scale": j.get("scale")}
                 for j in jobs],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-s{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)  # the self-test's failure probe
    args = parser.parse_args(argv)
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                      skew=1e-3 if args.corrupt_reference else 0.0)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
