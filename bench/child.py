"""One benchmark job, run in a fresh interpreter.

    python3 bench/child.py JOB_JSON RESULT_PATH

Set-up ends once ``ctcsim.cli`` is imported and its parser is built, which
is all a user's first command pays before any work.  The job then runs:

* ``cli``: the real ``ctcsim.cli.main`` on the job's argv, writing to stdout;
* ``compare``: ``scenario.compare`` on each preparation, each call timed,
  then one line per call on stdout;
* ``setup``: nothing.

With ``"trace": true`` the tracer wraps ctcsim's entry points after set-up.
Timestamps are CLOCK_MONOTONIC nanoseconds, the clock the parent reads when
it launches this process.  The result file is written when the job ends.
"""

import sys
import time

from ctcsim import cli

cli.build_parser()
T_READY = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (imported after set-up is timed)
import resource  # noqa: E402


def now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_compare(calls: list) -> tuple[list[int], list[str]]:
    from ctcsim import scenario
    from ctcsim.qlinalg import PureStateParams

    specs = [scenario.named_scenario(name, PureStateParams.from_alpha2(a2, th))
             for name, a2, th in calls]
    clock = time.perf_counter_ns
    latencies, reports = [], []
    for spec in specs:
        t0 = clock()
        report = scenario.compare(spec)
        latencies.append(clock() - t0)
        reports.append(report)
    lines = []
    for (name, a2, th), r in zip(calls, reports):
        heis = [repr(r.heisenberg.components[a]) if r.heisenberg.statuses[a] == "ok"
                else r.heisenberg.statuses[a] for a in ("x", "y", "z")]
        lines.append(" ".join([name, repr(a2), repr(th),
                               *map(repr, r.bloch_db.as_tuple()), *heis,
                               repr(r.trace_distance), ";".join(r.flags) or "-"]))
    return latencies, lines


def main() -> int:
    job = json.loads(sys.argv[1])
    result = {"t_ready": T_READY}
    tracer = None
    if job.get("trace"):
        import tracer as tracer_module
        tracer = tracer_module.Tracer()
        tracer.install()
    result["t_start"] = now()
    if job["kind"] == "cli":
        try:
            result["rc"] = cli.main(job["argv"])
        except SystemExit as exc:
            result["rc"] = exc.code
        sys.stdout.flush()
        result["t_done"] = now()
    elif job["kind"] == "compare":
        result["latencies_ns"], lines = run_compare(job["calls"])
        result["t_done"] = now()
        result["rc"] = 0
        sys.stdout.write("".join(line + "\n" for line in lines))
    else:
        result["t_done"] = result["t_start"]
        result["rc"] = 0
    import numpy
    import ctcsim
    result.update(
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        ctcsim_file=ctcsim.__file__,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
