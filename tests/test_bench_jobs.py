"""The benchmark's two job kinds still run on this tree.

bench/child.py runs one job in a fresh interpreter: a CLI argv (a sweep or
a compare) through ctcsim.cli.main, or scenario.compare calls whose report
fields it prints.
A refactor that drops a name or a field the benchmark reads would otherwise
show only when the benchmark itself runs.  Each job runs as the benchmark
launches it, with its result file under tmp_path, no bytecode written and
the checkout's src/ first on the path; its stdout must match the golden
corpus.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

from ctcsim.cli import fixed

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"


def run_job(job: dict, tmp_path) -> tuple[str, dict]:
    result_path = tmp_path / "result.json"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, str(REPO / "bench" / "child.py"), json.dumps(job),
                           str(result_path)], capture_output=True, text=True, env=env,
                          cwd=REPO, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["rc"] == 0
    return proc.stdout, result


SWEEP_ARGV = ["sweep", "cnot", "alpha2", "0", "1", "101", "--model", "both", "--theta", "1.9",
              "--format", "csv"]


def test_cli_sweep_job(tmp_path):
    out, _ = run_job({"kind": "cli", "argv": SWEEP_ARGV, "trace": False}, tmp_path)
    assert out == (GOLDEN / "sweep_cnot_alpha2_101_both.txt").read_text()


def test_cli_chained_theta_sweep_job(tmp_path):
    # two blocks with an H between them: every local-gate and joint step of the chain
    argv = ["sweep", "chained_cnot_hadamard", "theta", "0", repr(math.pi), "101",
            "--alpha2", "0.3", "--model", "both", "--format", "csv"]
    out, _ = run_job({"kind": "cli", "argv": argv, "trace": False}, tmp_path)
    assert out == (GOLDEN / "sweep_chained_cnot_hadamard_theta_101_both.txt").read_text()


def test_cli_compare_job(tmp_path):
    argv = ["compare", "cnot", "--format", "csv"]
    out, _ = run_job({"kind": "cli", "argv": argv, "trace": False}, tmp_path)
    assert out == (GOLDEN / "compare_cnot.txt").read_text()


def test_traced_cli_sweep_job(tmp_path):
    # the tracer counts the records it sees passed to emit, one db and one
    # heisenberg record per point
    out, result = run_job({"kind": "cli", "argv": SWEEP_ARGV, "trace": True}, tmp_path)
    assert out == (GOLDEN / "sweep_cnot_alpha2_101_both.txt").read_text()
    assert result["trace"]["absent"] == []
    assert result["trace"]["counts"]["cli.records"] == 202


def test_traced_compare_job(tmp_path):
    # one line per call: name, alpha2, theta, db x y z, heisenberg x y z,
    # trace distance, flags; read here off the golden `compare` records of
    # each named scenario at the default and at the theta preparation.  The
    # job prints the library's values by repr; each, passed through the CLI's
    # printing rule, is the golden field.
    cases = [(name, prep, golden) for name in ("cz", "cnot", "chained_cnot_hadamard")
             for prep, golden in (((0.75, 0.0), name), ((0.3, 0.7), name + "_theta"))]
    out, result = run_job({"kind": "compare", "calls": [[name, *prep] for name, prep, _ in cases],
                           "trace": True}, tmp_path)
    lines = out.splitlines()
    assert len(lines) == len(cases)
    for line, (_, _, golden) in zip(lines, cases):
        _, db, heis = (row.split(",") for row in
                       (GOLDEN / f"compare_{golden}.txt").read_text().splitlines())
        name, alpha2, theta, *values, flags = line.split(" ")
        printed = [value if value in ("singular", "divergent", "unsupported")
                   else "" if value == "None" else fixed([float(value)])[0] for value in values]
        assert [name, alpha2, theta, *printed, flags] == [
            db[0], *db[2:4], *db[4:7], *heis[4:7], db[10], db[9]]
    assert result["trace"]["absent"] == []
    # each circuit back-propagates once per block and axis, on its first call
    recurrences = [span for span in result["trace"]["spans"] if span[1] == "heis.recurrence"]
    assert len(recurrences) == 12
