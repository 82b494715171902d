"""Reference answers the benchmark derives itself, and the output checks.

Nothing here imports ctcsim.  The closed forms follow from the loop
condition rho = Tr_1[U (rho_in x rho) U^dag] for the prepared state
alpha e^{i theta}|0> + beta e^{-i theta}|1>, whose Bloch vector is
(2 alpha beta cos 2theta, -2 alpha beta sin 2theta, alpha^2 - beta^2):

* cnot (U = SWAP CNOT): the loop qubit is the control after the CNOT, so its
  coherence is scaled by its own x component, which forces x = y = 0 and
  z = 2 alpha2 - 1; the free qubit leaves as alpha^2 rho + beta^2 X rho X,
  Bloch (0, 0, (2 alpha2 - 1)^2).
* cz (U = SWAP CZ): the loop state dephases the input by its |1> weight
  beta^2 and the output dephases the loop state by the same weight, so x and
  y are scaled twice by 2 alpha2 - 1 and z is kept.
* chained_cnot_hadamard: the density-matrix engine returns the maximally
  mixed state, the Heisenberg engine returns the prepared state, and the
  trace distance between them is |r_prep| / 2.

Each check returns (operations failed, first problem or "").
"""

from __future__ import annotations

import math
import re

TOL = 1e-12  # references hold to ~5e-15 on random preparations
AGREE_ATOL = 1e-9  # the CLI's own agree threshold
RECORD_FIELDS = ("scenario,model,alpha2,theta,x,y,z,residual,iterations,"
                 "flags,trace_distance")


def prepared_bloch(alpha2: float, theta: float) -> tuple[float, float, float]:
    two_ab = 2.0 * math.sqrt(alpha2) * math.sqrt(1.0 - alpha2)
    return (two_ab * math.cos(2 * theta), -two_ab * math.sin(2 * theta), 2 * alpha2 - 1)


def reference(name: str, alpha2: float, theta: float) -> tuple[tuple, tuple]:
    """(density-matrix Bloch vector, Heisenberg Bloch vector) for a scenario."""
    r = prepared_bloch(alpha2, theta)
    k = (2 * alpha2 - 1) ** 2
    if name == "cnot":
        db = (0.0, 0.0, k)
        return db, db
    if name == "cz":
        db = (r[0] * k, r[1] * k, r[2])
        return db, db
    if name == "chained_cnot_hadamard":
        return (0.0, 0.0, 0.0), r
    raise ValueError(f"no reference for scenario {name!r}")


def _close(got, want, skew: float) -> bool:
    return all(abs(g - (w + skew)) <= TOL for g, w in zip(got, want))


def _floats(cells: list[str]) -> tuple[float, ...] | None:
    try:
        return tuple(float(c) for c in cells)
    except ValueError:
        return None  # a status token such as "singular"


def check_sweep(text: str, scenario: str, models: tuple[str, ...], param: str,
                start: float, stop: float, steps: int, fixed: float,
                skew: float = 0.0) -> tuple[int, str]:
    """One operation per grid point: every model's record must match."""
    lines = text.splitlines()
    if not lines or lines[0] != RECORD_FIELDS:
        return steps, "csv header missing or changed"
    rows = lines[1:]
    failed, problem = 0, ""
    for i in range(steps):
        value = start + i * (stop - start) / (steps - 1)
        alpha2, theta = (value, fixed) if param == "alpha2" else (fixed, value)
        want = dict(zip(("db", "heisenberg"), reference(scenario, alpha2, theta)))
        point = rows[i * len(models):(i + 1) * len(models)]
        bad = ""
        if len(point) != len(models):
            bad = "record missing"
        for model, row in zip(models, point):
            cells = row.split(",")
            nums = _floats(cells[2:7]) if len(cells) == 11 else None
            if cells[:2] != [scenario, model] or nums is None:
                bad = f"malformed record {row!r}"
            elif abs(nums[0] - alpha2) > TOL or abs(nums[1] - theta) > TOL:
                bad = f"grid point echoed as {nums[:2]}, expected {(alpha2, theta)}"
            elif not _close(nums[2:], want[model], skew):
                bad = f"{model} Bloch {nums[2:]} != reference {want[model]}"
            elif model == "heisenberg" and cells[9]:
                bad = f"heisenberg flags {cells[9]!r}"
        if bad:
            failed += 1
            problem = problem or f"point {i}: {bad}"
    if len(rows) != steps * len(models):
        problem = problem or f"{len(rows)} records, expected {steps * len(models)}"
        failed = max(failed, 1)
    return failed, problem


_TRIAL = re.compile(
    r"trial=(\d+) status=(?:(agree|MISMATCH) max_delta=(\S+) degenerate=(true|false)"
    r"|(unresolved)(?: [xyz]=\w+(?:,[xyz]=\w+)*)?)$")
_SUMMARY = re.compile(r"summary trials=(\d+) mismatches=(\d+) "
                      r"degenerate_mismatches=(\d+) unresolved=(\d+)$")


def check_conjecture(text: str, trials: int, skew: float = 0.0) -> tuple[int, str]:
    """One operation per trial; unresolved trials are coverage, not failures."""
    lines = text.splitlines()
    failed, problem = 0, ""
    tally = [0, 0, 0]  # mismatches, degenerate mismatches, unresolved
    for i in range(trials):
        m = _TRIAL.match(lines[i]) if i < len(lines) else None
        bad = ""
        if m is None or int(m.group(1)) != i:
            bad = "missing or unparseable"
        elif m.group(5):
            tally[2] += 1
        elif m.group(2) == "MISMATCH":
            tally[0] += 1
            tally[1] += m.group(4) == "true"
            if m.group(4) == "false":
                bad = "MISMATCH on a non-degenerate fixed point"
        elif not float(m.group(3)) < AGREE_ATOL - skew:
            bad = f"agree with max_delta={m.group(3)}"
        if bad:
            failed += 1
            problem = problem or f"trial {i}: {bad}"
    summary = _SUMMARY.match(lines[trials]) if len(lines) == trials + 1 else None
    if summary is None or [int(g) for g in summary.groups()] != [trials, *tally]:
        failed = min(trials, failed + 1)
        problem = problem or f"summary does not match the trial lines ({tally})"
    return failed, problem


def check_compare(text: str, calls: list, skew: float = 0.0) -> tuple[int, str]:
    """One operation per compare call; see the module docstring."""
    lines = text.splitlines()
    failed, problem = 0, ""
    for i, (name, alpha2, theta) in enumerate(calls):
        cells = lines[i].split(" ") if i < len(lines) else []
        nums = _floats(cells[3:10]) if len(cells) == 11 else None
        bad = ""
        if nums is None or cells[:3] != [name, repr(alpha2), repr(theta)]:
            bad = f"malformed line {cells}"
        else:
            db, heis = reference(name, alpha2, theta)
            if name == "chained_cnot_hadamard":
                flag, dist = "diverge", math.hypot(*prepared_bloch(alpha2, theta)) / 2
            else:
                flag, dist = "agree", 0.0
            if not _close(nums[0:3], db, skew):
                bad = f"density-matrix Bloch {nums[0:3]} != reference {db}"
            elif not _close(nums[3:6], heis, skew):
                bad = f"Heisenberg Bloch {nums[3:6]} != reference {heis}"
            elif abs(nums[6] - dist) > AGREE_ATOL:
                bad = f"trace distance {nums[6]} != {dist}"
            elif cells[10] != flag:
                bad = f"flags {cells[10]!r} != {flag!r}"
        if bad:
            failed += 1
            problem = problem or f"call {i} ({name}): {bad}"
    if len(lines) != len(calls):
        failed = max(failed, 1)
        problem = problem or f"{len(lines)} lines for {len(calls)} calls"
    return failed, problem


def first_difference(a: str, b: str) -> str:
    """The first line at which two outputs differ, for the determinism report."""
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x!r} != {y!r}"
    return f"line {min(len(la), len(lb)) + 1}: one output ends ({len(la)} vs {len(lb)} lines)"
