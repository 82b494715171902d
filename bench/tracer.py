"""Layer spans for ctcsim, recorded from outside the package.

The tracer replaces each entry point named in SPANS with a wrapper, at every
place inside the ``ctcsim`` package where that function object is bound (its
defining module and every ``from ... import`` of it), so the real CLI and
library code run unchanged underneath.  An entry point that no longer exists
is listed as absent and reports zero calls.

A span is ``[id, name, start_ns, end_ns, parent_id, root_id]``; every span
under one top-level call carries that call's id as ``root_id``.  Spans stay in
memory until ``dump`` writes them out with the counts taken at the same
boundaries.  ``layer_metrics`` turns a dump into the per-layer figures.
"""

from __future__ import annotations

import importlib
import sys
import time

# (span name, defining module, attribute).  The layer of a span is the part
# of its name before the first dot.
SPANS = (
    ("compile.tableau", "ctcsim.heisenberg_model", "tableau_from_unitary"),
    ("compile.circuit", "ctcsim.scenario", "heisenberg_circuit"),
    ("db.solve", "ctcsim.db_model", "solve_fixed_point"),
    ("db.bloch_affine", "ctcsim.db_model", "_bloch_affine"),
    ("db.ctc_map", "ctcsim.db_model", "ctc_map"),
    ("heis.bloch", "ctcsim.heisenberg_model", "heisenberg_bloch"),
    ("heis.recurrence", "ctcsim.heisenberg_model", "backpropagate_block"),
    ("heis.expectation", "ctcsim.heisenberg_model", "evaluate_expectation"),
    ("tp.conj_pair", "ctcsim.timed_pauli", "conj_pair"),
    ("tp.apply_local", "ctcsim.timed_pauli", "apply_local"),
    ("cli.records_for", "ctcsim.cli", "records_for"),
    ("cli.emit", "ctcsim.cli", "emit"),
    ("scenario.compare", "ctcsim.scenario", "compare"),
    ("scenario.run_db", "ctcsim.scenario", "run_db"),
    ("scenario.run_heisenberg", "ctcsim.scenario", "run_heisenberg"),
)

# Counted without a span, only at the listed binding sites: dense tensor
# products built by the engines, not by the CLI's random-gate generator.
COUNTED = (
    ("qlinalg.tensor", "ctcsim.qlinalg", "tensor",
     ("ctcsim.heisenberg_model", "ctcsim.db_model")),
)


def _gate_key(args) -> bytes:
    import numpy as np
    return np.asarray(args[0], dtype=complex).round(12).tobytes()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.counts: dict[str, float] = {
            "qlinalg.tensor.calls": 0, "compile.distinct_gates": 0,
            "db.degenerate": 0, "db.residual_max": 0.0,
            "heis.recurrence.labels": 0, "heis.unresolved": 0, "cli.records": 0,
        }
        self._gates: set[bytes] = set()

    # -- observers: read diagnostics off the values the layers return -------

    def _observe(self, name: str, args, result) -> None:
        c = self.counts
        if name == "compile.tableau" and args:
            self._gates.add(_gate_key(args))
            c["compile.distinct_gates"] = len(self._gates)
        elif name == "db.solve":
            c["db.degenerate"] += bool(getattr(result, "degenerate", False))
            c["db.residual_max"] = max(c["db.residual_max"],
                                       float(getattr(result, "residual", 0.0)))
        elif name == "heis.recurrence":
            c["heis.recurrence.labels"] += int(getattr(result, "labels_resolved", 0))
        elif name == "heis.bloch":
            statuses = getattr(result, "statuses", {})
            c["heis.unresolved"] += sum(1 for s in statuses.values() if s != "ok")
        elif name == "cli.emit" and args:
            c["cli.records"] += len(args[0])

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = name in ("compile.tableau", "db.solve", "heis.recurrence",
                           "heis.bloch", "cli.emit")

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            span = [sid, name, 0, 0, parent, spans[parent][5] if parent >= 0 else sid]
            spans.append(span)
            stack.append(sid)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe:
                self._observe(name, args, result)
            return result

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    @staticmethod
    def _lookup(modname: str, attr: str):
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            return None
        fn = getattr(mod, attr, None)
        return fn if callable(fn) else None

    def install(self) -> None:
        """Wrap every entry point wherever ctcsim binds it."""
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ctcsim" or n.startswith("ctcsim."))]
        for name, modname, attr in SPANS:
            original = self._lookup(modname, attr)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._span(name, original)
            for mod in package:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)
        for key, modname, attr, sites in COUNTED:
            original = self._lookup(modname, attr)
            if original is None:
                self.absent.append(key)
                continue
            wrapper = self._count(key + ".calls", original)
            for site in sites:
                mod = sys.modules.get(site)
                if mod is not None and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}


# -- aggregation (runs in the benchmark's parent process) -------------------


def self_times(spans: list[list]) -> tuple[dict[str, int], dict[str, int], int]:
    """Calls and self time (ns) per span name, and the time covered by roots.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, as calls are nested.
    """
    child_ns = [0] * len(spans)
    for sid, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    covered = 0
    for sid, name, start, end, parent, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[sid]
        if parent < 0:
            covered += end - start
    return calls, self_ns, covered


def layer_metrics(dump: dict, run_ns: int) -> dict[str, float]:
    """Per-layer figures of one traced job whose workload ran for run_ns."""
    calls, self_ns, covered = self_times(dump["spans"])
    counts = dump["counts"]

    def n(name: str) -> int:
        return calls.get(name, 0)

    def s(*names: str) -> float:
        return sum(self_ns.get(x, 0) for x in names) / 1e9

    compiles = n("compile.tableau")
    distinct = counts["compile.distinct_gates"]
    return {
        "compile.calls": compiles,
        "compile.self_s": s("compile.tableau", "compile.circuit"),
        "compile.us_per_call": s("compile.tableau") * 1e6 / compiles if compiles else 0.0,
        "compile.reuse_ratio": compiles / distinct if distinct else 0.0,
        "db.solve.calls": n("db.solve"),
        "db.solve.self_s": s("db.solve"),
        "db.bloch_affine.self_s": s("db.bloch_affine"),
        "db.ctc_map.calls": n("db.ctc_map"),
        "db.ctc_map.self_s": s("db.ctc_map"),
        "db.degenerate": counts["db.degenerate"],
        "db.residual_max": counts["db.residual_max"],
        "heis.bloch.self_s": s("heis.bloch"),
        "heis.recurrence.calls": n("heis.recurrence"),
        "heis.recurrence.self_s": s("heis.recurrence"),
        "heis.recurrence.labels": counts["heis.recurrence.labels"],
        "heis.expectation.calls": n("heis.expectation"),
        "heis.expectation.self_s": s("heis.expectation"),
        "heis.unresolved": counts["heis.unresolved"],
        "tp.conj_pair.calls": n("tp.conj_pair"),
        "tp.apply_local.calls": n("tp.apply_local"),
        "tp.self_s": s("tp.conj_pair", "tp.apply_local"),
        "qlinalg.tensor.calls": counts["qlinalg.tensor.calls"],
        "cli.records_for.calls": n("cli.records_for"),
        "cli.records_for.self_s": s("cli.records_for"),
        "cli.emit.self_s": s("cli.emit"),
        "cli.records": counts["cli.records"],
        "scenario.compare.calls": n("scenario.compare"),
        "scenario.run_db.self_s": s("scenario.run_db"),
        "scenario.run_heisenberg.self_s": s("scenario.run_heisenberg"),
        "trace.unattributed_frac": 1.0 - covered / run_ns if run_ns > 0 else 0.0,
    }
