"""Command-line front end: run scenarios through either engine, sweep, compare.

Config files are flat key-value text (dotted sections), diff-friendly and
parseable anywhere:

    prep.alpha2 = 0.75
    prep.theta = 0.0
    block = cnot_swap with_swap
    block = cnot_swap with_swap
    locals = i2 h h
    overlap.kind = orthogonal_limit
    geometry.hi = 0 0
    geometry.ho = 3e8 0
    geometry.transit = 1.5
    geometry.c = 3e8

Repeated "block" lines keep their order.  Values that cannot be evaluated
are emitted as the literal token "singular" (never NaN).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import db_model, heisenberg_model, qlinalg, scenario
from .heisenberg_model import TimeDistribution
from .qlinalg import PureStateParams
from .scenario import CircuitSpec, BlockSpec, GeometryConfig, ScenarioError

RECORD_FIELDS = ("scenario", "model", "alpha2", "theta", "x", "y", "z",
                 "residual", "iterations", "flags", "trace_distance")


class ConfigError(ValueError):
    pass


@dataclass
class RunRecord:
    scenario: str
    model: str
    alpha2: float
    theta: float
    x: float | str | None
    y: float | str | None
    z: float | str | None
    residual: float | None = None
    iterations: int | None = None
    flags: str = ""
    trace_distance: float | None = None

    def values(self) -> list[str]:
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                out.append("")
            elif isinstance(v, float):
                out.append(repr(v))
            else:
                out.append(str(v))
        return out


def parse_record_line(line: str) -> RunRecord:
    """Inverse of the csv row serialization (used by tests and downstream tools)."""
    parts = line.rstrip("\n").split(",")
    if len(parts) != len(RECORD_FIELDS):
        raise ConfigError(f"record line has {len(parts)} fields, expected {len(RECORD_FIELDS)}")
    raw = dict(zip(RECORD_FIELDS, parts))

    def num(key: str) -> float | str | None:
        v = raw[key]
        if v == "":
            return None
        if v == "singular" or v == "divergent" or v == "unsupported":
            return v
        return float(v)

    return RunRecord(
        scenario=raw["scenario"], model=raw["model"],
        alpha2=float(raw["alpha2"]), theta=float(raw["theta"]),
        x=num("x"), y=num("y"), z=num("z"),
        residual=None if raw["residual"] == "" else float(raw["residual"]),
        iterations=None if raw["iterations"] == "" else int(raw["iterations"]),
        flags=raw["flags"],
        trace_distance=None if raw["trace_distance"] == "" else float(raw["trace_distance"]),
    )


# -- config files ------------------------------------------------------------


def parse_config_text(text: str) -> dict:
    """Parse the flat key-value format into {key: str, "block": [(gate, conv), ...]}."""
    out: dict = {"block": []}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "block":
            parts = value.split()
            if len(parts) == 1:
                parts.append("with_swap")
            if len(parts) != 2:
                raise ConfigError(f"line {lineno}: block wants 'gate [convention]', got {value!r}")
            out["block"].append((parts[0], parts[1]))
        else:
            out[key] = value
    return out


def _cfg_float(cfg: dict, key: str, default: float | None = None) -> float:
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"missing config field {key!r}")
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config field {key!r} is not a number: {cfg[key]!r}") from exc


def _cfg_vector(cfg: dict, key: str, optional: bool = False) -> tuple[float, ...]:
    if key not in cfg:
        if optional:
            return ()
        raise ConfigError(f"missing config field {key!r}")
    try:
        return tuple(float(x) for x in cfg[key].split())
    except ValueError as exc:
        raise ConfigError(f"config field {key!r} is not a vector: {cfg[key]!r}") from exc


def spec_from_config(cfg: dict) -> CircuitSpec:
    try:
        prep = PureStateParams.from_alpha2(
            _cfg_float(cfg, "prep.alpha2"), _cfg_float(cfg, "prep.theta", 0.0))
    except qlinalg.QlinalgError as exc:
        raise ConfigError(f"config fields 'prep.*': {exc}") from exc
    if not cfg["block"]:
        raise ConfigError("missing config field 'block' (at least one)")
    try:
        blocks = tuple(BlockSpec(g, c) for g, c in cfg["block"])
    except ScenarioError as exc:
        raise ConfigError(f"config field 'block': {exc}") from exc
    local_names = tuple(cfg.get("locals", "").split()) or ("i2",) * (len(blocks) + 1)
    kind = cfg.get("overlap.kind", "orthogonal_limit")
    if kind == "gaussian":
        overlap = _gaussian(_cfg_float(cfg, "overlap.d"), _cfg_float(cfg, "overlap.tau"))
    elif kind == "orthogonal_limit":
        overlap = TimeDistribution.orthogonal()
    else:
        raise ConfigError(f"config field 'overlap.kind' unknown: {kind!r}")
    try:
        return CircuitSpec(prep=prep, blocks=blocks, local_gates=local_names, overlap=overlap)
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc


def geometry_from_config(cfg: dict) -> GeometryConfig:
    try:
        geometry = GeometryConfig(
            hi_position=_cfg_vector(cfg, "geometry.hi"),
            ho_position=_cfg_vector(cfg, "geometry.ho"),
            external_transit_time=_cfg_float(cfg, "geometry.transit"),
            c=_cfg_float(cfg, "geometry.c", 299792458.0),
        )
    except ScenarioError as exc:
        raise ConfigError(str(exc)) from exc
    # Mouth displacement, time shift and per-traversal shifts: read and
    # checked so a malformed file still fails, but unused by the check.
    _cfg_vector(cfg, "geometry.epsilon", optional=True)
    _cfg_vector(cfg, "geometry.delta_x", optional=True)
    _cfg_float(cfg, "geometry.delta_t", 0.0)
    if not 0 <= _cfg_float(cfg, "geometry.tau", 0.0) < math.inf:
        raise ConfigError("time shift tau must be finite and non-negative")
    return geometry


def _gaussian(d: float, tau: float) -> TimeDistribution:
    try:
        return TimeDistribution.gaussian(d, tau)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_spec(target: str, args: argparse.Namespace) -> tuple[str, CircuitSpec]:
    """Resolve a scenario name or a --config path, then apply flag overrides."""
    if args.config:
        with open(args.config) as fh:
            spec = spec_from_config(parse_config_text(fh.read()))
        name = target or "config"
    else:
        spec = scenario.named_scenario(target)
        name = target
    prep = spec.prep
    if args.alpha2 is not None or args.theta is not None:
        alpha2 = args.alpha2 if args.alpha2 is not None else prep.alpha**2
        theta = args.theta if args.theta is not None else prep.theta
        prep = PureStateParams.from_alpha2(alpha2, theta)
    overlap = spec.overlap
    if args.tau is not None and args.d is None:
        raise ConfigError("--tau needs --d: the shift only applies to gaussian overlap")
    if args.d is not None:
        overlap = _gaussian(args.d, args.tau if args.tau is not None else 0.0)
    return name, CircuitSpec(prep=prep, blocks=spec.blocks,
                             local_gates=spec.local_gates, overlap=overlap)


# -- record production -------------------------------------------------------


def _mark(value: float | None, status: str) -> float | str:
    return value if status == "ok" else status


def records_for(name: str, spec: CircuitSpec, model: str,
                with_compare: bool = False) -> list[RunRecord]:
    alpha2 = spec.prep.alpha**2
    theta = spec.prep.theta
    recs: list[RunRecord] = []
    tdist = None
    compare_flags = ""
    db_run = heis = None
    if with_compare:
        report = scenario.compare(spec)
        db_run, heis = report.db, report.heisenberg
        tdist = report.trace_distance
        compare_flags = ";".join(report.flags)
    if model in ("db", "both"):
        db_run = db_run or scenario.run_db(spec)
        recs.append(RunRecord(
            scenario=name, model="db", alpha2=alpha2, theta=theta,
            x=db_run.bloch.rx, y=db_run.bloch.ry, z=db_run.bloch.rz,
            residual=db_run.residual, iterations=db_run.iterations,
            flags=_join_flags("degenerate" if db_run.degenerate else "", compare_flags),
            trace_distance=tdist))
    if model in ("heisenberg", "both"):
        heis = heis or scenario.run_heisenberg(spec)
        bad = sorted({s for s in heis.statuses.values() if s != "ok"})
        recs.append(RunRecord(
            scenario=name, model="heisenberg", alpha2=alpha2, theta=theta,
            x=_mark(heis.components["x"], heis.statuses["x"]),
            y=_mark(heis.components["y"], heis.statuses["y"]),
            z=_mark(heis.components["z"], heis.statuses["z"]),
            flags=_join_flags(";".join(bad), compare_flags),
            trace_distance=tdist))
    return recs


def _join_flags(*parts: str) -> str:
    seen: list[str] = []
    for part in parts:
        for token in part.split(";"):
            if token and token not in seen:
                seen.append(token)
    return ";".join(seen)


# -- output formats ----------------------------------------------------------


def emit(records: list[RunRecord], fmt: str, out) -> None:
    if fmt == "csv":
        out.write(",".join(RECORD_FIELDS) + "\n")
        for r in records:
            out.write(",".join(r.values()) + "\n")
    elif fmt == "records":
        for r in records:
            out.write(" ".join(f"{k}={v}" for k, v in zip(RECORD_FIELDS, r.values())) + "\n")
    elif fmt == "table":
        rows = [RECORD_FIELDS] + [tuple(r.values()) for r in records]
        widths = [max(len(row[i]) for row in rows) for i in range(len(RECORD_FIELDS))]
        for row in rows:
            out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")
    else:
        raise ConfigError(f"unknown format {fmt!r}")


# -- subcommands -------------------------------------------------------------


def cmd_run(args) -> int:
    name, spec = load_spec(args.target, args)
    records = records_for(name, spec, args.model)
    emit(records, args.format, sys.stdout)
    return 0


def cmd_sweep(args) -> int:
    if not -math.inf < args.start < args.stop < math.inf:
        raise ConfigError(
            f"sweep range must be finite with from < to, got {args.start} .. {args.stop}")
    if args.steps < 2:
        raise ConfigError(f"sweep needs at least 2 steps, got {args.steps}")
    name, spec = load_spec(args.target, args)
    records: list[RunRecord] = []
    for value in np.linspace(args.start, args.stop, args.steps):
        if args.param == "alpha2":
            prep = PureStateParams.from_alpha2(float(value), spec.prep.theta)
        else:
            prep = PureStateParams.from_alpha2(spec.prep.alpha**2, float(value))
        point = CircuitSpec(prep=prep, blocks=spec.blocks,
                            local_gates=spec.local_gates, overlap=spec.overlap)
        records.extend(records_for(name, point, args.model))
    emit(records, args.format, sys.stdout)
    return 0


def cmd_compare(args) -> int:
    name, spec = load_spec(args.target, args)
    records = records_for(name, spec, "both", with_compare=True)
    emit(records, args.format, sys.stdout)
    return 0


def cmd_geometry(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config_text(fh.read())
    check = scenario.validate_geometry(geometry_from_config(cfg))
    verdict = "ok" if check.ok else "violation"
    sys.stdout.write(f"{verdict} margin={check.margin!r}\n")
    return 0 if check.ok else 1


def _random_clifford(rng: np.random.Generator) -> np.ndarray:
    """Random two-qubit Clifford as a word in {H, S} per qubit and CZ."""
    pool = [
        qlinalg.tensor(qlinalg.HADAMARD, qlinalg.I2),
        qlinalg.tensor(qlinalg.I2, qlinalg.HADAMARD),
        qlinalg.tensor(qlinalg.PHASE_S, qlinalg.I2),
        qlinalg.tensor(qlinalg.I2, qlinalg.PHASE_S),
        qlinalg.CZ,
    ]
    u = qlinalg.I4.copy()
    for _ in range(20):
        u = pool[rng.integers(len(pool))] @ u
    return u


def cmd_conjecture_check(args) -> int:
    """Survey random two-qubit Cliffords for cross-engine agreement.

    Exploratory: mismatches and unresolvable blocks are reported, never fatal.
    """
    rng = np.random.default_rng(args.seed)
    mismatches = 0
    degenerate_mismatches = 0
    unresolved = 0
    for trial in range(args.trials):
        ubar = _random_clifford(rng)
        tableau = heisenberg_model.tableau_from_unitary(ubar)
        alpha2 = float(rng.uniform(0.02, 0.98))
        if abs(math.sqrt(alpha2) - math.sqrt(1 - alpha2)) < 1e-3:
            alpha2 += 0.05
        prep = PureStateParams.from_alpha2(alpha2, float(rng.uniform(0, math.pi)))
        circuit = heisenberg_model.HeisenbergCircuit(
            blocks=(tableau,),
            local_gates=(scenario.local_clifford("i2"), scenario.local_clifford("i2")))
        heis = heisenberg_model.heisenberg_bloch(circuit, prep)
        u_db = qlinalg.SWAP @ ubar
        sol = db_model.solve_fixed_point(u_db, prep.density(), method="eigen")
        db_bloch = qlinalg.bloch_from_density(sol.output)
        if not heis.all_ok:
            unresolved += 1
            statuses = ",".join(f"{a}={s}" for a, s in sorted(heis.statuses.items()) if s != "ok")
            sys.stdout.write(f"trial={trial} status=unresolved {statuses}\n")
            continue
        delta = max(abs(a - heis.components[axis]) for a, axis in
                    zip(db_bloch.as_tuple(), ("x", "y", "z")))
        tag = "agree" if delta < scenario.COMPARISON_ATOL else "MISMATCH"
        if tag == "MISMATCH":
            mismatches += 1
            if sol.degenerate:
                degenerate_mismatches += 1
        sys.stdout.write(f"trial={trial} status={tag} max_delta={delta:.3e} "
                         f"degenerate={str(sol.degenerate).lower()}\n")
    sys.stdout.write(
        f"summary trials={args.trials} mismatches={mismatches} "
        f"degenerate_mismatches={degenerate_mismatches} unresolved={unresolved}\n")
    return 0


# -- argument parsing --------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_model: bool = True) -> None:
    p.add_argument("--config", help="config file path (overrides the scenario name)")
    p.add_argument("--alpha2", type=float, help="|0> population of the prepared state")
    p.add_argument("--theta", type=float, help="preparation phase angle (radians)")
    p.add_argument("--tau", type=float, help="wormhole time shift for gaussian overlap")
    p.add_argument("--d", type=float, help="gaussian temporal width; enables gaussian overlap")
    p.add_argument("--format", choices=("table", "csv", "records"), default="table")
    if with_model:
        p.add_argument("--model", choices=("db", "heisenberg", "both"), default="both")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctcsim",
        description="Scatter a qubit off a wormhole time machine in two independent models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario or config")
    p_run.add_argument("target", nargs="?", default="",
                       help=f"scenario name ({', '.join(scenario.scenario_names())})")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep a preparation parameter over a grid")
    p_sweep.add_argument("target", nargs="?", default="")
    p_sweep.add_argument("param", choices=("alpha2", "theta"))
    p_sweep.add_argument("start", type=float, metavar="from")
    p_sweep.add_argument("stop", type=float, metavar="to")
    p_sweep.add_argument("steps", type=int)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="run both engines and reconcile")
    p_cmp.add_argument("target", nargs="?", default="")
    _add_common(p_cmp, with_model=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_geo = sub.add_parser("geometry", help="check the no-signaling transit inequality")
    p_geo.add_argument("--config", required=True)
    p_geo.set_defaults(func=cmd_geometry)

    p_conj = sub.add_parser("conjecture-check",
                            help="survey random Cliffords for cross-engine agreement")
    p_conj.add_argument("--seed", type=int, default=0)
    p_conj.add_argument("--trials", type=int, default=20)
    p_conj.set_defaults(func=cmd_conjecture_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "target", None) == "" and not getattr(args, "config", None):
        parser.error("give a scenario name or --config")
    try:
        return args.func(args)
    except (ConfigError, ScenarioError, qlinalg.QlinalgError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (db_model.FixedPointError,
            heisenberg_model.NotCliffordError,
            heisenberg_model.UnsupportedOverlapError) as exc:
        sys.stderr.write(f"engine error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
