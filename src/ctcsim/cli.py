"""Command-line front end: run scenarios through either engine, sweep, compare.

Config files are flat key-value text (dotted sections), diff-friendly and
parseable anywhere.  run, sweep and compare read a circuit:

    prep.alpha2 = 0.75
    prep.theta = 0.0
    block = cnot_swap
    block = cnot_swap
    locals = i2 h h
    overlap.kind = orthogonal_limit

and geometry reads geometry.hi, geometry.ho, geometry.transit and
geometry.c.  Each block line names one interaction gate; repeated block
lines keep their order.

Every command but geometry and conjecture-check prints records: rows of the
RECORD_FIELDS strings, as csv, key=value records or an aligned table.  An
engine value (x, y, z, residual, trace_distance) is printed by fixed, with
12 decimals, so float() reads it back within 5e-13; alpha2 and theta name
the grid point and are printed by repr, which float() reads back exactly.
A value that cannot be evaluated is its status token, "singular",
"divergent" or "unsupported" (never NaN), and a field an engine does not
fill is empty.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import math
import sys
from itertools import islice, repeat

import numpy as np

from . import qlinalg, scenario
from .db_model import DBBatch
from .heisenberg_model import HeisenbergBatch
from .qlinalg import CtcsimError, EngineError, Preparations, PureStateParams
from .scenario import BlockSpec, CircuitSpec, GeometryConfig, TimeDistribution

# The largest grid a sweep evaluates: every point's states and records live
# in memory at once (README gives the peak).
MAX_SWEEP_STEPS = 100_000


class ConfigError(CtcsimError, ValueError):
    pass


# -- config files ------------------------------------------------------------


def _vector(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split())


# The keys each subcommand reads, and the parser of each value: CIRCUIT_KEYS
# for run, sweep and compare, GEOMETRY_KEYS for geometry.
CIRCUIT_KEYS = {
    "prep.alpha2": float, "prep.theta": float, "block": BlockSpec, "locals": str.split,
    "overlap.kind": str, "overlap.d": float, "overlap.tau": float,
}
GEOMETRY_KEYS = {
    "geometry.hi": _vector, "geometry.ho": _vector,
    "geometry.transit": float, "geometry.c": float,
}


class Config(dict):
    """Parsed values by key, and the line each key is first given on."""

    def __init__(self) -> None:
        super().__init__()
        self.line: dict[str, int] = {}

    @contextlib.contextmanager
    def at(self, key: str):
        """Report a value that a check after parsing refuses on the key's line."""
        try:
            yield
        except CtcsimError as exc:
            raise ConfigError(f"line {self.line[key]}: {key}: {exc}") from exc


def parse_config_text(text: str, keys: dict = CIRCUIT_KEYS) -> Config:
    """Parse the flat key-value format into {key: value, "block": [BlockSpec, ...]}.

    An unknown key, a repeated key other than "block", an empty value, a
    value its parser refuses, and overlap.d or overlap.tau without
    overlap.kind = gaussian each raise a ConfigError that names the line.
    """
    out = Config()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}; known: {', '.join(keys)}")
        if key in out.line and key != "block":
            raise ConfigError(f"line {lineno}: {key} repeats line {out.line[key]}")
        if not value:
            raise ConfigError(f"line {lineno}: {key} has no value")
        out.line.setdefault(key, lineno)
        try:
            parsed = keys[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
        if key == "block":
            out.setdefault(key, []).append(parsed)
        else:
            out[key] = parsed
    for key in ("overlap.d", "overlap.tau"):
        if key in out and out.get("overlap.kind") != "gaussian":
            raise ConfigError(f"line {out.line[key]}: {key} needs overlap.kind = gaussian")
    return out


def _required(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config field {key!r}")
    return cfg[key]


def spec_from_config(cfg: Config) -> CircuitSpec:
    """The circuit of a parsed config, built one key at a time, so the check
    that refuses a value names that value's line."""
    blocks = tuple(_required(cfg, "block"))
    alpha2 = _required(cfg, "prep.alpha2")
    with cfg.at("prep.alpha2"):
        prep = PureStateParams(alpha2=alpha2)
    with cfg.at("prep.theta"):
        prep = prep._replace(theta=cfg.get("prep.theta", 0.0))
    kind = cfg.get("overlap.kind", "orthogonal_limit")
    if kind != "gaussian":
        with cfg.at("overlap.kind"):
            overlap = TimeDistribution(kind)
    else:
        with cfg.at("overlap.kind"):
            d, tau = _required(cfg, "overlap.d"), _required(cfg, "overlap.tau")
        with cfg.at("overlap.d"):  # d alone first, with the valid shift 0
            TimeDistribution.gaussian(d, 0.0)
        with cfg.at("overlap.tau"):
            overlap = TimeDistribution.gaussian(d, tau)
    with cfg.at("locals"):
        return CircuitSpec(prep, blocks,
                           tuple(cfg.get("locals", ("i2",) * (len(blocks) + 1))), overlap)


def geometry_from_config(cfg: dict) -> GeometryConfig:
    return GeometryConfig(
        hi_position=_required(cfg, "geometry.hi"),
        ho_position=_required(cfg, "geometry.ho"),
        external_transit_time=_required(cfg, "geometry.transit"),
        c=cfg.get("geometry.c", 299792458.0),
    )


def load_spec(target: str, args: argparse.Namespace) -> tuple[str, CircuitSpec]:
    """Resolve a scenario name or a --config path, then apply flag overrides."""
    if args.config and target:
        raise ConfigError(f"give a scenario name or --config, not both (got {target!r})")
    if args.config:
        with open(args.config) as fh:
            spec = spec_from_config(parse_config_text(fh.read()))
    else:
        spec = scenario.named_scenario(target)
    given = {"alpha2": args.alpha2, "theta": args.theta}
    prep = spec.prep._replace(**{k: v for k, v in given.items() if v is not None})
    overlap = spec.overlap
    if args.tau is not None and args.d is None:
        raise ConfigError("--tau needs --d: the shift only applies to gaussian overlap")
    if args.d is not None:
        overlap = TimeDistribution.gaussian(args.d, args.tau if args.tau is not None else 0.0)
    return target or "config", spec._replace(prep=prep, overlap=overlap)


# -- record production -------------------------------------------------------


RECORD_FIELDS = ("scenario", "model", "alpha2", "theta", "x", "y", "z",
                 "residual", "iterations", "flags", "trace_distance")


def records_for(name: str, preps: Preparations,
                db: DBBatch | None = None, heis: HeisenbergBatch | None = None,
                compare_flags: str = "", trace_distance: float | None = None,
                ) -> list[tuple[str, ...]]:
    """The records of N preparations as rows of RECORD_FIELDS strings, each
    point's db row before its heisenberg row.

    db and heis give the N results of each engine, or None for an engine
    that did not run.  Each numeric column is formatted once.
    """
    td = "" if trace_distance is None else fixed([trace_distance])[0]
    alpha2, theta = _text(preps.alpha2), _text(preps.theta)
    engines = []
    if db is not None:
        flags = tuple(_join_flags(degenerate, compare_flags) for degenerate in ("", "degenerate"))
        engines.append(zip(
            repeat(name), repeat("db"), alpha2, theta, *map(fixed, db.bloch.T.tolist()),
            fixed(db.residual.tolist()), repeat("0"),  # the direct solve does not iterate
            [flags[degenerate] for degenerate in db.degenerate.tolist()], repeat(td)))
    if heis is not None:
        statuses = [heis.statuses[axis] for axis in ("x", "y", "z")]
        values = [[value if status == "ok" else status
                   for value, status in zip(fixed(heis.values[axis].tolist()), column)]
                  for axis, column in zip(("x", "y", "z"), statuses)]
        # one flags string per distinct (x, y, z) status triple
        flags_of = functools.cache(lambda *point: _join_flags(
            ";".join(sorted(set(point) - {"ok"})), compare_flags))
        engines.append(zip(repeat(name), repeat("heisenberg"), alpha2, theta, *values,
                           repeat(""), repeat(""), map(flags_of, *statuses), repeat(td)))
    return [row for point in zip(*engines) for row in point]


def fixed(values: list[float]) -> list[str]:
    """Each value with 12 fixed decimals, the rule of every engine field; one
    that rounds to zero prints without a sign."""
    return [t[1:] if t == "-0.000000000000" else t for t in map("{:.12f}".format, values)]


def _text(column: np.ndarray) -> list[str]:
    """repr of each value.  A broadcast column, the parameter a sweep holds
    fixed, has one value, so it is formatted once and repeated."""
    if column.strides == (0,) and len(column):
        return [repr(column[0].item())] * len(column)
    return list(map(repr, column.tolist()))


def _join_flags(*parts: str) -> str:
    seen: list[str] = []
    for part in parts:
        for token in part.split(";"):
            if token and token not in seen:
                seen.append(token)
    return ";".join(seen)


# -- output formats ----------------------------------------------------------


# emit joins this many lines into each write: an unbuffered stdout (python -u,
# PYTHONUNBUFFERED) makes a system call of every write.
EMIT_LINES = 4096


def emit(rows: list[tuple[str, ...]], fmt: str, out) -> None:
    """Write rows of RECORD_FIELDS strings as csv, key=value records or an
    aligned table, whose column widths are those of the longest cells.

    The lines are built lazily and written EMIT_LINES at a time, one write
    call each.
    """
    if fmt == "csv":
        lines = (",".join(row) + "\n" for row in [RECORD_FIELDS, *rows])
    elif fmt == "records":
        line = " ".join(f"{key}={{}}" for key in RECORD_FIELDS) + "\n"
        lines = (line.format(*row) for row in rows)
    elif fmt == "table":
        rows = [RECORD_FIELDS, *rows]
        widths = [max(len(row[i]) for row in rows) for i in range(len(RECORD_FIELDS))]
        lines = ("  ".join(map(str.ljust, row, widths)).rstrip() + "\n" for row in rows)
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    while chunk := "".join(islice(lines, EMIT_LINES)):
        out.write(chunk)


# -- subcommands -------------------------------------------------------------


def _evaluate(name: str, spec: CircuitSpec, preps: Preparations, args) -> int:
    """Run the engines that --model names on every preparation and emit the records."""
    db = scenario.evaluate_db(spec, preps) if args.model in ("db", "both") else None
    heis = (scenario.evaluate_heisenberg(spec, preps)
            if args.model in ("heisenberg", "both") else None)
    emit(records_for(name, preps, db, heis), args.format, sys.stdout)
    return 0


def cmd_run(args) -> int:
    """The one-point sweep: the spec's own preparation as a batch of one."""
    name, spec = load_spec(args.target, args)
    return _evaluate(name, spec, spec.prep.batch, args)


def cmd_sweep(args) -> int:
    """Evaluate the circuit on the whole grid at once."""
    if getattr(args, args.param) is not None:
        raise ConfigError(f"--{args.param} is the swept parameter; give its range only")
    if not args.start < args.stop or not math.isfinite(args.stop - args.start):
        raise ConfigError(
            f"sweep range must be finite with from < to, got {args.start} .. {args.stop}")
    if not 2 <= args.steps <= MAX_SWEEP_STEPS:
        raise ConfigError(f"sweep needs 2 to {MAX_SWEEP_STEPS} steps, got {args.steps}")
    name, spec = load_spec(args.target, args)
    with np.errstate(over="ignore"):  # only the last point can overflow; linspace sets it to `to`
        grid = np.linspace(args.start, args.stop, args.steps)
    preps = Preparations(**{"alpha2": spec.prep.alpha2, "theta": spec.prep.theta,
                            args.param: grid})
    return _evaluate(name, spec, preps, args)


def cmd_compare(args) -> int:
    """run's records of both engines, each carrying their verdict."""
    name, spec = load_spec(args.target, args)
    preps = spec.prep.batch
    db, heis = scenario.evaluate_db(spec, preps), scenario.evaluate_heisenberg(spec, preps)
    report = scenario.verdict(db[0], heis[0])
    emit(records_for(name, preps, db, heis, ";".join(report.flags), report.trace_distance),
         args.format, sys.stdout)
    return 0


def cmd_geometry(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config_text(fh.read(), GEOMETRY_KEYS)
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
    for flag, value in (("--seed", args.seed), ("--trials", args.trials)):
        if value < 0:
            raise ConfigError(f"{flag} must not be negative, got {value}")
    rng = np.random.default_rng(args.seed)
    mismatches = 0
    degenerate_mismatches = 0
    unresolved = 0
    for trial in range(args.trials):
        ubar = _random_clifford(rng)
        alpha2 = float(rng.uniform(0.02, 0.98))
        if abs(math.sqrt(alpha2) - math.sqrt(1 - alpha2)) < 1e-3:
            alpha2 += 0.05
        prep = PureStateParams.from_alpha2(alpha2, float(rng.uniform(0, math.pi)))
        block = BlockSpec(qlinalg.SWAP @ ubar)  # the interaction U whose U_bar is ubar
        report = scenario.compare(CircuitSpec(prep, (block,), ("i2", "i2")))
        db_run, heis = report.db, report.heisenberg
        if "singular" in report.flags:
            unresolved += 1
            statuses = ",".join(f"{a}={s}" for a, s in sorted(heis.statuses.items()) if s != "ok")
            sys.stdout.write(f"trial={trial} status=unresolved {statuses}\n")
            continue
        tag = "MISMATCH" if "diverge" in report.flags else "agree"
        if tag == "MISMATCH":
            mismatches += 1
            if db_run.degenerate:
                degenerate_mismatches += 1
        sys.stdout.write(f"trial={trial} status={tag} max_delta={report.max_component_delta:.3e} "
                         f"degenerate={str(db_run.degenerate).lower()}\n")
    sys.stdout.write(
        f"summary trials={args.trials} mismatches={mismatches} "
        f"degenerate_mismatches={degenerate_mismatches} unresolved={unresolved}\n")
    return 0


# -- argument parsing --------------------------------------------------------


class _FloatToken:
    """Matches every token float() reads, -1e-3, -1e308 and -inf included."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """The parser of ctcsim and of its subcommands.  A token that starts with
    "-" is a value wherever float() reads it, not only in argparse's forms
    -1 and -.5; argparse asks the matcher in its private
    _negative_number_matcher, and tests/test_cli.py checks that it still does."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _FloatToken


def _add_common(p: argparse.ArgumentParser, with_model: bool = True) -> None:
    p.add_argument("--config", help="config file path, given instead of a scenario name")
    p.add_argument("--alpha2", type=float, help="|0> population of the prepared state")
    p.add_argument("--theta", type=float, help="preparation phase angle (radians)")
    p.add_argument("--tau", type=float, help="wormhole time shift for gaussian overlap")
    p.add_argument("--d", type=float, help="gaussian temporal width; enables gaussian overlap")
    p.add_argument("--format", choices=("table", "csv", "records"), default="table")
    if with_model:
        p.add_argument("--model", choices=("db", "heisenberg", "both"), default="both")


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    """Run one command and return its exit code.

    Every object that exists when the command starts is frozen out of the
    cyclic collector until it ends, however it ends, so the command's
    collections scan only what it allocates.  A caller that has frozen its
    own heap keeps its freeze, and the collector is left alone.
    """
    if gc.get_freeze_count():
        return _run(argv)
    gc.freeze()
    try:
        return _run(argv)
    finally:
        gc.unfreeze()


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "target", None) == "" and not getattr(args, "config", None):
        parser.error("give a scenario name or --config")
    try:
        return args.func(args)
    except EngineError as exc:
        sys.stderr.write(f"engine error: {exc}\n")
        return 1
    except (CtcsimError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
