"""Golden CLI corpus: refactors below the CLI must not move a single byte.

Each case is an argv whose stdout is stored under tests/golden/<name>.txt.
run, sweep and compare output must match byte for byte.  Every engine value
in them (x, y, z, residual, trace_distance) is printed with 12 fixed
decimals, so a kernel that reaches a value by another route, a last bit
apart, prints the same bytes; alpha2 and theta are printed by repr.  Each
file's fields are checked against that rule here too.  conjecture-check
prints a max_delta that depends on floating-point summation order, so it is
compared field by field: identical status, degenerate and summary fields,
and each max_delta within 1e-12 of the stored value.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files whose own check fails.
"""

import contextlib
import io
import math
import pathlib
import re
import sys

import pytest

from ctcsim.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
PI = repr(math.pi)

CASES: dict[str, list[str]] = {}
for _name in ("cnot", "cz", "chained_cnot_hadamard"):
    CASES[f"run_{_name}"] = ["run", _name, "--format", "csv"]
    CASES[f"run_{_name}_theta"] = ["run", _name, "--alpha2", "0.3", "--theta", "0.7",
                                   "--format", "csv"]
    CASES[f"sweep_{_name}_alpha2"] = ["sweep", _name, "alpha2", "0", "1", "11",
                                      "--format", "csv"]
    CASES[f"sweep_{_name}_theta"] = ["sweep", _name, "theta", "0", PI, "11",
                                     "--alpha2", "0.3", "--format", "csv"]
    CASES[f"compare_{_name}"] = ["compare", _name, "--format", "csv"]
    CASES[f"compare_{_name}_theta"] = ["compare", _name, "--alpha2", "0.3", "--theta", "0.7",
                                       "--format", "csv"]
CASES["run_cz_gaussian"] = ["run", "cz", "--d", "0.5", "--tau", "1.0", "--format", "csv"]
# Gaussian overlap on words it cannot evaluate: the unsupported status.
CASES["compare_cnot_gaussian"] = ["compare", "cnot", "--d", "1", "--tau", "0.5",
                                  "--format", "csv"]
CASES["compare_cz_gaussian"] = ["compare", "cz", "--d", "0.5", "--tau", "1.0",
                                "--format", "csv"]
# Sweeps whose every point must match the scalar evaluation bit for bit: a
# 101-point grid where a batched pseudo-inverse would flip last bits, one
# engine at a time, gaussian overlap, and a config circuit of two blocks.
CASES["sweep_cnot_alpha2_101_both"] = ["sweep", "cnot", "alpha2", "0", "1", "101", "--model",
                                       "both", "--theta", "1.9", "--format", "csv"]
# A 101-point theta grid of the two-block circuit: the H local between blocks
# and every per-state step of the chain, on one stack.
CASES["sweep_chained_cnot_hadamard_theta_101_both"] = [
    "sweep", "chained_cnot_hadamard", "theta", "0", PI, "101", "--alpha2", "0.3",
    "--model", "both", "--format", "csv"]
for _model in ("db", "heisenberg"):
    CASES[f"sweep_cz_theta_{_model}"] = ["sweep", "cz", "theta", "0", PI, "11", "--alpha2", "0.3",
                                         "--model", _model, "--format", "csv"]
CASES["sweep_cz_alpha2_gaussian"] = ["sweep", "cz", "alpha2", "0", "1", "11", "--d", "0.5",
                                     "--tau", "1.0", "--format", "csv"]
CASES["sweep_config_chained_theta"] = ["sweep", "--config", str(CONFIGS / "chained.cfg"),
                                       "theta", "0", PI, "11", "--format", "csv"]
# run is the one-point sweep: one engine at a time, and the two other formats.
CASES["run_cz_db"] = ["run", "cz", "--model", "db", "--format", "csv"]
CASES["run_chained_cnot_hadamard_heisenberg"] = [
    "run", "chained_cnot_hadamard", "--model", "heisenberg", "--alpha2", "0.3", "--theta", "2",
    "--format", "csv"]
for _fmt in ("table", "records"):
    CASES[f"run_cnot_{_fmt}"] = ["run", "cnot", "--format", _fmt]
# Many rows in table and records: status tokens next to numbers, empty
# trailing table cells, the degenerate and singular flags, -0.0, and joined
# flags whose order must hold (degenerate;singular beside singular;degenerate).
CASES["sweep_cz_alpha2_gaussian_table"] = ["sweep", "cz", "alpha2", "0", "1", "5", "--d", "0.5",
                                           "--tau", "1.0", "--format", "table"]
CASES["sweep_cnot_alpha2_records"] = ["sweep", "cnot", "alpha2", "0", "1", "5",
                                      "--format", "records"]
CASES["compare_chained_cnot_hadamard_table"] = ["compare", "chained_cnot_hadamard",
                                                "--format", "table"]
CASES["compare_cnot_records"] = ["compare", "cnot", "--alpha2", "0.5", "--format", "records"]
for _name, _cfg in (("run_config_chained", CONFIGS / "chained.cfg"),
                    ("run_config_gaussian_cz", CONFIGS / "gaussian_cz.cfg"),
                    ("compare_config_chained", CONFIGS / "chained.cfg"),
                    ("run_config_bare_s_local", GOLDEN / "bare_s_local.cfg")):
    CASES[_name] = [_name.split("_", 1)[0], "--config", str(_cfg), "--format", "csv"]
# Two-block circuits whose identity local follows a non-identity one, which
# no named circuit has: a compare and a sweep of each.
for _locals in ("x_i2_s", "i_y_i2"):
    _cfg = str(GOLDEN / f"mixed_locals_{_locals}.cfg")
    CASES[f"compare_config_mixed_locals_{_locals}"] = ["compare", "--config", _cfg,
                                                       "--format", "csv"]
    CASES[f"sweep_config_mixed_locals_{_locals}_alpha2"] = [
        "sweep", "--config", _cfg, "alpha2", "0", "1", "11", "--format", "csv"]

CONJECTURE = ["conjecture-check", "--seed", "7", "--trials", "200"]
MAX_DELTA_ATOL = 1e-12


def cli_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert cli_stdout(CASES[name]) == expected


ENGINE_FIELDS = ("x", "y", "z", "residual", "trace_distance")
FIXED_FIELD = re.compile(r"-?\d+\.\d{12}")
STATUS_TOKENS = ("", "singular", "divergent", "unsupported")


def golden_records(name: str) -> list[dict[str, str]]:
    """The records of a golden file, each a dict of its field strings, read
    in the format its argv names."""
    lines = (GOLDEN / f"{name}.txt").read_text().splitlines()
    argv = CASES[name]
    fmt = argv[argv.index("--format") + 1]
    if fmt == "records":
        return [dict(cell.split("=", 1) for cell in line.split(" ")) for line in lines]
    header, *rows = lines
    if fmt == "csv":
        return [dict(zip(header.split(","), row.split(","), strict=True)) for row in rows]
    starts = [word.start() for word in re.finditer(r"\S+", header)] + [None]
    return [{key: row[a:b].strip() for key, a, b in zip(header.split(), starts, starts[1:])}
            for row in rows]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fields_follow_the_printing_rule(name):
    records = golden_records(name)
    assert records
    for record in records:
        for key in ENGINE_FIELDS:
            field = record[key]
            assert field in STATUS_TOKENS or FIXED_FIELD.fullmatch(field), (key, field)
            assert field != "-0.000000000000"
        for key in ("alpha2", "theta"):
            assert repr(float(record[key])) == record[key]


def _fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split()[1:])


def conjecture_difference(got: str, expected: str) -> tuple[str, str] | None:
    """The first (got, expected) line pair that differs beyond max_delta rounding."""
    got_lines, expected_lines = got.splitlines(), expected.splitlines()
    if len(got_lines) != len(expected_lines):
        return f"{len(got_lines)} lines", f"{len(expected_lines)} lines"
    for g, e in zip(got_lines, expected_lines):
        gf, ef = _fields(g), _fields(e)
        same = g.split()[0] == e.split()[0] and gf.keys() == ef.keys() and all(
            abs(float(gf[key]) - float(ef[key])) <= MAX_DELTA_ATOL if key == "max_delta"
            else gf[key] == ef[key] for key in ef)
        if not same:
            return g, e
    return None


def test_conjecture_check_matches_up_to_max_delta_rounding():
    expected = (GOLDEN / "conjecture_check.txt").read_text()
    assert conjecture_difference(cli_stdout(CONJECTURE), expected) is None


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    written = 0
    for case, argv in sorted(CASES.items()) + [("conjecture_check", CONJECTURE)]:
        path = GOLDEN / f"{case}.txt"
        got = cli_stdout(argv)
        if path.exists():
            stored = path.read_text()
            if (conjecture_difference(got, stored) is None if case == "conjecture_check"
                    else got == stored):
                continue
        path.write_text(got)
        written += 1
    sys.stdout.write(f"wrote {written} of {len(CASES) + 1} files to {GOLDEN}\n")
