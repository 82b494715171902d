import argparse
import gc
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctcsim import cli, scenario
from ctcsim.cli import (
    MAX_SWEEP_STEPS,
    RECORD_FIELDS,
    ConfigError,
    build_parser,
    main,
    parse_config_text,
)
from ctcsim.db_model import FixedPointError
from ctcsim.heisenberg_model import NotCliffordError, UnsupportedOverlapError
from ctcsim.qlinalg import CtcsimError, EngineError, Preparations, PureStateParams, QlinalgError
from ctcsim.scenario import BlockSpec, ScenarioError

REPO = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_records(out: str) -> list[dict[str, str]]:
    """The csv rows of out, each a dict of its field strings by RECORD_FIELDS name."""
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(RECORD_FIELDS)
    return [dict(zip(RECORD_FIELDS, line.split(","), strict=True)) for line in lines[1:]]


class TestRun:
    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        assert build_parser() is build_parser()
        run_cli(capsys, "run", "cz", "--alpha2", "0.3", "--format", "records")
        _, out, _ = run_cli(capsys, "run", "cz", "--format", "records")
        assert all(" alpha2=0.75 " in line for line in out.splitlines()), out

    def test_cnot_both_models(self, capsys):
        code, out, _ = run_cli(capsys, "run", "cnot", "--alpha2", "0.75",
                               "--theta", "0", "--model", "both", "--format", "csv")
        assert code == 0
        records = csv_records(out)
        assert [r["model"] for r in records] == ["db", "heisenberg"]
        for r in records:
            assert float(r["z"]) == pytest.approx(0.25, abs=1e-9)
            assert float(r["x"]) == pytest.approx(0.0, abs=1e-9)
            assert float(r["y"]) == pytest.approx(0.0, abs=1e-9)

    def test_cz_untouched_zero_state(self, capsys):
        code, out, _ = run_cli(capsys, "run", "cz", "--alpha2", "1.0",
                               "--model", "both", "--format", "csv")
        assert code == 0
        for r in csv_records(out):
            assert float(r["z"]) == pytest.approx(1.0, abs=1e-9)

    def test_chained_shows_the_split(self, capsys):
        code, out, _ = run_cli(capsys, "run", "chained_cnot_hadamard", "--alpha2", "0.75",
                               "--model", "both", "--format", "csv")
        assert code == 0
        db, heis = csv_records(out)
        assert db["model"] == "db"
        assert (float(db["x"]), float(db["y"]), float(db["z"])) == (
            pytest.approx(0, abs=1e-9), pytest.approx(0, abs=1e-9), pytest.approx(0, abs=1e-9))
        assert float(heis["x"]) == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
        assert float(heis["y"]) == pytest.approx(0.0, abs=1e-9)
        assert float(heis["z"]) == pytest.approx(0.5, abs=1e-9)

    def test_requires_target_or_config(self, capsys):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_unknown_scenario_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "run", "nonsense")
        assert code == 2
        assert "unknown scenario" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "run", "cz", "--alpha2", "0.6", "--format", "records")
        _, second, _ = run_cli(capsys, "run", "cz", "--alpha2", "0.6", "--format", "records")
        assert first == second

    def test_table_format_has_header(self, capsys):
        code, out, _ = run_cli(capsys, "run", "cz", "--alpha2", "0.9")
        assert code == 0
        assert out.splitlines()[0].split()[:2] == ["scenario", "model"]


class TestSweep:
    def test_cnot_alpha2_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "cnot", "alpha2", "0", "1", "101",
                               "--model", "heisenberg", "--format", "csv")
        assert code == 0
        records = csv_records(out)
        assert len(records) == 101
        grid = np.linspace(0, 1, 101)
        for r, a2 in zip(records, grid):
            assert float(r["alpha2"]) == pytest.approx(a2, abs=1e-12)
            assert float(r["z"]) == pytest.approx((2 * a2 - 1) ** 2, abs=1e-9)
        balanced = [r for r in records if abs(float(r["alpha2"]) - 0.5) < 1e-12]
        assert len(balanced) == 1
        assert balanced[0]["x"] == "singular"
        assert "singular" in balanced[0]["flags"]

    def test_cz_theta_sweep_balanced(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "cz", "theta", "0", str(math.pi), "5",
                               "--alpha2", "0.5", "--model", "both", "--format", "csv")
        assert code == 0
        records = csv_records(out)
        assert len(records) == 10  # 5 grid points x 2 models
        for r in records:
            assert float(r["x"]) == pytest.approx(0.0, abs=1e-9)
            assert float(r["y"]) == pytest.approx(0.0, abs=1e-9)
            assert float(r["z"]) == pytest.approx(0.0, abs=1e-9)

    def test_empty_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "cnot", "alpha2", "0.5", "0.5", "3")
        assert code == 2
        assert "from < to" in err

    def test_too_few_steps(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "cnot", "alpha2", "0", "1", "1")
        assert code == 2
        assert "steps" in err

    @pytest.mark.parametrize("steps", [MAX_SWEEP_STEPS + 1, 10**12])
    def test_too_many_steps_refused_before_the_grid(self, capsys, monkeypatch, steps):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid was built")
        monkeypatch.setattr(np, "linspace", no_grid)
        assert run_cli(capsys, "sweep", "cnot", "alpha2", "0", "1", str(steps)) == (
            2, "", f"error: sweep needs 2 to {MAX_SWEEP_STEPS} steps, got {steps}\n")

    @pytest.mark.parametrize("argv, message", [
        (["alpha2", "0.5", "2", "4"], "alpha2 must be in [0, 1], got 1.5"),
        (["theta", "1e308", "1.5e308", "3"],
         "state parameters must be finite, got PureStateParams(alpha2=0.75, theta=1e+308)"),
    ])
    def test_first_bad_grid_value_is_named(self, capsys, argv, message):
        # the whole grid is checked before any point is evaluated, with the
        # error of the first bad point
        assert run_cli(capsys, "sweep", "cnot", *argv) == (2, "", f"error: {message}\n")

    def test_largest_sweep_reaches_the_grid(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached
        monkeypatch.setattr(np, "linspace", reached)
        with pytest.raises(Reached):
            main(["sweep", "cnot", "alpha2", "0", "1", str(MAX_SWEEP_STEPS)])

    def test_rows_ordered_by_parameter(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "cz", "alpha2", "0", "1", "7",
                            "--model", "db", "--format", "csv")
        values = [float(r["alpha2"]) for r in csv_records(out)]
        assert values == sorted(values)

    @pytest.mark.parametrize("swept, fixed", [("theta", "alpha2"), ("alpha2", "theta")])
    def test_fixed_parameter_is_formatted_once(self, capsys, monkeypatch, swept, fixed):
        # the parameter a sweep holds fixed is a broadcast column, whose one
        # repr is repeated; -0.0 keeps its sign either way
        preps = Preparations(**{fixed: -0.0, swept: np.linspace(0, 1, 5)})
        assert getattr(preps, fixed).strides == (0,)
        assert len(set(map(id, cli._text(getattr(preps, fixed))))) == 1
        argv = ["sweep", "cnot", swept, "0", "1", "101", f"--{fixed}", "-0.0", "--format", "csv"]
        _, out, _ = run_cli(capsys, *argv)
        assert {r[fixed] for r in csv_records(out)} == {"-0.0"}
        monkeypatch.setattr(cli, "_text", lambda column: list(map(repr, column.tolist())))
        assert run_cli(capsys, *argv) == (0, out, "")


class TestCompareCommand:
    def test_chained_compare_flags(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "chained_cnot_hadamard",
                               "--alpha2", "0.75", "--format", "csv")
        assert code == 0
        for r in csv_records(out):
            assert "diverge" in r["flags"]
            assert float(r["trace_distance"]) == pytest.approx(0.5, abs=1e-9)

    def test_each_engine_runs_once(self, capsys, monkeypatch):
        calls = []
        for name in ("evaluate_db", "evaluate_heisenberg"):
            real = getattr(scenario, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(scenario, name, counted)
        code, _, _ = run_cli(capsys, "compare", "cnot", "--format", "csv")
        assert code == 0
        assert calls == ["evaluate_db", "evaluate_heisenberg"]

    def test_records_carry_the_library_verdict(self, capsys):
        # cmd_compare evaluates the engines itself; at every preparation of the
        # compare corpus its csv must print what scenario.compare reports
        corpus = (REPO / "tests" / "golden" / "compare_corpus.txt").read_text().splitlines()
        assert len(corpus) == 60
        for line in corpus:
            name, alpha2, theta = line.split()[:3]
            code, out, _ = run_cli(capsys, "compare", name, f"--alpha2={alpha2}",
                                   f"--theta={theta}", "--format", "csv")
            assert code == 0
            db, heis = csv_records(out)
            r = scenario.compare(scenario.named_scenario(
                name, PureStateParams(alpha2=float(alpha2), theta=float(theta))))
            statuses = r.heisenberg.statuses
            # each library value, passed through the CLI's printing rule, is the field
            assert [db[a] for a in "xyz"] == cli.fixed(list(r.db.bloch.as_tuple()))
            assert [heis[a] for a in "xyz"] == [
                cli.fixed([r.heisenberg.components[a]])[0] if statuses[a] == "ok" else statuses[a]
                for a in "xyz"]
            assert db["flags"] == ";".join(r.flags)
            unresolved = sorted(set(statuses.values()) - {"ok"})
            assert heis["flags"] == ";".join(dict.fromkeys([*unresolved, *r.flags]))
            td = "" if r.trace_distance is None else cli.fixed([r.trace_distance])[0]
            assert db["trace_distance"] == heis["trace_distance"] == td

    def test_cz_compare_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "cz", "--alpha2", "0.8",
                               "--theta", "0.4", "--format", "csv")
        assert code == 0
        for r in csv_records(out):
            assert "agree" in r["flags"]


class TestConfigFiles:
    CONFIG = """
# chained run
prep.alpha2 = 0.75
prep.theta = 0.0
block = cnot_swap
block = cnot_swap
locals = i2 h h
overlap.kind = orthogonal_limit
"""

    def test_config_run_matches_named_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "chained.cfg"
        cfg.write_text(self.CONFIG)
        _, from_config, _ = run_cli(capsys, "run", "--config", str(cfg), "--format", "csv")
        _, from_name, _ = run_cli(capsys, "run", "chained_cnot_hadamard",
                                  "--alpha2", "0.75", "--format", "csv")
        strip = lambda out: [line.split(",")[1:] for line in out.splitlines()]
        assert strip(from_config) == strip(from_name)

    def test_malformed_config_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("prep.alpha2 = not_a_number\nblock = cz_swap\n")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "prep.alpha2" in err

    def test_missing_blocks_reported(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("prep.alpha2 = 0.5\n")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "block" in err

    def test_parse_config_keeps_block_order(self):
        cfg = parse_config_text("block = cz_swap\nblock = cnot\n")
        assert cfg["block"] == [BlockSpec("cz_swap"), BlockSpec("cnot")]

    def test_gaussian_overlap_keys(self, tmp_path, capsys):
        cfg = tmp_path / "gauss.cfg"
        cfg.write_text("prep.alpha2 = 0.75\nblock = cz_swap\nlocals = i2 i2\n"
                       "overlap.kind = gaussian\noverlap.d = 0.1\noverlap.tau = 1.0\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg),
                               "--model", "heisenberg", "--format", "csv")
        assert code == 0


class TestRecordsRoundTrip:
    def test_csv_round_trip(self, capsys):
        # alpha2 and theta are printed by repr, so float() reads back the same
        # float, whose repr is the same field; an engine value is printed with
        # 12 fixed decimals, so float() reads back a float that prints as the
        # same field
        engine = ("x", "y", "z", "residual", "trace_distance")
        tokens = ("", "singular", "divergent", "unsupported")
        for argv in (["run", "cnot", "--alpha2", "0.3", "--theta", "0.2", "--model", "both"],
                     ["sweep", "cnot", "alpha2", "0", "1", "11", "--theta", "0.2"],
                     ["compare", "chained_cnot_hadamard", "--alpha2", "0.3"]):
            _, out, _ = run_cli(capsys, *argv, "--format", "csv")
            records = csv_records(out)
            grid = [r[key] for r in records for key in ("alpha2", "theta")]
            fields = [r[key] for r in records for key in engine if r[key] not in tokens]
            assert fields
            assert [repr(float(f)) for f in grid] == grid
            assert cli.fixed([float(f) for f in fields]) == fields

    def test_formats_carry_the_same_fields(self, capsys):
        sweep = ["sweep", "cnot", "alpha2", "0", "1", "11", "--theta", "0.2"]
        _, out, _ = run_cli(capsys, *sweep, "--format", "csv")
        rows = [tuple(r.values()) for r in csv_records(out)]
        _, out, _ = run_cli(capsys, *sweep, "--format", "records")
        records = [tuple(cell.split("=", 1) for cell in line.split(" "))
                   for line in out.splitlines()]
        assert [tuple(key for key, _ in r) for r in records] == [RECORD_FIELDS] * len(rows)
        assert [tuple(value for _, value in r) for r in records] == rows
        _, out, _ = run_cli(capsys, *sweep, "--format", "table")
        header, *lines = out.splitlines()
        assert tuple(header.split()) == RECORD_FIELDS
        starts = [word.start() for word in re.finditer(r"\S+", header)] + [None]
        assert [tuple(line[a:b].strip() for a, b in zip(starts, starts[1:]))
                for line in [header, *lines]] == [RECORD_FIELDS, *rows]

    def test_records_format_is_line_per_record(self, capsys):
        _, out, _ = run_cli(capsys, "run", "cnot", "--alpha2", "0.3",
                            "--model", "both", "--format", "records")
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("scenario=cnot model=") for line in lines)

    def test_singular_token_never_nan(self, capsys):
        _, out, _ = run_cli(capsys, "run", "cnot", "--alpha2", "0.5",
                            "--model", "heisenberg", "--format", "csv")
        assert "singular" in out
        assert "nan" not in out.lower()


class TestGeometryCommand:
    def geometry_config(self, tmp_path, transit):
        cfg = tmp_path / "geo.cfg"
        cfg.write_text(f"geometry.hi = 0 0\ngeometry.ho = 3e8 0\n"
                       f"geometry.transit = {transit}\ngeometry.c = 3e8\n")
        return str(cfg)

    def test_ok(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "geometry", "--config",
                               self.geometry_config(tmp_path, 1.5))
        assert code == 0
        assert out.startswith("ok")
        assert "0.5" in out

    def test_violation(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "geometry", "--config",
                               self.geometry_config(tmp_path, 0.5))
        assert code == 1
        assert out.startswith("violation")

    def test_boundary(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "geometry", "--config",
                               self.geometry_config(tmp_path, 1.0))
        assert code == 0
        assert out.startswith("ok")

    def test_missing_field(self, tmp_path, capsys):
        cfg = tmp_path / "geo.cfg"
        cfg.write_text("geometry.hi = 0 0\n")
        code, _, err = run_cli(capsys, "geometry", "--config", str(cfg))
        assert code == 2
        assert "geometry.ho" in err

    @pytest.mark.parametrize("key", ["geometry.epsilon", "geometry.tau",
                                     "geometry.delta_x", "geometry.delta_t"])
    def test_deleted_key_is_rejected(self, tmp_path, capsys, key):
        # these keys were once parsed and dropped; a key that changes nothing is refused
        cfg = tmp_path / "geo.cfg"
        cfg.write_text((REPO / "configs" / "geometry.cfg").read_text() + f"{key} = 0\n")
        lineno = len(cfg.read_text().splitlines())
        code, out, err = run_cli(capsys, "geometry", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {lineno}: unknown key {key!r}")
        assert len(err.splitlines()) == 1

    def test_shipped_config_passes(self, capsys):
        assert run_cli(capsys, "geometry", "--config", str(REPO / "configs" / "geometry.cfg")) \
            == (0, "ok margin=0.5\n", "")

    @pytest.mark.parametrize("line", [
        "geometry.transit = nan", "geometry.ho = inf 0", "geometry.c = inf",
        "geometry.tau = -1", "geometry.tau = nan", "geometry.epsilon = 1 x",
        "geometry.delta_t = soon"])
    def test_bad_value_is_one_error_line(self, tmp_path, capsys, line):
        # the base leaves out the key under test, so a value check is not a repeat
        base = ["geometry.hi = 0 0", "geometry.ho = 3e8 0", "geometry.transit = 1.5",
                "geometry.c = 3e8"]
        key = line.split()[0]
        cfg = tmp_path / "geo.cfg"
        cfg.write_text("\n".join([b for b in base if b.split()[0] != key] + [line]) + "\n")
        code, out, err = run_cli(capsys, "geometry", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1, err


class TestConjectureCheck:
    def test_runs_and_never_fails(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture-check", "--seed", "7", "--trials", "12")
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("summary trials=12")

    def test_deterministic_for_fixed_seed(self, capsys):
        _, first, _ = run_cli(capsys, "conjecture-check", "--seed", "3", "--trials", "6")
        _, second, _ = run_cli(capsys, "conjecture-check", "--seed", "3", "--trials", "6")
        assert first == second


class TestInputBoundary:
    """Bad input ends in exactly one 'error:' line and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["run", "cnot", "--theta", "inf"],
        ["run", "cnot", "--d", "-1"],
        ["run", "cz", "--tau", "5"],
        ["run", "cnot", "--d", "nan", "--tau", "1"],
        ["sweep", "cnot", "theta", "0", "inf", "3"],
        ["run", "cnot", "--theta", "1e308"],
        ["sweep", "--format", "csv", "--", "cnot", "theta", "-1e308", "1e308", "3"],
        ["sweep", "cz", "alpha2", "0", "1.7976931348623157e+308", "7"],
        ["conjecture-check", "--seed", "-1"],
        ["conjecture-check", "--trials", "-3"],
        ["run", "cnot", "--config", str(REPO / "configs" / "chained.cfg")],
        # a (text, line) pair stands for a config file whose error names that line
        ["run", "--config", ("prep.alpha2 = 0.75\nprep.thta = 1.0\nblock = cz_swap\n", 2)],
        ["run", "--config", ("prep.alpha2 = 0.75\nblock = cz_swap\noverlap.d = 3\n", 3)],
        ["run", "--config", ("prep.alpha2 = 0.75\nprep.alpha2 = 0.5\nblock = cz_swap\n", 2)],
        ["run", "--config", ("prep.alpha2 = 0.75\nblock = cz_swap\ngeometry.hi = 0 0\n", 3)],
        ["run", "--config", ("prep.alpha2 = 0.75\nblock = cz_swap\nlocals =\n", 3)],
        # values that parse but a later check refuses, and a missing gaussian key
        ["run", "--config", ("block = cz_swap\nprep.alpha2 = 2\n", 2)],
        ["run", "--config", ("prep.alpha2 = 0.75\nprep.theta = 1e308\nblock = cz_swap\n", 2)],
        ["run", "--config", ("prep.alpha2 = 0.75\nblock = cz_swap\noverlap.kind = gaussian\n"
                             "overlap.tau = 1\n", 3)],
        ["run", "--config", ("prep.alpha2 = 0.75\nblock = cz_swap\noverlap.kind = gaussian\n"
                             "overlap.d = -1\noverlap.tau = 1\n", 4)],
        ["run", "--config", ("prep.alpha2 = 0.75\nblock = cz_swap\nlocals = i2 h s\n", 3)],
        ["run", "--config", ("prep.alpha2 = 0.75\nblock = cz_swap\nlocals = i2 cnot\n", 3)],
        # a block line takes a gate name only
        ["run", "--config", ("prep.alpha2 = 0.75\nblock = cz bare\n", 2)],
        ["run", "--config", ("prep.alpha2 = 0.75\nblock = cnot_swap with_swap\n", 2)],
        # a flag for the swept parameter itself
        ["sweep", "cnot", "alpha2", "0", "1", "2", "--alpha2", "0.3"],
        ["sweep", "cnot", "theta", "0", "1", "2", "--theta", "0.3"],
        # negative values in exponent form and -inf, with no "--"
        ["sweep", "cnot", "theta", "-1e308", "1e308", "3"],
        ["run", "cnot", "--theta", "-inf"],
        ["run", "cnot", "--alpha2", "-5e-324"],
    ])
    def test_single_error_line(self, tmp_path, capsys, argv):
        config = next((arg for arg in argv if isinstance(arg, tuple)), None)
        if config is not None:
            (tmp_path / "case.cfg").write_text(config[0])
            argv = [str(tmp_path / "case.cfg") if arg is config else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        if config is not None:
            assert lines[0].startswith(f"error: line {config[1]}: "), err

    def test_bad_gaussian_config(self, tmp_path, capsys):
        cfg = tmp_path / "gauss.cfg"
        cfg.write_text("prep.alpha2 = 0.75\nblock = cz_swap\n"
                       "overlap.kind = gaussian\noverlap.d = -1\noverlap.tau = 1.0\n")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_missing_gaussian_key_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "gauss.cfg"
        cfg.write_text("prep.alpha2 = 0.75\nblock = cz_swap\noverlap.kind = gaussian\n"
                       "overlap.tau = 1.0\n")
        assert run_cli(capsys, "run", "--config", str(cfg)) == (
            2, "", "error: line 3: overlap.kind: missing config field 'overlap.d'\n")

    def test_config_files_are_closed(self, tmp_path, capsys):
        cfg = tmp_path / "geo.cfg"
        cfg.write_text("prep.alpha2 = 0.75\nblock = cz_swap\ngeometry.hi = 0\n"
                       "geometry.ho = 1\ngeometry.transit = 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_cli(capsys, "run", "--config", str(cfg))
            run_cli(capsys, "geometry", "--config", str(cfg))
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_alpha2_is_kept_as_given(self, capsys):
        # one state, three spellings: the default alpha2, the same value given
        # again, and the first point of a theta sweep
        _, theta_only, _ = run_cli(capsys, "run", "cz", "--theta", "0.3", "--format", "csv")
        _, both, _ = run_cli(capsys, "run", "cz", "--alpha2", "0.75", "--theta", "0.3",
                             "--format", "csv")
        _, sweep, _ = run_cli(capsys, "sweep", "cz", "theta", "0.3", "0.6", "2", "--format", "csv")
        assert theta_only == both
        assert sweep.splitlines()[:3] == both.splitlines()
        assert [line.split(",")[2] for line in both.splitlines()[1:]] == ["0.75", "0.75"]


class TestNegativeNumbers:
    """A token float() reads is a value wherever one is expected, in exponent
    form too, as in --theta=-1e-3."""

    @pytest.mark.parametrize("value", ["-1e-3", "-2.5E2", "-5e-324", "-0.5", "-1"])
    def test_option_value_reads_as_with_equals(self, capsys, value):
        code, spaced, err = run_cli(capsys, "run", "cz", "--theta", value, "--format", "csv")
        assert (code, err) == (0, "")
        assert spaced == run_cli(capsys, "run", "cz", f"--theta={value}", "--format", "csv")[1]

    def test_sweep_range_reads_exponent_form(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "cz", "theta", "-1e-3", "1", "3",
                                 "--format", "csv")
        assert (code, err) == (0, "")
        assert [r["theta"] for r in csv_records(out)[::2]] == [
            repr(v) for v in np.linspace(-1e-3, 1.0, 3).tolist()]

    def test_huge_negative_bound_reaches_the_range_check(self, capsys):
        assert run_cli(capsys, "sweep", "cnot", "theta", "-1e308", "1e308", "3") == (
            2, "", "error: sweep range must be finite with from < to, got -1e+308 .. 1e+308\n")

    @pytest.mark.parametrize("argv, message", [
        (["run", "cz", "--theta", "-x"], "argument --theta: expected one argument"),
        (["run", "cz", "-1e-3"], "unrecognized arguments: -1e-3"),
    ])
    def test_other_tokens_parse_as_before(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2 and message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-1E-3", "-1_0.5"])
    def test_every_float_token_is_a_value(self, value):
        args = build_parser().parse_args(["run", "cz", "--thet", value])
        assert str(args.theta) == str(float(value))

    def test_argparse_reads_the_matcher_this_rides_on(self):
        # cli._Parser swaps argparse's private _negative_number_matcher: this
        # fails if argparse stops reading that attribute
        seen = []

        class Spy:
            @staticmethod
            def match(token):
                seen.append(token)
                return True

        parser = argparse.ArgumentParser()
        parser.add_argument("--v")
        parser._negative_number_matcher = Spy
        assert parser.parse_args(["--v", "-x"]).v == "-x"
        assert "-x" in seen


class TestErrorRoot:
    """One root decides the exit code: EngineError exits 1, any other CtcsimError 2."""

    @pytest.mark.parametrize("cls, builtin", [
        (QlinalgError, ValueError), (ScenarioError, ValueError), (ConfigError, ValueError)])
    def test_input_errors(self, cls, builtin):
        assert issubclass(cls, CtcsimError) and issubclass(cls, builtin)
        assert not issubclass(cls, EngineError)

    @pytest.mark.parametrize("cls, builtin", [
        (FixedPointError, RuntimeError), (NotCliffordError, ValueError),
        (UnsupportedOverlapError, ValueError)])
    def test_engine_errors(self, cls, builtin):
        assert issubclass(cls, EngineError) and issubclass(cls, builtin)

    def test_engine_error_is_one_line_and_exit_1(self, capsys, monkeypatch):
        def fail(spec, preps):
            raise FixedPointError("no fixed point", residual=1.0)
        monkeypatch.setattr(scenario, "evaluate_db", fail)
        assert run_cli(capsys, "run", "cz") == (1, "", "engine error: no fixed point\n")


def fail_db(spec, preps):
    raise FixedPointError("no fixed point", residual=1.0)


class TestCollector:
    """main runs each command with the heap that existed before it frozen out
    of the cyclic collector, and leaves the collector as it found it."""

    @pytest.mark.parametrize("argv, code, err", [
        (["sweep", "cz", "alpha2", "0", "1", "5"], 0, ""),
        (["run", "nonsense"], 2, "error: "),
        (["run", "cz", "--model", "db"], 1, "engine error: "),
    ])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_is_restored(self, capsys, monkeypatch, argv, code, err, enabled):
        monkeypatch.setattr(scenario, "evaluate_db", fail_db if code == 1 else
                            scenario.evaluate_db)
        if not enabled:
            gc.disable()
        try:
            result = run_cli(capsys, *argv)
            assert (gc.get_freeze_count(), gc.isenabled()) == (0, enabled)
        finally:
            gc.enable()
        assert result[0] == code and result[2].startswith(err)

    @pytest.mark.parametrize("argv", [["run"], ["sweep", "cz", "alpha2"], ["--help"]])
    def test_collector_is_restored_after_argparse_exits(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()
        assert (gc.get_freeze_count(), gc.isenabled()) == (0, True)

    def test_command_runs_with_the_prior_heap_frozen(self, capsys, monkeypatch):
        marker = []  # a tracked object made before the command
        seen = []

        def load_spec(target, args):
            seen.append((gc.get_freeze_count(), any(o is marker for o in gc.get_objects())))
            return original(target, args)
        original = cli.load_spec
        monkeypatch.setattr(cli, "load_spec", load_spec)
        assert run_cli(capsys, "run", "cz")[0] == 0
        [(frozen, marker_collectable)] = seen
        assert frozen > 0 and not marker_collectable
        assert any(o is marker for o in gc.get_objects())

    def test_callers_freeze_is_kept(self, capsys):
        # frozen objects freed meanwhile leave the count, so the marker is the witness
        marker = []
        gc.freeze()
        try:
            assert run_cli(capsys, "run", "cz")[0] == 0
            assert gc.get_freeze_count() > 0
            assert not any(o is marker for o in gc.get_objects())
        finally:
            gc.unfreeze()


class CountingStream(io.StringIO):
    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


class TestEmitChunks:
    """emit writes EMIT_LINES lines per write call, the same bytes as one
    write per line."""

    @pytest.fixture(scope="class")
    def rows(self):
        preps = Preparations(alpha2=np.linspace(0, 1, 2), theta=0.3)
        spec = scenario.named_scenario("cnot")
        return cli.records_for("cnot", preps, scenario.evaluate_db(spec, preps),
                               scenario.evaluate_heisenberg(spec, preps))

    def emitted(self, monkeypatch, rows, fmt, lines_per_write):
        monkeypatch.setattr(cli, "EMIT_LINES", lines_per_write)
        out = CountingStream()
        cli.emit(rows, fmt, out)
        return out.getvalue(), out.writes

    @pytest.mark.parametrize("fmt, header", [("csv", 1), ("records", 0), ("table", 1)])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])  # 0, 1 and EMIT_LINES - 1 .. + 1 rows
    def test_one_write_per_slice(self, monkeypatch, rows, fmt, header, n):
        per_slice = 3
        lines = n + header
        text, writes = self.emitted(monkeypatch, rows[:n], fmt, per_slice)
        assert writes == -(-lines // per_slice)
        assert self.emitted(monkeypatch, rows[:n], fmt, 1) == (text, lines)
        assert text.count("\n") == lines


def test_start_up_generates_no_dataclass_code():
    # each frozen dataclass execs its generated methods at import; the
    # records are written out instead, so start-up never imports dataclasses
    code = ("import sys, ctcsim.cli; ctcsim.cli.build_parser(); "
            "print(sorted({'ctcsim.cli', 'dataclasses'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['ctcsim.cli']\n", "")


def test_start_up_compiles_no_circuit():
    # circuits compile on first use, so none is compiled before a command runs
    code = ("import ctcsim.cli; ctcsim.cli.build_parser(); "
            "print(ctcsim.cli.scenario.compile_circuit.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")
