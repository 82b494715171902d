import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctcsim import scenario
from ctcsim.cli import RECORD_FIELDS, main, parse_config_text, parse_record_line

REPO = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_records(out: str):
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(RECORD_FIELDS)
    return [parse_record_line(line) for line in lines[1:]]


class TestRun:
    def test_cnot_both_models(self, capsys):
        code, out, _ = run_cli(capsys, "run", "cnot", "--alpha2", "0.75",
                               "--theta", "0", "--model", "both", "--format", "csv")
        assert code == 0
        records = csv_records(out)
        assert [r.model for r in records] == ["db", "heisenberg"]
        for r in records:
            assert r.z == pytest.approx(0.25, abs=1e-9)
            assert r.x == pytest.approx(0.0, abs=1e-9)
            assert r.y == pytest.approx(0.0, abs=1e-9)

    def test_cz_untouched_zero_state(self, capsys):
        code, out, _ = run_cli(capsys, "run", "cz", "--alpha2", "1.0",
                               "--model", "both", "--format", "csv")
        assert code == 0
        for r in csv_records(out):
            assert r.z == pytest.approx(1.0, abs=1e-9)

    def test_chained_shows_the_split(self, capsys):
        code, out, _ = run_cli(capsys, "run", "chained_cnot_hadamard", "--alpha2", "0.75",
                               "--model", "both", "--format", "csv")
        assert code == 0
        db, heis = csv_records(out)
        assert db.model == "db"
        assert (db.x, db.y, db.z) == (
            pytest.approx(0, abs=1e-9), pytest.approx(0, abs=1e-9), pytest.approx(0, abs=1e-9))
        assert heis.x == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
        assert heis.y == pytest.approx(0.0, abs=1e-9)
        assert heis.z == pytest.approx(0.5, abs=1e-9)

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
            assert r.alpha2 == pytest.approx(a2, abs=1e-12)
            assert r.z == pytest.approx((2 * a2 - 1) ** 2, abs=1e-9)
        balanced = [r for r in records if abs(r.alpha2 - 0.5) < 1e-12]
        assert len(balanced) == 1
        assert balanced[0].x == "singular"
        assert "singular" in balanced[0].flags

    def test_cz_theta_sweep_balanced(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "cz", "theta", "0", str(math.pi), "5",
                               "--alpha2", "0.5", "--model", "both", "--format", "csv")
        assert code == 0
        records = csv_records(out)
        assert len(records) == 10  # 5 grid points x 2 models
        for r in records:
            assert r.x == pytest.approx(0.0, abs=1e-9)
            assert r.y == pytest.approx(0.0, abs=1e-9)
            assert r.z == pytest.approx(0.0, abs=1e-9)

    def test_empty_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "cnot", "alpha2", "0.5", "0.5", "3")
        assert code == 2
        assert "from < to" in err

    def test_too_few_steps(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "cnot", "alpha2", "0", "1", "1")
        assert code == 2
        assert "steps" in err

    def test_rows_ordered_by_parameter(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "cz", "alpha2", "0", "1", "7",
                            "--model", "db", "--format", "csv")
        values = [r.alpha2 for r in csv_records(out)]
        assert values == sorted(values)


class TestCompareCommand:
    def test_chained_compare_flags(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "chained_cnot_hadamard",
                               "--alpha2", "0.75", "--format", "csv")
        assert code == 0
        for r in csv_records(out):
            assert "diverge" in r.flags
            assert r.trace_distance == pytest.approx(0.5, abs=1e-9)

    def test_each_engine_runs_once(self, capsys, monkeypatch):
        calls = []
        for name in ("run_db", "run_heisenberg"):
            real = getattr(scenario, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(scenario, name, counted)
        code, _, _ = run_cli(capsys, "compare", "cnot", "--format", "csv")
        assert code == 0
        assert sorted(calls) == ["run_db", "run_heisenberg"]

    def test_cz_compare_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "cz", "--alpha2", "0.8",
                               "--theta", "0.4", "--format", "csv")
        assert code == 0
        for r in csv_records(out):
            assert "agree" in r.flags


class TestConfigFiles:
    CONFIG = """
# chained run
prep.alpha2 = 0.75
prep.theta = 0.0
block = cnot_swap with_swap
block = cnot_swap with_swap
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
        cfg = parse_config_text("block = cz_swap\nblock = cnot_swap bare\n")
        assert cfg["block"] == [("cz_swap", "with_swap"), ("cnot_swap", "bare")]

    def test_gaussian_overlap_keys(self, tmp_path, capsys):
        cfg = tmp_path / "gauss.cfg"
        cfg.write_text("prep.alpha2 = 0.75\nblock = cz_swap\nlocals = i2 i2\n"
                       "overlap.kind = gaussian\noverlap.d = 0.1\noverlap.tau = 1.0\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg),
                               "--model", "heisenberg", "--format", "csv")
        assert code == 0


class TestRecordsRoundTrip:
    def test_csv_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "run", "cnot", "--alpha2", "0.3", "--theta", "0.2",
                            "--model", "both", "--format", "csv")
        records = csv_records(out)
        # serialize again and compare field by field
        lines = out.strip().splitlines()[1:]
        for line, rec in zip(lines, records):
            assert ",".join(rec.values()) == line

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

    def test_unused_keys_do_not_affect_the_check(self, tmp_path, capsys):
        # epsilon, tau, delta_x and delta_t are read and checked, never used
        full = (REPO / "configs" / "geometry.cfg").read_text()
        stripped = tmp_path / "stripped.cfg"
        stripped.write_text("".join(
            line for line in full.splitlines(keepends=True)
            if not line.startswith(("geometry.epsilon", "geometry.tau",
                                    "geometry.delta_x", "geometry.delta_t"))))
        assert stripped.read_text() != full
        with_keys = run_cli(capsys, "geometry", "--config", str(REPO / "configs" / "geometry.cfg"))
        without = run_cli(capsys, "geometry", "--config", str(stripped))
        assert with_keys == without == (0, "ok margin=0.5\n", "")

    @pytest.mark.parametrize("line", [
        "geometry.transit = nan", "geometry.ho = inf 0", "geometry.c = inf",
        "geometry.tau = -1", "geometry.tau = nan", "geometry.epsilon = 1 x",
        "geometry.delta_t = soon"])
    def test_bad_value_is_one_error_line(self, tmp_path, capsys, line):
        cfg = tmp_path / "geo.cfg"
        cfg.write_text("geometry.hi = 0 0\ngeometry.ho = 3e8 0\n"
                       f"geometry.transit = 1.5\ngeometry.c = 3e8\n{line}\n")
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
    ])
    def test_single_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err

    def test_bad_gaussian_config(self, tmp_path, capsys):
        cfg = tmp_path / "gauss.cfg"
        cfg.write_text("prep.alpha2 = 0.75\nblock = cz_swap\n"
                       "overlap.kind = gaussian\noverlap.d = -1\noverlap.tau = 1.0\n")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_config_files_are_closed(self, tmp_path, capsys):
        cfg = tmp_path / "geo.cfg"
        cfg.write_text("prep.alpha2 = 0.75\nblock = cz_swap\ngeometry.hi = 0\n"
                       "geometry.ho = 1\ngeometry.transit = 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_cli(capsys, "run", "--config", str(cfg))
            run_cli(capsys, "geometry", "--config", str(cfg))
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
