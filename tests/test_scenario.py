import itertools
import math
import pathlib

import numpy as np
import pytest

from ctcsim import cli, db_model, qlinalg, scenario
from ctcsim.db_model import DBRun, solve_fixed_point
from ctcsim.heisenberg_model import HeisenbergResult, TimeDistribution
from ctcsim.qlinalg import (
    BlochVector, CNOT, CZ, PAULI_BY_NAME, PureStateParams, QlinalgError, SWAP, density_from_bloch)
from ctcsim.scenario import (
    BlockSpec,
    CircuitSpec,
    GeometryConfig,
    ScenarioError,
    compare,
    named_scenario,
    run_db,
    run_heisenberg,
    scenario_names,
    validate_geometry,
)
from ctcsim.timed_pauli import NotCliffordError, PauliLetter
from helpers import local_gate, random_params


def spec_with(blocks, local_names, prep):
    return CircuitSpec(prep=prep, blocks=tuple(blocks), local_gates=tuple(local_names))


class TestNamedScenarios:
    def test_names_are_stable(self):
        assert scenario_names() == ("cz", "cnot", "chained_cnot_hadamard")

    def test_unknown_name(self):
        with pytest.raises(ScenarioError):
            named_scenario("grover")

    def test_chained_structure(self):
        spec = named_scenario("chained_cnot_hadamard")
        assert len(spec.blocks) == 2
        assert len(spec.local_gates) == 3

    def test_specs_share_one_default_overlap(self):
        config = spec_with([BlockSpec("cnot_swap")], ["i2", "i2"], PureStateParams.from_alpha2(0.3))
        assert named_scenario("cz").overlap is named_scenario("cnot").overlap is config.overlap
        assert config.overlap == TimeDistribution.orthogonal()

    def test_named_specs_share_their_circuit(self):
        # one Circuit per circuit value, so its compile serves every
        # preparation, and a spec built from equal parts shares it too
        a = named_scenario("cnot", PureStateParams.from_alpha2(0.3))
        b = named_scenario("cnot", PureStateParams.from_alpha2(0.6, 1.0))
        assert a.circuit is b.circuit
        assert spec_with([BlockSpec(SWAP @ CNOT)], ["i2", "i2"], a.prep).circuit is a.circuit
        assert spec_with(a.blocks, ["i2", "h"], a.prep).circuit is not a.circuit
        assert a == spec_with(a.blocks, a.local_gates, a.prep)

    def test_cz_scenario_reproduces_output_coherence(self, rng):
        # output keeps the populations and scales the coherence by the
        # squared population difference
        for _ in range(20):
            p = random_params(rng)
            out = run_db(named_scenario("cz", p)).output
            a2, b2 = p.alpha**2, p.beta**2
            coh = (a2 - b2) ** 2 * p.alpha * p.beta * np.exp(2j * p.theta)
            want = np.array([[a2, coh], [np.conj(coh), b2]])
            assert np.max(np.abs(out - want)) < 1e-10

    def test_cnot_scenario_reproduces_diagonal_output(self, rng):
        for _ in range(20):
            p = random_params(rng)
            if abs(p.alpha - p.beta) < 1e-3:
                continue
            out = run_db(named_scenario("cnot", p)).output
            a2, b2 = p.alpha**2, p.beta**2
            want = np.diag([a2**2 + b2**2, 2 * a2 * b2])
            assert np.max(np.abs(out - want)) < 1e-10


class TestConventions:
    def test_interaction_matrix_swap_suffix(self):
        assert np.array_equal(BlockSpec("cnot_swap").u, SWAP @ CNOT)
        assert np.array_equal(BlockSpec("cz_swap").u, SWAP @ CZ)

    def test_block_equality_is_the_interaction(self):
        # a block is its interaction u, whether given as a matrix or by name
        blocks = [BlockSpec(SWAP @ CNOT), BlockSpec("cnot_swap"), BlockSpec("CNOT_swap")]
        assert all(b == blocks[0] and hash(b) == hash(blocks[0]) for b in blocks)
        assert BlockSpec("cnot_swap") != BlockSpec("cz_swap")
        assert BlockSpec(SWAP @ CNOT) != SWAP @ CNOT

    def test_anonymous_block_keeps_its_own_read_only_copy(self):
        # the caller's array is copied once, into u, which is also the gate
        g = SWAP @ CNOT
        b = BlockSpec(g)
        before = hash(b)
        g[0, 0] = 5
        assert b.gate is b.u and not b.gate.flags.writeable
        assert np.array_equal(b.gate, SWAP @ CNOT) and hash(b) == before
        with pytest.raises(ValueError, match="read-only"):
            b.gate[0, 0] = 5
        assert BlockSpec("cnot_swap").gate == "cnot_swap"

    def test_anonymous_block_spec_compares_and_hashes(self):
        prep = PureStateParams.from_alpha2(0.3, 0.2)
        specs = [spec_with([BlockSpec(SWAP @ CZ)], ["i2", "h"], prep) for _ in range(2)]
        assert specs[0] == specs[1] and hash(specs[0]) == hash(specs[1])
        assert specs[0] != spec_with([BlockSpec(SWAP @ CNOT)], ["i2", "h"], prep)

    def test_unknown_gate(self):
        # the error names the value given, suffix included
        with pytest.raises(QlinalgError, match="unknown gate name 'xx_swap'"):
            BlockSpec("xx_swap")

    def test_one_qubit_gate_rejected_as_block(self):
        with pytest.raises(ScenarioError):
            BlockSpec("h")

    def test_local_gate_names_validated(self):
        with pytest.raises(ScenarioError):
            spec_with([BlockSpec("cz_swap")], ["i2", "cnot"], PureStateParams.from_alpha2(1.0))

    def test_local_count_validated(self):
        with pytest.raises(ScenarioError):
            spec_with([BlockSpec("cz_swap")], ["i2"], PureStateParams.from_alpha2(1.0))


# Every block gate name the scenarios accept, with and without the swap suffix.
BLOCK_GATES = [g + suffix for g in ("cz", "cnot", "swap", "i4") for suffix in ("", "_swap")]
LOCAL_NAMES = ("i2", "i", "h", "x", "y", "z", "s")


def assert_table_matches_dense(table, u, qubits):
    """Every entry of the table, sign included, equals the dense U^dag P U."""
    for p in itertools.product(PauliLetter, repeat=qubits):
        ipow, image = table.conj(*p)
        dense = u.conj().T @ pauli_string(p) @ u
        assert np.allclose(dense, 1j**ipow * pauli_string(image), atol=1e-12), (p, ipow, image)


def pauli_string(letters):
    out = np.eye(1)
    for letter in letters:
        out = np.kron(out, PAULI_BY_NAME[letter.value])
    return out


class TestTables:
    @pytest.mark.parametrize("convention", ["with_swap", "bare"])
    @pytest.mark.parametrize("gate", BLOCK_GATES)
    def test_block_table_matches_dense(self, gate, convention):
        # the Heisenberg engine conjugates through U_bar = SWAP U, where U is
        # the interaction the density-matrix engine applies; "bare" reads the
        # named gate as U_bar and passes U = SWAP U_bar as an anonymous matrix
        named = BlockSpec(gate)
        block = named if convention == "with_swap" else BlockSpec(SWAP @ named.u)
        transfers = {block: db_model.interaction_transfer(block.u)}
        table = scenario.heisenberg_circuit((block,), ("i2", "i2"), transfers).blocks[0]
        assert_table_matches_dense(table, SWAP @ block.u, 2)

    @pytest.mark.parametrize("name", LOCAL_NAMES)
    def test_local_table_matches_dense(self, name):
        matrix, table = local_gate(name)
        assert_table_matches_dense(table, matrix, 1)


class TestCompileOnce:
    def test_config_sweep_compiles_each_block_once(self, tmp_path, monkeypatch, capsys):
        # each distinct block of a circuit once: two cnot_swap blocks are
        # one, and a second circuit compiles both of its blocks
        scenario.compile_circuit.cache_clear()
        calls = []

        def counted(u, transfer, _real=scenario.tableau_from_transfer):
            calls.append(u)
            return _real(u, transfer)

        monkeypatch.setattr(scenario, "tableau_from_transfer", counted)
        cfg = tmp_path / "two.cfg"
        cfg.write_text("prep.alpha2 = 0.75\nblock = cnot_swap\nblock = cnot_swap\n"
                       "locals = i2 h h\n")
        assert cli.main(["sweep", "--config", str(cfg), "alpha2", "0", "1", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 5 * 2
        assert len(calls) == 1
        cfg.write_text("prep.alpha2 = 0.75\nblock = cnot_swap\nblock = cz_swap\n"
                       "locals = i2 h h\n")
        assert cli.main(["sweep", "--config", str(cfg), "alpha2", "0", "1", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 5 * 2
        assert len(calls) == 3

    def test_table_is_compiled_on_first_use(self):
        # a controlled phase of pi/4 is unitary but not Clifford: the
        # density-matrix engine runs it, and only the Heisenberg engine refuses
        block = BlockSpec(SWAP @ np.diag([1, 1, 1, np.exp(0.25j * np.pi)]))
        spec = spec_with([block], ["i2", "i2"], PureStateParams.from_alpha2(0.3, 0.2))
        assert isinstance(run_db(spec), DBRun)
        with pytest.raises(NotCliffordError):
            run_heisenberg(spec)


class TestCompare:
    def test_report_carries_the_db_run(self):
        spec = named_scenario("cnot", PureStateParams.from_alpha2(0.3, 0.7))
        report = compare(spec)
        again = run_db(spec)
        assert report.bloch_db == report.db.bloch == again.bloch
        assert (report.db.residual, report.db.degenerate) == (again.residual, again.degenerate)

    def test_cz_agrees_for_generic_preps(self, rng):
        for _ in range(20):
            p = random_params(rng)
            if abs(p.alpha - p.beta) < 1e-3:
                continue
            report = compare(named_scenario("cz", p))
            assert "agree" in report.flags
            assert report.max_component_delta < 1e-9

    def test_single_blocks_never_diverge_off_balance(self, rng):
        for name in ("cz", "cnot"):
            for _ in range(25):
                p = random_params(rng)
                if abs(p.alpha - p.beta) <= 1e-3:
                    continue
                report = compare(named_scenario(name, p))
                assert "diverge" not in report.flags

    def test_chained_divergence(self):
        p = PureStateParams.from_alpha2(0.75, 0.0)
        report = compare(named_scenario("chained_cnot_hadamard", p))
        assert "diverge" in report.flags
        assert "agree" not in report.flags
        assert abs(report.trace_distance - 0.5) < 1e-9

    @pytest.mark.parametrize("locals_", [("s", "i2"), ("i2", "s"), ("s", "s")])
    @pytest.mark.parametrize("gate", ["cz_swap", "cnot_swap"])
    def test_phase_gate_locals(self, gate, locals_, rng):
        # both engines read the s gate off the same matrix: never a clean
        # disagreement, and the controlled-sign block always agrees
        for _ in range(15):
            p = random_params(rng)
            if abs(p.alpha - p.beta) < 1e-3:
                continue
            report = compare(spec_with([BlockSpec(gate)], locals_, p))
            assert "diverge" not in report.flags
            assert "agree" in report.flags or "singular" in report.flags
            if gate == "cz_swap":
                assert "agree" in report.flags, report.flags

    def test_circuit_without_a_block(self):
        # no fixed point is solved: zero residual, no degeneracy, and the local
        # gate's output, its transfer matrix applied to the prepared Pauli traces
        spec = CircuitSpec(PureStateParams.from_alpha2(0.3, 0.4), (), ("h",))
        want = (-0.4, 0.657467717356937, 0.6385422465533964)
        report = compare(spec)
        assert report.flags == ("agree",)
        assert (report.db.residual, report.db.degenerate) == (0.0, False)
        assert report.db.bloch.as_tuple() == want
        circuit = spec.circuit
        batch = db_model.solve_chain_batch(circuit.db_blocks, circuit.db_locals, spec.prep.batch)
        assert batch.residual.tobytes() == np.zeros(1).tobytes()
        assert batch.degenerate.dtype == bool and not batch.degenerate.any()
        assert tuple(batch.bloch[0].tolist()) == want

    def test_balanced_cnot_is_singular(self):
        report = compare(named_scenario("cnot", PureStateParams.from_alpha2(0.5, 0.0)))
        assert "singular" in report.flags
        assert report.trace_distance is None
        assert "agree" not in report.flags

    def test_trace_distance_tracks_prepared_norm(self, rng):
        # chained scenario: mixed output vs pure reconstruction, half the norm
        for _ in range(10):
            p = random_params(rng)
            report = compare(named_scenario("chained_cnot_hadamard", p))
            assert abs(report.trace_distance - 0.5 * p.bloch().norm()) < 1e-9


def test_nan_inputs_end_in_qlinalg_error_before_lapack(capfd):
    spec = spec_with([BlockSpec(np.full((4, 4), np.nan))], ["i2", "i2"],
                     PureStateParams.from_alpha2(0.3))
    for call in (lambda: run_db(spec), lambda: compare(spec),
                 lambda: solve_fixed_point(SWAP @ CNOT, np.full((2, 2), np.nan))):
        with pytest.raises(QlinalgError):
            call()
    assert capfd.readouterr() == ("", "")


def test_infinite_block_ends_in_qlinalg_error_without_a_warning(capfd):
    # U U^dag of an infinite block is NaN; numpy must not warn before the refusal
    spec = spec_with([BlockSpec(np.full((4, 4), np.inf))], ["i2", "i2"],
                     PureStateParams.from_alpha2(0.3))
    for call in (lambda: run_db(spec), lambda: compare(spec)):
        with pytest.raises(QlinalgError, match="not unitary"):
            call()
    assert capfd.readouterr() == ("", "")


def test_both_engines_refuse_a_block_off_unitarity_by_2e_10():
    # the Heisenberg engine's table once accepted deviations up to 1e-9, the
    # density-matrix engine's loop slice only up to ATOL_STRUCT
    u = CNOT.copy()
    u[0, 0] *= 1 + 1e-10
    spec = spec_with([BlockSpec(u)], ["i2", "i2"], PureStateParams.from_alpha2(0.3, 0.2))
    for call in (run_db, run_heisenberg, compare):
        with pytest.raises(QlinalgError, match=r"not unitary \(deviation 2.000e-10\)"):
            call(spec)


class TestGeometry:
    def test_comfortable_margin(self):
        g = GeometryConfig(hi_position=(0.0, 0.0), ho_position=(3e8, 0.0),
                           external_transit_time=1.5, c=3e8)
        check = validate_geometry(g)
        assert check.ok and abs(check.margin - 0.5) < 1e-12

    def test_violation(self):
        g = GeometryConfig(hi_position=(0.0, 0.0), ho_position=(3e8, 0.0),
                           external_transit_time=0.5, c=3e8)
        check = validate_geometry(g)
        assert not check.ok and abs(check.margin + 0.5) < 1e-12

    def test_boundary_is_allowed(self):
        # only strictly faster-than-light transit violates
        g = GeometryConfig(hi_position=(0.0, 0.0), ho_position=(3e8, 0.0),
                           external_transit_time=1.0, c=3e8)
        check = validate_geometry(g)
        assert check.ok and abs(check.margin) < 1e-12

    def test_diagonal_distance(self):
        g = GeometryConfig(hi_position=(0.0, 0.0), ho_position=(3.0, 4.0),
                           external_transit_time=1.0, c=10.0)
        check = validate_geometry(g)
        assert check.ok and abs(check.margin - 0.5) < 1e-12

    def test_invalid_speed(self):
        with pytest.raises(ScenarioError):
            GeometryConfig(hi_position=(0,), ho_position=(1,),
                           external_transit_time=1.0, c=0.0)

    @pytest.mark.parametrize("field, value", [
        ("hi_position", (math.nan, 0.0)), ("ho_position", (math.inf, 0.0)),
        ("external_transit_time", math.nan), ("c", math.inf)])
    def test_non_finite_values_rejected(self, field, value):
        values = dict(hi_position=(0.0, 0.0), ho_position=(3e8, 0.0),
                      external_transit_time=1.5, c=3e8)
        values[field] = value
        with pytest.raises(ScenarioError, match="finite"):
            GeometryConfig(**values)


# -- compare corpus: every report field of scenario.compare, byte for byte ----

COMPARE_CORPUS = pathlib.Path(__file__).with_name("golden") / "compare_corpus.txt"
EDGE_ALPHA2 = (0.0, 1.0, 0.5, 1e-300)
EDGE_THETA = (0.0, -0.0, math.pi, -math.pi / 2)


def corpus_preparations() -> list[tuple[str, float, float]]:
    """60 (scenario, alpha2, theta): 4 seeded and the 16 edge pairs per scenario."""
    rng = np.random.default_rng(1991)
    calls = []
    for name in scenario_names():
        calls += [(name, rng.uniform(0.0, 1.0), rng.uniform(-math.pi, math.pi))
                  for _ in range(4)]
        calls += [(name, a2, th) for a2, th in itertools.product(EDGE_ALPHA2, EDGE_THETA)]
    return calls


def corpus_line(name: str, alpha2: float, theta: float) -> str:
    """Every field of one report: the db output's bytes, Bloch vector, residual
    and degeneracy; each Heisenberg value and status; trace distance, delta, flags."""
    r = compare(named_scenario(name, PureStateParams.from_alpha2(alpha2, theta)))
    heis = [f"{a}={r.heisenberg.components[a]!r}:{r.heisenberg.statuses[a]}" for a in "xyz"]
    return " ".join([
        name, repr(alpha2), repr(theta), r.db.output.tobytes().hex(),
        *map(repr, r.db.bloch.as_tuple()), repr(r.db.residual), repr(r.db.degenerate),
        *heis, repr(r.trace_distance), repr(r.max_component_delta),
        ";".join(r.flags) or "-"]) + "\n"


def corpus_text() -> str:
    return "".join(corpus_line(*call) for call in corpus_preparations())


def test_compare_corpus_is_byte_identical():
    expected = COMPARE_CORPUS.read_text().splitlines(keepends=True)
    got = [corpus_line(*call) for call in corpus_preparations()]
    assert len(got) == len(expected) == 60
    for g, e in zip(got, expected):
        assert g == e


# -- the verdict's Bloch-vector trace distance against the dense oracle -------


def random_circuit_specs(seed: int, per_depth: int) -> list[CircuitSpec]:
    """per_depth seeded one-block and two-block circuits of random Cliffords
    (cli._random_clifford, as conjecture-check draws them), each with random
    local gates and a random preparation."""
    rng = np.random.default_rng(seed)
    specs = []
    for depth in (1, 2):
        for _ in range(per_depth):
            blocks = [BlockSpec(SWAP @ cli._random_clifford(rng)) for _ in range(depth)]
            local_names = [LOCAL_NAMES[i] for i in rng.integers(len(LOCAL_NAMES), size=depth + 1)]
            specs.append(spec_with(blocks, local_names, PureStateParams.from_alpha2(
                float(rng.uniform(0.0, 1.0)), float(rng.uniform(-math.pi, math.pi)))))
    return specs


def assert_verdict_matches_the_dense_oracle(report: scenario.ComparisonReport,
                                            slack: float = 0.0) -> None:
    """The trace distance is within 1e-15 + slack of the dense oracle's, the
    density-matrix engine's output against the Heisenberg Bloch vector's
    state; delta is the largest Bloch-component gap, and agree and diverge
    follow it against COMPARISON_ATOL, agree only on a non-degenerate fixed
    point.  A singular Heisenberg component leaves both numbers out."""
    assert ("degenerate" in report.flags) == report.db.degenerate
    if not report.heisenberg.all_ok:
        assert report.trace_distance is report.max_component_delta is None
        assert "singular" in report.flags
        return
    hb = report.heisenberg.bloch()
    dense = qlinalg.trace_distance(report.db.output, density_from_bloch(hb))
    assert abs(report.trace_distance - dense) <= 1e-15 + slack
    gaps = [abs(a - b) for a, b in zip(report.db.bloch.as_tuple(), hb.as_tuple())]
    assert report.max_component_delta == max(gaps)
    close = report.max_component_delta < scenario.COMPARISON_ATOL
    assert ("agree" in report.flags) == (close and not report.db.degenerate)
    assert ("diverge" in report.flags) == (not close)


@pytest.mark.parametrize("gap, degenerate, flags", [
    (scenario.COMPARISON_ATOL, False, ("diverge",)),
    (math.nextafter(scenario.COMPARISON_ATOL, 0.0), False, ("agree",)),
    (math.nextafter(scenario.COMPARISON_ATOL, 0.0), True, ("degenerate",)),
    (0.6, True, ("degenerate", "diverge")),
])
def test_verdict_on_either_side_of_the_tolerance(gap, degenerate, flags):
    # a gap of exactly COMPARISON_ATOL diverges; the distance is half the gap
    r_db = BlochVector(gap, 0.0, 0.0)
    db = DBRun(density_from_bloch(r_db), r_db, 0.0, degenerate)
    heis = HeisenbergResult({"x": 0.0, "y": 0.0, "z": 0.0}, dict.fromkeys("xyz", "ok"))
    r = scenario.verdict(db, heis)
    assert r.flags == flags
    assert r.max_component_delta == gap and r.trace_distance == gap / 2
    assert_verdict_matches_the_dense_oracle(r)


def test_verdict_matches_the_dense_oracle_on_the_corpus():
    flags = set()
    for name, alpha2, theta in corpus_preparations():
        r = compare(named_scenario(name, PureStateParams.from_alpha2(alpha2, theta)))
        assert_verdict_matches_the_dense_oracle(r)
        flags.update(r.flags)
    assert flags == {"agree", "diverge", "singular", "degenerate"}


def test_verdict_matches_the_dense_oracle_on_random_circuits():
    # The dense oracle also reads the output's own departure from a state:
    # half its trace's deviation from 1, and the lower triangle of a matrix
    # that is hermitian only to rounding.  The Bloch vector reads neither.
    # Those reach 1.3e-15 on these circuits, and explain all of the gap.
    flags = set()
    for spec in random_circuit_specs(seed=2007, per_depth=200):
        r = compare(spec)
        out = r.db.output
        slack = abs(out.trace().real - 1.0) / 2 + np.max(np.abs(out - out.conj().T))
        assert_verdict_matches_the_dense_oracle(r, slack)
        flags.update(r.flags)
    assert flags == {"agree", "diverge", "singular", "degenerate"}


if __name__ == "__main__":
    # Regenerate (only when an output change is intended) with
    #     PYTHONPATH=src:tests python tests/test_scenario.py
    COMPARE_CORPUS.write_text(corpus_text())
