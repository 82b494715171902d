import itertools
import math

import numpy as np
import pytest

from ctcsim.qlinalg import CNOT, CZ, PAULI_BY_NAME, PureStateParams, QlinalgError, SWAP
from ctcsim.scenario import (
    BlockSpec,
    CircuitSpec,
    GeometryConfig,
    ScenarioError,
    compare,
    db_interaction,
    heisenberg_tableau,
    interaction_matrix,
    local_clifford,
    local_matrix,
    named_scenario,
    run_db,
    run_heisenberg,
    scenario_names,
    validate_geometry,
)
from ctcsim.timed_pauli import PauliLetter
from helpers import random_params


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
        assert np.allclose(interaction_matrix("cnot_swap"), SWAP @ CNOT, atol=0)
        assert np.allclose(interaction_matrix("cz_swap"), SWAP @ CZ, atol=0)

    def test_unknown_gate(self):
        # the name reaches qlinalg.standard_gate, whose error is not converted
        with pytest.raises(QlinalgError, match="unknown gate name 'xx'"):
            BlockSpec("xx_swap")

    def test_one_qubit_gate_rejected_as_block(self):
        with pytest.raises(ScenarioError):
            BlockSpec("h")

    def test_with_swap_vs_bare_equivalence(self, rng):
        # storing U with the swap folded in, or its bare counterpart, must
        # not change either engine
        pairs = [
            (BlockSpec("cz_swap", "with_swap"), BlockSpec("cz", "bare")),
            (BlockSpec("cnot_swap", "with_swap"), BlockSpec("cnot", "bare")),
            (BlockSpec("swap", "with_swap"), BlockSpec("i4", "bare")),
            (BlockSpec("cz", "with_swap"), BlockSpec("cz_swap", "bare")),
            (BlockSpec("cnot", "with_swap"), BlockSpec("cnot_swap", "bare")),
        ]
        for with_swap_block, bare_block in pairs:
            assert np.allclose(db_interaction(with_swap_block),
                               db_interaction(bare_block), atol=0)
            assert heisenberg_tableau(with_swap_block) == heisenberg_tableau(bare_block)
        for with_swap_block, bare_block in pairs:
            for _ in range(20):
                p = random_params(rng)
                spec_a = spec_with([with_swap_block], ["i2", "i2"], p)
                spec_b = spec_with([bare_block], ["i2", "i2"], p)
                assert np.max(np.abs(run_db(spec_a).output - run_db(spec_b).output)) < 1e-12
                ha, hb = run_heisenberg(spec_a), run_heisenberg(spec_b)
                assert ha.statuses == hb.statuses
                assert ha.components == hb.components

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
        # the interaction the density-matrix engine applies
        block = BlockSpec(gate, convention)
        assert_table_matches_dense(heisenberg_tableau(block), SWAP @ db_interaction(block), 2)

    @pytest.mark.parametrize("name", LOCAL_NAMES)
    def test_local_table_matches_dense(self, name):
        assert_table_matches_dense(local_clifford(name), local_matrix(name), 1)


class TestCompileOnce:
    def test_tableau_is_compiled_once_per_block(self):
        first = heisenberg_tableau(BlockSpec("cnot_swap"))
        assert heisenberg_tableau(BlockSpec("cnot_swap")) is first
        assert heisenberg_tableau(BlockSpec("cnot_swap", "bare")) is not first


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
                assert report.agree, report.flags

    def test_balanced_cnot_is_singular(self):
        report = compare(named_scenario("cnot", PureStateParams.from_alpha2(0.5, 0.0)))
        assert "singular" in report.flags
        assert report.trace_distance is None
        assert not report.agree

    def test_trace_distance_tracks_prepared_norm(self, rng):
        # chained scenario: mixed output vs pure reconstruction, half the norm
        for _ in range(10):
            p = random_params(rng)
            report = compare(named_scenario("chained_cnot_hadamard", p))
            assert abs(report.trace_distance - 0.5 * p.bloch().norm()) < 1e-9


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
