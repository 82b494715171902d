"""What ctcsim's record types promise: immutability, equality and hashing.

Every one of the 19 record types refuses attribute assignment and deletion.
The types that compare by value compare and hash equal when built equal;
Preparations, DBBatch, HeisenbergBatch and Circuit compare by identity, and
BlockSpec by the bytes of its u.  A record copied with changes is built
again, so its checks run again.
"""

import math

import numpy as np
import pytest

from ctcsim import scenario
from ctcsim.db_model import DBRun, DBSolution
from ctcsim.heisenberg_model import (
    HeisenbergCircuit,
    TimeDistribution,
    backpropagate_block,
)
from ctcsim.qlinalg import CNOT, SWAP, BlochVector, Preparations, PureStateParams, QlinalgError
from ctcsim.scenario import (
    BlockSpec,
    Circuit,
    CircuitSpec,
    ComparisonReport,
    GeometryCheck,
    GeometryConfig,
    ScenarioError,
)
from ctcsim.timed_pauli import PauliLetter, TimedPauliWord, tableau_from_unitary
from helpers import CNOT_TABLEAU, LOCAL_I

_L = PauliLetter


def replaced(record, **changes):
    """record with changes, through the copy path the program uses: a
    record's own _replace, or dataclasses.replace for a dataclass."""
    if hasattr(record, "_replace"):
        return record._replace(**changes)
    import dataclasses
    return dataclasses.replace(record, **changes)


def instances():
    """One instance of each record type, by type name, with the attributes
    each has (fields, derived values and a name it does not have)."""
    spec = scenario.named_scenario("cnot", PureStateParams(alpha2=0.3, theta=0.2))
    preps = Preparations(np.array([0.3, 0.6]), 0.2)
    db = scenario.evaluate_db(spec, preps)
    heis = scenario.evaluate_heisenberg(spec, preps)
    report = scenario.compare(spec)
    geometry = GeometryConfig(hi_position=(0.0, 0.0), ho_position=(3.0, 4.0),
                              external_transit_time=1.0)
    word = TimedPauliWord.build(2, {0: _L.Z, 2: _L.X})
    return {
        "PureStateParams": (spec.prep, ("alpha2", "theta", "alpha", "beta", "batch")),
        "Preparations": (preps, ("alpha2", "theta", "amplitudes", "alpha", "beta")),
        "BlochVector": (report.db.bloch, ("rx", "ry", "rz")),
        "DBSolution": (DBSolution(np.eye(2) / 2, np.eye(2) / 2, 0, 0.0, False),
                       ("fixed_point", "output", "iterations", "residual", "degenerate")),
        # DBRun.output is built anew on each read, so it is not in the list
        "DBRun": (report.db, ("bloch", "residual", "degenerate")),
        "DBBatch": (db, ("output", "bloch", "residual", "degenerate")),
        "TimeDistribution": (TimeDistribution.gaussian(d=0.5, tau=1.0), ("kind", "d", "tau")),
        "BlockResult": (backpropagate_block(CNOT_TABLEAU, TimedPauliWord.single(0, _L.Z)),
                        ("upper_in", "status", "labels_resolved", "measured", "lower_seq",
                         "cycle_start", "cycle_period")),
        "HeisenbergCircuit": (HeisenbergCircuit((CNOT_TABLEAU,), (LOCAL_I, LOCAL_I)),
                              ("blocks", "local_gates")),
        "HeisenbergResult": (report.heisenberg, ("components", "statuses")),
        "HeisenbergBatch": (heis, ("values", "statuses")),
        "BlockSpec": (spec.blocks[0], ("gate", "u")),
        "Circuit": (spec.circuit, ("db_blocks", "db_locals", "words")),
        "CircuitSpec": (spec, ("prep", "blocks", "local_gates", "overlap", "circuit")),
        "ComparisonReport": (report, ("db", "heisenberg", "trace_distance",
                                      "max_component_delta", "flags")),
        "GeometryConfig": (geometry, ("hi_position", "ho_position",
                                      "external_transit_time", "c")),
        "GeometryCheck": (scenario.validate_geometry(geometry), ("ok", "margin")),
        "TimedPauliWord": (word, ("ipow", "head", "tail")),
        "Clifford": (CNOT_TABLEAU, ("table",)),
    }


RECORDS = instances()


def test_there_are_nineteen_record_types():
    assert len(RECORDS) == 19
    assert all(type(record).__name__ == name for name, (record, _) in RECORDS.items())


@pytest.mark.parametrize("name", RECORDS)
def test_every_attribute_refuses_assignment_and_deletion(name):
    record, attributes = RECORDS[name]
    for attribute in (*attributes, "not_an_attribute"):
        before = getattr(record, attribute, None)
        with pytest.raises(AttributeError):
            setattr(record, attribute, before)
        with pytest.raises(AttributeError):
            delattr(record, attribute)
        assert getattr(record, attribute, None) is before


def _pairs():
    """Two records built apart from equal inputs, and one that differs, per
    type with value equality.  Records holding arrays or dicts share those
    objects, because their values compare by ==."""
    p = PureStateParams(alpha2=0.3, theta=0.2)
    report = scenario.compare(scenario.named_scenario("cnot", p))
    db, heis = report.db, report.heisenberg
    half = np.eye(2) / 2
    word = TimedPauliWord.single(0, _L.Z)
    blocks, locals_ = (CNOT_TABLEAU,), (LOCAL_I, LOCAL_I)
    fresh_cnot = tableau_from_unitary(CNOT)

    def geometry(transit):
        return GeometryConfig(hi_position=(0.0, 0.0), ho_position=(3.0, 4.0),
                              external_transit_time=transit)

    def spec(prep, block="cnot_swap"):
        return CircuitSpec(prep, (BlockSpec(block),), ("i2", "i2"))

    return {
        "PureStateParams": (p, PureStateParams(alpha2=0.3, theta=0.2),
                            PureStateParams(alpha2=0.3, theta=0.1)),
        "BlochVector": (BlochVector(0.1, 0.2, 0.3), BlochVector(0.1, 0.2, 0.3),
                        BlochVector(0.1, 0.2, -0.3)),
        "DBSolution": (DBSolution(half, half, 0, 0.0, False),
                       DBSolution(half, half, 0, 0.0, False),
                       DBSolution(half, half, 1, 0.0, False)),
        "DBRun": (DBRun(db.bloch, db.residual, db.degenerate),
                  DBRun(db.bloch, db.residual, db.degenerate),
                  DBRun(db.bloch, db.residual, not db.degenerate)),
        "TimeDistribution": (TimeDistribution.gaussian(d=0.5, tau=1.0),
                             TimeDistribution("gaussian", 0.5, 1.0),
                             TimeDistribution.orthogonal()),
        "BlockResult": (backpropagate_block(CNOT_TABLEAU, word),
                        backpropagate_block(fresh_cnot, TimedPauliWord.single(0, _L.Z)),
                        backpropagate_block(CNOT_TABLEAU, TimedPauliWord.single(0, _L.X))),
        "HeisenbergCircuit": (HeisenbergCircuit(blocks=blocks, local_gates=locals_),
                              HeisenbergCircuit(blocks=(fresh_cnot,), local_gates=locals_),
                              HeisenbergCircuit(blocks * 2, (LOCAL_I,) * 3)),
        "HeisenbergResult": (report.heisenberg,
                             type(heis)(heis.components, heis.statuses),
                             type(heis)(heis.components, {**heis.statuses, "x": "singular"})),
        "CircuitSpec": (spec(p), scenario.named_scenario("cnot", p),
                        spec(p, "cz_swap")),
        "ComparisonReport": (report, ComparisonReport(db, heis, report.trace_distance,
                                                      report.max_component_delta, report.flags),
                             ComparisonReport(db, heis, None, None, ("singular",))),
        "GeometryConfig": (geometry(1.0), geometry(1.0), geometry(2.0)),
        "GeometryCheck": (GeometryCheck(ok=True, margin=0.5), GeometryCheck(True, 0.5),
                          GeometryCheck(ok=False, margin=-0.5)),
        "TimedPauliWord": (TimedPauliWord.build(2, {0: _L.Z, 2: _L.X}),
                           TimedPauliWord(2, ((0, _L.Z), (2, _L.X))),
                           TimedPauliWord.build(0, {0: _L.Z, 2: _L.X})),
        "Clifford": (CNOT_TABLEAU, fresh_cnot, tableau_from_unitary(SWAP)),
    }


PAIRS = _pairs()
# Records that hold an array or a dict cannot be hashed.
UNHASHABLE = {"DBSolution", "HeisenbergResult", "ComparisonReport"}


@pytest.mark.parametrize("name", PAIRS)
def test_value_records_compare_and_hash_by_value(name):
    a, b, other = PAIRS[name]
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


def test_every_value_record_type_is_paired():
    identity = {"Preparations", "DBBatch", "HeisenbergBatch", "Circuit", "BlockSpec"}
    assert set(PAIRS) == set(RECORDS) - identity


def test_identity_records_compare_by_identity():
    spec = scenario.named_scenario("cnot")
    preps = Preparations(np.array([0.3]), 0.2)
    circuit = spec.circuit
    twins = [
        (Preparations(np.array([0.3]), 0.2), preps),
        (scenario.evaluate_db(spec, preps), scenario.evaluate_db(spec, preps)),
        (scenario.evaluate_heisenberg(spec, preps), scenario.evaluate_heisenberg(spec, preps)),
        (Circuit(*circuit._values()), Circuit(*circuit._values())),
    ]
    for a, b in twins:
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
    # one Circuit per circuit value: a named scenario's, and a spec's of equal parts
    assert scenario.named_scenario("cnot").circuit is circuit
    assert CircuitSpec(spec.prep, (BlockSpec("cnot_swap"),), ("i2", "i2")).circuit is circuit


def test_block_specs_compare_by_the_bytes_of_u():
    named = BlockSpec("cnot_swap")
    matrix = BlockSpec(SWAP @ CNOT)
    assert named == matrix and hash(named) == hash(matrix)
    assert named != BlockSpec("cnot") and named != BlockSpec("cz_swap")
    # equal values with different bits are different blocks
    negative_zero = np.eye(4, dtype=complex)
    negative_zero[0, 1] = -0.0
    assert BlockSpec(np.eye(4)) != BlockSpec(negative_zero)
    assert np.array_equal(BlockSpec(np.eye(4)).u, BlockSpec(negative_zero).u)


def test_block_interaction_is_read_only():
    # a block is the key of the process-wide compile cache, so u cannot change
    block = BlockSpec("cnot_swap")
    before = hash(block)
    with pytest.raises(ValueError, match="read-only"):
        block.u[0, 0] = 2
    assert hash(block) == before and block == BlockSpec(SWAP @ CNOT)


def test_pure_state_params_repr():
    want = "PureStateParams(alpha2=0.75, theta=0.0)"
    assert repr(PureStateParams(alpha2=0.75, theta=0.0)) == repr(PureStateParams.from_alpha2(0.75))
    assert repr(PureStateParams.from_alpha2(0.75)) == want


def test_pure_state_params_are_keyword_only():
    with pytest.raises(TypeError):
        PureStateParams(0.75)


def test_replaced_state_is_checked_again():
    p = PureStateParams(alpha2=0.3, theta=0.2)
    q = replaced(p, theta=1.0)
    assert (q.alpha2, q.theta, q.alpha, q.beta) == (0.3, 1.0, math.sqrt(0.3), math.sqrt(0.7))
    with pytest.raises(QlinalgError, match=r"alpha2 must be in \[0, 1\], got 2.0"):
        replaced(p, alpha2=2.0)
    with pytest.raises(QlinalgError, match="state parameters must be finite"):
        replaced(p, theta=math.inf)


def test_replaced_spec_is_checked_again():
    spec = scenario.named_scenario("chained_cnot_hadamard")
    prep = PureStateParams(alpha2=0.6)
    again = replaced(spec, prep=prep)
    assert (again.prep, again.blocks, again.local_gates) == (prep, spec.blocks, spec.local_gates)
    with pytest.raises(ScenarioError, match="need 3 local gates for 2 blocks, got 2"):
        replaced(spec, local_gates=("i2", "h"))
    with pytest.raises(ScenarioError, match="unknown local gate 'q'"):
        replaced(spec, local_gates=("i2", "h", "q"))
