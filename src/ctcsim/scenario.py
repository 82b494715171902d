"""Shared circuit specifications, named scenarios, and dual-model comparison.

Only this module wires a CircuitSpec into the two engines.  Each block is
one interaction U, given by name or as an anonymous 4x4 matrix: the qubit
meets its own past self through U followed by a swap.  The density-matrix
engine conjugates with U, and the Heisenberg engine conjugates through
U_bar = SWAP U.

What does not depend on the preparation is compiled on first use and kept:
each block's parts (BlockSpec), and each circuit's engine inputs (Circuit):
the density-matrix engine's (u, loop slice) pairs and local gates, an
identity local marked not to be applied, and the HeisenbergCircuit under
which heisenberg_model.compile_words keeps each axis's back-propagated word.
A spec makes its Circuit on first use; the named scenarios share one
Circuit per name, so a named circuit's inputs are resolved once per process
whatever its preparation.  evaluate_db and evaluate_heisenberg run a spec's circuit on N
preparations at once, and are the only route from a spec to numbers; run_db
and run_heisenberg are the one-point case, on spec.prep.  verdict is the one
cross-engine rule, and compare is verdict on run_db and run_heisenberg.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import db_model, heisenberg_model, qlinalg
from .heisenberg_model import (
    HeisenbergBatch,
    HeisenbergCircuit,
    HeisenbergResult,
    TimeDistribution,
)
from .db_model import DBBatch, DBRun
from .qlinalg import (
    BlochVector,
    CtcsimError,
    Preparations,
    PureStateParams,
    QlinalgError,
    Record,
    ValueRecord,
    standard_gate,
)
from .timed_pauli import LOCAL_TABLES, Clifford, tableau_from_transfer

# The symbolic engine is exact, so the direct fixed-point solve dominates
# the disagreement budget.
COMPARISON_ATOL = 1e-9

# One entry per local gate name: the matrix the density-matrix engine
# applies, shared read-only, and the table the Heisenberg engine reads.
_LOCALS: dict[str, tuple[np.ndarray, Clifford]] = {
    name: (standard_gate(gate), LOCAL_TABLES[gate])
    for name, gate in (("i2", "I2"), ("i", "I2"), ("h", "H"),
                       ("x", "X"), ("y", "Y"), ("z", "Z"), ("s", "S"))}
for _matrix, _ in _LOCALS.values():
    _matrix.flags.writeable = False


class ScenarioError(CtcsimError, ValueError):
    pass


class BlockSpec(Record):
    """One wormhole block: a gate name ("<g>_swap" composes a swap after g) or a 4x4 matrix.

    u, the interaction U, is resolved once as a complex matrix, and blocks
    with bitwise-equal u are equal.  transfer, U's Pauli transfer matrix
    (checked unitary), is compiled on first use and kept with the block, as
    is what each engine reads of it: loop, U's loop slice, and clifford, the
    table of U_bar = SWAP @ U.
    """

    _fields = ("gate",)

    def __init__(self, gate: str | np.ndarray) -> None:
        vars(self)["gate"] = gate
        if isinstance(gate, str):
            key = gate.lower()
            follow_swap = key.endswith("_swap") and key != "swap"
            try:
                mat = standard_gate(key[:-5] if follow_swap else key)
            except QlinalgError:  # name the value given, not the stripped name
                raise QlinalgError(f"unknown gate name {gate!r}") from None
        else:  # an anonymous matrix is its own gate; a copy, so u cannot change
            mat, follow_swap = np.array(gate, dtype=complex), False
        if mat.shape != (4, 4):
            raise ScenarioError(f"block gate {gate!r} is not a two-qubit gate")
        vars(self)["u"] = qlinalg.SWAP @ mat if follow_swap else mat

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BlockSpec) and self.u.tobytes() == other.u.tobytes()

    def __hash__(self) -> int:
        return hash(self.u.tobytes())

    @functools.cached_property
    def transfer(self) -> np.ndarray:
        return db_model.interaction_transfer(self.u)

    @functools.cached_property
    def loop(self) -> np.ndarray:
        return db_model.loop_slice(self.transfer)

    @functools.cached_property
    def clifford(self) -> Clifford:
        # SWAP swaps U's two output qubits: R_bar[k, l] = R[l, k]
        return tableau_from_transfer(qlinalg.SWAP @ self.u, self.transfer.swapaxes(0, 1))


class Circuit(Record):
    """A circuit's blocks and local gates, with what each engine reads of
    them resolved on first use and kept.

    db_blocks holds each block's (u, loop) and db_locals each local gate's
    matrix, or None for an identity, which the density-matrix chain does not
    apply (read off the local's Clifford table, as apply_local skips it).
    heisenberg is the HeisenbergCircuit that compile_words keys its words on.
    """

    _fields = ("blocks", "local_gates")

    def __init__(self, blocks: tuple[BlockSpec, ...], local_gates: tuple[str, ...]) -> None:
        vars(self).update(blocks=blocks, local_gates=local_gates)

    @functools.cached_property
    def db_blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple((b.u, b.loop) for b in self.blocks)

    @functools.cached_property
    def db_locals(self) -> tuple[np.ndarray | None, ...]:
        return tuple(None if clifford.is_identity else matrix
                     for matrix, clifford in (_LOCALS[n.lower()] for n in self.local_gates))

    @functools.cached_property
    def heisenberg(self) -> HeisenbergCircuit:
        return heisenberg_circuit(self)


# The overlap every spec has unless given one; the class is immutable.
_ORTHOGONAL = TimeDistribution.orthogonal()


class CircuitSpec(ValueRecord):
    _fields = ("prep", "blocks", "local_gates", "overlap")

    def __init__(self, prep: PureStateParams, blocks: tuple[BlockSpec, ...],
                 local_gates: tuple[str, ...], overlap: TimeDistribution = _ORTHOGONAL) -> None:
        vars(self).update(prep=prep, blocks=blocks, local_gates=local_gates, overlap=overlap)
        if len(local_gates) != len(blocks) + 1:
            raise ScenarioError(
                f"need {len(blocks) + 1} local gates for "
                f"{len(blocks)} blocks, got {len(local_gates)}")
        for name in local_gates:
            if name.lower() not in _LOCALS:
                raise ScenarioError(f"unknown local gate {name!r}")

    @functools.cached_property
    def circuit(self) -> Circuit:
        """The spec's blocks and local gates, with their engine inputs."""
        return Circuit(self.blocks, self.local_gates)


def local_matrix(name: str) -> np.ndarray:
    return _LOCALS[name.lower()][0].copy()


def local_clifford(name: str) -> Clifford:
    return _LOCALS[name.lower()][1]


def heisenberg_circuit(spec: CircuitSpec | Circuit) -> HeisenbergCircuit:
    return HeisenbergCircuit(
        blocks=tuple(b.clifford for b in spec.blocks),
        local_gates=tuple(local_clifford(n) for n in spec.local_gates),
    )


DEFAULT_PREP = PureStateParams.from_alpha2(0.75, 0.0)

# One Circuit per name, at module level, so each named circuit's tables and
# engine inputs are compiled once per process.
_CNOT = BlockSpec("cnot_swap")
_NAMED = {
    "cz": Circuit((BlockSpec("cz_swap"),), ("i2", "i2")),
    "cnot": Circuit((_CNOT,), ("i2", "i2")),
    "chained_cnot_hadamard": Circuit((_CNOT, _CNOT), ("i2", "h", "h")),
}


def scenario_names() -> tuple[str, ...]:
    return tuple(_NAMED)


def named_scenario(name: str, prep: PureStateParams | None = None,
                   overlap: TimeDistribution | None = None) -> CircuitSpec:
    """A paper scenario by stable public name: cz, cnot, chained_cnot_hadamard."""
    if name not in _NAMED:
        raise ScenarioError(f"unknown scenario {name!r}; known: {', '.join(_NAMED)}")
    circuit = _NAMED[name]
    spec = CircuitSpec(prep if prep is not None else DEFAULT_PREP, circuit.blocks,
                       circuit.local_gates, overlap if overlap is not None else _ORTHOGONAL)
    vars(spec)["circuit"] = circuit  # cached ahead: every spec of a name shares its Circuit
    return spec


def evaluate_db(spec: CircuitSpec, preps: Preparations) -> DBBatch:
    """The circuit of spec on each preparation; spec.prep is not read."""
    circuit = spec.circuit
    return db_model.solve_chain_batch(circuit.db_blocks, circuit.db_locals, preps)


def evaluate_heisenberg(spec: CircuitSpec, preps: Preparations) -> HeisenbergBatch:
    """The words of spec's circuit on each preparation; spec.prep is not read."""
    return heisenberg_model.evaluate_words(
        heisenberg_model.compile_words(spec.circuit.heisenberg), preps, spec.overlap)


def run_db(spec: CircuitSpec) -> DBRun:
    return evaluate_db(spec, spec.prep.batch)[0]


def run_heisenberg(spec: CircuitSpec) -> HeisenbergResult:
    return evaluate_heisenberg(spec, spec.prep.batch)[0]


class ComparisonReport(NamedTuple):
    db: DBRun
    heisenberg: HeisenbergResult
    trace_distance: float | None
    max_component_delta: float | None
    flags: tuple[str, ...]

    @property
    def bloch_db(self) -> BlochVector:
        return self.db.bloch

    @property
    def agree(self) -> bool:
        return "agree" in self.flags


def verdict(db_run: DBRun, heis: HeisenbergResult) -> ComparisonReport:
    """The cross-engine verdict on one preparation's two runs.

    agree requires every Bloch component within COMPARISON_ATOL and neither a
    singular Heisenberg component nor a degenerate fixed point; diverge marks
    a clean numeric disagreement.
    """
    flags: list[str] = []
    if db_run.degenerate:
        flags.append("degenerate")
    if not heis.all_ok:
        flags.append("singular")
        return ComparisonReport(db_run, heis, None, None, tuple(flags))
    hb = heis.bloch()
    delta = max(abs(a - b) for a, b in zip(db_run.bloch.as_tuple(), hb.as_tuple()))
    tdist = qlinalg.trace_distance(db_run.output, qlinalg.density_from_bloch(hb))
    if delta < COMPARISON_ATOL and not db_run.degenerate:
        flags.append("agree")
    elif delta >= COMPARISON_ATOL:
        flags.append("diverge")
    return ComparisonReport(db_run, heis, tdist, delta, tuple(flags))


def compare(spec: CircuitSpec) -> ComparisonReport:
    """Run both engines on one spec and give their verdict."""
    return verdict(run_db(spec), run_heisenberg(spec))


# -- no-signaling geometry of the external apparatus ------------------------


class GeometryConfig(ValueRecord):
    """External layout of the apparatus between entry and exit ports."""

    _fields = ("hi_position", "ho_position", "external_transit_time", "c")

    def __init__(self, hi_position: tuple[float, ...], ho_position: tuple[float, ...],
                 external_transit_time: float, c: float = 299792458.0) -> None:
        vars(self).update(hi_position=hi_position, ho_position=ho_position,
                          external_transit_time=external_transit_time, c=c)
        values = (*hi_position, *ho_position, external_transit_time, c)
        if not all(map(math.isfinite, values)):
            raise ScenarioError(f"geometry values must be finite, got {self!r}")
        if c <= 0:
            raise ScenarioError("speed of light must be positive")
        if len(hi_position) != len(ho_position):
            raise ScenarioError("entry and exit positions need matching dimensions")


class GeometryCheck(NamedTuple):
    ok: bool
    margin: float  # seconds of slack; negative on violation


def validate_geometry(g: GeometryConfig) -> GeometryCheck:
    """No signal may beat light over the straight line between the ports.

    The external transit must take at least distance / c; equality passes
    ("faster than" is strict).
    """
    dist = math.dist(g.hi_position, g.ho_position)
    margin = g.external_transit_time - dist / g.c
    return GeometryCheck(ok=margin >= 0.0, margin=margin)
