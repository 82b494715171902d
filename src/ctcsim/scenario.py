"""Shared circuit specifications, named scenarios, and dual-model comparison.

Only this module wires a CircuitSpec into the two engines.  Each block is
one interaction U, given by name or as an anonymous 4x4 matrix: the qubit
meets its own past self through U followed by a swap.  The density-matrix
engine reads U's Pauli transfer matrix, and the Heisenberg engine conjugates
through U_bar = SWAP U.

What does not depend on the preparation depends on the circuit's blocks
and local gates alone, so compile_circuit compiles it on first use into the
Circuit both engines read, and keeps it; spec.circuit looks it up by value.
evaluate_db and evaluate_heisenberg run a spec's circuit on N preparations
at once, and are the only route from a spec to numbers; run_db and
run_heisenberg are the one-point case, on spec.prep.  verdict is the one
cross-engine rule, and compare is verdict on run_db and run_heisenberg.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from . import db_model, heisenberg_model, qlinalg
from .heisenberg_model import (
    ORTHOGONAL,
    HeisenbergBatch,
    HeisenbergCircuit,
    HeisenbergResult,
    NotCliffordError,
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

# One entry per local gate name: its matrix, shared read-only, whose
# transfer matrix the density-matrix engine applies, and the table the
# Heisenberg engine reads.
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

    u, the interaction U, is resolved once as a read-only complex matrix,
    and blocks with bitwise-equal u are equal.  A matrix gate is kept as u
    itself, a copy, so a block does not change when the caller's array does.
    """

    _fields = ("gate",)

    def __init__(self, gate: str | np.ndarray) -> None:
        if isinstance(gate, str):
            key = gate.lower()
            follow_swap = key.endswith("_swap") and key != "swap"
            try:
                mat = standard_gate(key[:-5] if follow_swap else key)
            except QlinalgError:  # name the value given, not the stripped name
                raise QlinalgError(f"unknown gate name {gate!r}") from None
        else:  # an anonymous matrix is its own gate
            mat, follow_swap = np.array(gate, dtype=complex), False
        if mat.shape != (4, 4):
            raise ScenarioError(f"block gate {gate!r} is not a two-qubit gate")
        u = qlinalg.SWAP @ mat if follow_swap else mat
        u.flags.writeable = False
        vars(self).update(gate=gate if isinstance(gate, str) else u, u=u, _key=u.tobytes())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BlockSpec) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


class Circuit(Record):
    """What both engines read of one circuit, as compile_circuit gives it.

    db_blocks holds each block's loop and output slices and db_locals each
    local gate's transfer matrix, or None for an identity, which the
    density-matrix chain does not apply (read off the local's Clifford
    table, as apply_local skips it).  words holds each axis's
    back-propagated word or the status that stops it, or, if a block is not
    Clifford, the NotCliffordError that only the Heisenberg engine raises.
    """

    _fields = ("db_blocks", "db_locals", "words")

    def __init__(self, db_blocks: tuple[tuple[np.ndarray, np.ndarray], ...],
                 db_locals: tuple[np.ndarray | None, ...],
                 words: Mapping | NotCliffordError) -> None:
        vars(self).update(db_blocks=db_blocks, db_locals=db_locals, words=words)


class CircuitSpec(ValueRecord):
    _fields = ("prep", "blocks", "local_gates", "overlap")

    def __init__(self, prep: PureStateParams, blocks: tuple[BlockSpec, ...],
                 local_gates: tuple[str, ...], overlap: TimeDistribution = ORTHOGONAL) -> None:
        vars(self).update(prep=prep, blocks=blocks, local_gates=local_gates, overlap=overlap)
        if len(local_gates) != len(blocks) + 1:
            raise ScenarioError(
                f"need {len(blocks) + 1} local gates for "
                f"{len(blocks)} blocks, got {len(local_gates)}")
        for name in local_gates:
            if name.lower() not in _LOCALS:
                raise ScenarioError(f"unknown local gate {name!r}")

    @property
    def circuit(self) -> Circuit:
        """The compiled circuit of the spec's blocks and local gates."""
        return compile_circuit(self.blocks, self.local_gates)


def heisenberg_circuit(blocks: tuple[BlockSpec, ...], local_gates: tuple[str, ...],
                       transfers: Mapping[BlockSpec, np.ndarray]) -> HeisenbergCircuit:
    """The circuit the Heisenberg engine reads: the table of U_bar = SWAP @ U
    of each distinct block, read off U's transfer matrix R in transfers with
    its two output qubits swapped (R_bar[k, l] = R[l, k]), and each local
    gate's table."""
    tables = {block: tableau_from_transfer(qlinalg.SWAP @ block.u, r.swapaxes(0, 1))
              for block, r in transfers.items()}
    return HeisenbergCircuit(tuple(tables[b] for b in blocks),
                             tuple(_LOCALS[n.lower()][1] for n in local_gates))


# A compiled circuit holds a few kB; the bound keeps a caller that compiles
# many one-off circuits, as conjecture-check does, from keeping them all.
@functools.lru_cache(maxsize=1024)
def compile_circuit(blocks: tuple[BlockSpec, ...], local_gates: tuple[str, ...]) -> Circuit:
    """The circuit's one compile, keyed by value and kept while it is among
    the 1,024 most recently used.

    Each distinct block builds U's Pauli transfer matrix once, checking U
    unitary; its two slices and its Clifford table are read off that matrix.
    """
    transfers = {block: db_model.interaction_transfer(block.u) for block in dict.fromkeys(blocks)}
    try:
        words = heisenberg_model.compile_words(heisenberg_circuit(blocks, local_gates, transfers))
    except NotCliffordError as exc:
        words = exc.with_traceback(None)
    slices = {block: db_model.block_slices(block.u, r) for block, r in transfers.items()}
    return Circuit(tuple(slices[b] for b in blocks),
                   tuple(None if clifford.is_identity else db_model.local_transfer(matrix)
                         for matrix, clifford in (_LOCALS[n.lower()] for n in local_gates)),
                   words)


DEFAULT_PREP = PureStateParams.from_alpha2(0.75, 0.0)

_NAMED = {
    "cz": ((BlockSpec("cz_swap"),), ("i2", "i2")),
    "cnot": ((BlockSpec("cnot_swap"),), ("i2", "i2")),
    "chained_cnot_hadamard": ((BlockSpec("cnot_swap"),) * 2, ("i2", "h", "h")),
}


def scenario_names() -> tuple[str, ...]:
    return tuple(_NAMED)


def named_scenario(name: str, prep: PureStateParams | None = None,
                   overlap: TimeDistribution | None = None) -> CircuitSpec:
    """A paper scenario by stable public name: cz, cnot, chained_cnot_hadamard."""
    if name not in _NAMED:
        raise ScenarioError(f"unknown scenario {name!r}; known: {', '.join(_NAMED)}")
    return CircuitSpec(prep if prep is not None else DEFAULT_PREP, *_NAMED[name],
                       overlap if overlap is not None else ORTHOGONAL)


def evaluate_db(spec: CircuitSpec, preps: Preparations) -> DBBatch:
    """The circuit of spec on each preparation; spec.prep is not read."""
    circuit = spec.circuit
    return db_model.solve_chain_batch(circuit.db_blocks, circuit.db_locals, preps)


def evaluate_heisenberg(spec: CircuitSpec, preps: Preparations) -> HeisenbergBatch:
    """The words of spec's circuit on each preparation; spec.prep is not read."""
    words = spec.circuit.words
    if isinstance(words, NotCliffordError):  # a new one: raising the kept one grows its traceback
        raise NotCliffordError(*words.args)
    return heisenberg_model.evaluate_words(words, preps, spec.overlap)


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


def verdict(db_run: DBRun, heis: HeisenbergResult) -> ComparisonReport:
    """The cross-engine verdict on one preparation's two runs.

    agree requires every Bloch component within COMPARISON_ATOL and neither a
    singular Heisenberg component nor a degenerate fixed point; diverge marks
    a clean numeric disagreement.

    The trace distance is read off the two Bloch vectors r and r' alone.
    With d = r - r', rho - sigma = (d . sigma) / 2 is traceless and squares
    to |d|^2 I / 4, so its eigenvalues are +-|d| / 2, and T, half the sum of
    their moduli, is |d| / 2 (math.hypot, which neither overflows nor
    underflows).  No matrix is built and no spectrum read.
    qlinalg.trace_distance, the dense oracle, gives the same value from the
    two matrices, and tests/test_scenario.py pins the two against each
    other.  Both vectors are BlochVectors, so finite and in the ball.
    """
    flags: list[str] = []
    if db_run.degenerate:
        flags.append("degenerate")
    if not heis.all_ok:
        flags.append("singular")
        return ComparisonReport(db_run, heis, None, None, tuple(flags))
    r, hb = db_run.bloch, heis.bloch()
    d = (r.rx - hb.rx, r.ry - hb.ry, r.rz - hb.rz)
    delta = max(map(abs, d))
    tdist = 0.5 * math.hypot(*d)
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
