"""Shared circuit specifications, named scenarios, and dual-model comparison.

A CircuitSpec is consumed by both engines.  Each block stores a two-qubit
gate name plus a convention:

  * with_swap -- the stored gate is the full interaction U including any
    trailing swap; the density-matrix engine uses it directly and the
    Heisenberg engine conjugates through U_bar = U followed by a swap.
  * bare -- the stored gate is already U_bar; the density-matrix engine
    appends the swap itself.

Gate names accept a "_swap" suffix meaning "followed by a swap", so the
canonical interactions (a controlled gate chased by a swap) are expressible
by name: "cnot_swap", "cz_swap".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import db_model, heisenberg_model, qlinalg
from .heisenberg_model import (
    HeisenbergCircuit,
    HeisenbergResult,
    TimeDistribution,
    tableau_from_unitary,
)
from .qlinalg import BlochVector, PureStateParams, standard_gate
from .timed_pauli import LOCAL_TABLES, Clifford

# The symbolic engine is exact, so the direct fixed-point solve dominates
# the disagreement budget.
COMPARISON_ATOL = 1e-9

# One entry per local gate name: the standard gate whose matrix the
# density-matrix engine applies and whose table the Heisenberg engine reads.
_LOCALS: dict[str, str] = {
    "i2": "I2", "i": "I2", "h": "H",
    "x": "X", "y": "Y", "z": "Z", "s": "S",
}


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class BlockSpec:
    gate: str
    convention: str = "with_swap"

    def __post_init__(self) -> None:
        if self.convention not in ("with_swap", "bare"):
            raise ScenarioError(f"unknown block convention {self.convention!r}")
        interaction_matrix(self.gate)  # validate the name early


@dataclass(frozen=True)
class CircuitSpec:
    prep: PureStateParams
    blocks: tuple[BlockSpec, ...]
    local_gates: tuple[str, ...]
    overlap: TimeDistribution = field(default_factory=TimeDistribution.orthogonal)

    def __post_init__(self) -> None:
        if len(self.local_gates) != len(self.blocks) + 1:
            raise ScenarioError(
                f"need {len(self.blocks) + 1} local gates for "
                f"{len(self.blocks)} blocks, got {len(self.local_gates)}")
        for name in self.local_gates:
            if name.lower() not in _LOCALS:
                raise ScenarioError(f"unknown local gate {name!r}")


def interaction_matrix(name: str) -> np.ndarray:
    """Two-qubit gate matrix for a block name; "<g>_swap" composes a swap after g."""
    key = name.lower()
    follow_swap = key.endswith("_swap") and key != "swap"
    base = key[:-5] if follow_swap else key
    try:
        mat = standard_gate(base)
    except qlinalg.QlinalgError as exc:
        raise ScenarioError(str(exc)) from exc
    if mat.shape != (4, 4):
        raise ScenarioError(f"block gate {name!r} is not a two-qubit gate")
    return qlinalg.SWAP @ mat if follow_swap else mat


def db_interaction(block: BlockSpec) -> np.ndarray:
    """The interaction U the density-matrix engine conjugates with."""
    mat = interaction_matrix(block.gate)
    if block.convention == "with_swap":
        return mat
    return qlinalg.SWAP @ mat  # stored U_bar, so U = U_bar then swap


@functools.cache
def heisenberg_tableau(block: BlockSpec) -> Clifford:
    """The conjugation table of U_bar the Heisenberg engine propagates through.

    Compiled once per block spec and process; a Clifford is immutable, so
    every circuit built from the same block shares it.
    """
    mat = interaction_matrix(block.gate)
    ubar = qlinalg.SWAP @ mat if block.convention == "with_swap" else mat
    return tableau_from_unitary(ubar)


def local_matrix(name: str) -> np.ndarray:
    return standard_gate(_LOCALS[name.lower()])


def local_clifford(name: str) -> Clifford:
    return LOCAL_TABLES[_LOCALS[name.lower()]]


def heisenberg_circuit(spec: CircuitSpec) -> HeisenbergCircuit:
    return HeisenbergCircuit(
        blocks=tuple(heisenberg_tableau(b) for b in spec.blocks),
        local_gates=tuple(local_clifford(n) for n in spec.local_gates),
    )


DEFAULT_PREP = PureStateParams.from_alpha2(0.75, 0.0)

_NAMED = {
    "cz": ([BlockSpec("cz_swap", "with_swap")], ["i2", "i2"]),
    "cnot": ([BlockSpec("cnot_swap", "with_swap")], ["i2", "i2"]),
    "chained_cnot_hadamard": (
        [BlockSpec("cnot_swap", "with_swap"), BlockSpec("cnot_swap", "with_swap")],
        ["i2", "h", "h"]),
}


def scenario_names() -> tuple[str, ...]:
    return tuple(_NAMED)


def named_scenario(name: str, prep: PureStateParams | None = None,
                   overlap: TimeDistribution | None = None) -> CircuitSpec:
    """A paper scenario by stable public name: cz, cnot, chained_cnot_hadamard."""
    if name not in _NAMED:
        raise ScenarioError(f"unknown scenario {name!r}; known: {', '.join(_NAMED)}")
    blocks, local_names = _NAMED[name]
    return CircuitSpec(
        prep=prep if prep is not None else DEFAULT_PREP,
        blocks=tuple(blocks),
        local_gates=tuple(local_names),
        overlap=overlap if overlap is not None else TimeDistribution.orthogonal(),
    )


@dataclass(frozen=True)
class DBRun:
    """Density-matrix engine result for a full circuit spec."""

    output: np.ndarray
    bloch: BlochVector
    residual: float
    iterations: int
    degenerate: bool


def run_db(spec: CircuitSpec, p: PureStateParams | None = None,
           method: str = "eigen") -> DBRun:
    prep = p if p is not None else spec.prep
    blocks = [db_interaction(b) for b in spec.blocks]
    local_mats = [local_matrix(n) for n in spec.local_gates]
    solutions, rho = db_model.chain_solutions(blocks, local_mats, prep, method=method)
    return DBRun(
        output=rho,
        bloch=qlinalg.bloch_from_density(rho),
        residual=max((s.residual for s in solutions), default=0.0),
        iterations=sum(s.iterations for s in solutions),
        degenerate=any(s.degenerate for s in solutions),
    )


def run_heisenberg(spec: CircuitSpec, p: PureStateParams | None = None) -> HeisenbergResult:
    prep = p if p is not None else spec.prep
    return heisenberg_model.heisenberg_bloch(heisenberg_circuit(spec), prep, spec.overlap)


@dataclass(frozen=True)
class ComparisonReport:
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


def compare(spec: CircuitSpec, p: PureStateParams | None = None) -> ComparisonReport:
    """Run both engines on one spec and reconcile the results.

    agree requires every Bloch component within COMPARISON_ATOL and neither a
    singular Heisenberg component nor a degenerate fixed point; diverge marks
    a clean numeric disagreement.
    """
    db_run = run_db(spec, p)
    heis = run_heisenberg(spec, p)
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


# -- no-signaling geometry of the external apparatus ------------------------


@dataclass(frozen=True)
class GeometryConfig:
    """External layout of the apparatus between entry and exit ports."""

    hi_position: tuple[float, ...]
    ho_position: tuple[float, ...]
    external_transit_time: float
    c: float = 299792458.0

    def __post_init__(self) -> None:
        values = (*self.hi_position, *self.ho_position, self.external_transit_time, self.c)
        if not all(map(math.isfinite, values)):
            raise ScenarioError(f"geometry values must be finite, got {self!r}")
        if self.c <= 0:
            raise ScenarioError("speed of light must be positive")
        if len(self.hi_position) != len(self.ho_position):
            raise ScenarioError("entry and exit positions need matching dimensions")


@dataclass(frozen=True)
class GeometryCheck:
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
