"""Dual-engine simulator for a qubit scattering off a wormhole time machine.

Two independent formalisms answer the same question: a density-matrix
engine that solves the loop self-consistency condition, and a symbolic
Heisenberg engine that back-propagates time-labeled Pauli words.  They
agree on single-wormhole circuits and split on chained ones.
"""

from .qlinalg import (
    BlochVector,
    PureStateParams,
    density_from_bloch,
    standard_gate,
    trace_distance,
)
from .db_model import (
    DBRun,
    DBSolution,
    ctc_map,
    run_chain,
    solve_chain,
    solve_fixed_point,
)
from .timed_pauli import (
    Clifford,
    PauliLetter,
    TimedPauliWord,
    apply_local,
    conj_pair,
    letter_mul_ipow,
    word_from_str,
    word_mul,
    word_to_str,
)
from .heisenberg_model import (
    BlockResult,
    HeisenbergCircuit,
    TimeDistribution,
    backpropagate_block,
    backpropagate_circuit_detailed,
    evaluate_expectation,
    heisenberg_bloch,
    overlap,
    tableau_from_unitary,
)
from .scenario import (
    CircuitSpec,
    ComparisonReport,
    GeometryConfig,
    compare,
    named_scenario,
    validate_geometry,
)

__version__ = "0.1.0"
