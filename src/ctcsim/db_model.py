"""Density-matrix treatment of a qubit scattering off a wormhole time machine.

The trapped qubit's state rho must reproduce itself around the loop:

    rho = Tr_1[U (rho_in x rho) U^dag]

Given a solution, the free qubit leaves in Tr_2[U (rho_in x rho) U^dag].
Because rho depends on rho_in, the composed input -> output map is a
nonlinear (and generally non-unitary) function of the input state.

Two solvers cross-check each other: plain iteration of the loop map from
the maximally mixed state, and a direct linear solve of the Bloch-space
action, read off the gate's Pauli transfer matrix (as is the Heisenberg
tableau) and checked by one dense trip around the loop.  When the fixed
subspace has dimension > 1 the solvers return the maximum-entropy fixed
point (minimum Bloch norm) and flag the degeneracy rather than silently
picking a representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qlinalg import (
    ATOL_SOLVER,
    BlochVector,
    DensityMatrix,
    EngineError,
    I2,
    Mat2,
    Mat4,
    PAULIS,
    PureStateParams,
    assert_density,
    assert_unitary,
    bloch_from_density,
    density_from_bloch,
    partial_trace_first,
    partial_trace_second,
    pauli_transfer,
    tensor,
)

MAX_ITERS_DEFAULT = 100_000
# Smallest singular value of (I - M) below which the fixed subspace is
# treated as degenerate.
DEGENERACY_TOL = 1e-8


class FixedPointError(EngineError, RuntimeError):
    """Iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class DBSolution:
    fixed_point: DensityMatrix
    output: DensityMatrix
    iterations: int
    residual: float
    degenerate: bool


@dataclass(frozen=True)
class DBRun:
    """A chain of blocks: the output, the largest residual and whether any
    block's fixed point was degenerate."""

    output: DensityMatrix
    bloch: BlochVector
    residual: float
    degenerate: bool


def ctc_map(u: Mat4, rho_in: DensityMatrix, rho: DensityMatrix) -> DensityMatrix:
    """One trip around the loop: Tr_1[U (rho_in x rho) U^dag]."""
    return partial_trace_first(u @ tensor(rho_in, rho) @ u.conj().T)


def db_output(u: Mat4, rho_in: DensityMatrix, rho: DensityMatrix) -> DensityMatrix:
    """State of the free qubit after the interaction: Tr_2[U (rho_in x rho) U^dag]."""
    return partial_trace_second(u @ tensor(rho_in, rho) @ u.conj().T)


def _spectral_norm_herm(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


def _bloch_affine(u: Mat4, rho_in: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The loop map as r -> M r + c on Bloch coordinates (it is trace preserving).

    Read off the Pauli transfer matrix R of U: with a = (1, r_in) the
    trapped qubit's coordinates leave as sum_ij R[0l, ij] a_i b_j for
    b = (1, r), so M[l, j] = sum_i R[0l, ij] a_i and c[l] = sum_i R[0l, i0] a_i.
    """
    a = np.einsum("iab,ba->i", PAULIS, rho_in).real
    loop = np.einsum("lij,i->lj", pauli_transfer(u)[0, 1:], a)
    return loop[:, 1:], loop[:, 0]


def _solve_eigen(u: Mat4, rho_in: DensityMatrix) -> tuple[DensityMatrix, bool]:
    """Direct solve of (I - M) r = c.

    lstsq returns the minimum-norm solution on rank deficiency, which is the
    maximum-entropy fixed point for a qubit (entropy decreases with |r|).
    """
    m, c = _bloch_affine(u, rho_in)
    a = np.eye(3) - m
    r, _, rank, svals = np.linalg.lstsq(a, c, rcond=DEGENERACY_TOL)
    degenerate = bool(rank < 3) or bool(np.min(svals) < DEGENERACY_TOL * max(np.max(svals), 1.0))
    if np.linalg.norm(a @ r - c) > 1e-8:
        raise FixedPointError("consistency equation admits no solution (numerical)",
                              residual=float(np.linalg.norm(a @ r - c)))
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + 1e-9:
        raise FixedPointError(f"fixed-point solution left the Bloch ball (|r| = {norm!r})",
                              residual=norm - 1.0)
    if norm > 1.0:
        r = r / norm  # float spill just past the sphere
    return density_from_bloch(BlochVector(*r)), degenerate


def _solve_iterate(u: Mat4, rho_in: DensityMatrix, tol: float,
                   max_iters: int) -> tuple[DensityMatrix, int, float]:
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    rho = I2 / 2
    residual = float("inf")
    for n in range(1, max_iters + 1):
        nxt = ctc_map(u, rho_in, rho)
        residual = _spectral_norm_herm(nxt - rho)
        rho = nxt
        if residual < tol:
            return rho, n, residual
    raise FixedPointError(
        f"no fixed point within {max_iters} iterations (residual {residual:.3e})",
        residual=residual)


def solve_fixed_point(u: Mat4, rho_in: DensityMatrix, method: str = "both", *,
                      tol: float = ATOL_SOLVER,
                      max_iters: int = MAX_ITERS_DEFAULT) -> DBSolution:
    """Solve the loop consistency condition for the trapped qubit.

    method:
        "iterate" -- plain iteration of the loop map starting from I/2;
        "eigen"   -- direct solve of the vectorized Bloch-space action;
        "both"    -- run both and require agreement within 1e-8 unless the
                     fixed subspace is degenerate.

    The degeneracy flag is always computed from the linear action, whatever
    the method; a degenerate subspace yields the maximum-entropy member.
    """
    if method not in ("iterate", "eigen", "both"):
        raise ValueError(f"unknown method {method!r}")
    if np.shape(u) != (4, 4):
        raise ValueError("interaction must be a two-qubit gate")
    assert_unitary(u)
    assert_density(rho_in)

    rho_eigen, degenerate = _solve_eigen(u, rho_in)
    iterations = 0
    if method == "eigen":
        rho = rho_eigen
    elif method == "iterate":
        rho, iterations, _ = _solve_iterate(u, rho_in, tol, max_iters)
    else:
        rho_iter, iterations, _ = _solve_iterate(u, rho_in, tol, max_iters)
        gap = _spectral_norm_herm(rho_iter - rho_eigen)
        if gap > 1e-8 and not degenerate:
            raise FixedPointError(
                f"iterate and eigen solvers disagree by {gap:.3e} on a "
                "non-degenerate fixed point", residual=gap)
        rho = rho_eigen
    residual = _spectral_norm_herm(ctc_map(u, rho_in, rho) - rho)
    if residual > tol:
        raise FixedPointError(f"returned state misses the fixed point by {residual:.3e}",
                              residual=residual)
    assert_density(rho, atol=1e-9)
    out = db_output(u, rho_in, rho)
    return DBSolution(fixed_point=rho, output=out, iterations=iterations,
                      residual=residual, degenerate=degenerate)


def solve_chain(blocks: Sequence[Mat4], local_gates: Sequence[Mat2],
                p: PureStateParams) -> DBRun:
    """Thread a prepared pure state through consecutive wormhole blocks.

    local_gates interleaves the blocks (before, between, after).  Each block
    is solved afresh by the direct solve with the current state as the loop
    input, then replaced by the block's output.
    """
    if len(local_gates) != len(blocks) + 1:
        raise ValueError(
            f"need {len(blocks) + 1} local gates for {len(blocks)} blocks, got {len(local_gates)}")
    rho = p.density()
    solutions: list[DBSolution] = []
    for gate_before, u in zip(local_gates, blocks):
        rho = gate_before @ rho @ gate_before.conj().T
        solutions.append(solve_fixed_point(u, rho, method="eigen"))
        rho = solutions[-1].output
    last = local_gates[-1]
    rho = last @ rho @ last.conj().T
    return DBRun(
        output=rho,
        bloch=bloch_from_density(rho),
        residual=max((s.residual for s in solutions), default=0.0),
        degenerate=any(s.degenerate for s in solutions),
    )


def run_chain(blocks: Sequence[Mat4], local_gates: Sequence[Mat2],
              p: PureStateParams) -> DensityMatrix:
    """The output state of solve_chain alone."""
    return solve_chain(blocks, local_gates, p).output
