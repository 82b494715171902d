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

The direct solve runs on stacks of states: solve_chain_batch threads N
preparations through a chain in one pass, with every check applied to
every state.  The conjugations by the local gates and by U are two flat
products each (qlinalg.conjugate), the fixed points one stacked
least-squares call and each density check one product, whose Pauli traces
are the solve's loop inputs and, at the end, the outputs' Bloch vectors;
the printed residual reads each state's eigenvalues in closed form
(qlinalg.hermitian_spectrum).  A local gate given as None is the identity
and is not applied, which saves the three numpy calls a conjugation of a
one-state stack makes; the outputs are bit for bit those of conjugating by
I2 (tests/test_db_model.py pins them against that chain).  solve_chain and
solve_fixed_point(method="eigen") are its one-state case for direct
callers, and apply every local gate they are given.  The iteration stays
scalar, as the independent oracle.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .qlinalg import (
    ATOL_SOLVER,
    BLOCH_ATOL,
    BlochVector,
    DensityMatrix,
    EngineError,
    I2,
    Mat2,
    Mat4,
    Preparations,
    PureStateParams,
    Record,
    any_above,
    assert_density,
    assert_unitary,
    bloch_coordinates,
    conjugate,
    density_from_bloch,
    hermitian_spectrum,
    least_squares,
    partial_trace_first,
    partial_trace_second,
    pauli_transfer,
    tensor,
)

MAX_ITERS_DEFAULT = 100_000
# Smallest singular value of (I - M) below which the fixed subspace is
# treated as degenerate.
DEGENERACY_TOL = 1e-8
_I3 = np.eye(3)


class FixedPointError(EngineError, RuntimeError):
    """Iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class DBSolution(NamedTuple):
    fixed_point: DensityMatrix
    output: DensityMatrix
    iterations: int
    residual: float
    degenerate: bool


class DBRun(NamedTuple):
    """A chain of blocks: the output, the largest residual and whether any
    block's fixed point was degenerate."""

    output: DensityMatrix
    bloch: BlochVector
    residual: float
    degenerate: bool


class DBBatch(Record):
    """A chain of blocks run on N preparations: row n is the DBRun of the n-th.

    output is (N, 2, 2), bloch (N, 3), residual and degenerate (N,).
    """

    _fields = ("output", "bloch", "residual", "degenerate")

    def __init__(self, output: np.ndarray, bloch: np.ndarray, residual: np.ndarray,
                 degenerate: np.ndarray) -> None:
        vars(self).update(output=output, bloch=bloch, residual=residual, degenerate=degenerate)

    def __getitem__(self, n: int) -> DBRun:
        return DBRun(self.output[n], BlochVector(*self.bloch[n].tolist()),
                     self.residual.item(n), self.degenerate.item(n))


def interaction_transfer(u: Mat4) -> np.ndarray:
    """The Pauli transfer matrix R of the interaction U, U checked to be a
    two-qubit unitary first: a block's one compile, from which loop_slice
    and timed_pauli.tableau_from_transfer each read what their engine needs."""
    if np.shape(u) != (4, 4):
        raise ValueError("interaction must be a two-qubit gate")
    assert_unitary(u)
    return pauli_transfer(u)


def loop_slice(transfer: np.ndarray) -> np.ndarray:
    """The slice of U's Pauli transfer matrix R that the loop map reads.

    loop[i, l, j] = R[0l, ij] for l = x, y, z: the trapped qubit's l
    coordinate after U acts on s_i x s_j, held with i first so that
    _bloch_affine sums over it in whole contiguous (l, j) blocks.  Read-only.
    """
    loop = np.ascontiguousarray(transfer[0, 1:].transpose(1, 0, 2))
    loop.flags.writeable = False
    return loop


def loop_transfer(u: Mat4) -> np.ndarray:
    """The loop slice of the interaction U, checked unitary."""
    return loop_slice(interaction_transfer(u))


def _joint(u: Mat4, rho_in: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """U (rho_in x rho) U^dag, for single states or stacks of them."""
    return conjugate(u, tensor(rho_in, rho))


def ctc_map(u: Mat4, rho_in: DensityMatrix, rho: DensityMatrix) -> DensityMatrix:
    """One trip around the loop: Tr_1[U (rho_in x rho) U^dag]."""
    return partial_trace_first(_joint(u, rho_in, rho))


def _spectral_norm_herm(m: np.ndarray) -> np.ndarray:
    """The largest |eigenvalue| of each hermitian 2x2, |s| + h of its s +- h."""
    s, h = hermitian_spectrum(m)
    return np.abs(s) + h


def _bloch_affine(loop: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The loop map as r -> M r + c on Bloch coordinates (it is trace preserving).

    a holds the input's Pauli traces Tr[s_i rho_in], i = 0..3, as
    assert_density returns them: a = (1, r_in).  The trapped qubit's
    coordinates leave as sum_ij loop[i, l, j] a_i b_j for b = (1, r), so
    M[l, j] = sum_i loop[i, l, j] a_i and c[l] = sum_i loop[i, l, 0] a_i.
    a may be one state's or a stack's, and the sum runs over i in order for
    every row alike.
    """
    # affine[..., l, j] = ((0.0 + a_0 loop[0, l, j]) + a_1 loop[1, l, j]) + ...
    affine = np.add.reduce(a[..., :, None, None] * loop, axis=-3, initial=0.0)
    return affine[..., 1:], affine[..., 0]


def _lstsq_failed(err: str, flag: int) -> None:
    raise FixedPointError("SVD did not converge in the fixed-point solve", residual=float("nan"))


@np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore", under="ignore")
def _stacked_lstsq(a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.lstsq(a[n], c[n], rcond=DEGENERACY_TOL) for every n, in one
    call, under that wrapper's error state; a LAPACK failure raises
    FixedPointError."""
    return least_squares(a, c, DEGENERACY_TOL)


def _solve_eigen(loop: np.ndarray, traces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct solve of (I - M) r = c for each state of a stack, given the
    Pauli traces of the loop inputs.

    The least-squares solve returns the minimum-norm solution on rank
    deficiency, which is the maximum-entropy fixed point for a qubit
    (entropy decreases with |r|).
    """
    m, c = _bloch_affine(loop, traces)
    a = _I3 - m
    r, rank, svals = _stacked_lstsq(a, c)
    # gelsd gives the singular values in descending order
    degenerate = (rank < 3) | (svals[..., 2] < DEGENERACY_TOL * np.maximum(svals[..., 0], 1.0))
    miss = (a @ r[..., None])[..., 0] - c
    gap = np.sqrt(np.add.reduce(miss * miss, axis=-1))
    if any_above(gap, 1e-8):
        raise FixedPointError("consistency equation admits no solution (numerical)",
                              residual=gap[np.argmax(gap > 1e-8)].item())
    norm = np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])  # as np.linalg.norm of one row
    if any_above(norm, 1.0):
        if any_above(norm, 1.0 + BLOCH_ATOL):
            worst = norm[np.argmax(norm > 1.0 + BLOCH_ATOL)].item()
            raise FixedPointError(f"fixed-point solution left the Bloch ball (|r| = {worst!r})",
                                  residual=worst - 1.0)
        spill = norm > 1.0  # float spill just past the sphere
        r[spill] = r[spill] / norm[spill, None]
    return density_from_bloch(r), degenerate


def _close_loop(u: Mat4, rho_in: np.ndarray, rho: np.ndarray,
                tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Check each fixed point by one dense trip around the loop; return the
    residuals and the outputs, which the same trip gives."""
    joint = _joint(u, rho_in, rho)
    residual = _spectral_norm_herm(partial_trace_first(joint) - rho)
    if any_above(residual, tol):
        worst = residual[np.argmax(residual > tol)].item()
        raise FixedPointError(f"returned state misses the fixed point by {worst:.3e}",
                              residual=worst)
    assert_density(rho, atol=1e-9)
    return residual, partial_trace_second(joint)


def _solve_iterate(u: Mat4, rho_in: DensityMatrix, tol: float,
                   max_iters: int) -> tuple[DensityMatrix, int, float]:
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    rho = I2 / 2
    residual = float("inf")
    for n in range(1, max_iters + 1):
        nxt = ctc_map(u, rho_in, rho)
        residual = float(_spectral_norm_herm(nxt - rho))
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
        "eigen"   -- direct solve of the vectorized Bloch-space action, the
                     one-state case of the kernel solve_chain_batch runs;
        "both"    -- run both and require agreement within 1e-8 unless the
                     fixed subspace is degenerate.

    The degeneracy flag is always computed from the linear action, whatever
    the method; a degenerate subspace yields the maximum-entropy member.
    """
    if method not in ("iterate", "eigen", "both"):
        raise ValueError(f"unknown method {method!r}")
    loop = loop_transfer(u)
    rho_in = np.asarray(rho_in)[None]
    rho, degenerate = _solve_eigen(loop, assert_density(rho_in))
    iterations = 0
    if method != "eigen":
        rho_iter, iterations, _ = _solve_iterate(u, rho_in[0], tol, max_iters)
        gap = float(_spectral_norm_herm(rho_iter - rho[0]))
        if method == "both" and gap > 1e-8 and not degenerate[0]:
            raise FixedPointError(
                f"iterate and eigen solvers disagree by {gap:.3e} on a "
                "non-degenerate fixed point", residual=gap)
        if method == "iterate":
            rho = rho_iter[None]
    residual, out = _close_loop(u, rho_in, rho, tol)
    return DBSolution(fixed_point=rho[0], output=out[0], iterations=iterations,
                      residual=residual[0].item(), degenerate=degenerate[0].item())


def solve_chain_batch(blocks: Sequence[tuple[Mat4, np.ndarray]],
                      local_gates: Sequence[Mat2 | None], preps: Preparations) -> DBBatch:
    """Thread N prepared pure states through consecutive wormhole blocks.

    blocks holds each interaction U with its loop_transfer(U); local_gates
    interleaves the blocks (before, between, after), None standing for an
    identity that is not applied.  Each block is solved by the direct solve
    with the current states as the loop inputs, then each state is replaced
    by its block output.  Every check runs on every state: the states
    entering each block are checked as density matrices whether or not a
    local gate was applied to them, and the check's Pauli traces are the
    solve's input.  The residual and the degeneracy flag start from the
    first block's; a circuit with no block has zeros.
    """
    if len(local_gates) != len(blocks) + 1:
        raise ValueError(
            f"need {len(blocks) + 1} local gates for {len(blocks)} blocks, got {len(local_gates)}")
    rho = preps.density()
    residual = degenerate = None
    for gate_before, (u, loop) in zip(local_gates, blocks):
        if gate_before is not None:
            rho = conjugate(gate_before, rho)
        fixed, block_degenerate = _solve_eigen(loop, assert_density(rho))
        block_residual, rho = _close_loop(u, rho, fixed, ATOL_SOLVER)
        if residual is None:
            residual, degenerate = block_residual, block_degenerate
        else:
            residual = np.maximum(residual, block_residual)
            degenerate = degenerate | block_degenerate
    if residual is None:
        residual, degenerate = np.zeros(len(preps)), np.zeros(len(preps), dtype=bool)
    if local_gates[-1] is not None:
        rho = conjugate(local_gates[-1], rho)
    return DBBatch(rho, bloch_coordinates(assert_density(rho)), residual, degenerate)


def solve_chain(blocks: Sequence[Mat4], local_gates: Sequence[Mat2],
                p: PureStateParams) -> DBRun:
    """solve_chain_batch on the one state p."""
    return solve_chain_batch([(u, loop_transfer(u)) for u in blocks], local_gates,
                             p.batch)[0]


def run_chain(blocks: Sequence[Mat4], local_gates: Sequence[Mat2],
              p: PureStateParams) -> DensityMatrix:
    """The output state of solve_chain alone."""
    return solve_chain(blocks, local_gates, p).output
