"""Density-matrix treatment of a qubit scattering off a wormhole time machine.

The trapped qubit's state rho must reproduce itself around the loop:

    rho = Tr_1[U (rho_in x rho) U^dag]

Given a solution, the free qubit leaves in Tr_2[U (rho_in x rho) U^dag].
Because rho depends on rho_in, the composed input -> output map is a
nonlinear (and generally non-unitary) function of the input state.

A qubit's state is its Pauli traces a = (1, r), r its Bloch vector, and
both maps are bilinear in (a_in, (1, r)), with coefficients read off U's
Pauli transfer matrix (as is the Heisenberg tableau): block_slices holds the
two slices they read, checked once against the dense trip around the loop.
Two solvers cross-check each other: plain iteration of the dense loop map
from the maximally mixed state, and a direct linear solve of the
Bloch-space action.  When the fixed subspace has dimension > 1 the solvers
return the maximum-entropy fixed point (minimum Bloch norm) and flag the
degeneracy rather than silently picking a representative.

The direct solve runs on stacks of states: solve_chain_batch threads N
preparations through a chain in one pass, as their (N, 4) Pauli traces from
Preparations.pauli_expectations to the output, with every check applied to
every state.  A local gate acts by its real 4x4 transfer matrix (None, an
identity, is not applied); a block is one affine build, one stacked
least-squares call and one contraction with the output slice.  Density
matrices are built once, from the outputs' Bloch vectors.  solve_chain and
solve_fixed_point are its one-state case for direct callers, and apply
every local gate they are given.  The iteration stays scalar and dense, as
the independent oracle.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .qlinalg import (
    ATOL_SOLVER,
    ATOL_STRUCT,
    BLOCH_ATOL,
    PAULI_PAIRS,
    PAULIS,
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
    two-qubit unitary first: a block's one compile, from which block_slices
    and timed_pauli.tableau_from_transfer each read what their engine needs."""
    if np.shape(u) != (4, 4):
        raise ValueError("interaction must be a two-qubit gate")
    assert_unitary(u)
    return pauli_transfer(u)


def block_slices(u: Mat4, transfer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two slices of U's Pauli transfer matrix R that a block reads, read-only.

    loop[i, l, j] = R[0l, ij] for l = x, y, z is the trapped qubit's l
    coordinate after U acts on s_i x s_j, and out[i, k, j] = R[k0, ij] for
    k = 0..3 the free qubit's k-th Pauli trace; both are held with i first
    so that _bloch_affine sums over it in whole contiguous blocks.  Both are
    checked once against the dense loop trip, the Pauli traces of the two
    partial traces of U (s_i x s_j) U^dag over 4, within ATOL_STRUCT.
    """
    loop = np.ascontiguousarray(transfer[0, 1:].transpose(1, 0, 2))
    out = np.ascontiguousarray(transfer[:, 0].transpose(1, 0, 2))
    images = conjugate(u, PAULI_PAIRS)
    halves = np.stack([partial_trace_first(images), partial_trace_second(images)])
    dense = np.einsum("kab,mijba->mikj", PAULIS, halves).real / 4
    dev = np.max([np.max(np.abs(loop - dense[0, :, 1:])), np.max(np.abs(out - dense[1]))])
    if not dev <= ATOL_STRUCT:  # NaN fails too
        raise FixedPointError(f"transfer slices miss the dense loop trip by {dev:.3e}",
                              residual=dev.item())
    loop.flags.writeable = out.flags.writeable = False
    return loop, out


def local_transfer(g: Mat2) -> np.ndarray:
    """The real 4x4 transfer matrix T[k, i] = Tr[s_k g s_i g^dag] / 2 of the
    one-qubit gate g, checked unitary, read-only: g rho g^dag has the Pauli
    traces T a of rho's a."""
    assert_unitary(g)
    t = np.ascontiguousarray(pauli_transfer(tensor(g, I2))[:, 0, :, 0])
    t.flags.writeable = False
    return t


def ctc_map(u: Mat4, rho_in: DensityMatrix, rho: DensityMatrix) -> DensityMatrix:
    """One trip around the loop: Tr_1[U (rho_in x rho) U^dag]."""
    return partial_trace_first(conjugate(u, tensor(rho_in, rho)))


def _spectral_norm_herm(m: np.ndarray) -> np.ndarray:
    """The largest |eigenvalue| of each hermitian 2x2, |s| + h of its s +- h."""
    s, h = hermitian_spectrum(m)
    return np.abs(s) + h


def _bloch_affine(coeffs: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A block slice as the affine map r -> M r + c on Bloch coordinates.

    a holds the input's Pauli traces Tr[s_i rho_in], i = 0..3, a = (1, r_in).
    A slice of block_slices maps a state b = (1, r) to the coordinates
    sum_ij coeffs[i, l, j] a_i b_j, so M[l, j] = sum_i coeffs[i, l, j] a_i and
    c[l] = sum_i coeffs[i, l, 0] a_i: the loop map (the loop slice, which is
    trace preserving) or the block output (the output slice).  a may be one
    state's or a stack's, and the sum runs over i in order for every row alike.
    """
    # affine[..., l, j] = ((0.0 + a_0 coeffs[0, l, j]) + a_1 coeffs[1, l, j]) + ...
    affine = np.add.reduce(a[..., :, None, None] * coeffs, axis=-3, initial=0.0)
    return affine[..., 1:], affine[..., 0]


def _lstsq_failed(err: str, flag: int) -> None:
    raise FixedPointError("SVD did not converge in the fixed-point solve", residual=float("nan"))


@np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore", under="ignore")
def _stacked_lstsq(a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.lstsq(a[n], c[n], rcond=DEGENERACY_TOL) for every n, in one
    call, under that wrapper's error state; a LAPACK failure raises
    FixedPointError."""
    return least_squares(a, c, DEGENERACY_TOL)


def _residuals(a: np.ndarray, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """|a r - c| / 2 for each row of a stack, a = I - M: the spectral norm of
    what one trip around the loop moves the matrix of the state r by."""
    miss = (a @ r[..., None])[..., 0] - c
    return 0.5 * np.sqrt(np.add.reduce(miss * miss, axis=-1))


def _solve_system(m: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """Direct solve of (I - M) r = c for each state of a stack, given the
    loop map r -> M r + c: the fixed points' Bloch vectors, the degeneracy
    flags and the residuals.

    The least-squares solve returns the minimum-norm solution on rank
    deficiency, which is the maximum-entropy fixed point for a qubit
    (entropy decreases with |r|).
    """
    a = _I3 - m
    r, rank, svals = _stacked_lstsq(a, c)
    # gelsd gives the singular values in descending order
    degenerate = (rank < 3) | (svals[..., 2] < DEGENERACY_TOL * np.maximum(svals[..., 0], 1.0))
    residual = _residuals(a, c, r)
    if any_above(residual, 0.5e-8):  # |a r - c| > 1e-8
        raise FixedPointError("consistency equation admits no solution (numerical)",
                              residual=residual[np.argmax(residual > 0.5e-8)].item())
    norm = np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])  # as np.linalg.norm of one row
    if any_above(norm, 1.0):
        if any_above(norm, 1.0 + BLOCH_ATOL):
            worst = norm[np.argmax(norm > 1.0 + BLOCH_ATOL)].item()
            raise FixedPointError(f"fixed-point solution left the Bloch ball (|r| = {worst!r})",
                                  residual=worst - 1.0)
        spill = norm > 1.0  # float spill just past the sphere
        r[spill] = r[spill] / norm[spill, None]
        residual = _residuals(a, c, r)
    return r, degenerate, residual


def _solve_eigen(loop: np.ndarray, traces: np.ndarray) -> tuple[np.ndarray, ...]:
    """_solve_system on the loop map of the inputs whose Pauli traces are
    traces: a chain block's solve."""
    return _solve_system(*_bloch_affine(loop, traces))


def _block_output(out: np.ndarray, traces: np.ndarray, r: np.ndarray,
                  residual: np.ndarray, tol: float) -> np.ndarray:
    """The Pauli traces of a block's outputs, from those of its inputs and
    its fixed points r, once every residual is checked to be within tol."""
    if any_above(residual, tol):
        worst = residual[np.argmax(residual > tol)].item()
        raise FixedPointError(f"returned state misses the fixed point by {worst:.3e}",
                              residual=worst)
    m, c = _bloch_affine(out, traces)
    return c + (m @ r[..., None])[..., 0]


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
    The output and the residual are read off the returned fixed point.
    """
    if method not in ("iterate", "eigen", "both"):
        raise ValueError(f"unknown method {method!r}")
    loop, out = block_slices(u, interaction_transfer(u))
    traces = assert_density(np.asarray(rho_in)[None])
    m, c = _bloch_affine(loop, traces)
    r, degenerate, residual = _solve_system(m, c)
    fixed = density_from_bloch(r[0])
    iterations = 0
    if method != "eigen":
        rho_iter, iterations, _ = _solve_iterate(u, rho_in, tol, max_iters)
        gap = float(_spectral_norm_herm(rho_iter - fixed))
        if method == "both" and gap > 1e-8 and not degenerate[0]:
            raise FixedPointError(
                f"iterate and eigen solvers disagree by {gap:.3e} on a "
                "non-degenerate fixed point", residual=gap)
        if method == "iterate":
            fixed, r = rho_iter, assert_density(rho_iter[None], atol=1e-9)[:, 1:]
            residual = _residuals(_I3 - m, c, r)
    output = density_from_bloch(_block_output(out, traces, r, residual, tol)[0, 1:])
    return DBSolution(fixed_point=fixed, output=output, iterations=iterations,
                      residual=residual[0].item(), degenerate=degenerate[0].item())


def solve_chain_batch(blocks: Sequence[tuple[np.ndarray, np.ndarray]],
                      local_gates: Sequence[np.ndarray | None], preps: Preparations) -> DBBatch:
    """Thread N prepared pure states through consecutive wormhole blocks.

    blocks holds each block's block_slices; local_gates interleaves the
    blocks (before, between, after) as local_transfer matrices, None
    standing for an identity that is not applied.  The states are their
    Pauli traces throughout.  Every check runs on every state: each block
    input, whether or not a local gate was applied to it, and each output,
    before its density matrix is built, must lie in the Bloch ball to
    within BLOCH_BALL (bloch_coordinates).  The residual and the degeneracy
    flag start from the first block's; a circuit with no block has zeros.
    """
    if len(local_gates) != len(blocks) + 1:
        raise ValueError(
            f"need {len(blocks) + 1} local gates for {len(blocks)} blocks, got {len(local_gates)}")
    a = preps.pauli_expectations
    residual = degenerate = None
    for transfer, (loop, out) in zip(local_gates, blocks):
        if transfer is not None:
            a = a @ transfer.T
        bloch_coordinates(a)
        r, block_degenerate, block_residual = _solve_eigen(loop, a)
        a = _block_output(out, a, r, block_residual, ATOL_SOLVER)
        if residual is None:
            residual, degenerate = block_residual, block_degenerate
        else:
            residual = np.maximum(residual, block_residual)
            degenerate = degenerate | block_degenerate
    if residual is None:
        residual, degenerate = np.zeros(len(preps)), np.zeros(len(preps), dtype=bool)
    if local_gates[-1] is not None:
        a = a @ local_gates[-1].T
    r = bloch_coordinates(a)
    return DBBatch(density_from_bloch(r), r, residual, degenerate)


def solve_chain(blocks: Sequence[Mat4], local_gates: Sequence[Mat2],
                p: PureStateParams) -> DBRun:
    """solve_chain_batch on the one state p."""
    return solve_chain_batch([block_slices(u, interaction_transfer(u)) for u in blocks],
                             [local_transfer(g) for g in local_gates], p.batch)[0]


def run_chain(blocks: Sequence[Mat4], local_gates: Sequence[Mat2],
              p: PureStateParams) -> DensityMatrix:
    """The output state of solve_chain alone."""
    return solve_chain(blocks, local_gates, p).output
