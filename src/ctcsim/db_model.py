"""Density-matrix treatment of a qubit scattering off a wormhole time machine.

The trapped qubit's state rho must reproduce itself around the loop:

    rho = Tr_1[U (rho_in x rho) U^dag]

Given a solution, the free qubit leaves in Tr_2[U (rho_in x rho) U^dag].
Because rho depends on rho_in, the composed input -> output map is a
nonlinear (and generally non-unitary) function of the input state.

A qubit's state is its Pauli traces a = (1, r), r its Bloch vector, and
both maps are bilinear in (a_in, (1, r)), with coefficients read off U's
Pauli transfer matrix (as is the Heisenberg tableau), which block_slices
holds in one array, checked once against the dense trip around the loop.
Two solvers cross-check each other: plain iteration of the dense loop map
from the maximally mixed state, and a direct linear solve of the
Bloch-space action.  When the fixed subspace has dimension > 1 the solvers
return the maximum-entropy fixed point (minimum Bloch norm) and flag the
degeneracy rather than silently picking a representative.

The direct solve runs on stacks of states: solve_chain_batch threads N
preparations through a chain in one pass, as their (N, 4) Pauli traces from
Preparations.pauli_expectations to the output, with every check applied to
every state.  A local gate acts by its real 4x4 transfer matrix (None, an
identity, is not applied); a block is one affine build, for both maps, and
one stacked least-squares call.  A density matrix is built only when an
output is read, from its Bloch vector.  solve_chain and solve_fixed_point
are its one-state case for direct callers, and apply every local gate they
are given.  The iteration stays scalar and dense, as the independent oracle.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

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
    assert_density,
    assert_unitary,
    bloch_coordinates,
    conjugate,
    density_from_bloch,
    hermitian_spectrum,
    largest,
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

# np.linalg.lstsq's generalized ufunc, called without the wrapper in _stacked_lstsq (the
# tests pin the two together): a private name, so a numpy without it fails at import.
if not hasattr(_umath_linalg, "lstsq"):
    raise ImportError(f"ctcsim needs numpy.linalg._umath_linalg.lstsq, which numpy "
                      f"{np.__version__} lacks; the tested numpy is 2.4.6")


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
    """A chain of blocks: the output's Bloch vector, the largest residual and
    whether any block's fixed point was degenerate."""

    bloch: BlochVector
    residual: float
    degenerate: bool

    @property
    def output(self) -> DensityMatrix:
        return density_from_bloch(self.bloch)


class DBBatch(Record):
    """A chain of blocks run on N preparations: row n is the DBRun of the n-th.

    bloch is (N, 3), residual and degenerate (N,), output (N, 2, 2).
    """

    _fields = ("bloch", "residual", "degenerate")

    def __init__(self, bloch: np.ndarray, residual: np.ndarray, degenerate: np.ndarray) -> None:
        vars(self).update(bloch=bloch, residual=residual, degenerate=degenerate)

    @functools.cached_property
    def output(self) -> np.ndarray:
        return density_from_bloch(self.bloch)

    def __getitem__(self, n: int) -> DBRun:
        return DBRun(BlochVector._of_checked(*self.bloch[n].tolist()),
                     self.residual.item(n), self.degenerate.item(n))


def interaction_transfer(u: Mat4) -> np.ndarray:
    """The Pauli transfer matrix R of the interaction U, U checked to be a
    two-qubit unitary first: a block's one compile, from which block_slices
    and timed_pauli.tableau_from_transfer each read what their engine needs."""
    if np.shape(u) != (4, 4):
        raise ValueError("interaction must be a two-qubit gate")
    assert_unitary(u)
    return pauli_transfer(u)


def block_slices(u: Mat4, transfer: np.ndarray) -> np.ndarray:
    """The two slices of U's Pauli transfer matrix R a block reads, read-only.

    Loop rows 0-2, R[0l, ij] at [i, l - 1, j], are the trapped qubit's l = x,
    y, z coordinate after U acts on s_i x s_j; output rows 3-6, R[k0, ij] at
    [i, 3 + k, j], the free qubit's k-th Pauli trace, all in one (4, 7, 4)
    array, i first so that _bloch_affine sums over it in contiguous blocks.
    Both are checked once against the dense loop trip, the Pauli traces of
    the two partial traces of U (s_i x s_j) U^dag over 4, within ATOL_STRUCT.
    """
    coeffs = np.concatenate([transfer[0, 1:], transfer[:, 0]]).transpose(1, 0, 2).copy()
    images = conjugate(u, PAULI_PAIRS)
    halves = np.stack([partial_trace_first(images), partial_trace_second(images)])
    dense = np.einsum("kab,mijba->mikj", PAULIS, halves).real / 4
    dev = np.max(np.abs(coeffs - np.concatenate([dense[0, :, 1:], dense[1]], axis=1)))
    if not dev <= ATOL_STRUCT:  # NaN fails too
        raise FixedPointError(f"transfer slices miss the dense loop trip by {dev:.3e}",
                              residual=dev.item())
    coeffs.flags.writeable = False
    return coeffs


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
    """Rows of block_slices as affine maps r -> M r + c on Bloch coordinates.

    a holds the input's Pauli traces Tr[s_i rho_in], i = 0..3, a = (1, r_in).
    Row l maps a state b = (1, r) to sum_ij coeffs[i, l, j] a_i b_j, so
    M[l, j] = sum_i coeffs[i, l, j] a_i and c[l] = sum_i coeffs[i, l, 0] a_i:
    the loop map on the loop rows (trace preserving) and the block output on
    the output rows.  a may be one state's or a stack's, and the sum runs
    over i in order, from +0.0, for every row alike.
    """
    affine = np.einsum("...i,ilj->...lj", a, coeffs)
    return affine[..., 1:], affine[..., 0]


def _lstsq_failed(err: str, flag: int) -> None:
    raise FixedPointError("SVD did not converge in the fixed-point solve", residual=float("nan"))


@np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore", under="ignore")
def _stacked_lstsq(a: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.lstsq(a[n], c[n], rcond=DEGENERACY_TOL) for every n, in one
    gelsd call under that wrapper's error state: the solutions, ranks and
    descending singular values.  A LAPACK failure raises FixedPointError."""
    x, _, rank, svals = _umath_linalg.lstsq(a, c[..., None], DEGENERACY_TOL, signature="ddd->ddid")
    return x[..., 0], rank, svals


def _residuals(a: np.ndarray, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """|a r - c| / 2 for each row of a stack, a = I - M: the spectral norm of
    what one trip around the loop moves the matrix of the state r by."""
    miss = (a @ r[..., None])[..., 0] - c
    return 0.5 * np.sqrt(np.add.reduce(miss * miss, axis=-1))


def _solve_system(m: np.ndarray, c: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Direct solve of (I - M) r = c for each state of a stack, given the
    loop map r -> M r + c: the fixed points' Bloch vectors, the degeneracy
    flags and the residuals, each residual checked to be within tol.

    The least-squares solve returns the minimum-norm solution on rank
    deficiency, which is the maximum-entropy fixed point for a qubit
    (entropy decreases with |r|).
    """
    a = _I3 - m
    r, _, svals = _stacked_lstsq(a, c)
    # gelsd gives the singular values in descending order, and its rank cut,
    # s2 <= DEGENERACY_TOL * s0, implies this test, so a rank-deficient solve
    # is flagged
    degenerate = svals[..., 2] <= DEGENERACY_TOL * np.maximum(svals[..., 0], 1.0)
    residual = _residuals(a, c, r)
    worst = largest(residual)
    if worst > 0.5e-8:  # |a r - c| > 1e-8
        raise FixedPointError("consistency equation admits no solution (numerical)",
                              residual=residual[np.argmax(residual > 0.5e-8)].item())
    norm = np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])  # as np.linalg.norm of one row
    top = largest(norm)
    if top > 1.0:
        if top > 1.0 + BLOCH_ATOL:
            worst = norm[np.argmax(norm > 1.0 + BLOCH_ATOL)].item()
            raise FixedPointError(f"fixed-point solution left the Bloch ball (|r| = {worst!r})",
                                  residual=worst - 1.0)
        spill = norm > 1.0  # float spill just past the sphere
        r[spill] = r[spill] / norm[spill, None]
        residual = _residuals(a, c, r)
        worst = largest(residual)
    _check_within(residual, worst, tol)
    return r, degenerate, residual


def _check_within(residual: np.ndarray, worst: float, tol: float) -> None:
    """Raise unless worst, the largest of the residuals, is within tol."""
    if worst > tol:
        worst = residual[np.argmax(residual > tol)].item()
        raise FixedPointError(f"returned state misses the fixed point by {worst:.3e}",
                              residual=worst)


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
        if residual <= tol:
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
    traces = assert_density(np.asarray(rho_in)[None])
    m, c = _bloch_affine(block_slices(u, interaction_transfer(u)), traces)
    r, degenerate, residual = _solve_system(m[:, :3], c[:, :3], np.inf)
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
            residual = _residuals(_I3 - m[:, :3], c[:, :3], r)
    _check_within(residual, largest(residual), tol)
    output = density_from_bloch((c[:, 3:] + (m[:, 3:] @ r[..., None])[..., 0])[0, 1:])
    return DBSolution(fixed_point=fixed, output=output, iterations=iterations,
                      residual=residual[0].item(), degenerate=degenerate[0].item())


def solve_chain_batch(blocks: Sequence[np.ndarray], local_gates: Sequence[np.ndarray | None],
                      preps: Preparations) -> DBBatch:
    """Thread N prepared pure states through consecutive wormhole blocks.

    blocks holds each block's block_slices; local_gates interleaves the
    blocks (before, between, after) as local_transfer matrices, None
    standing for an identity that is not applied.  The states are their
    Pauli traces throughout.  Every check runs on every state: each block
    input, whether or not a local gate was applied to it, and each output
    must lie in the Bloch ball to within BLOCH_BALL (bloch_coordinates).
    The residual and the degeneracy flag start from the first block's; a
    circuit with no block has zeros.
    """
    if len(local_gates) != len(blocks) + 1:
        raise ValueError(
            f"need {len(blocks) + 1} local gates for {len(blocks)} blocks, got {len(local_gates)}")
    a = preps.pauli_expectations
    residual = degenerate = None
    for transfer, coeffs in zip(local_gates, blocks):
        if transfer is not None:
            a = a @ transfer.T
        bloch_coordinates(a)
        m, c = _bloch_affine(coeffs, a)
        r, block_degenerate, block_residual = _solve_system(m[:, :3], c[:, :3], ATOL_SOLVER)
        a = c[:, 3:] + (m[:, 3:] @ r[..., None])[..., 0]
        if residual is None:
            residual, degenerate = block_residual, block_degenerate
        else:
            residual = np.maximum(residual, block_residual)
            degenerate = degenerate | block_degenerate
    if residual is None:
        residual, degenerate = np.zeros(len(preps)), np.zeros(len(preps), dtype=bool)
    if local_gates[-1] is not None:
        a = a @ local_gates[-1].T
    return DBBatch(bloch_coordinates(a), residual, degenerate)


def solve_chain(blocks: Sequence[Mat4], local_gates: Sequence[Mat2],
                p: PureStateParams) -> DBRun:
    """solve_chain_batch on the one state p."""
    return solve_chain_batch([block_slices(u, interaction_transfer(u)) for u in blocks],
                             [local_transfer(g) for g in local_gates], p.batch)[0]


def run_chain(blocks: Sequence[Mat4], local_gates: Sequence[Mat2],
              p: PureStateParams) -> DensityMatrix:
    """The output state of solve_chain alone."""
    return solve_chain(blocks, local_gates, p).output
