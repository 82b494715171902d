"""Brute-force oracles the implementation is checked against.

Everything here is written independently of the package internals: explicit
index sums for partial traces, dense Kronecker products for symbolic words,
QR-sampled unitaries.  Keep it dumb.
"""

import numpy as np

from ctcsim import scenario
from ctcsim.db_model import (
    DBBatch,
    FixedPointError,
    _solve_eigen,
    _spectral_norm_herm,
    block_slices,
    interaction_transfer,
)
from ctcsim.qlinalg import (
    ATOL_SOLVER,
    HADAMARD,
    I2,
    PAULI_BY_NAME,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    PHASE_S,
    BlochVector,
    Preparations,
    PureStateParams,
    assert_density,
    bloch_coordinates,
    conjugate,
    density_from_bloch,
    partial_trace_first,
    partial_trace_second,
    tensor,
)
from ctcsim.timed_pauli import Clifford, TimedPauliWord


def local_gate(name: str) -> tuple[np.ndarray, Clifford]:
    """A local gate name's read-only matrix, as the density-matrix engine
    applies it, and its table, as the Heisenberg engine reads it."""
    return scenario._LOCALS[name.lower()]


# -- frames: the same circuit and states seen through a one-qubit Clifford V --


def bloch_rotation(v: np.ndarray) -> np.ndarray:
    """R_V[i, j] = Tr[sigma_i V sigma_j V^dag] / 2: the Bloch vector of
    V rho V^dag is R_V r.  A Clifford's R_V is a signed permutation, and its
    entries are rounded to exactly that."""
    paulis = PAULIS[1:]
    r = np.einsum("iab,bc,jcd,da->ij", paulis, v, paulis, v.conj().T).real / 2
    assert np.allclose(r, np.rint(r), atol=1e-12), "V is not a Clifford"
    return np.rint(r) + 0.0  # no -0.0, so equal rotations have equal bytes


def one_qubit_cliffords() -> list[np.ndarray]:
    """The 24 one-qubit Cliffords modulo phase, closed from H and S
    breadth first and told apart by their Bloch rotations."""
    found = {bloch_rotation(I2).tobytes(): I2}
    frontier = [I2]
    while frontier:
        new = []
        for v in frontier:
            for g in (HADAMARD, PHASE_S):
                w = g @ v
                key = bloch_rotation(w).tobytes()
                if key not in found:
                    found[key] = w
                    new.append(w)
        frontier = new
    return list(found.values())


def local_image(v: np.ndarray, name: str) -> str | None:
    """The name of the local gate V L V^dag, up to phase, of the local L
    called name, or None if it has no name."""
    target = v @ local_gate(name)[0] @ v.conj().T
    for image, (matrix, _) in scenario._LOCALS.items():
        if abs(abs(np.trace(matrix.conj().T @ target)) - 2) < 1e-12:
            return image
    return None


def rotate_frame(v: np.ndarray, spec: scenario.CircuitSpec,
                 preps: Preparations) -> tuple[scenario.CircuitSpec, Preparations] | None:
    """spec and preps seen through V, or None if a local gate has no named
    image there: each block's u becomes (V x V) u (V x V)^dag, each local
    its named image, and each preparation's Bloch vector r becomes R_V r,
    read back as alpha2 = (1 + z) / 2 and theta = atan2(-y, x) / 2."""
    locals_ = tuple(local_image(v, name) for name in spec.local_gates)
    if None in locals_:
        return None
    vv = np.kron(v, v)
    blocks = tuple(scenario.BlockSpec(vv @ b.u @ vv.conj().T) for b in spec.blocks)
    x, y, z = bloch_rotation(v) @ preps.pauli_expectations[:, 1:].T
    rotated = Preparations(np.clip((1.0 + z) / 2, 0.0, 1.0), np.arctan2(-y, x) / 2)
    return spec._replace(blocks=blocks, local_gates=locals_), rotated


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = g @ g.conj().T
    return a / np.trace(a)


def random_params(rng: np.random.Generator) -> PureStateParams:
    alpha2 = rng.uniform(0.0, 1.0)
    return PureStateParams.from_alpha2(alpha2, rng.uniform(0.0, 2.0 * np.pi))


def state_prep_unitary(p: PureStateParams) -> np.ndarray:
    """Unitary sending |0> to the prepared state: a Z-phase after a real Y-rotation.

    The rotation block is [[alpha, -beta], [beta, alpha]], i.e. alpha*I - i*beta*Y,
    so the |0> column is exactly (alpha e^{i theta}, beta e^{-i theta}).
    """
    rot = np.array([[p.alpha, -p.beta], [p.beta, p.alpha]], dtype=complex)
    zphase = np.diag([np.exp(1j * p.theta), np.exp(-1j * p.theta)])
    return zphase @ rot


def bloch_from_density(rho: np.ndarray) -> BlochVector:
    """The checked Bloch vector of one density matrix."""
    return BlochVector(*bloch_coordinates(assert_density(rho)).tolist())


def pt_first_loops(m: np.ndarray) -> np.ndarray:
    """Partial trace over qubit 1 by explicit index sums."""
    out = np.zeros((2, 2), dtype=complex)
    for j in range(2):
        for k in range(2):
            for a in range(2):
                out[j, k] += m[2 * a + j, 2 * a + k]
    return out


def pt_second_loops(m: np.ndarray) -> np.ndarray:
    """Partial trace over qubit 2 by explicit index sums."""
    out = np.zeros((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            for j in range(2):
                out[a, b] += m[2 * a + j, 2 * b + j]
    return out


def ctc_map_oracle(u: np.ndarray, rho_in: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Direct 4x4 conjugation plus index-sum partial trace."""
    big = u @ np.kron(rho_in, rho) @ u.conj().T
    return pt_first_loops(big)


def word_to_dense(w: TimedPauliWord, n_labels: int) -> np.ndarray:
    """Map a finite word to a dense operator, one tensor slot per label."""
    assert w.tail is None, "dense oracle only covers finite words"
    slots = [np.eye(2, dtype=complex)] * n_labels
    for k, letter in w.head:
        assert 0 <= k < n_labels
        slots[k] = PAULI_BY_NAME[letter.value]
    op = np.array([[1.0 + 0j]])
    for s in slots:
        op = np.kron(op, s)
    return 1j ** w.ipow * op


def gaussian_overlap_quadrature(d: float, tau: float, half_width: float = 14.0,
                                points: int = 40001) -> float:
    """Numerically integrate the normalized Gaussian product overlap."""
    u = np.linspace(-half_width * d, half_width * d + tau, points)
    g = np.exp(-u**2 / (2 * d**2))
    g_shift = np.exp(-((u - tau) ** 2) / (2 * d**2))
    num = np.trapezoid(g * g_shift, u)
    den = np.trapezoid(g * g, u)
    return float(num / den)


def with_signed_zeros(rng: np.random.Generator, z: np.ndarray, share: float = 0.3) -> np.ndarray:
    """A copy of complex z with about `share` of its real and of its imaginary
    parts replaced by +0.0 or -0.0, at random."""
    z = np.array(z, dtype=complex)
    for part in (z.real, z.imag):
        hit = rng.random(part.shape) < share
        part[hit] = np.where(rng.random(part.shape) < 0.5, 0.0, -0.0)[hit]
    return z


# -- the forms the stacked kernels replaced, kept as bit-for-bit oracles -----


def bloch_affine_sum(loop: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """db_model._bloch_affine as a Python sum over i."""
    affine = sum(a[..., i, None, None] * loop[i] for i in range(4))
    return affine[..., 1:], affine[..., 0]


def partial_trace_first_einsum(m: np.ndarray) -> np.ndarray:
    r = np.asarray(m).reshape(*np.shape(m)[:-2], 2, 2, 2, 2)
    return np.einsum("...aiaj->...ij", r)


def partial_trace_second_einsum(m: np.ndarray) -> np.ndarray:
    r = np.asarray(m).reshape(*np.shape(m)[:-2], 2, 2, 2, 2)
    return np.einsum("...aibi->...ab", r)


def tensor_broadcast(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """qlinalg.tensor with its shape from np.broadcast_shapes."""
    a, b = np.asarray(a), np.asarray(b)
    shape = (*np.broadcast_shapes(a.shape[:-2], b.shape[:-2]),
             a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(shape)


def density_from_bloch_sum(r: np.ndarray) -> np.ndarray:
    """qlinalg.density_from_bloch as the sum I + x X + y Y + z Z, halved."""
    r = np.asarray(r)[..., None, None]
    return 0.5 * (I2 + r[..., 0, :, :] * PAULI_X + r[..., 1, :, :] * PAULI_Y
                  + r[..., 2, :, :] * PAULI_Z)


def bloch_coordinates_entries(rho: np.ndarray) -> np.ndarray:
    """The coordinates qlinalg.bloch_coordinates reads off a density matrix's
    Pauli traces, entry by entry."""
    r = np.empty((*rho.shape[:-2], 3))
    r[..., 0] = rho[..., 1, 0].real + rho[..., 0, 1].real
    r[..., 1] = rho[..., 1, 0].imag - rho[..., 0, 1].imag
    r[..., 2] = rho[..., 0, 0].real - rho[..., 1, 1].real
    r += 0.0
    return r


def preparation_fields(alpha2: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """alpha, beta, the density matrices and the Pauli expectations of
    Preparations(alpha2, theta), each in the form it had before it was stacked."""
    alpha2, theta = np.atleast_1d(np.asarray(alpha2, dtype=float)), np.asarray(theta, dtype=float)
    alpha2, theta = np.broadcast_arrays(alpha2, theta)
    alpha, beta = np.sqrt(alpha2), np.sqrt(1.0 - alpha2)
    ket = np.empty((len(alpha2), 2), dtype=complex)
    ket[:, 0] = alpha * np.exp(1j * theta)
    ket[:, 1] = beta * np.exp(-1j * theta)
    two_ab = 2.0 * alpha * beta
    letters = np.empty((len(alpha2), 4))
    letters[:, 0] = 1.0
    letters[:, 1] = two_ab * np.cos(2.0 * theta)
    letters[:, 2] = -two_ab * np.sin(2.0 * theta)
    letters[:, 3] = (np.array([v**2 for v in alpha.tolist()])
                     - np.array([v**2 for v in beta.tolist()]))
    return alpha, beta, ket[:, :, None] * ket.conj()[:, None, :], letters


def spectral_norm_eigvalsh(m: np.ndarray) -> np.ndarray:
    """db_model._spectral_norm_herm through the public np.linalg.eigvalsh."""
    return np.max(np.abs(np.linalg.eigvalsh(m)), axis=-1)


def trace_distance_eigvalsh(rho: np.ndarray, sigma: np.ndarray) -> float:
    """qlinalg.trace_distance through the public np.linalg.eigvalsh."""
    evals = np.linalg.eigvalsh(np.asarray(rho) - np.asarray(sigma))
    return float(0.5 * np.sum(np.abs(evals)))


# -- the chain on 2x2 matrices, the reference of the chain on Pauli traces --


def loop_transfer(u: np.ndarray) -> np.ndarray:
    """The loop slice of the interaction U, checked unitary."""
    return block_slices(u, interaction_transfer(u))[0]


def solve_chain_dense(blocks, local_gates, preps) -> DBBatch:
    """db_model.solve_chain_batch on 2x2 matrices, as it ran before it ran on
    Pauli traces: blocks holds each interaction U and local_gates each local
    gate's matrix.  Each state is checked as a density matrix and its Pauli
    traces solved for the fixed point, and one dense trip around the loop
    gives the residual and the block output."""
    rho = preps.density()
    residual = np.zeros(len(preps))
    degenerate = np.zeros(len(preps), dtype=bool)
    for gate_before, u in zip(local_gates, blocks):
        rho = conjugate(gate_before, rho)
        r, block_degenerate, _ = _solve_eigen(loop_transfer(u), assert_density(rho))
        fixed = density_from_bloch(r)
        joint = conjugate(u, tensor(rho, fixed))
        block_residual = _spectral_norm_herm(partial_trace_first(joint) - fixed)
        if (block_residual > ATOL_SOLVER).any():
            raise FixedPointError("returned state misses the fixed point",
                                  residual=block_residual.max())
        assert_density(fixed, atol=1e-9)
        rho = partial_trace_second(joint)
        residual = np.maximum(residual, block_residual)
        degenerate |= block_degenerate
    rho = conjugate(local_gates[-1], rho)
    return DBBatch(rho, bloch_coordinates(assert_density(rho)), residual, degenerate)
