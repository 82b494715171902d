"""Brute-force oracles the implementation is checked against.

Everything here is written independently of the package internals: explicit
index sums for partial traces, dense Kronecker products for symbolic words,
QR-sampled unitaries.  Keep it dumb.
"""

import numpy as np

from ctcsim.qlinalg import PAULI_BY_NAME, BlochVector, PureStateParams, bloch_coordinates
from ctcsim.timed_pauli import TimedPauliWord


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
    return BlochVector(*bloch_coordinates(rho).tolist())


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
    return w.phase * op


def gaussian_overlap_quadrature(d: float, tau: float, half_width: float = 14.0,
                                points: int = 40001) -> float:
    """Numerically integrate the normalized Gaussian product overlap."""
    u = np.linspace(-half_width * d, half_width * d + tau, points)
    g = np.exp(-u**2 / (2 * d**2))
    g_shift = np.exp(-((u - tau) ** 2) / (2 * d**2))
    num = np.trapezoid(g * g_shift, u)
    den = np.trapezoid(g * g, u)
    return float(num / den)
