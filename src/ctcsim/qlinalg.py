"""Dense complex linear algebra for one- and two-qubit operators.

Everything here is plain double-precision numpy on 2x2 and 4x4 arrays:
states, gates, tensor products, partial traces and distance measures.
This module is the numeric oracle the symbolic engine is checked against,
so it stays deliberately dumb -- no sparsity, no n-qubit generality.  As
the bottom of the import graph it also holds the prepared state and the
root of ctcsim's exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Structural checks (hermiticity, trace, unitarity) use ATOL_STRUCT;
# fixed-point solvers converge to ATOL_SOLVER.
ATOL_STRUCT = 1e-12
ATOL_SOLVER = 1e-10

Mat2 = np.ndarray
Mat4 = np.ndarray
DensityMatrix = np.ndarray


class CtcsimError(Exception):
    """Root of every ctcsim error; the CLI reports one as bad input (exit 2)."""


class EngineError(CtcsimError):
    """An engine could not produce a result for valid input (CLI exit 1)."""


class QlinalgError(CtcsimError, ValueError):
    """Structurally invalid state, operator or time profile."""


I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)

# Two-qubit basis order is |q1 q2> with q1 the most significant bit,
# so kron(A, B) puts A on qubit 1.  CNOT control is the first qubit.
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex)

_GATES: dict[str, np.ndarray] = {
    "I2": I2,
    "I4": I4,
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "H": HADAMARD,
    "S": PHASE_S,
    "CNOT": CNOT,
    "CZ": CZ,
    "SWAP": SWAP,
}

PAULI_BY_NAME: dict[str, np.ndarray] = {
    "I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z,
}

# sigma_0..3 = I, X, Y, Z; PAULI_PAIRS[k, l] = kron(sigma_k, sigma_l).
PAULIS = np.array([I2, PAULI_X, PAULI_Y, PAULI_Z])
PAULI_PAIRS = np.einsum("kab,lcd->klacbd", PAULIS, PAULIS).reshape(4, 4, 4, 4)


@dataclass(frozen=True, kw_only=True)
class PureStateParams:
    """The input qubit alpha e^{i theta}|0> + beta e^{-i theta}|1>, kept as given.

    alpha2 is the |0> population in [0, 1]; the real amplitudes
    alpha = sqrt(alpha2) and beta = sqrt(1 - alpha2) are derived once.
    """

    alpha2: float
    theta: float = 0.0
    alpha: float = field(init=False, repr=False, compare=False)
    beta: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # 2 theta is the angle every closed form reads, so it must be finite too
        if not (math.isfinite(self.alpha2) and math.isfinite(2.0 * self.theta)):
            raise QlinalgError(f"state parameters must be finite, got {self!r}")
        if not 0.0 <= self.alpha2 <= 1.0:
            raise QlinalgError(f"alpha2 must be in [0, 1], got {self.alpha2!r}")
        object.__setattr__(self, "alpha", math.sqrt(self.alpha2))
        object.__setattr__(self, "beta", math.sqrt(1.0 - self.alpha2))

    @classmethod
    def from_alpha2(cls, alpha2: float, theta: float = 0.0) -> "PureStateParams":
        """Build params from the |0> population alpha^2 in [0, 1]."""
        return cls(alpha2=alpha2, theta=theta)

    def ket(self) -> np.ndarray:
        """Column vector of the prepared state."""
        return np.array([self.alpha * np.exp(1j * self.theta),
                         self.beta * np.exp(-1j * self.theta)])

    def density(self) -> DensityMatrix:
        k = self.ket()
        return np.outer(k, k.conj())

    def bloch(self) -> "BlochVector":
        two_ab = 2.0 * self.alpha * self.beta
        return BlochVector(two_ab * math.cos(2.0 * self.theta),
                           -two_ab * math.sin(2.0 * self.theta),
                           self.alpha**2 - self.beta**2)


@dataclass(frozen=True)
class BlochVector:
    rx: float
    ry: float
    rz: float

    def __post_init__(self) -> None:
        if self.norm() > 1.0 + 1e-9:
            raise QlinalgError(f"Bloch vector norm {self.norm()!r} exceeds 1")

    def norm(self) -> float:
        return math.sqrt(self.rx**2 + self.ry**2 + self.rz**2)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.rx, self.ry, self.rz)


def state_prep_unitary(p: PureStateParams) -> Mat2:
    """Unitary sending |0> to the prepared state: a Z-phase after a real Y-rotation.

    The rotation block is [[alpha, -beta], [beta, alpha]], i.e. alpha*I - i*beta*Y,
    so the |0> column is exactly (alpha e^{i theta}, beta e^{-i theta}).
    """
    rot = np.array([[p.alpha, -p.beta], [p.beta, p.alpha]], dtype=complex)
    zphase = np.diag([np.exp(1j * p.theta), np.exp(-1j * p.theta)])
    return zphase @ rot


def standard_gate(name: str) -> np.ndarray:
    """Look up a standard gate matrix by name (I2, I4, X, Y, Z, H, S, CNOT, CZ, SWAP)."""
    key = name.upper()
    if key not in _GATES:
        raise QlinalgError(f"unknown gate name {name!r}")
    return _GATES[key].copy()


def tensor(a: Mat2, b: Mat2) -> Mat4:
    """Kronecker product; first factor is qubit 1."""
    return np.kron(a, b)


def pauli_transfer(u: Mat4) -> np.ndarray:
    """Real Pauli transfer matrix R[k, l, i, j] = Tr[(s_k x s_l) U (s_i x s_j) U^dag] / 4.

    Column ij holds the Pauli coordinates of U (s_i x s_j) U^dag, row kl those
    of U^dag (s_k x s_l) U; for a Clifford, R is a signed permutation.
    """
    u = np.asarray(u)
    images = u @ PAULI_PAIRS @ u.conj().T
    return np.einsum("klab,ijba->klij", PAULI_PAIRS, images).real / 4.0


def partial_trace_first(m: Mat4) -> Mat2:
    """Trace out qubit 1 of a two-qubit operator."""
    r = np.asarray(m).reshape(2, 2, 2, 2)
    return np.einsum("aiaj->ij", r)


def partial_trace_second(m: Mat4) -> Mat2:
    """Trace out qubit 2 of a two-qubit operator."""
    r = np.asarray(m).reshape(2, 2, 2, 2)
    return np.einsum("aibi->ab", r)


def assert_unitary(u: np.ndarray, atol: float = ATOL_STRUCT) -> None:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise QlinalgError(f"not a square matrix: shape {u.shape}")
    dev = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if dev > atol:
        raise QlinalgError(f"matrix is not unitary (deviation {dev:.3e})")


def assert_density(rho: np.ndarray, atol: float = ATOL_STRUCT) -> None:
    """Check hermiticity, unit trace and positivity.

    Asymmetry beyond tolerance is an error rather than being symmetrized away:
    a lopsided matrix here means an engine bug upstream.
    """
    rho = np.asarray(rho)
    if rho.shape != (2, 2):
        raise QlinalgError(f"density matrix must be 2x2, got {rho.shape}")
    herm_dev = np.max(np.abs(rho - rho.conj().T))
    if herm_dev > atol:
        raise QlinalgError(f"density matrix not hermitian (deviation {herm_dev:.3e})")
    tr_dev = abs(np.trace(rho) - 1.0)
    if tr_dev > atol:
        raise QlinalgError(f"density matrix trace deviates from 1 by {tr_dev:.3e}")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -atol:
        raise QlinalgError(f"density matrix has negative eigenvalue {evals.min():.3e}")


def bloch_from_density(rho: DensityMatrix) -> BlochVector:
    """(Tr[X rho], Tr[Y rho], Tr[Z rho]) of a valid density matrix."""
    assert_density(rho)
    return BlochVector(
        float(np.real(np.trace(PAULI_X @ rho))),
        float(np.real(np.trace(PAULI_Y @ rho))),
        float(np.real(np.trace(PAULI_Z @ rho))),
    )


def density_from_bloch(r: BlochVector) -> DensityMatrix:
    """Reconstruct (I + r . sigma) / 2; the BlochVector type enforces |r| <= 1."""
    return 0.5 * (I2 + r.rx * PAULI_X + r.ry * PAULI_Y + r.rz * PAULI_Z)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma (exact via eigenvalues of the hermitian difference)."""
    evals = np.linalg.eigvalsh(np.asarray(rho) - np.asarray(sigma))
    return float(0.5 * np.sum(np.abs(evals)))

