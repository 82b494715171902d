"""Dense complex linear algebra for one- and two-qubit operators.

Everything here is plain double-precision numpy on 2x2 and 4x4 arrays:
states, gates, tensor products, partial traces and distance measures.
The state helpers also take stacks of them, one per prepared state, and
check each member.  A stacked helper makes a fixed number of numpy calls
per stack, not a BLAS or LAPACK call per member: conjugate forms two flat
products, and the density checks and Bloch coordinates read the entries in
closed form.  tests/test_qlinalg.py pins each closed form against the dense
definition it replaces, bit for bit where its bits reach the output.  This
module is the numeric oracle the symbolic engine is checked against, so it
stays deliberately dumb -- no sparsity, no n-qubit generality.  As the
bottom of the import graph it also holds the prepared states and the root
of ctcsim's exceptions.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

# Structural checks (hermiticity, trace, unitarity) use ATOL_STRUCT;
# fixed-point solvers converge to ATOL_SOLVER.
ATOL_STRUCT = 1e-12
ATOL_SOLVER = 1e-10
_HALF_MAX = sys.float_info.max / 2

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

    @functools.cached_property
    def batch(self) -> "Preparations":
        """This one state as a batch of one, derived once like alpha and beta."""
        return Preparations(np.array([self.alpha2]), np.array([self.theta]))

    def density(self) -> DensityMatrix:
        return self.batch.density()[0]

    def bloch(self) -> "BlochVector":
        return BlochVector(*self.batch.pauli_expectations[0, 1:].tolist())


@dataclass(frozen=True, eq=False)
class Preparations:
    """N prepared states, one per (alpha2, theta) pair; scalars broadcast.

    Each pair is checked as PureStateParams checks one, and the first bad
    pair raises that class's error.  alpha and beta are derived once, with
    the arithmetic of PureStateParams.
    """

    alpha2: np.ndarray
    theta: np.ndarray
    alpha: np.ndarray = field(init=False, repr=False, compare=False)
    beta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alpha2 = np.atleast_1d(np.asarray(self.alpha2, dtype=float))
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if alpha2.shape != theta.shape:
            alpha2, theta = np.broadcast_arrays(alpha2, theta)
        # |theta| <= max / 2 is exactly "2 theta is finite", without overflowing
        ok = (alpha2 >= 0.0) & (alpha2 <= 1.0) & (np.abs(theta) <= _HALF_MAX)
        if not ok.all():
            n = int(np.argmin(ok))
            PureStateParams(alpha2=alpha2[n].item(), theta=theta[n].item())  # raises its error
        object.__setattr__(self, "alpha2", alpha2)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "alpha", np.sqrt(alpha2))
        object.__setattr__(self, "beta", np.sqrt(1.0 - alpha2))

    def __len__(self) -> int:
        return len(self.alpha2)

    def density(self) -> np.ndarray:
        """(N, 2, 2) density matrices: the outer product of each ket with itself."""
        ket = np.empty((len(self), 2), dtype=complex)
        ket[:, 0] = self.alpha * np.exp(1j * self.theta)
        ket[:, 1] = self.beta * np.exp(-1j * self.theta)
        return ket[:, :, None] * ket.conj()[:, None, :]

    @functools.cached_property
    def pauli_expectations(self) -> np.ndarray:
        """(N, 4) closed-form expectations of I, X, Y, Z in each state.

        The Z column squares through Python's float power, which rounds
        differently from x * x in about 0.1% of cases; the printed values
        have always been computed that way.
        """
        two_ab = 2.0 * self.alpha * self.beta
        out = np.empty((len(self), 4))
        out[:, 0] = 1.0
        out[:, 1] = two_ab * np.cos(2.0 * self.theta)
        out[:, 2] = -two_ab * np.sin(2.0 * self.theta)
        out[:, 3] = _float_squares(self.alpha) - _float_squares(self.beta)
        return out


def _float_squares(x: np.ndarray) -> np.ndarray:
    return np.array([v**2 for v in x.tolist()])


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


def standard_gate(name: str) -> np.ndarray:
    """Look up a standard gate matrix by name (I2, I4, X, Y, Z, H, S, CNOT, CZ, SWAP)."""
    key = name.upper()
    if key not in _GATES:
        raise QlinalgError(f"unknown gate name {name!r}")
    return _GATES[key].copy()


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product over the last two axes, stacked over any leading ones;
    first factor is qubit 1.  Each entry is one product, as np.kron forms it."""
    a, b = np.asarray(a), np.asarray(b)
    shape = (*np.broadcast_shapes(a.shape[:-2], b.shape[:-2]),
             a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(shape)


def conjugate(g: np.ndarray, m: np.ndarray) -> np.ndarray:
    """g m g^dag for a d x d matrix m, or for each member of a stack (..., d, d).

    Two flat products whatever the leading shape: g times the N members side
    by side, (d, N*d), then the N products stacked, (N*d, d), times g^dag.
    Each entry is the length-d dot product g @ m @ g.conj().T forms member
    by member, so the bits are the same; tests/test_qlinalg.py pins that.
    """
    g, m = np.asarray(g), np.asarray(m)
    d = m.shape[-1]
    members = m.reshape(-1, d, d)
    n = len(members)
    side = g @ members.transpose(1, 0, 2).reshape(d, n * d)
    stacked = side.reshape(d, n, d).transpose(1, 0, 2).reshape(n * d, d)
    return (stacked @ g.conj().T).reshape(m.shape)


def pauli_transfer(u: Mat4) -> np.ndarray:
    """Real Pauli transfer matrix R[k, l, i, j] = Tr[(s_k x s_l) U (s_i x s_j) U^dag] / 4.

    Column ij holds the Pauli coordinates of U (s_i x s_j) U^dag, row kl those
    of U^dag (s_k x s_l) U; for a Clifford, R is a signed permutation.
    """
    images = conjugate(u, PAULI_PAIRS)
    return np.einsum("klab,ijba->klij", PAULI_PAIRS, images).real / 4.0


def partial_trace_first(m: np.ndarray) -> np.ndarray:
    """Trace out qubit 1 of a two-qubit operator, or of each in a stack (..., 4, 4)."""
    r = np.asarray(m).reshape(*np.shape(m)[:-2], 2, 2, 2, 2)
    return np.einsum("...aiaj->...ij", r)


def partial_trace_second(m: np.ndarray) -> np.ndarray:
    """Trace out qubit 2 of a two-qubit operator, or of each in a stack (..., 4, 4)."""
    r = np.asarray(m).reshape(*np.shape(m)[:-2], 2, 2, 2, 2)
    return np.einsum("...aibi->...ab", r)


def assert_unitary(u: np.ndarray, atol: float = ATOL_STRUCT) -> None:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise QlinalgError(f"not a square matrix: shape {u.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # inf and overflow fail below
        dev = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if not dev <= atol:  # NaN fails too
        raise QlinalgError(f"matrix is not unitary (deviation {dev:.3e})")


def _check_each(bad: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise message, formatted with the value at the first bad entry, if any."""
    if bad.any():
        raise QlinalgError(message.format(values[bad].flat[0].item()))


def _lowest_eigenvalue(rho: np.ndarray) -> np.ndarray:
    """The smaller eigenvalue of each hermitian 2x2 in a stack, in closed form
    from the diagonal and the lower off-diagonal entry, the triangle eigvalsh reads."""
    a, d = rho[..., 0, 0].real, rho[..., 1, 1].real
    return (a + d) / 2 - np.hypot((a - d) / 2, np.abs(rho[..., 1, 0]))


def assert_density(rho: np.ndarray, atol: float = ATOL_STRUCT) -> None:
    """Check hermiticity, unit trace and positivity of a 2x2 matrix, or of
    each in a stack (..., 2, 2); the first matrix that fails the first
    failing check is reported.

    Asymmetry beyond tolerance is an error rather than being symmetrized away:
    a lopsided matrix here means an engine bug upstream.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (2, 2):
        raise QlinalgError(f"density matrix must be 2x2, got {rho.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # inf, NaN and overflow fail below
        herm_dev = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        tr_dev = np.abs(rho[..., 0, 0] + rho[..., 1, 1] - 1.0)
        low = _lowest_eigenvalue(rho)
    if ((herm_dev <= atol) & (tr_dev <= atol) & (low >= -atol)).all():
        return
    _check_each(~(herm_dev <= atol), herm_dev, "density matrix not hermitian (deviation {:.3e})")
    _check_each(~(tr_dev <= atol), tr_dev, "density matrix trace deviates from 1 by {:.3e}")
    _check_each(~(low >= -atol), low, "density matrix has negative eigenvalue {:.3e}")


def bloch_coordinates(rho: np.ndarray) -> np.ndarray:
    """(Tr[X rho], Tr[Y rho], Tr[Z rho]) of a valid density matrix, or (..., 3)
    for a stack, each checked as a density matrix with a Bloch norm of at most 1."""
    rho = np.asarray(rho)
    assert_density(rho)
    r = np.empty((*rho.shape[:-2], 3))
    r[..., 0] = rho[..., 1, 0].real + rho[..., 0, 1].real
    r[..., 1] = rho[..., 1, 0].imag - rho[..., 0, 1].imag
    r[..., 2] = rho[..., 0, 0].real - rho[..., 1, 1].real
    r += 0.0  # -0.0 -> 0.0: the trace of the Pauli product adds exact zeros too
    norm = np.sqrt(np.sum(r * r, axis=-1))
    _check_each(~(norm <= 1.0 + 1e-9), norm, "Bloch vector norm {!r} exceeds 1")
    return r


def density_from_bloch(r: BlochVector | np.ndarray) -> np.ndarray:
    """Reconstruct (I + r . sigma) / 2 from a BlochVector, whose type enforces
    |r| <= 1, or from each row of a stack of coordinates (..., 3)."""
    r = np.asarray(r.as_tuple() if isinstance(r, BlochVector) else r)[..., None, None]
    return 0.5 * (I2 + r[..., 0, :, :] * PAULI_X + r[..., 1, :, :] * PAULI_Y
                  + r[..., 2, :, :] * PAULI_Z)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma (exact via eigenvalues of the hermitian difference)."""
    evals = np.linalg.eigvalsh(np.asarray(rho) - np.asarray(sigma))
    return float(0.5 * np.sum(np.abs(evals)))

