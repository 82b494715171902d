"""Dense complex linear algebra for one- and two-qubit operators.

Everything here is plain double-precision numpy on 2x2 and 4x4 arrays:
states, gates, tensor products, partial traces and distance measures.  The
state helpers also take stacks of them, one per prepared state, and check
each member.  Only bloch_coordinates, largest and all_at_most run per
point; every other kernel runs at import, when a circuit is compiled or on
the one-state oracle path, so each takes its textbook definition.  Every
matrix whose eigenvalues are needed is a hermitian 2x2, so they are read in
closed form (hermitian_spectrum), with no LAPACK call.
tests/test_qlinalg.py pins each closed form against the dense definition,
the form it replaces or np.linalg.eigvalsh, within a stated bound or bit for
bit.  This module is the numeric oracle the symbolic engine is checked
against, so it stays deliberately dumb -- no sparsity, no n-qubit
generality.  As the bottom of the import graph it also holds the prepared
states, the root of ctcsim's exceptions and the base of its record types.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

# Structural checks (hermiticity, trace, unitarity) use ATOL_STRUCT;
# fixed-point solvers converge to ATOL_SOLVER.
ATOL_STRUCT = 1e-12
ATOL_SOLVER = 1e-10
# A Bloch norm may spill past 1 by this much and still be a state.
BLOCH_ATOL = 1e-9
# A unit-trace hermitian 2x2 has eigenvalues (1 -+ |r|) / 2, so the Bloch
# norm of a state that assert_density accepts may pass 1 by twice its
# positivity bound; bloch_coordinates holds every state to this.
BLOCH_BALL = 1.0 + 2 * ATOL_STRUCT
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


class Record:
    """Base of ctcsim's immutable records, which compare by identity.

    A record's __init__ stores its attributes in its __dict__, where
    functools.cached_property also stores what it derives on first use.
    Setting or deleting an attribute afterwards raises AttributeError.
    _fields names the constructor's fields in order.  The repr shows them,
    and _replace builds a copy with changes through the constructor, so
    every check runs again.  Records that only hold values, with no checks,
    are typing.NamedTuples instead.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class ValueRecord(Record):
    """A record that equals, and hashes as, a record of its type with equal fields."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


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
_PLUS_MINUS_I = np.array([1j, -1j])


class PureStateParams(ValueRecord):
    """The input qubit alpha e^{i theta}|0> + beta e^{-i theta}|1>, kept as given.

    alpha2 is the |0> population in [0, 1]; the real amplitudes
    alpha = sqrt(alpha2) and beta = sqrt(1 - alpha2) are derived once, and
    the four Pauli traces once, with batch.
    """

    _fields = ("alpha2", "theta")

    def __init__(self, *, alpha2: float, theta: float = 0.0) -> None:
        vars(self).update(alpha2=alpha2, theta=theta)
        # 2 theta is the angle every closed form reads, so it must be finite too
        if not (math.isfinite(alpha2) and math.isfinite(2.0 * theta)):
            raise QlinalgError(f"state parameters must be finite, got {self!r}")
        if not 0.0 <= alpha2 <= 1.0:
            raise QlinalgError(f"alpha2 must be in [0, 1], got {alpha2!r}")
        vars(self).update(alpha=math.sqrt(alpha2), beta=math.sqrt(1.0 - alpha2))

    @classmethod
    def from_alpha2(cls, alpha2: float, theta: float = 0.0) -> "PureStateParams":
        """Build params from the |0> population alpha^2 in [0, 1]."""
        return cls(alpha2=alpha2, theta=theta)

    @functools.cached_property
    def batch(self) -> "Preparations":
        """This one state as a batch of one, derived once like alpha and beta.

        The state is checked and its amplitudes derived already, with the
        arithmetic Preparations uses, so they are handed over as they are.
        Its Pauli traces are derived here, in Python floats, by the
        operations of Preparations.pauli_expectations in the same order, and
        handed over too; tests/test_qlinalg.py pins the two bit for bit.
        """
        a, b = self.alpha, self.beta
        two_ab, angle = 2.0 * a * b, 2.0 * self.theta
        row = np.array([[self.alpha2, self.theta, a, b,
                         1.0, two_ab * math.cos(angle), -two_ab * math.sin(angle), a * a - b * b]])
        return Preparations._of_checked(row[:, 0], row[:, 1], row[:, 2:4], row[:, 4:])

    def density(self) -> DensityMatrix:
        return self.batch.density()[0]

    def bloch(self) -> "BlochVector":
        return BlochVector(*self.batch.pauli_expectations[0, 1:].tolist())


class Preparations(Record):
    """N prepared states, one per (alpha2, theta) pair; scalars broadcast.

    Each pair is checked as PureStateParams checks one, and the first bad
    pair raises that class's error.  The amplitudes, (N, 2) columns alpha and
    beta, are derived once, with the arithmetic of PureStateParams, and the
    Pauli traces on first use; PureStateParams.batch hands over both,
    derived once with its state.
    """

    _fields = ("alpha2", "theta")

    def __init__(self, alpha2: np.ndarray, theta: np.ndarray) -> None:
        alpha2 = np.array(alpha2, dtype=float, copy=None, ndmin=1)
        theta = np.array(theta, dtype=float, copy=None, ndmin=1)
        if alpha2.shape != theta.shape:
            alpha2, theta = np.broadcast_arrays(alpha2, theta)
        # |theta| <= max / 2 is exactly "2 theta is finite", without overflowing
        ok = (alpha2 >= 0.0) & (alpha2 <= 1.0) & (np.abs(theta) <= _HALF_MAX)
        if not ok.all():
            n = int(np.argmin(ok))
            PureStateParams(alpha2=alpha2[n].item(), theta=theta[n].item())  # raises its error
        self._set(alpha2, theta, np.sqrt(np.stack([alpha2, 1.0 - alpha2], axis=-1)))

    @classmethod
    def _of_checked(cls, alpha2: np.ndarray, theta: np.ndarray, amplitudes: np.ndarray,
                    traces: np.ndarray) -> "Preparations":
        """Preparations of pairs that are checked already, with their amplitudes
        and their Pauli traces, the pauli_expectations they hold from the start."""
        self = object.__new__(cls)
        self._set(alpha2, theta, amplitudes)
        vars(self)["pauli_expectations"] = traces
        return self

    def _set(self, alpha2: np.ndarray, theta: np.ndarray, amplitudes: np.ndarray) -> None:
        vars(self).update(alpha2=alpha2, theta=theta, amplitudes=amplitudes,
                          alpha=amplitudes[:, 0], beta=amplitudes[:, 1])

    def __len__(self) -> int:
        return len(self.alpha2)

    def density(self) -> np.ndarray:
        """(N, 2, 2) density matrices: the outer product of each ket with itself.

        The ket is (alpha e^{i theta}, beta e^{-i theta}), both phases from
        one exp of theta times (i, -i).
        """
        ket = self.amplitudes * np.exp(self.theta[:, None] * _PLUS_MINUS_I)
        return ket[:, :, None] * ket.conj()[:, None, :]

    @functools.cached_property
    def pauli_expectations(self) -> np.ndarray:
        """(N, 4) closed-form expectations of I, X, Y, Z in each state."""
        two_ab = 2.0 * self.alpha * self.beta
        angle = 2.0 * self.theta
        out = np.empty((len(self), 4))
        out[:, 0] = 1.0
        out[:, 1] = two_ab * np.cos(angle)
        out[:, 2] = -two_ab * np.sin(angle)
        out[:, 3] = self.alpha * self.alpha - self.beta * self.beta
        return out


class BlochVector(ValueRecord):
    """A point of the Bloch ball: three finite coordinates of norm at most 1,
    up to BLOCH_ATOL.  A NaN or infinite coordinate makes the norm NaN or
    infinite, which is refused too.  The norm is taken with the operations
    bloch_coordinates uses on a stack, in the same order, so a row that
    passed that check passes this one, and _of_checked builds it unchecked."""

    _fields = ("rx", "ry", "rz")

    def __init__(self, rx: float, ry: float, rz: float) -> None:
        vars(self).update(rx=rx, ry=ry, rz=rz)
        norm = self.norm()
        if not norm <= 1.0 + BLOCH_ATOL:  # NaN fails too
            raise QlinalgError(f"Bloch vector norm {norm!r} exceeds 1")

    @classmethod
    def _of_checked(cls, rx: float, ry: float, rz: float) -> "BlochVector":
        """A BlochVector of a row that bloch_coordinates has checked already."""
        self = object.__new__(cls)
        vars(self).update(rx=rx, ry=ry, rz=rz)
        return self

    def norm(self) -> float:
        return math.sqrt(self.rx * self.rx + self.ry * self.ry + self.rz * self.rz)

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
    p = a[..., :, None, :, None] * b[..., None, :, None, :]
    *lead, ra, rb, ca, cb = p.shape
    return p.reshape(*lead, ra * rb, ca * cb)


def conjugate(g: np.ndarray, m: np.ndarray) -> np.ndarray:
    """g m g^dag for a d x d matrix m, or for each member of a stack (..., d, d)."""
    g = np.asarray(g)
    return g @ m @ g.conj().T


def pauli_transfer(u: Mat4) -> np.ndarray:
    """Real Pauli transfer matrix R[k, l, i, j] = Tr[(s_k x s_l) U (s_i x s_j) U^dag] / 4.

    Column ij holds the Pauli coordinates of U (s_i x s_j) U^dag, row kl those
    of U^dag (s_k x s_l) U; for a Clifford, R is a signed permutation.
    """
    images = conjugate(u, PAULI_PAIRS)
    return np.einsum("klab,ijba->klij", PAULI_PAIRS, images).real / 4.0


def partial_trace_first(m: np.ndarray) -> np.ndarray:
    """Trace out qubit 1 of a two-qubit operator, or of each in a stack (..., 4, 4):
    the sum of its two diagonal 2x2 blocks."""
    m = np.asarray(m)
    return m[..., :2, :2] + m[..., 2:, 2:]


def partial_trace_second(m: np.ndarray) -> np.ndarray:
    """Trace out qubit 2 of a two-qubit operator, or of each in a stack (..., 4, 4):
    the sum of its even-even and odd-odd entries."""
    m = np.asarray(m)
    return m[..., ::2, ::2] + m[..., 1::2, 1::2]


def assert_unitary(u: np.ndarray, atol: float = ATOL_STRUCT) -> None:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise QlinalgError(f"not a square matrix: shape {u.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # inf and overflow fail below
        dev = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if not dev <= atol:  # NaN fails too
        raise QlinalgError(f"matrix is not unitary (deviation {dev:.3e})")


def all_at_most(x: np.ndarray, bound: float) -> bool:
    """(x <= bound).all() in one reduction: NaN is not at most bound."""
    return np.maximum.reduce(x, axis=None, initial=-math.inf) <= bound


def largest(x: np.ndarray) -> float:
    """The largest entry of x in one reduction, NaN skipped, -inf if there is
    none: largest(x) > bound is (x > bound).any(), and NaN is not above bound."""
    return np.fmax.reduce(x, axis=None, initial=-math.inf)


def _check_each(bad: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise message, formatted with the value at the first bad entry, if any."""
    if bad.any():
        raise QlinalgError(message.format(values[bad].flat[0].item()))


def assert_density(rho: np.ndarray, atol: float = ATOL_STRUCT) -> np.ndarray:
    """Check hermiticity, unit trace and positivity of a 2x2 matrix, or of
    each in a stack (..., 2, 2), in that order, from the entries; the first
    matrix that fails the first failing check is reported.  Returns the
    Pauli traces Tr[sigma_k rho], k = 0..3, of each, (..., 4).

    Asymmetry beyond tolerance is an error rather than being symmetrized away:
    a lopsided matrix here means an engine bug upstream.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (2, 2):
        raise QlinalgError(f"density matrix must be 2x2, got {rho.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # inf, NaN and overflow fail the checks
        herm_dev = np.maximum.reduce(np.abs(rho - rho.conj().swapaxes(-1, -2)), axis=(-2, -1))
        tr_dev = np.abs(rho[..., 0, 0] + rho[..., 1, 1] - 1.0)
        s, h = hermitian_spectrum(rho)
        low = s - h
    _check_each(~(herm_dev <= atol), herm_dev, "density matrix not hermitian (deviation {:.3e})")
    _check_each(~(tr_dev <= atol), tr_dev, "density matrix trace deviates from 1 by {:.3e}")
    _check_each(~(low >= -atol), low, "density matrix has negative eigenvalue {:.3e}")
    return np.einsum("kab,...ba->...k", PAULIS, rho).real


def bloch_coordinates(traces: np.ndarray) -> np.ndarray:
    """(Tr[X rho], Tr[Y rho], Tr[Z rho]) of a state, from its Pauli traces
    (as assert_density returns them), or (..., 3) for a stack; each is
    checked to have a Bloch norm of at most BLOCH_BALL."""
    # a new array, and +0.0 where a trace is -0.0 (a prepared state's y trace at theta = 0)
    r = traces[..., 1:] + 0.0
    norm = np.sqrt(np.add.reduce(r * r, axis=-1))
    if not all_at_most(norm, BLOCH_BALL):
        _check_each(~(norm <= BLOCH_BALL), norm, "Bloch vector norm {!r} exceeds 1")
    return r


def density_from_bloch(r: BlochVector | np.ndarray) -> np.ndarray:
    """Reconstruct (I + x X + y Y + z Z) / 2 from a BlochVector, whose type
    enforces |r| <= 1, or from each row of a stack of finite coordinates (..., 3)."""
    r = np.asarray(r.as_tuple() if isinstance(r, BlochVector) else r, dtype=float)[..., None, None]
    return 0.5 * (I2 + r[..., 0, :, :] * PAULI_X + r[..., 1, :, :] * PAULI_Y
                  + r[..., 2, :, :] * PAULI_Z)


def hermitian_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues s - h and s + h of a hermitian 2x2, or of each in a
    stack (..., 2, 2), as (s, h): s = (a + d) / 2 and
    h = hypot((a - d) / 2, |m10|), from the real diagonal a, d and the lower
    off-diagonal entry, the triangle eigvalsh reads.  Every step is
    elementwise, and a matrix gives the same bits alone as in a stack.
    """
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    return (a + d) / 2, np.hypot((a - d) / 2, np.abs(m[..., 1, 0]))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma, two finite 2x2 matrices whose
    difference is hermitian.  Its eigenvalues are s - h and s + h
    (hermitian_spectrum), so half the sum of their moduli is max(|s|, h).

    This is the dense oracle: scenario.verdict reads the same distance off
    two Bloch vectors, and the tests compare its value against this one.
    """
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    ok = rho.shape == sigma.shape == (2, 2) and np.isfinite(rho) & np.isfinite(sigma)
    if not np.logical_and.reduce(ok, axis=None):
        raise QlinalgError("trace distance needs two finite 2x2 matrices")
    s, h = hermitian_spectrum(rho - sigma)
    return float(max(abs(s), h))
