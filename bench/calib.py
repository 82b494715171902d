"""Fixed reference work that measures the host's speed, run between jobs.

    python3 bench/calib.py

A fresh interpreter imports numpy and does the same small dense algebra and
interpreter work every time: the kind of work a ctcsim job does (4x4 complex
products, Kronecker products, closeness tests against Pauli pairs, a 2x2
eigenvalue problem, float formatting), but none of ctcsim's code, so no change
to ctcsim can change it.  bench/run.py times it from launch to exit; how long it
takes against its reference time is the speed of the host around the job next
to it.  It prints nothing and exits 0.
"""

import numpy as np

ROUNDS = 15

PAULI = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]], dtype=complex)]
PAIRS = [np.kron(a, b) for a in PAULI for b in PAULI]
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.diag([1, 1j])
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
GATES = [CNOT, np.kron(H, S) @ CNOT, CNOT @ np.kron(S, H), np.kron(H, H) @ CNOT @ np.kron(S, S)]


def images(u: np.ndarray) -> list[tuple[int, int]]:
    out = []
    for probe in (PAIRS[4], PAIRS[12], PAIRS[1], PAIRS[3]):
        target = u.conj().T @ probe @ u
        for index, pair in enumerate(PAIRS):
            if np.allclose(target, pair, atol=1e-9):
                out.append((1, index))
                break
            if np.allclose(target, -pair, atol=1e-9):
                out.append((-1, index))
                break
    return out


def main() -> int:
    lines = []
    for r in range(ROUNDS):
        for u in GATES:
            table = images(u)
            rho = 0.5 * (PAULI[0] + np.cos(r) * PAULI[3] + np.sin(r) * PAULI[1])
            joint = np.kron(rho, rho)
            reduced = np.einsum("ijkj->ik", (u @ joint @ u.conj().T).reshape(2, 2, 2, 2))
            values = np.linalg.eigvalsh(reduced)
            lines.append(",".join([repr(float(v)) for v in values] + [str(t) for t in table]))
    if len(lines) != ROUNDS * len(GATES):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
