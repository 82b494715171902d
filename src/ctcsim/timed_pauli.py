"""Signed Pauli words indexed by integer time labels.

A word is a phase in {+1, -1, +i, -i} times a product of Pauli letters, one
letter per integer label.  Label k means "k wormhole traversals into the
past"; in prime notation X at label 1 renders as X', at label 2 as X''.  A
word may end in an eventually-periodic infinite tail: one repeating letter
from some start label onward (the only periodicity the recurrence produces;
longer periods are an extension point of the cycle detector, not built).

Algebraic rules:
  * letters at the same label multiply by the ordinary Pauli table
    (JJ = I, XZ = -iY, ...);
  * letters at distinct labels commute with no phase -- histories at
    different times are orthogonal, so cross-label order carries nothing.

Phases are tracked exactly as integer powers of i.

Gates act on words through one type, Clifford: the table of U^dag P U for
every Pauli string P of a one- or two-qubit gate, each entry read off the
gate's Pauli transfer matrix (qlinalg.pauli_transfer) and confirmed against
the dense conjugation.  Conjugating a letter or a letter pair is one table
read of (power of i, letters).
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping
from enum import Enum

import numpy as np

from .qlinalg import (
    CNOT,
    CZ,
    EngineError,
    I2,
    PAULI_PAIRS,
    SWAP,
    ValueRecord,
    assert_unitary,
    pauli_transfer,
    standard_gate,
)


class DivergentPhaseError(EngineError, ArithmeticError):
    """An infinite tail would accumulate a non-unit phase per label."""


class PauliLetter(Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    # Members are singletons compared by identity, so identity hashing is
    # exact; it spares every table lookup Enum's hash of the member name.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # terse in test output
        return self.value


_L = PauliLetter

# (a, b) -> (power of i, letter) for a*b.
_MUL_TABLE: dict[tuple[PauliLetter, PauliLetter], tuple[int, PauliLetter]] = {}
for _a in _L:
    _MUL_TABLE[(_L.I, _a)] = (0, _a)
    _MUL_TABLE[(_a, _L.I)] = (0, _a)
    _MUL_TABLE[(_a, _a)] = (0, _L.I)
for _x, _y, _z in ((_L.X, _L.Y, _L.Z), (_L.Y, _L.Z, _L.X), (_L.Z, _L.X, _L.Y)):
    _MUL_TABLE[(_x, _y)] = (1, _z)   # XY = iZ and cyclic
    _MUL_TABLE[(_y, _x)] = (3, _z)   # YX = -iZ and cyclic


def letter_mul_ipow(a: PauliLetter, b: PauliLetter) -> tuple[int, PauliLetter]:
    """Product of two Pauli letters as (power of i, letter)."""
    return _MUL_TABLE[(a, b)]


class TimedPauliWord(ValueRecord):
    """Canonicalized signed product of letters at integer time labels.

    head holds (label, letter) pairs sorted by label with no identities;
    tail, when present, is (start_label, letter) meaning that letter repeats
    at every label >= start_label.  Canonical form never stores a head letter
    equal to the tail letter at start_label - 1 (it is absorbed), so
    structural equality is word equality.
    """

    _fields = ("ipow", "head", "tail")

    def __init__(self, ipow: int = 0, head: tuple[tuple[int, PauliLetter], ...] = (),
                 tail: tuple[int, PauliLetter] | None = None) -> None:
        vars(self).update(ipow=ipow, head=head, tail=tail)
        if ipow not in (0, 1, 2, 3):
            raise ValueError(f"ipow must be in 0..3, got {ipow!r}")
        labels = [k for k, _ in head]
        if labels != sorted(set(labels)):
            raise ValueError("head labels must be strictly increasing")
        if any(letter is _L.I for _, letter in head):
            raise ValueError("head must not store identity letters")
        if tail is not None:
            start, letter = tail
            if letter is _L.I:
                raise ValueError("tail letter must not be identity")
            if labels and labels[-1] >= start:
                raise ValueError("head labels must precede the tail start")
            if labels and labels[-1] == start - 1 and head[-1][1] is letter:
                raise ValueError("head letter adjacent to an equal tail is not canonical")

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(ipow: int, letters: Mapping[int, PauliLetter],
              tail: tuple[int, PauliLetter] | None = None) -> "TimedPauliWord":
        """Canonicalize and build: drops identities, absorbs head into tail."""
        items = {k: v for k, v in letters.items() if v is not _L.I}
        if tail is not None:
            start, letter = tail
            while items.get(start - 1) is letter:
                start -= 1
                del items[start]
            tail = (start, letter)
        head = tuple(sorted(items.items()))
        return TimedPauliWord(ipow % 4, head, tail)

    @staticmethod
    def single(label: int, letter: PauliLetter, ipow: int = 0) -> "TimedPauliWord":
        return TimedPauliWord.build(ipow, {label: letter})

    @staticmethod
    def tail_word(start: int, letter: PauliLetter, ipow: int = 0) -> "TimedPauliWord":
        return TimedPauliWord.build(ipow, {}, (start, letter))

    # -- queries -----------------------------------------------------------

    @property
    def is_hermitian(self) -> bool:
        return self.ipow in (0, 2)

    @property
    def sign(self) -> int:
        if not self.is_hermitian:
            raise ValueError(f"word has imaginary phase i^{self.ipow}")
        return 1 if self.ipow == 0 else -1

    def letter_at(self, label: int) -> PauliLetter:
        if self.tail is not None and label >= self.tail[0]:
            return self.tail[1]
        for k, letter in self.head:
            if k == label:
                return letter
        return _L.I

    def support_stop(self) -> int:
        """First label from which the word is constant (tail letter or all identity)."""
        if self.tail is not None:
            return self.tail[0]
        return self.head[-1][0] + 1 if self.head else 0

    def min_label(self) -> int | None:
        if self.head:
            return self.head[0][0]
        return self.tail[0] if self.tail is not None else None

    def __str__(self) -> str:
        return word_to_str(self)


def word_mul(a: TimedPauliWord, b: TimedPauliWord) -> TimedPauliWord:
    """Label-wise product of two words.

    Distinct labels commute, so the result is the per-label letter product
    with phases accumulated.  Two infinite tails must cancel label-wise
    (equal letters); distinct tail letters anticommute, which would pile up
    an i per label forever.
    """
    tail: tuple[int, PauliLetter] | None
    if a.tail is not None and b.tail is not None:
        if a.tail[1] is not b.tail[1]:
            raise DivergentPhaseError(
                f"tails {a.tail[1].value} and {b.tail[1].value} accumulate a phase per label")
        tail = None  # equal letters cancel beyond the later start
        stop = max(a.tail[0], b.tail[0])
    elif a.tail is not None or b.tail is not None:
        start, letter = a.tail if a.tail is not None else b.tail  # type: ignore[misc]
        other = b if a.tail is not None else a
        stop = max(start, other.support_stop())
        tail = (stop, letter)
    else:
        tail = None
        stop = max(a.support_stop(), b.support_stop())

    lo = min((k for k in (a.min_label(), b.min_label()) if k is not None), default=0)

    ipow = a.ipow + b.ipow
    letters: dict[int, PauliLetter] = {}
    for k in range(lo, stop):
        dp, letter = letter_mul_ipow(a.letter_at(k), b.letter_at(k))
        ipow += dp
        if letter is not _L.I:
            letters[k] = letter
    return TimedPauliWord.build(ipow, letters, tail)


# -- Clifford conjugation tables -------------------------------------------


class NotCliffordError(EngineError, ValueError):
    """A unitary did not map Pauli strings to signed Pauli strings."""


# Letter order I, X, Y, Z is the Pauli index 0..3 of qlinalg.PAULIS.
PAULI_INDEX = {letter: i for i, letter in enumerate(_L)}


class Clifford(ValueRecord):
    """A one- or two-qubit Clifford gate as its conjugation table P -> U^dag P U.

    table[i] is (ipow, letters), the image of the i-th Pauli string with one
    letter per qubit; strings count in base 4 over (I, X, Y, Z), first
    (upper) qubit most significant.  Images of Pauli strings are hermitian,
    so ipow is 0 or 2.  is_identity says whether every string is its own
    image.  Tables come only from tableau_from_transfer.
    """

    _fields = ("table",)

    def __init__(self, table: tuple[tuple[int, tuple[PauliLetter, ...]], ...]) -> None:
        strings = itertools.product(_L, repeat=len(table[0][1]))
        vars(self).update(table=table, is_identity=all(
            ipow == 0 and image == string for (ipow, image), string in zip(table, strings)))

    def conj(self, *letters: PauliLetter) -> tuple[int, tuple[PauliLetter, ...]]:
        """Image (ipow, letters) of the Pauli string given one letter per qubit."""
        i = 0
        for letter in letters:
            i = 4 * i + PAULI_INDEX[letter]
        return self.table[i]


def tableau_from_unitary(u: np.ndarray) -> Clifford:
    """Conjugation table of a one- or two-qubit Clifford: images under U^dag P U.

    tableau_from_transfer on U's Pauli transfer matrix; a one-qubit U is
    read as U x I.  U is checked unitary first, within qlinalg.ATOL_STRUCT,
    as db_model.interaction_transfer checks it.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape not in ((2, 2), (4, 4)):
        raise NotCliffordError("a conjugation table needs a 2x2 or 4x4 unitary")
    qubits = u.shape[0] // 2
    assert_unitary(u)
    if qubits == 1:
        u = np.kron(u, I2)
    return tableau_from_transfer(u, pauli_transfer(u), qubits)


def tableau_from_transfer(u: np.ndarray, transfer: np.ndarray, qubits: int = 2) -> Clifford:
    """Conjugation table of a 4x4 unitary U read off its Pauli transfer matrix,
    (4, 4, 4, 4) as qlinalg.pauli_transfer gives it: of every Pauli string,
    or with qubits=1 of each string P x I, as the table of a one-qubit gate.

    The image of a Pauli string P is its row of the transfer matrix.  The
    row's largest entry names the candidate signed string, which must then
    match U^dag P U densely, each entry within 1e-9 in absolute value, or
    the gate is not Clifford.
    """
    rows = np.arange(0, 16, 4) if qubits == 1 else np.arange(16)
    paulis = PAULI_PAIRS.reshape(16, 4, 4)
    ptm = transfer.reshape(16, 16)[rows]
    best = np.abs(ptm).argmax(axis=1)
    signs = np.sign(ptm[np.arange(len(rows)), best])
    dense = u.conj().T @ paulis[rows] @ u
    exact = (np.abs(dense - signs[:, None, None] * paulis[best]) <= 1e-9).all(axis=(1, 2))
    letters = tuple(_L)
    if not exact.all():
        row = rows[np.argmin(exact)]
        name = letters[row // 4].value + (letters[row % 4].value if qubits == 2 else "")
        raise NotCliffordError(f"image of {name} is not a signed Pauli string")
    return Clifford(tuple(
        (0 if sign > 0 else 2, (letters[b // 4], letters[b % 4])[:qubits])
        for sign, b in zip(signs, best)))


def conj_pair(t: Clifford, upper: PauliLetter,
              lower: PauliLetter) -> tuple[int, PauliLetter, PauliLetter]:
    """Conjugate upper x lower through a two-qubit gate; returns (sign, upper, lower)."""
    ipow, (u, low) = t.conj(upper, lower)
    return (1 if ipow == 0 else -1, u, low)


def apply_local(c: Clifford, w: TimedPauliWord) -> TimedPauliWord:
    """Conjugate every letter of the word (including the tail) through a one-qubit gate."""
    if c.is_identity:
        return w
    ipow = w.ipow
    letters: dict[int, PauliLetter] = {}
    for k, letter in w.head:
        dp, (out,) = c.conj(letter)
        ipow += dp
        letters[k] = out
    tail = None
    if w.tail is not None:
        start, letter = w.tail
        dp, (out,) = c.conj(letter)
        if dp % 4 != 0:
            raise DivergentPhaseError(
                f"local image of tail letter {letter.value} carries sign i^{dp} per label")
        tail = (start, out)
    return TimedPauliWord.build(ipow, letters, tail)


# One-qubit tables keyed by qlinalg's standard gate names.
LOCAL_TABLES = {name: tableau_from_unitary(standard_gate(name))
                for name in ("I2", "H", "X", "Y", "Z", "S")}
LOCAL_I, LOCAL_H = LOCAL_TABLES["I2"], LOCAL_TABLES["H"]  # read by the acceptance suite


def __getattr__(name: str) -> Clifford:
    """CZ_TABLEAU, CNOT_TABLEAU or SWAP_TABLEAU, built when imported: only the
    acceptance suite imports them from here (the other tests, from helpers)."""
    gates = {"CZ_TABLEAU": CZ, "CNOT_TABLEAU": CNOT, "SWAP_TABLEAU": SWAP}
    if name not in gates:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return tableau_from_unitary(gates[name])


# -- prime-notation rendering and parsing ----------------------------------

_PHASE_PREFIX = {0: "", 1: "i ", 2: "-", 3: "-i "}
_TOKEN_RE = re.compile(r"^([IXYZ])('*)$|^([IXYZ])\[(-?\d+)\]$")


def _token(label: int, letter: PauliLetter) -> str:
    if label >= 0:
        return letter.value + "'" * label
    return f"{letter.value}[{label}]"


def word_to_str(w: TimedPauliWord) -> str:
    """Render in prime notation, e.g. "Z X' Z''" or "X' X'' X'''..."."""
    if not w.head and w.tail is None:
        return {0: "1", 1: "i", 2: "-1", 3: "-i"}[w.ipow]
    parts = [_token(k, letter) for k, letter in w.head]
    if w.tail is not None:
        start, letter = w.tail
        parts.extend(_token(start + j, letter) for j in range(3))
        return _PHASE_PREFIX[w.ipow] + " ".join(parts) + "..."
    return _PHASE_PREFIX[w.ipow] + " ".join(parts)


def word_from_str(s: str) -> TimedPauliWord:
    """Parse prime notation back into a word.

    A trailing "..." turns the maximal run of equal letters at consecutive
    labels ending the expression into an infinite tail.
    """
    text = s.strip()
    scalars = {"1": 0, "i": 1, "-1": 2, "-i": 3}
    if text in scalars:
        return TimedPauliWord.build(scalars[text], {})
    ipow = 0
    if text.startswith("-i "):
        ipow, text = 3, text[3:].lstrip()
    elif text.startswith("i "):
        ipow, text = 1, text[2:].lstrip()
    elif text.startswith("-"):
        ipow, text = 2, text[1:].lstrip()
    elif text.startswith("+"):
        text = text[1:].lstrip()
    if not text:
        return TimedPauliWord.build(ipow, {})
    has_tail = text.endswith("...")
    if has_tail:
        text = text[:-3]
    letters: dict[int, PauliLetter] = {}
    for raw in text.split():
        m = _TOKEN_RE.match(raw)
        if not m:
            raise ValueError(f"cannot parse token {raw!r}")
        if m.group(1) is not None:
            letter = PauliLetter(m.group(1))
            label = len(m.group(2))
        else:
            letter = PauliLetter(m.group(3))
            label = int(m.group(4))
        if label in letters:
            raise ValueError(f"duplicate label {label}")
        letters[label] = letter
    tail = None
    if has_tail:
        if not letters:
            raise ValueError("tail marker with no letters")
        last = max(letters)
        tail = (last, letters.pop(last))  # build absorbs the equal letters before it
    return TimedPauliWord.build(ipow, letters, tail)
