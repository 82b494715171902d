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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping


class DivergentPhaseError(ArithmeticError):
    """An infinite tail would accumulate a non-unit phase per label."""


class PauliLetter(Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

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

_IPOW_TO_PHASE = (1 + 0j, 1j, -1 + 0j, -1j)


def letter_mul(a: PauliLetter, b: PauliLetter) -> tuple[complex, PauliLetter]:
    """Product of two Pauli letters as (phase, letter)."""
    ipow, letter = _MUL_TABLE[(a, b)]
    return _IPOW_TO_PHASE[ipow], letter


def letter_mul_ipow(a: PauliLetter, b: PauliLetter) -> tuple[int, PauliLetter]:
    """Like letter_mul but with the phase as an exact power of i."""
    return _MUL_TABLE[(a, b)]


def letters_anticommute(a: PauliLetter, b: PauliLetter) -> bool:
    return a != b and a is not _L.I and b is not _L.I


@dataclass(frozen=True)
class TimedPauliWord:
    """Canonicalized signed product of letters at integer time labels.

    head holds (label, letter) pairs sorted by label with no identities;
    tail, when present, is (start_label, letter) meaning that letter repeats
    at every label >= start_label.  Canonical form never stores a head letter
    equal to the tail letter at start_label - 1 (it is absorbed), so
    structural equality is word equality.
    """

    ipow: int = 0
    head: tuple[tuple[int, PauliLetter], ...] = ()
    tail: tuple[int, PauliLetter] | None = None

    def __post_init__(self) -> None:
        if self.ipow not in (0, 1, 2, 3):
            raise ValueError(f"ipow must be in 0..3, got {self.ipow!r}")
        labels = [k for k, _ in self.head]
        if labels != sorted(set(labels)):
            raise ValueError("head labels must be strictly increasing")
        if any(letter is _L.I for _, letter in self.head):
            raise ValueError("head must not store identity letters")
        if self.tail is not None:
            start, letter = self.tail
            if letter is _L.I:
                raise ValueError("tail letter must not be identity")
            if labels and labels[-1] >= start:
                raise ValueError("head labels must precede the tail start")
            if labels and labels[-1] == start - 1 and self.head[-1][1] is letter:
                raise ValueError("head letter adjacent to an equal tail is not canonical")

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(ipow: int = 0,
              letters: Mapping[int, PauliLetter] | Iterable[tuple[int, PauliLetter]] = (),
              tail: tuple[int, PauliLetter] | None = None) -> "TimedPauliWord":
        """Canonicalize and build: drops identities, absorbs head into tail."""
        items = dict(letters.items() if isinstance(letters, Mapping) else letters)
        items = {k: v for k, v in items.items() if v is not _L.I}
        if tail is not None:
            start, letter = tail
            if letter is _L.I:
                raise ValueError("tail letter must not be identity")
            bad = [k for k in items if k >= start]
            if bad:
                raise ValueError(f"head labels {bad} overlap the tail region")
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
    def identity() -> "TimedPauliWord":
        return TimedPauliWord()

    @staticmethod
    def tail_word(start: int, letter: PauliLetter, ipow: int = 0) -> "TimedPauliWord":
        return TimedPauliWord.build(ipow, {}, (start, letter))

    # -- queries -----------------------------------------------------------

    @property
    def phase(self) -> complex:
        return _IPOW_TO_PHASE[self.ipow]

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

    # -- algebra -----------------------------------------------------------

    def shift(self, delta: int) -> "TimedPauliWord":
        """Add delta to every label (delta primes); phase unchanged."""
        head = tuple((k + delta, letter) for k, letter in self.head)
        tail = (self.tail[0] + delta, self.tail[1]) if self.tail is not None else None
        return TimedPauliWord(self.ipow, head, tail)

    def __mul__(self, other: "TimedPauliWord") -> "TimedPauliWord":
        return word_mul(self, other)

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

    starts = [k for k, _ in a.head] + [k for k, _ in b.head]
    if a.tail is not None:
        starts.append(a.tail[0])
    if b.tail is not None:
        starts.append(b.tail[0])
    lo = min(starts) if starts else 0

    ipow = a.ipow + b.ipow
    letters: dict[int, PauliLetter] = {}
    for k in range(lo, stop):
        dp, letter = letter_mul_ipow(a.letter_at(k), b.letter_at(k))
        ipow += dp
        if letter is not _L.I:
            letters[k] = letter
    return TimedPauliWord.build(ipow, letters, tail)


def shift(w: TimedPauliWord, delta: int) -> TimedPauliWord:
    return w.shift(delta)


# -- two-qubit Clifford tableaus ------------------------------------------


@dataclass(frozen=True)
class Tableau2:
    """A two-qubit Clifford as signed letter-pair images of the four Pauli generators.

    Each image is (sign, upper_letter, lower_letter) for the conjugation used
    by back-propagation, P -> U^dag P U.  In two-slot arrow notation the
    controlled-sign rules read (I)(X) -> (Z)(X), (X)(I) -> (X)(Z), and so on;
    for the self-inverse gates those rules are exactly these images.
    """

    xi: tuple[int, PauliLetter, PauliLetter]
    zi: tuple[int, PauliLetter, PauliLetter]
    ix: tuple[int, PauliLetter, PauliLetter]
    iz: tuple[int, PauliLetter, PauliLetter]
    name: str = ""

    def __post_init__(self) -> None:
        gens = {"XI": (_L.X, _L.I), "ZI": (_L.Z, _L.I),
                "IX": (_L.I, _L.X), "IZ": (_L.I, _L.Z)}
        images = {"XI": self.xi, "ZI": self.zi, "IX": self.ix, "IZ": self.iz}
        for key, (sign, u, low) in images.items():
            if sign not in (1, -1):
                raise ValueError(f"image sign of {key} must be +-1, got {sign!r}")
            if u is _L.I and low is _L.I:
                raise ValueError(f"image of {key} cannot be the identity pair")
        # Symplectic condition: images preserve pairwise (anti)commutation.
        keys = list(gens)
        for i, ka in enumerate(keys):
            for kb in keys[i + 1:]:
                before = _pair_anticommute(gens[ka], gens[kb])
                after = _pair_anticommute(images[ka][1:], images[kb][1:])
                if before != after:
                    raise ValueError(
                        f"images of {ka} and {kb} break the commutation structure")

    def image_ipow(self, key: str) -> tuple[int, PauliLetter, PauliLetter]:
        sign, u, low = getattr(self, key)
        return (0 if sign == 1 else 2, u, low)

    def inverse(self) -> "Tableau2":
        """Tableau of the inverse conjugation, found by searching letter pairs."""
        found: dict[str, tuple[int, PauliLetter, PauliLetter]] = {}
        targets = {"xi": (_L.X, _L.I), "zi": (_L.Z, _L.I),
                   "ix": (_L.I, _L.X), "iz": (_L.I, _L.Z)}
        for p in _L:
            for q in _L:
                if p is _L.I and q is _L.I:
                    continue
                sign, u, low = conj_pair(self, p, q)
                for key, tgt in targets.items():
                    if (u, low) == tgt:
                        found[key] = (sign, p, q)
        if set(found) != set(targets):
            raise ValueError("tableau is not invertible")  # unreachable for valid tableaus
        return Tableau2(found["xi"], found["zi"], found["ix"], found["iz"],
                        name=f"{self.name}^-1" if self.name else "")


def _pair_anticommute(a: tuple[PauliLetter, PauliLetter],
                      b: tuple[PauliLetter, PauliLetter]) -> bool:
    return letters_anticommute(a[0], b[0]) != letters_anticommute(a[1], b[1])


def _slot_image_ipow(t: Tableau2, letter: PauliLetter,
                     upper: bool) -> tuple[int, PauliLetter, PauliLetter]:
    """Image of letter x I (upper) or I x letter (lower) under the tableau."""
    if letter is _L.I:
        return (0, _L.I, _L.I)
    if letter is _L.X:
        return t.image_ipow("xi" if upper else "ix")
    if letter is _L.Z:
        return t.image_ipow("zi" if upper else "iz")
    # Y = i X Z, so the image composes the X and Z images with an extra i.
    px, ux, lx = _slot_image_ipow(t, _L.X, upper)
    pz, uz, lz = _slot_image_ipow(t, _L.Z, upper)
    du, u = letter_mul_ipow(ux, uz)
    dl, low = letter_mul_ipow(lx, lz)
    return ((1 + px + pz + du + dl) % 4, u, low)


def conj_pair(t: Tableau2, upper: PauliLetter,
              lower: PauliLetter) -> tuple[int, PauliLetter, PauliLetter]:
    """Conjugate upper x lower through the gate; returns (sign, upper, lower).

    Composed from the generator images, so the sign is always +-1 by
    hermiticity.
    """
    pu, uu, lu = _slot_image_ipow(t, upper, upper=True)
    pl, ul, ll = _slot_image_ipow(t, lower, upper=False)
    du, u = letter_mul_ipow(uu, ul)
    dl, low = letter_mul_ipow(lu, ll)
    ipow = (pu + pl + du + dl) % 4
    if ipow not in (0, 2):
        raise ValueError("conjugation produced an imaginary sign")  # unreachable
    return (1 if ipow == 0 else -1, u, low)


CZ_TABLEAU = Tableau2(
    xi=(1, _L.X, _L.Z), zi=(1, _L.Z, _L.I),
    ix=(1, _L.Z, _L.X), iz=(1, _L.I, _L.Z), name="cz")
# First qubit is the control.
CNOT_TABLEAU = Tableau2(
    xi=(1, _L.X, _L.X), zi=(1, _L.Z, _L.I),
    ix=(1, _L.I, _L.X), iz=(1, _L.Z, _L.Z), name="cnot")
SWAP_TABLEAU = Tableau2(
    xi=(1, _L.I, _L.X), zi=(1, _L.I, _L.Z),
    ix=(1, _L.X, _L.I), iz=(1, _L.Z, _L.I), name="swap")
IDENTITY_TABLEAU = Tableau2(
    xi=(1, _L.X, _L.I), zi=(1, _L.Z, _L.I),
    ix=(1, _L.I, _L.X), iz=(1, _L.I, _L.Z), name="i4")


# -- single-qubit Cliffords ------------------------------------------------


@dataclass(frozen=True)
class LocalClifford:
    """A single-qubit Clifford as signed letter images of X and Z."""

    x_image: tuple[int, PauliLetter]
    z_image: tuple[int, PauliLetter]
    name: str = ""

    def __post_init__(self) -> None:
        for sign, letter in (self.x_image, self.z_image):
            if sign not in (1, -1) or letter is _L.I:
                raise ValueError("images must be signed non-identity letters")
        if not letters_anticommute(self.x_image[1], self.z_image[1]):
            raise ValueError("images of X and Z must anticommute")

    def image_ipow(self, letter: PauliLetter) -> tuple[int, PauliLetter]:
        if letter is _L.I:
            return (0, _L.I)
        if letter is _L.X:
            sign, out = self.x_image
        elif letter is _L.Z:
            sign, out = self.z_image
        else:  # Y = i X Z
            sx, ox = self.x_image
            sz, oz = self.z_image
            d, out = letter_mul_ipow(ox, oz)
            ip = (1 + (0 if sx == 1 else 2) + (0 if sz == 1 else 2) + d) % 4
            return (ip, out)
        return (0 if sign == 1 else 2, out)


LOCAL_I = LocalClifford((1, _L.X), (1, _L.Z), name="i2")
LOCAL_H = LocalClifford((1, _L.Z), (1, _L.X), name="h")   # Z -> X, X -> Z, Y -> -Y
LOCAL_X = LocalClifford((1, _L.X), (-1, _L.Z), name="x")
LOCAL_Y = LocalClifford((-1, _L.X), (-1, _L.Z), name="y")
LOCAL_Z = LocalClifford((-1, _L.X), (1, _L.Z), name="z")


def apply_local(c: LocalClifford, w: TimedPauliWord) -> TimedPauliWord:
    """Conjugate every letter of the word (including the tail) through a local gate."""
    ipow = w.ipow
    letters: dict[int, PauliLetter] = {}
    for k, letter in w.head:
        dp, out = c.image_ipow(letter)
        ipow += dp
        letters[k] = out
    tail = None
    if w.tail is not None:
        start, letter = w.tail
        dp, out = c.image_ipow(letter)
        if dp % 4 != 0:
            raise DivergentPhaseError(
                f"local image of tail letter {letter.value} carries sign i^{dp} per label")
        tail = (start, out)
    return TimedPauliWord.build(ipow, letters, tail)


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
        letter = letters[last]
        start = last
        while (start - 1) in letters and letters[start - 1] is letter:
            start -= 1
        for k in range(start, last + 1):
            del letters[k]
        tail = (start, letter)
    return TimedPauliWord.build(ipow, letters, tail)
