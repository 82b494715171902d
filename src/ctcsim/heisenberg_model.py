"""Heisenberg-picture engine: back-propagate observables through wormhole blocks.

A wormhole block is a two-qubit Clifford acting on the qubit and its own
past self.  Measurement-side operators sit on the lower slot; whatever the
conjugation pushes onto the lower input wire went through the wormhole, so
it reappears on the upper output wire one time label deeper.  That closes
into a per-label recurrence over ascending labels k:

    upper_out_k = lower_in_{k-1}        (lower_in_{-1} = I)
    lower_out_k = measured letter at k
    (ipow_k, (upper_in_k, lower_in_k)) = gate.conj(upper_out_k, lower_out_k)

Each step is one read of the gate's Clifford table, built once from the
dense unitary: row P of its Pauli transfer matrix gives U^dag P U as a
signed Pauli pair, confirmed densely.

The upper_in letters form the word to evolve further toward preparation.
The recurrence state in the constant region of the measured word is just
lower_in, so it lives in a four-element set: it either closes (emits
identities) or settles into a single repeating letter -- the infinite
operator products.  Anything else is reported, never guessed at.

Expectation values use the orthogonal-histories rule: distinct labels carry
negligible temporal overlap, so a cross-label product factorizes into
per-label expectations in the prepared state.  A Gaussian temporal profile
with non-negligible overlap is supported for two-label words.

The whole circuit lives in the back-propagated words; the prepared state and
the temporal profile enter only at the final expectation.  So evaluation has
two steps: compile_words back-propagates each axis, and evaluate_words takes
the closed-form letter expectations of N preparations at once.
scenario.compile_circuit keeps each circuit's words with its compile;
heisenberg_bloch, the entry point on a bare HeisenbergCircuit, runs both
steps for one state on every call.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .qlinalg import (
    BlochVector,
    EngineError,
    Preparations,
    PureStateParams,
    QlinalgError,
    Record,
    ValueRecord,
)

# Re-exported for the package and the benchmark tracer: tableau_from_unitary, NotCliffordError.
from .timed_pauli import (
    PAULI_INDEX,
    Clifford,
    DivergentPhaseError,
    NotCliffordError,
    PauliLetter,
    TimedPauliWord,
    apply_local,
    letter_mul_ipow,
    tableau_from_unitary,
)

_L = PauliLetter
_AXES = (("x", _L.X), ("y", _L.Y), ("z", _L.Z))

# An infinite tail whose per-label factor sits on the unit circle has no
# convergent product; report it instead of extrapolating.
SINGULAR_ATOL = 1e-9


class SingularRecurrenceError(EngineError, RuntimeError):
    """The block recurrence cycled through non-constant letters (no period-1 word)."""


class UnsupportedOverlapError(EngineError, ValueError):
    """Gaussian overlap evaluation is defined for at most two non-identity labels."""


class TimeDistribution(ValueRecord):
    """Temporal profile of when an operator acts.

    kind "orthogonal_limit": the wormhole shift dwarfs the profile width, so
    histories at distinct labels have no overlap.  kind "gaussian": width d
    and shift tau are explicit and cross-label overlap matters.
    """

    _fields = ("kind", "d", "tau")

    def __init__(self, kind: str = "orthogonal_limit", d: float | None = None,
                 tau: float | None = None) -> None:
        vars(self).update(kind=kind, d=d, tau=tau)
        if kind not in ("orthogonal_limit", "gaussian"):
            raise QlinalgError(f"unknown distribution kind {kind!r}")
        if kind == "gaussian":
            if d is None or not 0 < d < math.inf:
                raise QlinalgError(f"gaussian kind needs a finite width d > 0, got {d!r}")
            if tau is None or not 0 <= tau < math.inf:
                raise QlinalgError(f"gaussian kind needs a finite shift tau >= 0, got {tau!r}")

    @staticmethod
    def orthogonal() -> "TimeDistribution":
        return TimeDistribution("orthogonal_limit")

    @staticmethod
    def gaussian(d: float, tau: float) -> "TimeDistribution":
        return TimeDistribution("gaussian", d=d, tau=tau)


# The overlap a circuit has unless given one; the class is immutable.
ORTHOGONAL = TimeDistribution.orthogonal()


class BlockResult(NamedTuple):
    """Solved self-consistent evolution through one wormhole block.

    lower_seq stores the lower_in letters for labels 0..labels_resolved-1;
    from cycle_start they repeat with cycle_period.  Together with measured
    that is the full recurrence transcript, so the consistency property is
    checkable exactly after the fact.
    """

    upper_in: TimedPauliWord
    status: str  # closed | periodic_tail | singular
    labels_resolved: int
    measured: TimedPauliWord
    lower_seq: tuple[PauliLetter, ...]
    cycle_start: int
    cycle_period: int


class HeisenbergCircuit(ValueRecord):
    """Wormhole blocks with interleaved local Cliffords (length blocks + 1)."""

    _fields = ("blocks", "local_gates")

    def __init__(self, blocks: tuple[Clifford, ...], local_gates: tuple[Clifford, ...]) -> None:
        vars(self).update(blocks=blocks, local_gates=local_gates)
        if len(local_gates) != len(blocks) + 1:
            raise ValueError(
                f"need {len(blocks) + 1} local gates for "
                f"{len(blocks)} blocks, got {len(local_gates)}")


class HeisenbergResult(NamedTuple):
    """Per-axis expectation values and statuses of a circuit evaluation."""

    components: dict[str, float | None]
    statuses: dict[str, str]

    @property
    def all_ok(self) -> bool:
        return all(s == "ok" for s in self.statuses.values())

    def bloch(self) -> BlochVector:
        if not self.all_ok:
            bad = {a: s for a, s in self.statuses.items() if s != "ok"}
            raise ValueError(f"no Bloch vector: components not evaluable: {bad}")
        return BlochVector(self.components["x"], self.components["y"], self.components["z"])


class HeisenbergBatch(Record):
    """N evaluations: per axis, each point's value (nan where its status is
    not ok) and status.  Row n is the HeisenbergResult of the n-th point."""

    _fields = ("values", "statuses")

    def __init__(self, values: dict[str, np.ndarray], statuses: dict[str, list[str]]) -> None:
        vars(self).update(values=values, statuses=statuses)

    def __getitem__(self, n: int) -> HeisenbergResult:
        statuses = {axis: s[n] for axis, s in self.statuses.items()}
        return HeisenbergResult(
            {axis: v.item(n) if statuses[axis] == "ok" else None
             for axis, v in self.values.items()}, statuses)


def backpropagate_block(gate: Clifford, measured: TimedPauliWord) -> BlockResult:
    """Solve the block self-consistency for a measured hermitian word.

    Walks labels upward feeding each lower_in back into the next upper_out,
    and stops as soon as the recurrence state repeats inside the constant
    region of the measured word: repetition emitting identities closes the
    word, repetition emitting one fixed letter is an infinite tail.
    """
    if not measured.is_hermitian:
        raise ValueError(f"measured word must be hermitian, has phase i^{measured.ipow}")
    lo = measured.min_label()
    if lo is not None and lo < 0:
        raise ValueError("measured word must not reach below label 0")
    const_start = measured.support_stop()

    ipow_acc = measured.ipow
    c_prev = _L.I
    emitted: dict[int, PauliLetter] = {}
    lower_seq: list[PauliLetter] = []
    seen: dict[PauliLetter, tuple[int, int]] = {}
    k = 0
    while True:
        if k >= const_start and c_prev in seen:
            k0, ipow0 = seen[c_prev]
            break
        if k >= const_start:
            seen[c_prev] = (k, ipow_acc)
        dp, (b_k, c_k) = gate.conj(c_prev, measured.letter_at(k))
        ipow_acc = (ipow_acc + dp) % 4
        if b_k is not _L.I:
            emitted[k] = b_k
        lower_seq.append(c_k)
        c_prev = c_k
        k += 1

    period = k - k0
    period_ipow = (ipow_acc - ipow0) % 4
    cycle_letters = {emitted.get(j, _L.I) for j in range(k0, k)}

    if len(cycle_letters) > 1:
        # Mixed letters repeat with period > 1: not expressible as a
        # period-1 tail.  Hand back the resolved prefix, flagged.
        word = TimedPauliWord.build(ipow_acc, emitted)
        return BlockResult(word, "singular", k, measured, tuple(lower_seq), k0, period)
    (letter,) = cycle_letters
    if period_ipow != 0:
        raise DivergentPhaseError(
            f"repeating block of {letter.value} accumulates sign i^{period_ipow} per period")
    closed = letter is _L.I  # the cycle emits identities, or one letter forever
    word = TimedPauliWord.build(ipow0, {j: v for j, v in emitted.items() if j < k0},
                                None if closed else (k0, letter))
    return BlockResult(word, "closed" if closed else "periodic_tail", k, measured,
                       tuple(lower_seq), k0, period)


def verify_block_result(gate: Clifford, result: BlockResult) -> bool:
    """Exact post-hoc check of the recurrence transcript.

    Conjugating (lower_in shifted one label up, measured) label by label must
    reproduce (upper_in, lower_in) with the stored phase; the check runs two
    extra periods past the detected cycle.
    """
    def lower_at(j: int) -> PauliLetter:
        if j < 0:
            return _L.I
        if j < len(result.lower_seq):
            return result.lower_seq[j]
        off = (j - result.cycle_start) % result.cycle_period
        return result.lower_seq[result.cycle_start + off]

    span = result.labels_resolved + 2 * result.cycle_period
    ipow = result.measured.ipow
    ipow_at_entry = None
    ipow_after_periods = []
    for j in range(span):
        if j == result.cycle_start:
            ipow_at_entry = ipow
        if j > result.cycle_start and (j - result.cycle_start) % result.cycle_period == 0:
            ipow_after_periods.append(ipow)
        dp, (b, c) = gate.conj(lower_at(j - 1), result.measured.letter_at(j))
        if result.status != "singular" and b is not result.upper_in.letter_at(j):
            return False
        if c is not lower_at(j):
            return False
        ipow = (ipow + dp) % 4
    if result.status == "singular":
        return True  # letters transcript checked; no closed word to compare phases on
    # The word's phase freezes at the cycle entry and each period must be net zero.
    if any(x != ipow_at_entry for x in ipow_after_periods):
        return False
    return ipow_at_entry == result.upper_in.ipow


def backpropagate_circuit_detailed(
        circuit: HeisenbergCircuit,
        observable: PauliLetter) -> tuple[TimedPauliWord, list[BlockResult]]:
    """Pull a measured single-letter observable back to the preparation point.

    Returns the word at the preparation point and the BlockResult of every
    block, measurement side first.
    """
    word = TimedPauliWord.single(0, observable)
    word = apply_local(circuit.local_gates[-1], word)
    results: list[BlockResult] = []
    inner_locals = circuit.local_gates[:-1]
    for tab, loc in zip(reversed(circuit.blocks), reversed(inner_locals)):
        res = backpropagate_block(tab, word)
        results.append(res)
        if res.status == "singular":
            raise SingularRecurrenceError(
                f"block recurrence for {word} has no period-1 resolution")
        word = apply_local(loc, res.upper_in)
    return word, results


def overlap(t: TimeDistribution) -> float:
    """Normalized overlap of two Gaussian profiles a shift tau apart.

    omega(tau) = int G(u) G(u - tau) du / int G(u)^2 du = exp(-tau^2 / 4 d^2),
    which is 1 at tau = 0 regardless of how G itself is normalized and decays
    monotonically with the shift.
    """
    if t.kind != "gaussian":
        raise ValueError("overlap is defined for the gaussian kind")
    x = t.tau / t.d
    return math.exp(-0.25 * x * x)


def word_expectations(w: TimedPauliWord, preps: Preparations,
                      t: TimeDistribution) -> tuple[np.ndarray, np.ndarray | None]:
    """Expectation of a hermitian word in each prepared state, and where it is
    defined: a boolean mask, or None if it is defined in every state.

    Orthogonal limit: the product of per-label expectations.  An infinite
    tail contributes the limit of the geometric product: 0 for |factor| < 1,
    and no value (not defined) for |factor| = 1.

    Gaussian: supported for at most two non-identity labels; the overlapping
    fraction omega acts through the symmetrized same-time product, so equal
    letters contribute omega * 1 and anticommuting letters contribute 0.
    """
    if not w.is_hermitian:
        raise ValueError(f"word must be hermitian, has phase i^{w.ipow}")
    if t.kind == "gaussian" and (w.tail is not None or len(w.head) > 2):
        raise UnsupportedOverlapError(
            "gaussian overlap evaluation supports at most two non-identity labels")
    sign = float(w.sign)
    letters = preps.pauli_expectations

    def value(letter: PauliLetter) -> np.ndarray:
        return letters[:, PAULI_INDEX[letter]]

    if w.tail is not None:
        defined = np.abs(value(w.tail[1])) < 1.0 - SINGULAR_ATOL
        return np.where(defined, 0.0, np.nan), defined
    if t.kind == "gaussian" and len(w.head) == 2:
        (_, a), (_, b) = w.head
        om = overlap(t)
        separate = value(a) * value(b)
        # In the overlap region both orderings of the instants weigh in
        # equally, so anticommuting letters cancel and only the
        # symmetrized (real-signed) product survives.
        dp, prod_letter = letter_mul_ipow(a, b)
        together = value(prod_letter) if dp == 0 else \
            -value(prod_letter) if dp == 2 else 0.0
        return sign * ((1.0 - om) * separate + om * together), None
    product = sign
    for _, letter in w.head:
        product = product * value(letter)
    if not w.head:  # the identity word
        product = np.full(len(preps), sign)
    return product, None


def evaluate_expectation(w: TimedPauliWord, p: PureStateParams,
                         t: TimeDistribution) -> tuple[float | None, str]:
    """word_expectations on the one state p: (value, "ok"), or (None, "singular")
    where an infinite tail has no limit."""
    values, defined = word_expectations(w, p.batch, t)
    return (values[0].item(), "ok") if defined is None or defined[0] else (None, "singular")


def compile_words(circuit: HeisenbergCircuit) -> Mapping[str, TimedPauliWord | str]:
    """Each axis's observable back-propagated to the preparation point, as a
    read-only mapping.  An axis that hits a divergent phase or a singular
    recurrence is given by that status instead of a word.
    """
    words: dict[str, TimedPauliWord | str] = {}
    for axis, letter in _AXES:
        try:
            word, _ = backpropagate_circuit_detailed(circuit, letter)
        except DivergentPhaseError:
            word = "divergent"
        except SingularRecurrenceError:
            word = "singular"
        words[axis] = word
    return MappingProxyType(words)


def evaluate_words(words: Mapping[str, TimedPauliWord | str], preps: Preparations,
                   t: TimeDistribution) -> HeisenbergBatch:
    """Evaluate compiled words on N preparations; a tail without a limit
    marks its point singular, and a word the overlap t cannot evaluate
    marks every point unsupported."""
    values: dict[str, np.ndarray] = {}
    statuses: dict[str, list[str]] = {}
    for axis, word in words.items():
        if not isinstance(word, str):
            try:
                values[axis], defined = word_expectations(word, preps, t)
            except UnsupportedOverlapError:
                word = "unsupported"
            else:
                statuses[axis] = (["ok"] * len(preps) if defined is None
                                  else ["ok" if d else "singular" for d in defined.tolist()])
                continue
        values[axis] = np.full(len(preps), np.nan)
        statuses[axis] = [word] * len(preps)
    return HeisenbergBatch(values, statuses)


def heisenberg_bloch(circuit: HeisenbergCircuit, p: PureStateParams,
                     t: TimeDistribution = ORTHOGONAL) -> HeisenbergResult:
    """Evaluate all three observables through the circuit.

    Components that hit a singular tail, a divergent phase, or an unsupported
    overlap are reported by status instead of a number.
    """
    return evaluate_words(compile_words(circuit), p.batch, t)[0]
