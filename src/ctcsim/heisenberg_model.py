"""Heisenberg-picture engine: back-propagate observables through wormhole blocks.

A wormhole block is a two-qubit Clifford acting on the qubit and its own
past self.  Measurement-side operators sit on the lower slot; whatever the
conjugation pushes onto the lower input wire went through the wormhole, so
it reappears on the upper output wire one time label deeper.  That closes
into a per-label recurrence over ascending labels k:

    upper_out_k = lower_in_{k-1}        (lower_in_{-1} = I)
    lower_out_k = measured letter at k
    (ipow_k, (upper_in_k, lower_in_k)) = gate.conj(upper_out_k, lower_out_k)

Each step is one read of the gate's Clifford table, which tableau_from_unitary
builds once from the dense unitary: row P of the Pauli transfer matrix gives
U^dag P U as a signed Pauli pair, confirmed densely.

The upper_in letters form the word to evolve further toward preparation.
The recurrence state in the constant region of the measured word is just
lower_in, so it lives in a four-element set: it either closes (emits
identities) or settles into a single repeating letter -- the infinite
operator products.  Anything else is reported, never guessed at.

Expectation values use the orthogonal-histories rule: distinct labels carry
negligible temporal overlap, so a cross-label product factorizes into
per-label expectations in the prepared state.  A Gaussian temporal profile
with non-negligible overlap is supported for two-label words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .qlinalg import BlochVector, PureStateParams

# NotCliffordError and tableau_from_unitary are also looked up here by the
# CLI and by callers that compile a gate for this engine.
from .timed_pauli import (
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

# An infinite tail whose per-label factor sits on the unit circle has no
# convergent product; report it instead of extrapolating.
SINGULAR_ATOL = 1e-9


class SingularRecurrenceError(RuntimeError):
    """The block recurrence cycled through non-constant letters (no period-1 word)."""


class UnsupportedOverlapError(ValueError):
    """Gaussian overlap evaluation is defined for at most two non-identity labels."""


@dataclass(frozen=True)
class TimeDistribution:
    """Temporal profile of when an operator acts.

    kind "orthogonal_limit": the wormhole shift dwarfs the profile width, so
    histories at distinct labels have no overlap.  kind "gaussian": width d
    and shift tau are explicit and cross-label overlap matters.
    """

    kind: str = "orthogonal_limit"
    d: float | None = None
    tau: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("orthogonal_limit", "gaussian"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.d is None or not 0 < self.d < math.inf:
                raise ValueError(f"gaussian kind needs a finite width d > 0, got {self.d!r}")
            if self.tau is None or not 0 <= self.tau < math.inf:
                raise ValueError(f"gaussian kind needs a finite shift tau >= 0, got {self.tau!r}")

    @staticmethod
    def orthogonal() -> "TimeDistribution":
        return TimeDistribution("orthogonal_limit")

    @staticmethod
    def gaussian(d: float, tau: float) -> "TimeDistribution":
        return TimeDistribution("gaussian", d=d, tau=tau)


@dataclass(frozen=True)
class BlockResult:
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


@dataclass(frozen=True)
class HeisenbergCircuit:
    """Wormhole blocks with interleaved local Cliffords (length blocks + 1)."""

    blocks: tuple[Clifford, ...]
    local_gates: tuple[Clifford, ...]

    def __post_init__(self) -> None:
        if len(self.local_gates) != len(self.blocks) + 1:
            raise ValueError(
                f"need {len(self.blocks) + 1} local gates for "
                f"{len(self.blocks)} blocks, got {len(self.local_gates)}")


@dataclass(frozen=True)
class HeisenbergResult:
    """Per-axis expectation values, words, and statuses of a circuit evaluation."""

    components: dict[str, float | None]
    statuses: dict[str, str]
    words: dict[str, TimedPauliWord | None] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(s == "ok" for s in self.statuses.values())

    def bloch(self) -> BlochVector:
        if not self.all_ok:
            bad = {a: s for a, s in self.statuses.items() if s != "ok"}
            raise ValueError(f"no Bloch vector: components not evaluable: {bad}")
        return BlochVector(self.components["x"], self.components["y"], self.components["z"])


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
    if letter is _L.I:
        word = TimedPauliWord.build(ipow0, {j: v for j, v in emitted.items() if j < k0})
        return BlockResult(word, "closed", k, measured, tuple(lower_seq), k0, period)
    word = TimedPauliWord.build(
        ipow0, {j: v for j, v in emitted.items() if j < k0}, tail=(k0, letter))
    return BlockResult(word, "periodic_tail", k, measured, tuple(lower_seq), k0, period)


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


def letter_expectation(letter: PauliLetter, p: PureStateParams) -> float:
    """Expectation of one letter in the prepared state (closed form)."""
    if letter is _L.I:
        return 1.0
    if letter is _L.Z:
        return p.alpha**2 - p.beta**2
    two_ab = 2.0 * p.alpha * p.beta
    if letter is _L.X:
        return two_ab * math.cos(2.0 * p.theta)
    return -two_ab * math.sin(2.0 * p.theta)


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


def evaluate_expectation(w: TimedPauliWord, p: PureStateParams,
                         t: TimeDistribution) -> tuple[float | None, str]:
    """Expectation of a hermitian word in the prepared state.

    Orthogonal limit: the product of per-label expectations.  An infinite
    tail contributes the limit of the geometric product: 0 for |factor| < 1
    and "singular" for |factor| = 1, where no value is assigned.

    Gaussian: supported for at most two non-identity labels; the overlapping
    fraction omega acts through the symmetrized same-time product, so equal
    letters contribute omega * 1 and anticommuting letters contribute 0.
    """
    if not w.is_hermitian:
        raise ValueError(f"word must be hermitian, has phase i^{w.ipow}")
    sign = float(w.sign)

    if t.kind == "gaussian":
        if w.tail is not None or len(w.head) > 2:
            raise UnsupportedOverlapError(
                "gaussian overlap evaluation supports at most two non-identity labels")
        if len(w.head) == 2:
            (_, a), (_, b) = w.head
            om = overlap(t)
            separate = letter_expectation(a, p) * letter_expectation(b, p)
            # In the overlap region both orderings of the instants weigh in
            # equally, so anticommuting letters cancel and only the
            # symmetrized (real-signed) product survives.
            dp, prod_letter = letter_mul_ipow(a, b)
            together = letter_expectation(prod_letter, p) if dp == 0 else \
                -letter_expectation(prod_letter, p) if dp == 2 else 0.0
            return sign * ((1.0 - om) * separate + om * together), "ok"
        value = sign
        for _, letter in w.head:
            value *= letter_expectation(letter, p)
        return value, "ok"

    if w.tail is not None:
        factor = letter_expectation(w.tail[1], p)
        if abs(factor) >= 1.0 - SINGULAR_ATOL:
            return None, "singular"
        return 0.0, "ok"
    value = sign
    for _, letter in w.head:
        value *= letter_expectation(letter, p)
    return value, "ok"


def heisenberg_bloch(circuit: HeisenbergCircuit, p: PureStateParams,
                     t: TimeDistribution | None = None) -> HeisenbergResult:
    """Evaluate all three observables through the circuit.

    Components that hit a singular tail, a divergent phase, or an unsupported
    overlap are reported by status instead of a number.
    """
    if t is None:
        t = TimeDistribution.orthogonal()
    components: dict[str, float | None] = {}
    statuses: dict[str, str] = {}
    words: dict[str, TimedPauliWord | None] = {}
    for axis, letter in (("x", _L.X), ("y", _L.Y), ("z", _L.Z)):
        try:
            word, _ = backpropagate_circuit_detailed(circuit, letter)
            words[axis] = word
            value, status = evaluate_expectation(word, p, t)
        except DivergentPhaseError:
            words.setdefault(axis, None)
            value, status = None, "divergent"
        except SingularRecurrenceError:
            words.setdefault(axis, None)
            value, status = None, "singular"
        except UnsupportedOverlapError:
            value, status = None, "unsupported"
        components[axis] = value
        statuses[axis] = status
    return HeisenbergResult(components, statuses, words)
