import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctcsim.qlinalg import (
    CNOT,
    CZ,
    HADAMARD,
    I2,
    I4,
    PAULI_BY_NAME,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHASE_S,
    QlinalgError,
    SWAP,
)
from ctcsim.timed_pauli import (
    DivergentPhaseError,
    NotCliffordError,
    PauliLetter,
    TimedPauliWord,
    apply_local,
    conj_pair,
    letter_mul_ipow,
    tableau_from_unitary,
    word_from_str,
    word_mul,
    word_to_str,
)
from helpers import (
    CNOT_TABLEAU,
    CZ_TABLEAU,
    LOCAL_H,
    LOCAL_I,
    LOCAL_S,
    LOCAL_X,
    LOCAL_Y,
    LOCAL_Z,
    SWAP_TABLEAU,
    word_to_dense,
)

L = PauliLetter
LETTERS = [L.I, L.X, L.Y, L.Z]
W = TimedPauliWord


# -- letter algebra ----------------------------------------------------------


class TestLetterMul:
    def test_squares_to_identity(self):
        assert letter_mul_ipow(L.X, L.X) == (0, L.I)

    def test_xz_is_minus_i_y(self):
        assert letter_mul_ipow(L.X, L.Z) == (3, L.Y)

    def test_identity_absorbs(self):
        assert letter_mul_ipow(L.I, L.Y) == (0, L.Y)

    def test_full_table_against_dense_matrices(self):
        for a in LETTERS:
            for b in LETTERS:
                ipow, c = letter_mul_ipow(a, b)
                dense = PAULI_BY_NAME[a.value] @ PAULI_BY_NAME[b.value]
                assert np.allclose(dense, 1j**ipow * PAULI_BY_NAME[c.value], atol=0)


# -- word strategies ---------------------------------------------------------


letters_st = st.sampled_from(LETTERS)
nontrivial_st = st.sampled_from([L.X, L.Y, L.Z])


@st.composite
def words(draw, max_label=5, allow_tail=True, tail_letter=None):
    head = draw(st.dictionaries(st.integers(0, max_label), nontrivial_st, max_size=4))
    ipow = draw(st.integers(0, 3))
    tail = None
    if allow_tail and draw(st.booleans()):
        letter = tail_letter if tail_letter is not None else draw(nontrivial_st)
        start = draw(st.integers(0, max_label + 1))
        head = {k: v for k, v in head.items() if k < start}
        tail = (start, letter)
    return W.build(ipow, head, tail)


class TestWordMul:
    def test_tail_cancellation_leaves_survivor(self):
        # (Z''Z'''...) x (Z'Z''...) -> Z' with no phase
        a = W.tail_word(2, L.Z)
        b = W.tail_word(1, L.Z)
        assert word_mul(a, b) == W.single(1, L.Z)

    def test_same_label_squares_away(self):
        x0 = W.single(0, L.X)
        assert word_mul(x0, x0) == W()

    def test_same_label_phase(self):
        got = word_mul(W.single(0, L.X), W.single(0, L.Z))
        assert got == W.single(0, L.Y, ipow=3)  # -i Y

    def test_tail_times_finite_overlap(self):
        # X-tail from 1 times Y at label 3: the overlap makes iZ at 3
        a = W.tail_word(1, L.X)
        b = W.single(3, L.Y)
        got = word_mul(a, b)
        assert got == W.build(1, {1: L.X, 2: L.X, 3: L.Z}, (4, L.X))

    def test_distinct_tails_diverge(self):
        with pytest.raises(DivergentPhaseError):
            word_mul(W.tail_word(0, L.X), W.tail_word(0, L.Z))

    def test_identity_element(self):
        w = W.build(2, {0: L.X, 3: L.Z}, (5, L.Y))
        assert word_mul(w, W()) == w
        assert word_mul(W(), w) == w

    @given(words(tail_letter=L.Z), words(tail_letter=L.Z), words(tail_letter=L.Z))
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_associative(self, a, b, c):
        left = word_mul(word_mul(a, b), c)
        right = word_mul(a, word_mul(b, c))
        assert left == right

    def test_associative_bulk_random(self, rng):
        # plain seeded sweep over finite words, 1000 triples
        def rand_word():
            head = {int(k): LETTERS[rng.integers(1, 4)]
                    for k in rng.integers(0, 6, size=rng.integers(0, 5))}
            return W.build(int(rng.integers(0, 4)), head)

        for _ in range(1000):
            a, b, c = rand_word(), rand_word(), rand_word()
            assert word_mul(word_mul(a, b), c) == word_mul(a, word_mul(b, c))

    @given(words(max_label=2, allow_tail=False), words(max_label=2, allow_tail=False))
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_matches_dense_three_slot_oracle(self, a, b):
        # one tensor slot per label: distinct labels commute, same labels
        # multiply by the Pauli table -- exactly the dense product
        got = word_to_dense(word_mul(a, b), 3)
        want = word_to_dense(a, 3) @ word_to_dense(b, 3)
        assert np.array_equal(got, want)


class TestCanonicalization:
    def test_identity_letters_dropped(self):
        assert W.build(0, {0: L.I, 2: L.X}) == W.single(2, L.X)

    def test_head_absorbed_into_tail(self):
        grown = W.build(0, {1: L.X}, (2, L.X))
        assert grown == W.tail_word(1, L.X)
        assert grown.tail == (1, L.X)

    def test_head_cannot_overlap_tail(self):
        with pytest.raises(ValueError):
            W.build(0, {3: L.X}, (2, L.Z))

    @pytest.mark.parametrize("letters, tail, message", [
        ({}, (2, L.I), "tail letter must not be identity"),
        ({0: L.X, 1: L.I}, (3, L.I), "tail letter must not be identity"),
        ({2: L.X}, (2, L.Z), "head labels must precede the tail start"),
        # absorption runs first: X' joins the tail, and X'' still overlaps it
        ({1: L.X, 2: L.X}, (2, L.X), "head labels must precede the tail start"),
    ])
    def test_build_refuses_what_init_refuses(self, letters, tail, message):
        with pytest.raises(ValueError, match=message):
            W.build(0, letters, tail)

    def test_structural_equality(self):
        assert W.build(0, {0: L.Z, 1: L.X}) == W.build(0, {1: L.X, 0: L.Z})


# -- Clifford tables ---------------------------------------------------------


TABLEAUS = {"cz": (CZ_TABLEAU, CZ), "cnot": (CNOT_TABLEAU, CNOT), "swap": (SWAP_TABLEAU, SWAP)}
IDENTITY_TABLEAU = tableau_from_unitary(I4)


class TestConjPair:
    def test_cz_rule(self):
        assert conj_pair(CZ_TABLEAU, L.I, L.X) == (1, L.Z, L.X)

    def test_cnot_rule(self):
        assert conj_pair(CNOT_TABLEAU, L.I, L.Y) == (1, L.Z, L.Y)

    @pytest.mark.parametrize("tab", [CZ_TABLEAU, CNOT_TABLEAU, SWAP_TABLEAU, IDENTITY_TABLEAU])
    def test_identity_pair_fixed(self, tab):
        assert conj_pair(tab, L.I, L.I) == (1, L.I, L.I)

    @pytest.mark.parametrize("name", sorted(TABLEAUS))
    def test_all_pairs_against_dense_conjugation(self, name):
        tab, gate = TABLEAUS[name]
        for p in LETTERS:
            for q in LETTERS:
                sign, u, low = conj_pair(tab, p, q)
                dense = gate.conj().T @ np.kron(PAULI_BY_NAME[p.value],
                                                PAULI_BY_NAME[q.value]) @ gate
                want = sign * np.kron(PAULI_BY_NAME[u.value], PAULI_BY_NAME[low.value])
                assert np.allclose(dense, want, atol=1e-12), (name, p, q)

    @pytest.mark.parametrize("name", sorted(TABLEAUS))
    def test_inverse_round_trip(self, name):
        # the table of U, then the table of U^dag, gives back every pair
        tab, gate = TABLEAUS[name]
        inv = tableau_from_unitary(gate.conj().T)
        for p in LETTERS:
            for q in LETTERS:
                sign, u, low = conj_pair(tab, p, q)
                sign_back, p_back, q_back = conj_pair(inv, u, low)
                assert (sign * sign_back, p_back, q_back) == (1, p, q)


class TestApplyLocal:
    def test_hadamard_swaps_x_and_z_letterwise(self):
        w = W.build(0, {0: L.X, 1: L.X})
        assert apply_local(LOCAL_H, w) == W.build(0, {0: L.Z, 1: L.Z})

    def test_hadamard_flips_y(self):
        assert apply_local(LOCAL_H, W.single(0, L.Y)) == W.single(0, L.Y, ipow=2)

    def test_identity_local(self):
        w = W.build(1, {0: L.X, 2: L.Z}, (4, L.X))
        assert apply_local(LOCAL_I, w) == w

    def test_sign_on_tail_diverges(self):
        # X-conjugation sends Z -> -Z: a -1 per label on an infinite tail
        with pytest.raises(DivergentPhaseError):
            apply_local(LOCAL_X, W.tail_word(0, L.Z))

    @given(words())
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    def test_hadamard_involutive(self, w):
        try:
            once = apply_local(LOCAL_H, w)
        except DivergentPhaseError:
            assume(False)
        assert apply_local(LOCAL_H, once) == w

    @pytest.mark.parametrize("local, x_image, z_image", [
        # literal images under U^dag P U, independent of the derived tables
        (LOCAL_I, (0, L.X), (0, L.Z)),
        (LOCAL_H, (0, L.Z), (0, L.X)),
        (LOCAL_X, (0, L.X), (2, L.Z)),
        (LOCAL_Y, (2, L.X), (2, L.Z)),
        (LOCAL_Z, (2, L.X), (0, L.Z)),
        (LOCAL_S, (2, L.Y), (0, L.Z)),
    ])
    def test_literal_local_images(self, local, x_image, z_image):
        assert apply_local(local, W.single(0, L.X)) == W.single(0, x_image[1], ipow=x_image[0])
        assert apply_local(local, W.single(0, L.Z)) == W.single(0, z_image[1], ipow=z_image[0])

    def test_bad_local_images_rejected(self):
        # a one-qubit gate whose images are not signed letters has no table
        t_gate = np.diag([1, np.exp(1j * np.pi / 4)])
        eps = 1e-3
        kick = math.cos(eps) * np.eye(2) - 1j * math.sin(eps) * PAULI_X
        with pytest.raises(NotCliffordError):
            tableau_from_unitary(t_gate)
        for gate in (I2, HADAMARD, PAULI_X, PAULI_Y, PAULI_Z, PHASE_S):
            with pytest.raises(NotCliffordError):
                tableau_from_unitary(gate @ kick)

    @pytest.mark.parametrize("eps", [1e-7, 5e-6, 2e-5])
    def test_near_clifford_refused(self, eps):
        # every image entry must match within 1e-9 absolutely: a relative
        # tolerance of 1e-5 on the unit entries once let eps up to 5e-6 pass
        gate = SWAP @ CNOT @ np.diag([1, 1, 1, np.exp(1j * eps)])
        with pytest.raises(NotCliffordError):
            tableau_from_unitary(gate)

    def test_clifford_within_tolerance_accepted(self):
        gate = SWAP @ CNOT @ np.diag([1, 1, 1, np.exp(1e-10j)])
        assert tableau_from_unitary(gate) == tableau_from_unitary(SWAP @ CNOT)

    def test_gate_off_unitarity_refused(self):
        # unitary within ATOL_STRUCT, as the density-matrix engine asks, though
        # the images may still match within 1e-9
        gate = SWAP @ CNOT
        gate[0, 0] *= 1 + 1e-10
        with pytest.raises(QlinalgError, match="not unitary"):
            tableau_from_unitary(gate)

    def test_equal_tables_hash_equal(self):
        # a table is a value: equal tables built apart are equal and hash equal
        a, b = tableau_from_unitary(SWAP @ CNOT), tableau_from_unitary(SWAP @ CNOT)
        assert a is not b and a.table is not b.table and a == b and hash(a) == hash(b)
        assert len({a, b, CNOT_TABLEAU, SWAP_TABLEAU}) == 3


# -- rendering ---------------------------------------------------------------


class TestNotation:
    @pytest.mark.parametrize("text", ["Z X' Z''", "X' X'' X'''...", "Z Z'",
                                      "-Y", "i X Z'", "-i Y''", "1", "-1",
                                      "Z[-1] X"])
    def test_parse_render_round_trip(self, text):
        w = word_from_str(text)
        assert word_from_str(word_to_str(w)) == w

    def test_fixture_words(self):
        assert word_from_str("Z X' Z''") == W.build(0, {0: L.Z, 1: L.X, 2: L.Z})
        assert word_from_str("X' X'' X'''...") == W.tail_word(1, L.X)
        assert word_from_str("Z Y' X'' X'''...") == W.build(0, {0: L.Z, 1: L.Y}, (2, L.X))

    def test_render_fixtures(self):
        assert word_to_str(W.build(0, {0: L.Z, 1: L.X, 2: L.Z})) == "Z X' Z''"
        assert word_to_str(W.tail_word(1, L.X)) == "X' X'' X'''..."
        assert word_to_str(W()) == "1"
        assert word_to_str(W.single(0, L.Y, ipow=2)) == "-Y"

    @given(words())
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    def test_round_trip_property(self, w):
        assert word_from_str(word_to_str(w)) == w

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError):
            word_from_str("Q''")
