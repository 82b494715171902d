import contextlib
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcsim import cli, qlinalg
from ctcsim.qlinalg import (
    BlochVector,
    CNOT,
    CZ,
    HADAMARD,
    I2,
    I4,
    PAULI_BY_NAME,
    PAULIS,
    PHASE_S,
    Preparations,
    PureStateParams,
    QlinalgError,
    SWAP,
    all_at_most,
    any_above,
    assert_density,
    assert_unitary,
    bloch_coordinates,
    conjugate,
    density_from_bloch,
    hermitian_spectrum,
    partial_trace_first,
    partial_trace_second,
    pauli_transfer,
    real_parts,
    standard_gate,
    tensor,
    trace_distance,
)
from helpers import (
    bloch_coordinates_entries,
    bloch_from_density,
    density_from_bloch_sum,
    partial_trace_first_einsum,
    partial_trace_second_einsum,
    preparation_fields,
    pt_first_loops,
    pt_second_loops,
    random_density,
    random_unitary,
    state_prep_unitary,
    tensor_broadcast,
    trace_distance_eigvalsh,
    with_signed_zeros,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)

SPECIAL_PARTS = [0.0, -0.0, 0.5, -1.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]


@st.composite
def two_by_twos(draw) -> np.ndarray:
    """A 2x2 complex matrix: a prepared state mixed with I/2 by a weight in
    [0, 1.5] (past 1 an eigenvalue is negative), with up to three of its eight
    real parts replaced by a finite, huge, NaN or infinite value."""
    weight = draw(st.floats(0.0, 1.5))
    prep = Preparations(draw(st.floats(0.0, 1.0)), draw(st.floats(-7.0, 7.0)))
    parts = real_parts(weight * prep.density()[0] + (1.0 - weight) * I2 / 2).copy()
    for k in draw(st.sets(st.integers(0, 7), max_size=3)):
        parts[k] = draw(st.one_of(st.floats(), st.sampled_from(SPECIAL_PARTS)))
    return parts.view(complex).reshape(2, 2)


# one matrix alone, or a stack of up to five
DENSITY_CANDIDATES = st.one_of(
    two_by_twos(), st.lists(two_by_twos(), max_size=5).map(lambda ms: np.array(ms).reshape(-1, 2, 2)))


def first_failing_check(rho: np.ndarray, atol: float = 1e-12) -> str | None:
    """The message prefix of the first of assert_density's checks that some
    matrix of rho fails, by numpy's own definitions (np.trace,
    np.linalg.eigvalsh), or None if every matrix passes."""
    with np.errstate(invalid="ignore", over="ignore"):
        herm_dev = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
        tr_dev = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    if not (herm_dev <= atol).all():
        return "density matrix not hermitian"
    if not (tr_dev <= atol).all():
        return "density matrix trace deviates"
    if not (np.linalg.eigvalsh(rho)[..., 0] >= -atol).all():
        return "density matrix has negative eigenvalue"
    return None


HALF_MAX = sys.float_info.max / 2
EDGE_ALPHA2 = (0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0), 0.5,
               math.nan, math.inf, -math.inf)
EDGE_THETA = (0.0, -0.0, HALF_MAX, -HALF_MAX, math.nextafter(HALF_MAX, math.inf),
              -math.nextafter(HALF_MAX, math.inf), sys.float_info.max, math.nan, math.inf,
              -math.inf)


def refusal(make) -> str | None:
    try:
        make()
    except QlinalgError as exc:
        return str(exc)
    return None


def assert_refused_alike(pairs: list[tuple[float, float]]) -> None:
    """Preparations checks its pairs at once, and lets PureStateParams raise
    for the first pair it refuses: it must refuse exactly when some pair's
    PureStateParams does, with the first such pair's message."""
    scalar = [refusal(lambda a=a, t=t: PureStateParams(alpha2=a, theta=t)) for a, t in pairs]
    alpha2, theta = zip(*pairs)
    assert refusal(lambda: Preparations(alpha2, theta)) == next(filter(None, scalar), None)


class TestPureStateParams:
    def test_kept_as_given(self):
        p = PureStateParams(alpha2=0.3, theta=0.2)
        assert (p.alpha2, p.theta, p.alpha, p.beta) == (0.3, 0.2, math.sqrt(0.3), math.sqrt(0.7))
        assert p._replace(theta=1.0).alpha2 == 0.3

    def test_positional_call_rejected(self):
        # an (alpha, beta, theta) call from before alpha2 was stored fails loudly
        with pytest.raises(TypeError):
            PureStateParams(0.6, 0.8, 0.0)

    def test_from_alpha2_range(self):
        with pytest.raises(QlinalgError):
            PureStateParams.from_alpha2(1.2)

    @pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan, 1e308])
    def test_non_finite_theta_rejected(self, theta):
        # 1e308 is finite, but the angle 2 theta that the closed forms read is not
        with pytest.raises(QlinalgError, match="finite"):
            PureStateParams.from_alpha2(0.75, theta)

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(QlinalgError, match="finite"):
            PureStateParams.from_alpha2(np.nan)

    @given(st.lists(st.tuples(st.one_of(st.sampled_from(EDGE_ALPHA2), st.floats()),
                              st.one_of(st.sampled_from(EDGE_THETA), st.floats())),
                    min_size=1, max_size=3))
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_preparations_refuse_as_the_scalar_check_does(self, pairs):
        assert_refused_alike(pairs)

    @pytest.mark.parametrize("alpha2", EDGE_ALPHA2)
    def test_edge_pairs_refused_alike(self, alpha2):
        for theta in EDGE_THETA:
            assert_refused_alike([(alpha2, theta)])

    def test_bloch_matches_density(self, rng):
        for _ in range(50):
            p = PureStateParams.from_alpha2(rng.uniform(0, 1), rng.uniform(0, 7))
            direct = bloch_from_density(p.density())
            closed = p.bloch()
            assert np.allclose(direct.as_tuple(), closed.as_tuple(), atol=1e-12)


class TestStatePrep:
    def test_identity_case(self):
        u = state_prep_unitary(PureStateParams.from_alpha2(1.0))
        assert np.allclose(u, I2, atol=1e-12)

    def test_prepares_target_state(self, rng):
        # oracle: apply the matrix to |0> and compare with the target amplitudes
        worst = 0.0
        for _ in range(100):
            p = PureStateParams.from_alpha2(rng.uniform(0, 1), rng.uniform(-7, 7))
            got = state_prep_unitary(p) @ KET0
            want = np.array([p.alpha * np.exp(1j * p.theta),
                             p.beta * np.exp(-1j * p.theta)])
            worst = max(worst, np.max(np.abs(got - want)))
        assert worst < 1e-12

    def test_beta_one_maps_zero_to_one(self):
        # the rotation block at alpha=0 is [[0,-1],[1,0]]: |0> -> |1> exactly
        u = state_prep_unitary(PureStateParams.from_alpha2(0.0))
        assert np.allclose(u @ KET0, KET1, atol=0)
        assert np.allclose(u, np.array([[0, -1], [1, 0]]), atol=0)

    def test_unitary(self, rng):
        for _ in range(20):
            p = PureStateParams.from_alpha2(rng.uniform(0, 1), rng.uniform(0, 7))
            u = state_prep_unitary(p)
            assert np.allclose(u @ u.conj().T, I2, atol=1e-12)


class TestStandardGates:
    def test_swap_squares_to_identity(self):
        assert np.allclose(SWAP @ SWAP, I4, atol=0)

    def test_hadamard_squares_to_identity(self):
        h = standard_gate("H")
        assert np.allclose(h @ h, I2, atol=1e-12)

    def test_cnot_action(self):
        ket10 = np.kron(KET1, KET0)
        ket11 = np.kron(KET1, KET1)
        assert np.allclose(CNOT @ ket10, ket11, atol=0)

    def test_unknown_name(self):
        with pytest.raises(QlinalgError):
            standard_gate("TOFFOLI")

    @pytest.mark.parametrize("name", ["I2", "I4", "X", "Y", "Z", "H", "CNOT", "CZ", "SWAP"])
    def test_all_gates_unitary(self, name):
        u = standard_gate(name)
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)


class TestTensorAndTraces:
    def test_tensor_identities(self):
        assert np.allclose(tensor(I2, I2), I4, atol=0)

    def test_partial_trace_first_of_product(self, rng):
        for _ in range(30):
            rho_a = random_density(rng)
            rho_b = random_density(rng)
            got = partial_trace_first(tensor(rho_a, rho_b))
            assert np.max(np.abs(got - rho_b)) < 1e-12
            # and against the explicit index-sum oracle
            assert np.max(np.abs(got - pt_first_loops(tensor(rho_a, rho_b)))) < 1e-14

    def test_partial_trace_second_of_product(self, rng):
        for _ in range(30):
            rho_a = random_density(rng)
            rho_b = random_density(rng)
            m = tensor(rho_a, rho_b)
            assert np.max(np.abs(partial_trace_second(m) - rho_a)) < 1e-12
            assert np.max(np.abs(partial_trace_second(m) - pt_second_loops(m))) < 1e-14

    def test_bell_state_traces_to_mixed(self):
        bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        assert np.allclose(partial_trace_second(rho), I2 / 2, atol=1e-12)

    def test_traces_preserve_total_trace(self, rng):
        for _ in range(20):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for pt in (partial_trace_first, partial_trace_second):
                assert abs(np.trace(pt(m)) - np.trace(m)) < 1e-12


class TestBlochAndMetrics:
    def test_mixed_state_is_origin(self):
        assert bloch_from_density(I2 / 2).as_tuple() == (0.0, 0.0, 0.0)

    def test_round_trip(self, rng):
        for _ in range(100):
            rho = random_density(rng)
            back = density_from_bloch(bloch_from_density(rho))
            assert np.max(np.abs(back - rho)) < 1e-12

    def test_overlong_vector_rejected(self):
        with pytest.raises(QlinalgError):
            BlochVector(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("coordinates", [
        (math.nan, 0.0, 0.0), (0.0, 0.0, math.nan), (math.inf, math.nan, 0.0),
        (0.0, -math.inf, 0.0), (1e200, 0.0, 0.0)])
    def test_non_finite_or_huge_vector_rejected(self, coordinates):
        # a NaN norm is not above 1 either, and 1e200 * 1e200 is inf
        with pytest.raises(QlinalgError, match="Bloch vector norm"):
            BlochVector(*coordinates)

    def test_boundary_vector_accepted(self):
        assert BlochVector(1.0 + qlinalg.BLOCH_ATOL, 0.0, 0.0).norm() == 1.0 + qlinalg.BLOCH_ATOL

    def test_trace_distance_orthogonal(self):
        rho0 = np.outer(KET0, KET0)
        rho1 = np.outer(KET1, KET1)
        assert abs(trace_distance(rho0, rho1) - 1.0) < 1e-12

    def test_trace_distance_to_mixed(self):
        rho0 = np.outer(KET0, KET0)
        assert abs(trace_distance(rho0, I2 / 2) - 0.5) < 1e-12


class TestDensityValidation:
    def test_asymmetry_is_an_error(self):
        lopsided = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(QlinalgError, match="hermitian"):
            assert_density(lopsided)

    def test_trace_checked(self):
        with pytest.raises(QlinalgError, match="trace"):
            assert_density(np.diag([0.9, 0.9]).astype(complex))

    def test_negative_eigenvalue_checked(self):
        with pytest.raises(QlinalgError, match="eigenvalue"):
            assert_density(np.diag([1.5, -0.5]).astype(complex))

    def test_stack_reports_its_first_failing_matrix(self):
        good = I2 / 2
        stack = np.array([good, good, np.diag([1.5, -0.5]), np.diag([1.25, -0.25])],
                         dtype=complex)
        assert_density(stack[:2])
        with pytest.raises(QlinalgError, match="negative eigenvalue -5.000e-01"):
            assert_density(stack)

    def test_nan_matrix_rejected(self, capfd):
        # each test is written so that NaN fails it; none reaches LAPACK
        with pytest.raises(QlinalgError, match="hermitian"):
            assert_density(np.full((2, 2), np.nan))
        with pytest.raises(QlinalgError, match="hermitian"):
            assert_density(np.array([I2 / 2, np.full((2, 2), np.nan)]))
        with pytest.raises(QlinalgError, match="hermitian"):
            bloch_from_density(np.full((2, 2), np.nan))
        with pytest.raises(QlinalgError, match="not unitary"):
            assert_unitary(np.full((4, 4), np.nan))
        assert capfd.readouterr() == ("", "")

    def test_infinite_matrix_rejected_without_a_warning(self, capfd):
        # inf - inf in a deviation is NaN; numpy must not warn about it first
        inf = np.full((2, 2), np.inf)
        with pytest.raises(QlinalgError, match="hermitian"):
            assert_density(inf)
        with pytest.raises(QlinalgError, match="hermitian"):
            bloch_from_density(inf)
        with pytest.raises(QlinalgError, match="not unitary"):
            assert_unitary(inf)
        assert capfd.readouterr() == ("", "")

    def test_overflowing_matrix_rejected_without_a_warning(self, capfd):
        # u u^dag overflows to inf; that is a deviation too, not a warning
        with pytest.raises(QlinalgError, match="not unitary"):
            assert_unitary(np.full((4, 4), 1e200))
        with pytest.raises(QlinalgError, match="trace"):
            assert_density(np.diag([1e308, 1e308]).astype(complex))
        assert capfd.readouterr() == ("", "")

    def test_infinite_entry_reports_the_elementwise_deviation(self):
        # rho00 - conj(rho00) is (inf - inf) + i(inf + inf), of modulus inf; a
        # product over all eight real parts would read nan there (0 * inf)
        rho = np.array([[complex(math.inf, math.inf), 0], [0, 0.5]])
        with pytest.raises(QlinalgError, match=r"not hermitian \(deviation inf\)"):
            assert_density(rho)

    def test_checks_as_the_elementwise_forms_do(self, capfd):
        # the check that fails first, and on a pass the Pauli traces np.trace reads
        @given(DENSITY_CANDIDATES)
        @settings(max_examples=300, derandomize=True, deadline=None, database=None)
        def check(rho):
            want = first_failing_check(rho)
            if want is None:
                traces = np.trace(PAULIS @ rho[..., None, :, :], axis1=-2, axis2=-1).real
                assert np.array_equal(assert_density(rho), traces)
            else:
                with pytest.raises(QlinalgError, match=want):
                    assert_density(rho)

        check()
        assert capfd.readouterr() == ("", "")

    def test_conjugation_preserves_density(self, rng):
        # unitary conjugation must keep hermiticity, trace and positivity
        for _ in range(200):
            rho = random_density(rng)
            u = random_unitary(rng, 2)
            assert_density(u @ rho @ u.conj().T, atol=1e-10)

    def test_loop_map_output_has_unit_trace(self, rng):
        for _ in range(50):
            u = random_unitary(rng, 4)
            big = u @ tensor(random_density(rng), random_density(rng)) @ u.conj().T
            assert abs(np.trace(partial_trace_first(big)) - 1.0) < 1e-12


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


LOCAL_GATES = {"I2": I2, "H": HADAMARD, "X": PAULI_BY_NAME["X"], "Y": PAULI_BY_NAME["Y"],
               "Z": PAULI_BY_NAME["Z"], "S": PHASE_S}
STACK_SIZES = [0, 1, 2, 101, 5000]
REWRITE_SIZES = [0, 1, 101]


def prepared_grid(n: int) -> np.ndarray:
    """n prepared pure states whose alpha2 and theta grids include both ends."""
    return Preparations(np.linspace(0.0, 1.0, n), np.linspace(0.0, 2.0 * np.pi, n)).density()


def block_gates() -> list[np.ndarray]:
    """cnot_swap, cz_swap, 40 seeded conjecture-check blocks and one non-Clifford."""
    rng = np.random.default_rng(7)
    cliffords = [SWAP @ cli._random_clifford(rng) for _ in range(40)]
    return [SWAP @ CNOT, SWAP @ CZ, *cliffords, random_unitary(rng, 4)]


class TestStackedKernels:
    """Each stacked kernel against the dense form it replaces, bit for bit
    (signed zeros included); a BLAS that breaks the identity fails here."""

    @staticmethod
    def dense_conjugate(g: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The stacked product conjugate replaces; up to 101 members it is
        also checked member by member (a Python loop is slow at 5,000)."""
        out = g @ m @ g.conj().T
        for n in range(min(len(m), 101)):
            assert same_bits(out[n], g @ m[n] @ g.conj().T)
        return out

    @pytest.mark.parametrize("n", STACK_SIZES)
    def test_conjugate_local_gates(self, n):
        rng = np.random.default_rng(n)
        stacks = (prepared_grid(n), rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
        for name, gate in LOCAL_GATES.items():
            for m in stacks:
                assert same_bits(conjugate(gate, m), self.dense_conjugate(gate, m)), name

    @pytest.mark.parametrize("n", STACK_SIZES)
    def test_conjugate_block_gates(self, n):
        rng = np.random.default_rng(n)
        mixed = np.array([random_density(rng) for _ in range(n)]).reshape(n, 2, 2)
        stacks = (tensor(prepared_grid(n), mixed),
                  rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))
        for k, u in enumerate(block_gates()):
            for m in stacks:
                assert same_bits(conjugate(u, m), self.dense_conjugate(u, m)), k

    def test_conjugate_single_matrix_and_leading_shape(self, rng):
        m = rng.normal(size=(3, 5, 4, 4)) + 1j * rng.normal(size=(3, 5, 4, 4))
        u = random_unitary(rng, 4)
        assert same_bits(conjugate(u, m[1, 2]), u @ m[1, 2] @ u.conj().T)
        assert same_bits(conjugate(u, m), self.dense_conjugate(u, m.reshape(15, 4, 4))
                         .reshape(m.shape))

    @pytest.mark.parametrize("n", STACK_SIZES)
    def test_bloch_coordinates_match_pauli_traces(self, n):
        # the grids reach alpha2 = 0 and 1, where entries are exact zeros of
        # either sign; each local gate moves them to other entries
        grid = prepared_grid(n)
        for name, gate in LOCAL_GATES.items():
            rho = conjugate(gate, grid)
            dense = np.trace(PAULIS[1:] @ rho[..., None, :, :], axis1=-2, axis2=-1).real
            assert same_bits(bloch_coordinates(assert_density(rho)), dense), name

    def test_bloch_coordinates_of_a_grid_of_grids(self):
        rho = Preparations(np.repeat([0.0, 0.25, 1.0], 7),
                           np.tile(np.linspace(-np.pi, np.pi, 7), 3)).density().reshape(3, 7, 2, 2)
        dense = np.trace(PAULIS[1:] @ rho[..., None, :, :], axis1=-2, axis2=-1).real
        assert same_bits(bloch_coordinates(assert_density(rho)), dense)

    @pytest.mark.parametrize("n", REWRITE_SIZES)
    def test_partial_traces_match_einsum(self, n):
        # equal values, up to the sign of a zero: einsum sums from +0.0, so
        # -0.0 + -0.0 gives +0.0 where the plain sum keeps -0.0 (the all -0.0 stack)
        rng = np.random.default_rng(n)
        noise = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
        mixed = np.array([random_density(rng) for _ in range(n)]).reshape(n, 2, 2)
        stacks = (with_signed_zeros(rng, noise), np.full((n, 4, 4), complex(-0.0, -0.0)),
                  tensor(prepared_grid(n), mixed), noise.reshape(-1, 1, 4, 4))
        for m in (*stacks, *(s[0] for s in stacks if n)):
            for got, want in ((partial_trace_first(m), partial_trace_first_einsum(m)),
                              (partial_trace_second(m), partial_trace_second_einsum(m))):
                assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("n", REWRITE_SIZES)
    def test_tensor_matches_broadcast_shape(self, n):
        rng = np.random.default_rng(n)
        a = with_signed_zeros(rng, rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
        for x, y in ((a, a[::-1]), (a, I2), (I2, a), (a[:, None], a[None, :]), (I2, PHASE_S)):
            assert same_bits(tensor(x, y), tensor_broadcast(x, y))

    @pytest.mark.parametrize("n", REWRITE_SIZES)
    def test_density_from_bloch_matches_the_pauli_sum(self, n):
        rng = np.random.default_rng(n)
        r = with_signed_zeros(rng, rng.uniform(-0.6, 0.6, (n, 3))).real
        tiny = rng.choice([5e-324, -5e-324, 1e-320, -1e-320, 0.0, -0.0], (n, 3))
        for coords in (r, tiny, np.where(rng.random((n, 3)) < 0.5, r, tiny)):
            assert same_bits(density_from_bloch(coords), density_from_bloch_sum(coords))
            for row in coords[:5]:
                vector = BlochVector(*row.tolist())
                assert same_bits(density_from_bloch(vector), density_from_bloch_sum(row))

    @pytest.mark.parametrize("n", REWRITE_SIZES)
    def test_bloch_coordinates_match_the_entries(self, n):
        grid = prepared_grid(n)
        for gate in LOCAL_GATES.values():
            rho = conjugate(gate, grid)
            assert same_bits(bloch_coordinates(assert_density(rho)), bloch_coordinates_entries(rho))

    @pytest.mark.parametrize("n", REWRITE_SIZES)
    def test_preparations_match_the_unstacked_forms(self, n):
        rng = np.random.default_rng(n)
        alpha2 = rng.choice([0.0, 1.0, 0.5, 1e-300, *rng.uniform(0.0, 1.0, 4)], n)
        theta = rng.choice([0.0, -0.0, math.pi, -math.pi / 2, 1e300, *rng.uniform(-9, 9, 4)], n)
        preps = Preparations(alpha2, theta)
        want = preparation_fields(alpha2, theta)
        got = (preps.alpha, preps.beta, preps.density(), preps.pauli_expectations)
        for g, w in zip(got, want):
            assert same_bits(np.ascontiguousarray(g), w)
        for a2, th in zip(alpha2[:20].tolist(), theta[:20].tolist()):
            one = PureStateParams.from_alpha2(a2, th).batch
            want = preparation_fields(a2, th)
            got = (one.alpha, one.beta, one.density(), one.pauli_expectations)
            for g, w in zip(got, want):
                assert same_bits(np.ascontiguousarray(g), w)
            assert same_bits(one.alpha2, np.array([a2])) and same_bits(one.theta, np.array([th]))

    def test_lowest_eigenvalue_matches_eigvalsh(self, rng):
        mixed = np.array([random_density(rng) for _ in range(2000)])
        for rho in (mixed, prepared_grid(5000), conjugate(HADAMARD, prepared_grid(101)),
                    mixed - np.eye(2) / 4, I2 / 2, np.diag([1.5, -0.5]).astype(complex)):
            s, h = hermitian_spectrum(rho)  # assert_density's lowest eigenvalue, s - h
            gap = np.abs(s - h - np.linalg.eigvalsh(rho)[..., 0])
            assert gap.max() <= 1e-15


class TestReductions:
    """all_at_most and any_above against the two-call forms they replace."""

    CASES = [np.array([]), np.array([0.5]), np.array([2.0]), np.array([np.nan]),
             np.array([0.5, np.nan]), np.array([2.0, np.nan]), np.array([-np.inf, 1.0]),
             np.array([np.inf]), np.array([[0.1, 1.0], [1.0, 0.3]])]

    @pytest.mark.parametrize("x", CASES)
    def test_match_all_and_any(self, x):
        for bound in (-1.0, 0.0, 1.0, 1.5):
            assert bool(all_at_most(x, bound)) == bool((x <= bound).all())
            assert bool(any_above(x, bound)) == bool((x > bound).any())


# The closed-form eigenvalues s -+ h of a hermitian 2x2 (hermitian_spectrum)
# hold to EIG_RTOL of the matrix's spectral norm, and to EIG_ATOL more for
# subnormal entries, against the reference np.linalg.eigvalsh.
EIG_RTOL = 8 * np.finfo(float).eps
EIG_ATOL = 1e-321
# Parts of the hermitian entries: signed zeros, subnormals, ordinary values
# and huge ones, below 1e300 so that a + d cannot overflow.
SPECTRUM_PARTS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320, 2.2e-308]),
    st.floats(1e-300, 1e-200).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(1e200, 1e300).flatmap(lambda x: st.sampled_from([x, -x])))


@st.composite
def hermitian_stacks(draw) -> np.ndarray:
    """A stack of 1, 2, 3 or 101 hermitian 2x2s, each drawn part by part."""
    n = draw(st.sampled_from([1, 2, 3, 101]))
    parts = np.array(draw(st.lists(st.tuples(*[SPECTRUM_PARTS] * 4), min_size=n, max_size=n)))
    m = np.empty((n, 2, 2), dtype=complex)
    m[:, 0, 0], m[:, 1, 1] = parts[:, 0], parts[:, 1]
    m[:, 1, 0] = parts[:, 2] + 1j * parts[:, 3]
    m[:, 0, 1] = m[:, 1, 0].conj()
    return m


def assert_spectrum_matches_eigvalsh(m: np.ndarray) -> None:
    s, h = hermitian_spectrum(m)
    want = np.linalg.eigvalsh(m)
    got = np.stack([s - h, s + h], axis=-1)
    bound = EIG_RTOL * np.max(np.abs(want), axis=-1, initial=0.0) + EIG_ATOL
    assert got.shape == want.shape
    assert (np.abs(got - want).max(axis=-1, initial=0.0) <= bound).all()


class TestEigensolve:
    """hermitian_spectrum's closed form against the public np.linalg.eigvalsh."""

    @given(hermitian_stacks())
    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    def test_closed_form_property(self, m):
        # within the bound, and each matrix's (s, h) has the same bits alone as in its stack
        assert_spectrum_matches_eigvalsh(m)
        s, h = hermitian_spectrum(m)
        for i in range(len(m)):
            s_alone, h_alone = hermitian_spectrum(m[i:i + 1])
            assert same_bits(s[i:i + 1], s_alone) and same_bits(h[i:i + 1], h_alone)

    @pytest.mark.parametrize("n", REWRITE_SIZES)
    def test_matches_eigvalsh(self, n):
        rng = np.random.default_rng(n)
        g = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        hermitian = g + g.conj().swapaxes(-1, -2)
        stacks = (hermitian, with_signed_zeros(rng, hermitian), prepared_grid(n) - I2 / 2)
        for m in (*stacks, *(s[0] for s in stacks if n)):
            assert_spectrum_matches_eigvalsh(m)

    def test_trace_distance_matches_eigvalsh(self, rng):
        # two density matrices are at most 1 apart, so the bound is absolute
        grid = prepared_grid(101)
        pairs = [*((random_density(rng), random_density(rng)) for _ in range(200)),
                 *zip(grid, conjugate(HADAMARD, grid))]
        for rho, sigma in pairs:
            gap = trace_distance(rho, sigma) - trace_distance_eigvalsh(rho, sigma)
            assert abs(gap) <= EIG_RTOL

    @pytest.mark.parametrize("shape", [(4, 4), (1, 2, 2), (2,), (2, 3)])
    def test_trace_distance_refuses_a_shape(self, shape):
        other = np.zeros(shape, complex)
        for pair in ((other, I2 / 2), (I2 / 2, other), (other, other)):
            with pytest.raises(QlinalgError, match="two finite 2x2 matrices"):
                trace_distance(*pair)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_trace_distance_refuses_a_non_finite_entry(self, value):
        # any entry, the upper off-diagonal one too, which the closed form does not read
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            rho = I2 / 2
            rho[i, j] = value
            for pair in ((rho, I2 / 2), (I2 / 2, rho), (rho, rho)):
                with pytest.raises(QlinalgError, match="finite"):
                    trace_distance(*pair)


class TestPrivateKernels:
    SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

    @pytest.mark.parametrize("kernel", ["lstsq"])
    def test_missing_kernel_is_one_import_error(self, kernel):
        code = f"from numpy.linalg import _umath_linalg; del _umath_linalg.{kernel}; import ctcsim"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(self.SRC)}, timeout=60)
        assert proc.returncode == 1
        assert "During handling" not in proc.stderr
        last = proc.stderr.splitlines()[-1]
        assert last.startswith("ImportError: ")
        assert f"_umath_linalg.{kernel}," in last and "numpy 2.4.6" in last


class TestStackSizeIndependence:
    """One matrix's check values do not depend on the stack it is checked in:
    np.abs of a complex stack, which the checks take, must round every member
    alike whatever the stack's length, so run (a stack of 1) and sweep (a
    stack of N) judge one state alike."""

    @staticmethod
    def matrices(rng) -> list[np.ndarray]:
        """Prepared states conjugated by a random unitary, whose hermiticity
        and trace deviations are rounding, and raw complex 2x2s."""
        states = conjugate(random_unitary(rng, 2), prepared_grid(100))
        raw = rng.normal(size=(100, 2, 2)) + 1j * rng.normal(size=(100, 2, 2))
        return [*states, *raw]

    @staticmethod
    def stacks(rng, m: np.ndarray):
        """m alone, then first, in the middle and last in stacks of 2, 3, 5 and 101."""
        yield 0, m[None]
        for n in (2, 3, 5, 101):
            for pos in sorted({0, n // 2, n - 1}):
                stack = conjugate(random_unitary(rng, 2), prepared_grid(n))
                stack[pos] = m
                yield pos, stack

    def test_density_deviations(self, rng, monkeypatch):
        # the values assert_density's three checks read, alone and in a stack
        seen = []

        def recording(bad, values, message, _real=qlinalg._check_each):
            seen.append(values.copy())
            _real(bad, values, message)

        monkeypatch.setattr(qlinalg, "_check_each", recording)
        for m in self.matrices(rng):
            with contextlib.suppress(QlinalgError):
                assert_density(m[None])
            alone = [values[0] for values in seen]
            for pos, stack in self.stacks(rng, m):
                seen.clear()
                with contextlib.suppress(QlinalgError):
                    assert_density(stack)
                assert len(seen) == len(alone)
                for got, want in zip(seen, alone):
                    assert same_bits(got[pos], want)
            seen.clear()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 101])
    def test_one_product_matches_the_elementwise_forms(self, rng, n):
        # the Pauli traces assert_density reads off one product, against the
        # entries' sums (bloch_coordinates_entries and the trace's real part)
        states = np.array(self.matrices(rng)[:100])
        for start in range(0, len(states) - n + 1, n) if n else [0]:
            stack = states[start:start + n]
            traces = assert_density(stack)
            trace = stack[..., 0, 0].real + stack[..., 1, 1].real + 0.0
            assert same_bits(traces[..., 0], trace)
            assert same_bits(traces[..., 1:], bloch_coordinates_entries(stack))

    @pytest.mark.parametrize("n", [0, 1, 2, 101])
    def test_pauli_traces_sum_from_positive_zero(self, rng, n):
        # states whose zero parts have random signs: the grid reaches alpha2 =
        # 0 and 1, and each local gate moves the zeros around.  Each trace is
        # one product with every real part, and a state that passes the trace
        # check has a positive diagonal part, whose +0.0 product makes a zero
        # sum +0.0; a sum of only the parts a trace needs (R01 + R10 for x)
        # would keep their -0.0
        for gate in LOCAL_GATES.values():
            stack = conjugate(gate, prepared_grid(n))
            parts = stack.view(np.float64)
            zero = parts == 0.0
            parts[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
            traces = assert_density(stack)
            assert not np.signbit(traces[traces == 0.0]).any()

    def test_bloch_norm(self, rng, monkeypatch):
        seen = []

        def recording(x, bound):
            if bound == qlinalg.BLOCH_BALL:
                seen.append(x.copy())
            return all_at_most(x, bound)

        monkeypatch.setattr(qlinalg, "all_at_most", recording)
        for m in self.matrices(rng)[:100]:
            r_alone = bloch_coordinates(assert_density(m[None]))
            (norm_alone,) = seen
            for pos, stack in self.stacks(rng, m):
                seen.clear()
                r = bloch_coordinates(assert_density(stack))
                assert same_bits(r[pos], r_alone[0])
                assert same_bits(seen[0][pos], norm_alone[0])
            seen.clear()


class TestPauliTransfer:
    LETTERS = "IXYZ"

    def brute_force(self, u):
        """R[k, l, i, j] by one explicit trace per entry."""
        out = np.zeros((4, 4, 4, 4))
        for k, a in enumerate(self.LETTERS):
            for l, b in enumerate(self.LETTERS):
                p_out = np.kron(PAULI_BY_NAME[a], PAULI_BY_NAME[b])
                for i, c in enumerate(self.LETTERS):
                    for j, d in enumerate(self.LETTERS):
                        p_in = np.kron(PAULI_BY_NAME[c], PAULI_BY_NAME[d])
                        out[k, l, i, j] = np.trace(p_out @ u @ p_in @ u.conj().T).real / 4
        return out

    def test_matches_explicit_traces(self, rng):
        for _ in range(10):
            u = random_unitary(rng, 4)
            assert np.max(np.abs(pauli_transfer(u) - self.brute_force(u))) < 1e-14

    def test_orthogonal_and_unital(self, rng):
        for _ in range(20):
            r = pauli_transfer(random_unitary(rng, 4)).reshape(16, 16)
            assert np.max(np.abs(r @ r.T - np.eye(16))) < 1e-13
            assert abs(r[0, 0] - 1) < 1e-14 and np.max(np.abs(r[0, 1:])) < 1e-14

    def test_cliffords_are_signed_permutations(self):
        for gate in (CNOT, CZ, SWAP, I4, SWAP @ CNOT):
            r = pauli_transfer(gate).reshape(16, 16)
            assert set(np.unique(r)) <= {-1.0, 0.0, 1.0}
            assert np.array_equal(np.abs(r).sum(axis=0), np.ones(16))
            assert np.array_equal(np.abs(r).sum(axis=1), np.ones(16))
