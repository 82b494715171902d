import itertools

import numpy as np
import pytest

from ctcsim import cli, db_model, scenario
from ctcsim.db_model import (
    DEGENERACY_TOL,
    FixedPointError,
    _bloch_affine,
    _solve_eigen,
    _spectral_norm_herm,
    _stacked_lstsq,
    ctc_map,
    run_chain,
    solve_chain,
    solve_fixed_point,
)
from ctcsim.qlinalg import (
    CNOT,
    CZ,
    CtcsimError,
    EngineError,
    HADAMARD,
    I2,
    I4,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    Preparations,
    PureStateParams,
    QlinalgError,
    SWAP,
    assert_density,
    density_from_bloch,
    trace_distance,
)
from helpers import (
    bloch_affine_sum,
    bloch_from_density,
    ctc_map_oracle,
    local_gate,
    loop_transfer,
    random_density,
    random_params,
    random_unitary,
    solve_chain_dense,
    spectral_norm_eigvalsh,
    with_signed_zeros,
)

U_CNOT_SWAP = SWAP @ CNOT  # controlled-not chased by a swap
U_CZ_SWAP = SWAP @ CZ

KET0 = np.array([1, 0], dtype=complex)
RHO_0 = np.outer(KET0, KET0)


def cz_fixed_point_closed_form(p: PureStateParams) -> np.ndarray:
    """Fixed point of the controlled-sign interaction for a pure input.

    Diagonal (alpha^2, beta^2) with coherence (alpha^2 - beta^2) alpha beta
    e^{+2i theta} on the |0><1| entry, i.e. the input coherence scaled by
    the population difference.
    """
    a2, b2 = p.alpha**2, p.beta**2
    coh = (a2 - b2) * p.alpha * p.beta * np.exp(2j * p.theta)
    return np.array([[a2, coh], [np.conj(coh), b2]])


def cz_output_closed_form(p: PureStateParams) -> np.ndarray:
    a2, b2 = p.alpha**2, p.beta**2
    coh = (a2 - b2) ** 2 * p.alpha * p.beta * np.exp(2j * p.theta)
    return np.array([[a2, coh], [np.conj(coh), b2]])


def cnot_output_closed_form(p: PureStateParams) -> np.ndarray:
    a2, b2 = p.alpha**2, p.beta**2
    return np.diag([a2**2 + b2**2, 2 * a2 * b2]).astype(complex)


class TestCtcMap:
    def test_identity_gate_fixes_everything(self, rng):
        rho = random_density(rng)
        got = ctc_map(I4, random_density(rng), rho)
        assert np.max(np.abs(got - rho)) < 1e-12

    def test_zero_state_fixed_by_cz_interaction(self):
        p = PureStateParams.from_alpha2(1.0)
        got = ctc_map(U_CZ_SWAP, p.density(), RHO_0)
        assert np.max(np.abs(got - RHO_0)) < 1e-12

    def test_against_brute_force_oracle(self, rng):
        p = PureStateParams.from_alpha2(0.75, 0.0)
        got = ctc_map(U_CNOT_SWAP, p.density(), I2 / 2)
        want = ctc_map_oracle(U_CNOT_SWAP, p.density(), I2 / 2)
        assert np.max(np.abs(got - want)) < 1e-12
        for _ in range(20):
            u = random_unitary(rng, 4)
            rho_in, rho = random_density(rng), random_density(rng)
            assert np.max(np.abs(ctc_map(u, rho_in, rho)
                                 - ctc_map_oracle(u, rho_in, rho))) < 1e-12

    def test_completely_positive_trace_preserving(self, rng):
        # 1000 random triples: unit trace and no negative eigenvalues
        for _ in range(1000):
            u = random_unitary(rng, 4)
            out = ctc_map(u, random_density(rng), random_density(rng))
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-10


class TestBlochAffine:
    def test_matches_dense_loop_map(self, rng):
        """M and c rebuilt from the brute-force loop map on I/2 and each Pauli/2."""
        paulis = (PAULI_X, PAULI_Y, PAULI_Z)

        def coords(m):
            return np.array([np.trace(s @ m).real for s in paulis])

        for _ in range(50):
            u, rho_in = random_unitary(rng, 4), random_density(rng)
            want_c = coords(ctc_map_oracle(u, rho_in, I2 / 2))
            want_m = np.column_stack([coords(ctc_map_oracle(u, rho_in, s / 2)) for s in paulis])
            m, c = _bloch_affine(loop_transfer(u), assert_density(rho_in))
            assert np.max(np.abs(c - want_c)) < 1e-14
            assert np.max(np.abs(m - want_m)) < 1e-14

    @pytest.mark.parametrize("n", [0, 1, 101])
    def test_matches_the_python_sum(self, n):
        """One broadcast product reduced from +0.0 against the Python sum over
        i it replaces, bit for bit, with signed zeros in both inputs."""
        rng = np.random.default_rng(n)
        rho = np.array([random_density(rng) for _ in range(n)]).reshape(n, 2, 2)
        noise = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        stacks = (rho, with_signed_zeros(rng, rho), with_signed_zeros(rng, noise, 0.6),
                  np.full((n, 2, 2), complex(-0.0, -0.0)))
        cliffords = [SWAP @ cli._random_clifford(rng) for _ in range(10)]
        loops = [loop_transfer(u) for u in (U_CNOT_SWAP, U_CZ_SWAP, I4, *cliffords,
                                            random_unitary(rng, 4))]
        loops.append(with_signed_zeros(rng, loops[-1]).real)
        loops.append(-loops[0])  # -0.0 where the cnot loop has 0.0
        for loop in loops:
            for rho_in in (*stacks, *(s[0] for s in stacks if n)):
                a = np.einsum("iab,...ba->...i", PAULIS, rho_in).real
                for got, want in zip(_bloch_affine(loop, a), bloch_affine_sum(loop, a)):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def per_point_lstsq(a, c):
    """The public np.linalg.lstsq, one system at a time: the reference the
    stacked solve must equal bit for bit."""
    solutions = [np.linalg.lstsq(am, cm, rcond=DEGENERACY_TOL) for am, cm in zip(a, c)]
    return (np.array([s[0] for s in solutions]).reshape(c.shape),
            np.array([s[2] for s in solutions], dtype=np.int32),
            np.array([s[3] for s in solutions]).reshape(c.shape))


def assert_same_bits(a, c):
    """_stacked_lstsq(a, c) equals per_point_lstsq(a, c) in every bit, signed
    zeros included; returns the ranks."""
    got, want = _stacked_lstsq(a, c), per_point_lstsq(a, c)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    return got[1]


class TestStackedSolve:
    """_stacked_lstsq binds numpy's private lstsq kernel; these tests pin it to
    the public np.linalg.lstsq, so a numpy that renames or changes the kernel
    fails here."""

    @pytest.mark.parametrize("name", scenario.scenario_names())
    def test_named_scenario_stacks(self, name, monkeypatch):
        stacks = []

        def recording(a, c):
            stacks.append((a, c))
            return _stacked_lstsq(a, c)

        monkeypatch.setattr(db_model, "_stacked_lstsq", recording)
        spec = scenario.named_scenario(name)
        scenario.evaluate_db(spec, Preparations(np.linspace(0.0, 1.0, 101),
                                                np.linspace(0.0, 6.0, 101)))
        assert len(stacks) == len(spec.blocks)
        for a, c in stacks:
            assert_same_bits(a, c)

    def test_random_clifford_blocks(self):
        rng = np.random.default_rng(7)
        traces = assert_density(
            Preparations(rng.uniform(0, 1, 200), rng.uniform(0, 2 * np.pi, 200)).density())
        deficient = 0
        for _ in range(40):
            m, c = _bloch_affine(loop_transfer(SWAP @ cli._random_clifford(rng)), traces)
            deficient += (assert_same_bits(np.eye(3) - m, c) < 3).sum()
        assert deficient > 0

    def test_non_clifford_block(self, rng):
        traces = assert_density(np.array([random_density(rng) for _ in range(200)]))
        m, c = _bloch_affine(loop_transfer(random_unitary(rng, 4)), traces)
        assert (assert_same_bits(np.eye(3) - m, c) == 3).all()

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_stacks(self, n):
        traces = assert_density(Preparations(np.full(n, 0.3), 0.4).density())
        for u in (U_CNOT_SWAP, I4):
            m, c = _bloch_affine(loop_transfer(u), traces)
            assert_same_bits(np.eye(3) - m, c)

    def test_singular_values_descend(self):
        # the degeneracy test reads the extremes as svals[..., 0] and [..., 2]
        rng = np.random.default_rng(11)
        traces = assert_density(
            Preparations(rng.uniform(0, 1, 200), rng.uniform(0, 2 * np.pi, 200)).density())
        for u in (U_CNOT_SWAP, U_CZ_SWAP, I4, random_unitary(rng, 4),
                  *(SWAP @ cli._random_clifford(rng) for _ in range(20))):
            m, c = _bloch_affine(loop_transfer(u), traces)
            a = np.eye(3) - m
            rank, svals = _stacked_lstsq(a, c)[1:]
            assert (np.diff(svals, axis=-1) <= 0).all()
            old = (rank < 3) | (svals.min(axis=-1)
                                < DEGENERACY_TOL * np.maximum(svals.max(axis=-1), 1.0))
            assert np.array_equal(_solve_eigen(loop_transfer(u), traces)[1], old)

    def test_spectral_norm_matches_eigvalsh(self, rng):
        # |s| + h of the closed-form eigenvalues s -+ h, within 8 eps of the norm
        g = rng.normal(size=(101, 2, 2)) + 1j * rng.normal(size=(101, 2, 2))
        for m in (g + g.conj().swapaxes(-1, -2), np.zeros((0, 2, 2), complex), I2 / 2):
            got, want = _spectral_norm_herm(m), spectral_norm_eigvalsh(m)
            assert np.shape(got) == np.shape(want)
            assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * want)

    def test_spilled_fixed_point_is_checked_where_it_lands(self, monkeypatch):
        # a solve 5e-10 past the sphere is pulled back onto it, and the residual
        # is that of the state it lands on: zero at cnot's pure fixed points
        def past_the_sphere(a, c, _real=_stacked_lstsq):
            r, rank, svals = _real(a, c)
            return r * (1 + 5e-10), rank, svals

        monkeypatch.setattr(db_model, "_stacked_lstsq", past_the_sphere)
        for alpha2 in (0.0, 1.0):
            spec = scenario.named_scenario("cnot", PureStateParams.from_alpha2(alpha2))
            assert scenario.run_db(spec).residual == 0.0

    def test_lapack_failure_is_an_engine_error(self):
        traces = assert_density(Preparations(np.linspace(0, 1, 3), 0.0).density())
        with pytest.raises(FixedPointError, match="did not converge"):
            _solve_eigen(np.full((4, 3, 4), np.nan), traces)

    def test_lapack_failure_exits_1_through_the_cli(self, monkeypatch, capfd):
        def poisoned(loop, traces):
            m, c = _bloch_affine(loop, traces)
            return np.full_like(m, np.nan), c

        monkeypatch.setattr(db_model, "_bloch_affine", poisoned)
        assert cli.main(["run", "cnot"]) == 1
        err = capfd.readouterr().err  # stdout holds LAPACK's own complaint
        assert err == "engine error: SVD did not converge in the fixed-point solve\n"


class TestSolveFixedPoint:
    def test_cz_matches_closed_form(self, rng):
        for _ in range(100):
            p = random_params(rng)
            sol = solve_fixed_point(U_CZ_SWAP, p.density(), method="both")
            assert np.max(np.abs(sol.fixed_point - cz_fixed_point_closed_form(p))) < 1e-10
            assert sol.residual < 1e-10
            assert not sol.degenerate

    def test_methods_agree(self, rng):
        for _ in range(50):
            p = random_params(rng)
            it = solve_fixed_point(U_CZ_SWAP, p.density(), method="iterate")
            eig = solve_fixed_point(U_CZ_SWAP, p.density(), method="eigen")
            assert np.max(np.abs(it.fixed_point - eig.fixed_point)) < 1e-8

    def test_identity_gate_degenerate_max_entropy(self):
        sol = solve_fixed_point(I4, PureStateParams.from_alpha2(0.3).density())
        assert sol.degenerate
        assert np.max(np.abs(sol.fixed_point - I2 / 2)) < 1e-10

    def test_cnot_iteration_oracle(self, rng):
        # iterate the loop map 10^4 times from 5 random interiors: all land
        # on the solver's answer
        p = PureStateParams.from_alpha2(0.75, 0.0)
        sol = solve_fixed_point(U_CNOT_SWAP, p.density(), method="both")
        for _ in range(5):
            rho = random_density(rng)
            for _ in range(10_000):
                rho = ctc_map(U_CNOT_SWAP, p.density(), rho)
            assert np.max(np.abs(rho - sol.fixed_point)) < 1e-8

    def test_iteration_reports_failure_with_residual(self):
        p = PureStateParams.from_alpha2(0.3, 0.7)
        with pytest.raises(FixedPointError) as err:
            solve_fixed_point(U_CZ_SWAP, p.density(), method="iterate", max_iters=1)
        assert err.value.residual > 0

    def test_residuals_small_for_random_cliffords(self, rng):
        gates = [U_CZ_SWAP, U_CNOT_SWAP, SWAP, I4, CZ, CNOT]
        for _ in range(40):
            u = gates[rng.integers(len(gates))]
            sol = solve_fixed_point(u, random_params(rng).density(), method="eigen")
            assert sol.residual < 1e-10

    def test_residual_is_the_dense_loop_trips(self, rng):
        # |(I - M) r - c| / 2 read off the transfer slices, against the spectral
        # norm of ctc_map(fixed) - fixed, on iterates that stop near tol
        for _ in range(20):
            u, p = random_unitary(rng, 4), random_params(rng)
            sol = solve_fixed_point(u, p.density(), method="iterate", tol=1e-9)
            moved = ctc_map(u, p.density(), sol.fixed_point) - sol.fixed_point
            assert abs(sol.residual - _spectral_norm_herm(moved)) <= 16 * np.finfo(float).eps

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve_fixed_point(I4, RHO_0, method="fancy")

    def test_non_unitary_rejected(self):
        with pytest.raises(QlinalgError):
            solve_fixed_point(np.ones((4, 4), dtype=complex), RHO_0)

    def test_one_qubit_gate_rejected(self):
        with pytest.raises(ValueError, match="two-qubit"):
            solve_fixed_point(HADAMARD, RHO_0)


class TestDbOutput:
    def test_cnot_output_closed_form(self, rng):
        for _ in range(50):
            p = random_params(rng)
            sol = solve_fixed_point(U_CNOT_SWAP, p.density(), method="eigen")
            if sol.degenerate:
                continue
            assert np.max(np.abs(sol.output - cnot_output_closed_form(p))) < 1e-10

    def test_cnot_output_instantiation(self):
        p = PureStateParams.from_alpha2(0.75, 0.0)
        sol = solve_fixed_point(U_CNOT_SWAP, p.density())
        assert np.max(np.abs(sol.output - np.diag([0.625, 0.375]))) < 1e-12

    def test_cz_output_coherence(self, rng):
        for _ in range(100):
            p = random_params(rng)
            sol = solve_fixed_point(U_CZ_SWAP, p.density(), method="eigen")
            assert np.max(np.abs(sol.output - cz_output_closed_form(p))) < 1e-10

    def test_cz_output_bloch_closed_form(self, rng):
        # full Bloch vector: ((a2-b2)^2 2ab cos2t, -(a2-b2)^2 2ab sin2t, a2-b2)
        for _ in range(100):
            p = random_params(rng)
            sol = solve_fixed_point(U_CZ_SWAP, p.density(), method="eigen")
            r = bloch_from_density(sol.output)
            a2b2 = p.alpha**2 - p.beta**2
            two_ab = 2 * p.alpha * p.beta
            want = (a2b2**2 * two_ab * np.cos(2 * p.theta),
                    -(a2b2**2) * two_ab * np.sin(2 * p.theta),
                    a2b2)
            assert np.max(np.abs(np.array(r.as_tuple()) - want)) < 1e-10


class TestRunChain:
    def test_chained_wormholes_depolarize(self, rng):
        # two controlled-not blocks with Hadamards between and after: the
        # output is maximally mixed for any non-balanced preparation
        for alpha2 in (0.1, 0.35, 0.75, 0.9):
            p = PureStateParams.from_alpha2(alpha2, rng.uniform(0, 2 * np.pi))
            rho = run_chain([U_CNOT_SWAP, U_CNOT_SWAP], [I2, HADAMARD, HADAMARD], p)
            assert trace_distance(rho, I2 / 2) < 1e-10

    def test_identity_block_passes_state_through(self):
        p = PureStateParams.from_alpha2(0.42, 1.1)
        rho = run_chain([I4], [I2, I2], p)
        assert np.max(np.abs(rho - p.density())) < 1e-10

    def test_single_block_consistent_with_direct_solve(self):
        # the chain reads the preparation's closed-form Pauli traces, the
        # direct solve those of its density matrix: they differ in last bits
        p = PureStateParams.from_alpha2(0.8, 0.5)
        chained = run_chain([U_CNOT_SWAP], [I2, I2], p)
        direct = solve_fixed_point(U_CNOT_SWAP, p.density()).output
        assert np.max(np.abs(chained - direct)) <= 1e-15

    def test_local_gate_count_validated(self):
        p = PureStateParams.from_alpha2(0.5)
        with pytest.raises(ValueError):
            run_chain([I4], [I2], p)

    def test_solve_chain_aggregates_block_solutions(self):
        # the identity block fixes every trapped state, so only it is degenerate
        p = PureStateParams.from_alpha2(0.3, 0.4)
        blocks, locals_ = [U_CZ_SWAP, I4], [I2, HADAMARD, PAULI_X]
        run = solve_chain(blocks, locals_, p)
        rho, sols = p.density(), []
        for gate, u in zip(locals_, blocks):
            sols.append(solve_fixed_point(u, gate @ rho @ gate.conj().T, method="eigen"))
            rho = sols[-1].output
        # to 1e-15, not bit for bit: as above, and the chain applies each
        # local by its transfer matrix, the steps here by a dense conjugation
        assert [s.degenerate for s in sols] == [False, True]
        assert run.degenerate
        assert abs(run.residual - max(s.residual for s in sols)) <= 1e-15
        assert np.max(np.abs(run.output - PAULI_X @ rho @ PAULI_X.conj().T)) <= 1e-15
        assert np.array_equal(run.output, density_from_bloch(run.bloch))  # built from it


# Stacks that reach the signed zeros: alpha2 at 0, 1 and 1e-300 with theta
# at +0.0 and -0.0, each alone and all of them in one stack of 101.
EDGE_ALPHA2 = (0.0, 1.0, 1e-300, 0.3)
EDGE_THETA = (0.0, -0.0, 0.7)


def identity_skip_stacks():
    yield Preparations(np.array([]), np.array([]))
    for alpha2, theta in itertools.product(EDGE_ALPHA2, EDGE_THETA):
        yield Preparations(alpha2, theta)
    alpha2 = np.linspace(0.0, 1.0, 101)
    alpha2[1] = 1e-300
    theta = np.resize(np.array(EDGE_THETA + (-2.5, np.pi)), 101)
    yield Preparations(alpha2, theta)


def mixed_locals_spec():
    """The two-block cnot_swap config spec with locals x i2 s."""
    cfg = cli.parse_config_text("prep.alpha2 = 0.3\nblock = cnot_swap\nblock = cnot_swap\n"
                                "locals = x i2 s\n")
    return cli.spec_from_config(cfg)


class TestIdentityLocalSkipped:
    """The chain does not apply an identity local (None); its every output
    bit is that of the chain that applies I2's transfer matrix."""

    @pytest.mark.parametrize("name", [*scenario.scenario_names(), "config x i2 s"])
    def test_same_bits_as_conjugating_by_i2(self, name):
        spec = mixed_locals_spec() if name.startswith("config") else scenario.named_scenario(name)
        circuit = spec.circuit
        assert any(g is None for g in circuit.db_locals)
        every = [db_model.local_transfer(I2) if g is None else g for g in circuit.db_locals]
        for preps in identity_skip_stacks():
            got = db_model.solve_chain_batch(circuit.db_blocks, circuit.db_locals, preps)
            want = db_model.solve_chain_batch(circuit.db_blocks, every, preps)
            for field in ("output", "bloch", "residual", "degenerate"):
                g, w = getattr(got, field), getattr(want, field)
                assert g.shape == w.shape and g.dtype == w.dtype, (field, len(preps))
                assert g.tobytes() == w.tobytes(), (field, preps.alpha2, preps.theta)

    def test_only_identity_locals_are_skipped(self):
        assert [g is None for g in mixed_locals_spec().circuit.db_locals] == [False, True, False]
        circuit = scenario.named_scenario("chained_cnot_hadamard").circuit
        assert [g is None for g in circuit.db_locals] == [True, False, False]

    def test_unconjugated_state_still_checked_with_its_message(self, monkeypatch):
        # the prepared states enter cnot's block with no local applied; a NaN
        # row is refused too, with no numpy warning (warnings are errors here)
        circuit = scenario.named_scenario("cnot").circuit
        for row, norm in (([1.0, 0.6, 0.6, 0.6], "1.039"), ([1.0, np.nan, 0.0, 0.0], "nan")):
            monkeypatch.setattr(Preparations, "pauli_expectations",
                                property(lambda self, row=row: np.array([row])))
            with pytest.raises(QlinalgError, match=f"Bloch vector norm {norm}"):
                db_model.solve_chain_batch(circuit.db_blocks, circuit.db_locals,
                                           Preparations(0.5, 0.0))

    def test_output_held_to_the_bloch_ball(self):
        # |0><0| scaled past the sphere by a local with no block after it: only
        # the output check sees it, at BLOCH_BALL, not at BlochVector's bound
        def stretched(scale):
            return db_model.solve_chain_batch((), (np.diag([1.0, scale, scale, scale]),),
                                              Preparations(1.0, 0.0))

        assert stretched(1.0 + 1e-12).bloch.tolist() == [[0.0, 0.0, 1.0 + 1e-12]]
        with pytest.raises(QlinalgError, match="Bloch vector norm 1.0000000001 exceeds 1"):
            stretched(1.0 + 1e-10)


def outcome(run):
    """What run returns, or the ctcsim error it raises."""
    try:
        return run()
    except CtcsimError as exc:
        return exc


class TestDenseChain:
    """The chain on Pauli traces against the chain on 2x2 matrices it
    replaced (helpers.solve_chain_dense), row by row."""

    LOCALS = ("i2", "h", "s", "x", "y", "z")

    @staticmethod
    def preparations(rng) -> Preparations:
        """alpha2 in {0, 1, 1e-300} with theta = +0.0 and -0.0, and four random pairs."""
        alpha2 = np.concatenate([[0.0, 1.0, 1e-300] * 2, rng.uniform(0.0, 1.0, 4)])
        theta = np.concatenate([[0.0] * 3 + [-0.0] * 3, rng.uniform(-np.pi, np.pi, 4)])
        return Preparations(alpha2, theta)

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_random_clifford_chains(self, count):
        rng = np.random.default_rng(count)
        for _ in range(200):
            blocks = tuple(scenario.BlockSpec(SWAP @ cli._random_clifford(rng))
                           for _ in range(count))
            local_names = tuple(str(n) for n in rng.choice(self.LOCALS, count + 1))
            circuit = scenario.compile_circuit(blocks, local_names)
            preps = self.preparations(rng)
            got = outcome(lambda: db_model.solve_chain_batch(circuit.db_blocks,
                                                             circuit.db_locals, preps))
            want = outcome(lambda: solve_chain_dense([b.u for b in blocks],
                                                     [local_gate(n)[0] for n in local_names],
                                                     preps))
            if isinstance(want, CtcsimError) or isinstance(got, CtcsimError):
                assert type(got) is type(want), (got, want)
                continue
            assert np.max(np.abs(got.bloch - want.bloch)) <= 1e-14
            assert not np.signbit(got.bloch[got.bloch == 0.0]).any()  # as the dense readout
            assert np.max(np.abs(got.output - want.output)) <= 1e-14
            # the dense trip's residual is its own rounding: a 4x4 conjugation and a
            # partial trace of a 20-gate Clifford word's rounded entries, 16 eps at most
            assert np.max(np.abs(got.residual - want.residual)) <= 16 * np.finfo(float).eps
            assert np.array_equal(got.degenerate, want.degenerate)

    @pytest.mark.parametrize("entry", [(1, 0, 2, 3), (0, 3, 1, 0)])
    def test_corrupted_slice_fails_the_dense_check(self, entry):
        # entry (k, l, i, j) of R: (1, 0, ...) is in the output slice, (0, 3, ...) in the loop slice
        u = SWAP @ CNOT
        transfer = db_model.interaction_transfer(u).copy()
        transfer[entry] += 1e-9
        with pytest.raises(EngineError, match="miss the dense loop trip by 1.000e-09"):
            db_model.block_slices(u, transfer)


class TestNonlinearity:
    def test_mixture_of_outputs_differs_from_output_of_mixture(self):
        # inputs |0><0| and |1><1| each scatter to |0><0|, but their mixture
        # scatters to I/2: the composed map cannot be linear
        out_a = solve_fixed_point(U_CNOT_SWAP, PureStateParams.from_alpha2(1.0).density()).output
        out_b = solve_fixed_point(U_CNOT_SWAP, PureStateParams.from_alpha2(0.0).density()).output
        mixture_of_outputs = 0.5 * (out_a + out_b)
        output_of_mixture = solve_fixed_point(U_CNOT_SWAP, I2 / 2).output
        assert trace_distance(mixture_of_outputs, output_of_mixture) > 1e-3

