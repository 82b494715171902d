"""Compile once, evaluate the whole grid.

A circuit is compiled once per process, whatever the grid size, preparation
or overlap, by scenario.compile_circuit, keyed by the circuit's value: one
transfer matrix per distinct block, and one back-propagation per block and
axis.  So a sweep, its one-point cases run and compare, and repeated
compares compile only on a circuit's first use.  An N-point
evaluation gives the records of N one-point evaluations, bit for bit, and
its density-matrix components agree with the plain-iteration oracle.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcsim import cli, db_model, heisenberg_model, scenario
from ctcsim.db_model import FixedPointError, solve_fixed_point
from ctcsim.heisenberg_model import TimeDistribution
from ctcsim.qlinalg import SWAP, Preparations, PureStateParams
from ctcsim.scenario import BlockSpec, CircuitSpec
from helpers import bloch_from_density, local_gate, random_params

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
AXES = 3


class TestCompileOnce:
    # The fixture empties the compile cache, so a test's first command
    # compiles its circuit.  Both configs' blocks are cnot_swap: one distinct
    # block, whose transfer matrix serves every block of the circuit.
    CNOT = "prep.alpha2 = 0.75\nblock = cnot_swap\n"
    CIRCUITS = pytest.mark.parametrize("circuit, blocks", [("cnot", 1), ("chained", 2)])
    DISTINCT = 1

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"backpropagate_block": 0, "interaction_transfer": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(heisenberg_model, "backpropagate_block")
        counted(db_model, "interaction_transfer")
        scenario.compile_circuit.cache_clear()  # circuits from earlier tests
        return calls

    def config(self, tmp_path, circuit):
        if circuit == "chained":
            return str(CONFIGS / "chained.cfg")
        config = tmp_path / "cnot.cfg"
        config.write_text(self.CNOT)
        return str(config)

    @pytest.mark.parametrize("steps", [11, 1001])
    @CIRCUITS
    def test_sweep_compiles_each_block_once(self, tmp_path, calls, capsys,
                                            circuit, blocks, steps):
        assert cli.main(["sweep", "--config", self.config(tmp_path, circuit), "alpha2", "0", "1",
                         str(steps), "--model", "both", "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * steps
        assert calls == {"backpropagate_block": blocks * AXES,
                         "interaction_transfer": self.DISTINCT}

    @pytest.mark.parametrize("command", ["run", "compare"])
    @CIRCUITS
    def test_one_point_command_compiles_each_block_once(self, tmp_path, calls, capsys,
                                                        circuit, blocks, command):
        assert cli.main([command, "--config", self.config(tmp_path, circuit),
                         "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2
        assert calls == {"backpropagate_block": blocks * AXES,
                         "interaction_transfer": self.DISTINCT}

    def test_repeated_compares_back_propagate_once_per_circuit(self, calls, rng):
        # 150 compares, the three named scenarios in turn, each at its own
        # preparation: only the first compare of a circuit back-propagates
        names = scenario.scenario_names()
        per_circuit = dict.fromkeys(names, 0)
        for n in range(150):
            before = calls["backpropagate_block"]
            scenario.compare(scenario.named_scenario(names[n % 3], random_params(rng)))
            per_circuit[names[n % 3]] += calls["backpropagate_block"] - before
        assert per_circuit == {"cz": AXES, "cnot": AXES, "chained_cnot_hadamard": 2 * AXES}

    def test_repeated_compares_resolve_each_circuits_inputs_once(self, calls, rng,
                                                                 monkeypatch):
        # the HeisenbergCircuit is built once per circuit, and every compare
        # of a circuit hands the chain the same (u, loop) pairs and local gates
        built, chains = [], []
        heisenberg_circuit, solve_chain_batch = scenario.heisenberg_circuit, db_model.solve_chain_batch

        def building(blocks, local_gates, transfers):
            built.append(local_gates)
            return heisenberg_circuit(blocks, local_gates, transfers)

        def chaining(blocks, local_gates, preps):
            chains.append((blocks, local_gates))
            return solve_chain_batch(blocks, local_gates, preps)

        monkeypatch.setattr(scenario, "heisenberg_circuit", building)
        monkeypatch.setattr(db_model, "solve_chain_batch", chaining)
        names = scenario.scenario_names()
        for n in range(150):
            scenario.compare(scenario.named_scenario(names[n % 3], random_params(rng)))
        assert built == [scenario.named_scenario(name).local_gates for name in names]
        for n, (blocks, local_gates) in enumerate(chains):
            assert blocks is chains[n % 3][0] and local_gates is chains[n % 3][1]
        assert calls["backpropagate_block"] == 4 * AXES  # as in the test above

    @CIRCUITS
    def test_config_parsed_anew_compiles_once_per_command(self, tmp_path, calls, capsys,
                                                          monkeypatch, circuit, blocks):
        # each command parses the config into new blocks, which equal the
        # blocks of the first command's: only that command compiles
        tables, built = [], []
        tableau_from_transfer, heisenberg_circuit = (scenario.tableau_from_transfer,
                                                     scenario.heisenberg_circuit)
        monkeypatch.setattr(scenario, "tableau_from_transfer", lambda u, transfer: (
            tables.append(u) or tableau_from_transfer(u, transfer)))
        monkeypatch.setattr(scenario, "heisenberg_circuit",
                            lambda *args: built.append(args) or heisenberg_circuit(*args))
        config = self.config(tmp_path, circuit)
        commands = [["run"], ["compare"], ["sweep", "--model", "both", "alpha2", "0", "1", "5"]]
        for command in commands * 2:
            assert cli.main([*command, "--config", config, "--format", "csv"]) == 0
            capsys.readouterr()
            assert (calls["interaction_transfer"], len(tables), len(built)) == (self.DISTINCT,
                                                                                self.DISTINCT, 1)
        assert calls["backpropagate_block"] == blocks * AXES

    def test_every_command_finds_the_one_compile_of_its_circuit(self, calls, capsys):
        # cnot's spec, which load_spec copies with the flags applied, and the
        # two-block config's, parsed anew by each command: after the first
        # command of each, run, compare and sweep only look their circuit up
        config = ["--config", str(CONFIGS / "chained.cfg")]
        commands = [["run"], ["compare"], ["sweep", "alpha2", "0", "1", "5", "--model", "both"]]
        for command in commands * 2:
            for argv in ([command[0], "cnot", *command[1:]], [*command, *config]):
                assert cli.main([*argv, "--format", "csv"]) == 0
        capsys.readouterr()
        info = scenario.compile_circuit.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert calls == {"backpropagate_block": 3 * AXES, "interaction_transfer": 2}

    def test_cache_keeps_a_bounded_number_of_circuits(self):
        # the one-off circuits a long conjecture-check compiles do not pile up
        assert scenario.compile_circuit.cache_info().maxsize == 1024

    def test_cached_words_serve_every_overlap(self):
        # one circuit under orthogonal, gaussian, then orthogonal overlap:
        # each evaluation equals one from freshly compiled words
        preps = Preparations(np.linspace(0, 1, 5), 0.7)
        overlaps = [TimeDistribution.orthogonal(), TimeDistribution.gaussian(0.5, 1.0),
                    TimeDistribution.orthogonal()]
        scenario.compile_circuit.cache_clear()
        got = [scenario.evaluate_heisenberg(scenario.named_scenario("cz", overlap=t), preps)
               for t in overlaps]
        info = scenario.compile_circuit.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert got[1].statuses == {"x": ["unsupported"] * 5, "y": ["unsupported"] * 5,
                                   "z": ["ok"] * 5}
        for t, batch in zip(overlaps, got):
            scenario.compile_circuit.cache_clear()
            fresh = scenario.evaluate_heisenberg(scenario.named_scenario("cz", overlap=t), preps)
            assert batch.statuses == fresh.statuses
            for axis, values in batch.values.items():
                np.testing.assert_array_equal(values, fresh.values[axis])

    def test_compiled_words_are_read_only(self):
        # and so is every array the compiled circuit holds
        circuit = scenario.named_scenario("chained_cnot_hadamard").circuit
        with pytest.raises(TypeError):
            circuit.words["x"] = "singular"
        # each block's loop and output slices, in one array, and each local's
        # transfer matrix
        arrays = [*circuit.db_blocks, *(m for m in circuit.db_locals if m is not None)]
        assert [a.shape for a in arrays] == [(4, 7, 4)] * 2 + [(4, 4)] * 2
        assert not any(a.flags.writeable for a in arrays)
        assert scenario.named_scenario("chained_cnot_hadamard").circuit.words is circuit.words


LOCALS = ("i2", "h", "s", "x", "y", "z")


@st.composite
def circuits(draw):
    """The blocks and local gates of a named scenario, or of one or two random Cliffords."""
    name = draw(st.sampled_from(["cz", "cnot", "chained_cnot_hadamard", "random", "random"]))
    if name != "random":
        spec = scenario.named_scenario(name)
        return spec.blocks, spec.local_gates
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 2))
    blocks = tuple(BlockSpec(SWAP @ cli._random_clifford(rng)) for _ in range(count))
    return blocks, tuple(draw(st.lists(st.sampled_from(LOCALS), min_size=count + 1,
                                       max_size=count + 1)))


GRIDS = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.one_of(st.floats(0, 1), st.sampled_from([0.0, 0.5, 1.0])), min_size=n,
             max_size=n),
    st.lists(st.floats(-7, 7), min_size=n, max_size=n)))


def iterate_chain(spec, p):
    """The chain's output Bloch vector by plain iteration, block by block."""
    rho = p.density()
    for gate, block in zip(spec.local_gates, spec.blocks):
        g = local_gate(gate)[0]
        rho = solve_fixed_point(block.u, g @ rho @ g.conj().T, method="iterate",
                                max_iters=5_000).output
    g = local_gate(spec.local_gates[-1])[0]
    return bloch_from_density(g @ rho @ g.conj().T).as_tuple()


@given(circuit=circuits(), grid=GRIDS)
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_batch_is_n_single_evaluations(circuit, grid):
    blocks, local_gates = circuit
    alpha2, theta = grid
    spec = CircuitSpec(scenario.DEFAULT_PREP, blocks, local_gates)
    preps = Preparations(np.array(alpha2), np.array(theta))
    db = scenario.evaluate_db(spec, preps)
    heis = scenario.evaluate_heisenberg(spec, preps)

    singles = []
    for a2, th in zip(alpha2, theta):
        one = PureStateParams(alpha2=a2, theta=th).batch
        singles += cli.records_for("p", one, scenario.evaluate_db(spec, one),
                                   scenario.evaluate_heisenberg(spec, one))
    assert repr(cli.records_for("p", preps, db, heis)) == repr(singles)

    for n, (a2, th) in enumerate(zip(alpha2, theta)):
        if db.degenerate[n]:
            continue
        try:
            want = iterate_chain(spec, PureStateParams(alpha2=a2, theta=th))
        except FixedPointError:
            continue  # iteration crawls this close to a degenerate fixed point
        assert np.max(np.abs(db.bloch[n] - want)) < 1e-8, (n, a2, th)
