"""Frame covariance of the density-matrix engine.

Seen through a one-qubit Clifford V -- every block conjugated by V x V,
every local gate by V, every preparation rotated -- a circuit's output is
the same state seen through V: its Bloch vector is R_V times the old one.
Deutsch's fixed point is covariant, and so is its maximum-entropy member,
since a unitary keeps the entropy; so whether a block is degenerate does
not change either.  helpers.rotate_frame applies the rotation.
"""

import numpy as np
import pytest

from ctcsim import cli, scenario
from ctcsim.qlinalg import CZ, HADAMARD, I2, SWAP, Preparations
from ctcsim.scenario import BlockSpec, CircuitSpec
from helpers import bloch_rotation, local_gate, local_image, one_qubit_cliffords, rotate_frame

FRAMES = one_qubit_cliffords()
LOCAL_NAMES = ("i2", "h", "x", "y", "z", "s")


def test_frames_are_the_clifford_group():
    # 24 distinct signed permutations of the axes, each a rotation
    rotations = {bloch_rotation(v).tobytes() for v in FRAMES}
    assert len(FRAMES) == len(rotations) == 24
    assert all(np.linalg.det(bloch_rotation(v)) == 1.0 for v in FRAMES)


def assert_covariant(spec: CircuitSpec, preps: Preparations, frames) -> int:
    """Check spec on preps against its image in each frame that keeps its
    local gates named; return how many frames did."""
    want = scenario.evaluate_db(spec, preps)
    checked = 0
    for v in frames:
        rotated = rotate_frame(v, spec, preps)
        if rotated is None:
            continue
        got = scenario.evaluate_db(*rotated)
        np.testing.assert_allclose(got.bloch, want.bloch @ bloch_rotation(v).T, rtol=0,
                                   atol=1e-12)
        assert got.degenerate.tolist() == want.degenerate.tolist()
        checked += 1
    return checked


def seeded_preparations(rng: np.random.Generator, n: int = 8) -> Preparations:
    return Preparations(rng.uniform(0.0, 1.0, n), rng.uniform(-np.pi, np.pi, n))


def random_circuit(rng: np.random.Generator, blocks: int, local_gates=None) -> CircuitSpec:
    """blocks random Clifford blocks, as conjecture-check draws them, with
    the local gates given or drawn at random."""
    if local_gates is None:
        local_gates = tuple(rng.choice(LOCAL_NAMES, blocks + 1))
    return CircuitSpec(scenario.DEFAULT_PREP,
                       tuple(BlockSpec(SWAP @ cli._random_clifford(rng)) for _ in range(blocks)),
                       local_gates)


@pytest.mark.parametrize("blocks, local_gates, seed", [
    (1, ("i2", "i2"), 0), (1, None, 1), (2, None, 2), (2, ("i2",) * 3, 3)])
def test_random_circuits_are_covariant(blocks, local_gates, seed):
    # a seeded sample of circuits, each in six seeded frames of the group;
    # every frame keeps identity locals named
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(24):
        spec = random_circuit(rng, blocks, local_gates)
        frames = [FRAMES[k] for k in rng.choice(len(FRAMES), 6, replace=False)]
        checked += assert_covariant(spec, seeded_preparations(rng), frames)
    assert checked >= 24


def test_degenerate_block_is_covariant(rng):
    # U_bar = CZ H2 CZ H1 CZ H2, rightmost first: a degenerate block, whose
    # maximum-entropy member must follow the frame too
    h1, h2 = np.kron(HADAMARD, I2), np.kron(I2, HADAMARD)
    spec = CircuitSpec(scenario.DEFAULT_PREP, (BlockSpec(SWAP @ CZ @ h2 @ CZ @ h1 @ CZ @ h2),),
                       ("i2", "i2"))
    preps = seeded_preparations(rng)
    assert scenario.evaluate_db(spec, preps).degenerate.all()
    assert assert_covariant(spec, preps, FRAMES) == 24


@pytest.mark.parametrize("name, frames", [("cz", 24), ("cnot", 24),
                                          ("chained_cnot_hadamard", 4)])
def test_named_scenarios_are_covariant(rng, name, frames):
    # every frame keeps i2 named; four keep h: those that map its axis,
    # (x + z) / sqrt(2), to itself or its negative
    preps = seeded_preparations(rng)
    assert assert_covariant(scenario.named_scenario(name), preps, FRAMES) == frames


# The named image of each local gate under the Pauli, H and S frames,
# V L V^dag up to phase; a local not listed has no named image there.
LOCAL_IMAGES = {
    "h": {"i2": "i2", "h": "h", "y": "y", "x": "z", "z": "x"},
    "s": {"i2": "i2", "z": "z", "s": "s", "x": "y", "y": "x"},
    "x": {"i2": "i2", "x": "x", "y": "y", "z": "z"},
    "y": {"i2": "i2", "x": "x", "y": "y", "z": "z", "h": "h"},  # Y H Y = -H
    "z": {"i2": "i2", "x": "x", "y": "y", "z": "z", "s": "s"},
}


@pytest.mark.parametrize("frame", sorted(LOCAL_IMAGES))
def test_local_images(frame):
    v = local_gate(frame)[0]
    assert ({name: local_image(v, name) for name in LOCAL_NAMES}
            == {name: LOCAL_IMAGES[frame].get(name) for name in LOCAL_NAMES})
