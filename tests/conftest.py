import gc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(autouse=True)
def collector_left_running():
    """Fail a test that leaves the cyclic collector frozen or disabled, and
    restore it, so the memory and timing of the tests after it are not skewed."""
    yield
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    gc.unfreeze()
    gc.enable()
    if frozen or not enabled:
        pytest.fail(f"the test left the collector with {frozen} objects frozen"
                    f" and {'enabled' if enabled else 'disabled'}")
