import gc
import os
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir


def pytest_configure(config):
    """Keep hypothesis's own caches (its constants and character tables),
    which it writes from collection on, in a directory that lives as long as
    the session, not in a .hypothesis/ of the working directory.  Where
    HYPOTHESIS_STORAGE_DIRECTORY is set, hypothesis uses that directory and
    this hook leaves it alone: an explicit home would override it."""
    if os.environ.get("HYPOTHESIS_STORAGE_DIRECTORY"):
        return
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    config.add_cleanup(lambda: set_hypothesis_home_dir(None))
    set_hypothesis_home_dir(home.name)


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
