import numpy as np
import pytest
from hypothesis import settings

import rollwin as rw

# One profile for every run: no per-example deadline (timings on a shared
# host swing 2x) and a fixed example sequence, so a run repeats exactly.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def toy_config():
    return rw.PRESET_TOY


@pytest.fixture(scope="session")
def toy_weights(toy_config):
    return rw.init_random(toy_config, 42)


def random_tokens(n, seed, vocab=256):
    rng = np.random.default_rng(seed)
    return [int(t) for t in rng.integers(0, vocab, size=n)]
