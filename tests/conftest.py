import importlib.util
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

import rollwin as rw
from rollwin import attention, cache, cli, config, model, oracle, tensor, weights

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


#: Narrow and deep: influence shrinks so fast per layer that a float nudge
#: of input 0 can leave the boundary output's logits bit for bit unchanged.
FAINT_BOUNDARY = rw.ModelConfig(
    dim=8, n_layers=4, head_dim=4, hidden_dim=24, n_heads=2, n_kv_heads=1,
    window_size=2, context_len=64, vocab_size=32,
)


#: Tolerance of a float32 kernel against its float64 mistral-src reference,
#: as both atol and rtol: a few float32 roundings of unit-scale values.
KERNEL_TOL = 1e-5


def random_tokens(n, seed, vocab=256):
    rng = np.random.default_rng(seed)
    return [int(t) for t in rng.integers(0, vocab, size=n)]


def assert_same_state(a, b):
    """Sessions a and b hold the same position and cache contents."""
    assert a.next_position == b.next_position
    for ca, cb in zip(a.caches, b.caches):
        assert ca.next_position == cb.next_position
        assert np.array_equal(ca.keys, cb.keys)
        assert np.array_equal(ca.values, cb.values)


def subprocess_env():
    """The environment for a `python -m rollwin` child: this checkout's
    package first on PYTHONPATH, whatever put it on the test's sys.path."""
    src = str(Path(rw.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


#: The engine modules, as the benchmark hands them to its workloads.
ENGINE_MODULES = SimpleNamespace(
    tensor=tensor, attention=attention, cache=cache, config=config,
    model=model, oracle=oracle, weights=weights, cli=cli,
)


def load_perfbench(name):
    """Load `perfbench/<name>.py` as it is, by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module
