"""`tools/bitdigest.py`: its output repeats, and moves under a one-ulp fault.

Its digests are not pinned here: the bits follow numpy's SIMD loops, which
differ between hosts and dispatch levels.
"""

import importlib.util
from pathlib import Path

import pytest

from test_cli import GOLDEN_VERIFY, ONE_ULP_FAULTS


@pytest.fixture(scope="module")
def bitdigest():
    path = Path(__file__).resolve().parent.parent / "tools" / "bitdigest.py"
    spec = importlib.util.spec_from_file_location("bitdigest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def toy_digest(bitdigest):
    return bitdigest.digest(["toy"], verify_seeds=[0])


@pytest.fixture(scope="module")
def clean(bitdigest):
    return toy_digest(bitdigest)


def test_two_runs_give_identical_output(bitdigest, clean):
    assert toy_digest(bitdigest) == clean
    assert clean["configs"]["toy"]["verify_exit"] == [0]
    assert set(clean) >= {"numpy", "cpu_dispatch", "cpu_dispatch_enabled", "digest"}


@pytest.mark.parametrize("fault", sorted(ONE_ULP_FAULTS))
def test_output_differs_under_each_one_ulp_fault(bitdigest, clean, monkeypatch, fault):
    owner, name, wrap, _ = ONE_ULP_FAULTS[fault]
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    faulty = toy_digest(bitdigest)
    # The engine's own bits move, not only verify's text.
    assert faulty["configs"]["toy"]["engine"] != clean["configs"]["toy"]["engine"]
    assert faulty["digest"] != clean["digest"]


def test_every_pinned_verify_config_is_digested(bitdigest):
    # The paper's shape included: its 32 layers carry the bit check furthest.
    assert set(GOLDEN_VERIFY) <= {tuple(flags) for flags, _ in bitdigest.CONFIGS.values() if flags is not None}
