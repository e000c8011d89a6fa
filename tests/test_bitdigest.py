"""`tools/bitdigest.py`: its output repeats, moves under a one-ulp fault,
and tells a change of the caches' layout from a change of the logits.

Its digests are not pinned here: the bits follow numpy's SIMD loops, which
differ between hosts and dispatch levels.
"""

import importlib.util
from pathlib import Path

import pytest

import rollwin as rw
from rollwin import cli
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
    assert faulty["configs"]["toy"]["logits"] != clean["configs"]["toy"]["logits"]
    assert faulty["digest"] != clean["digest"]


def test_caches_of_w_slots_move_only_the_caches_and_verify(bitdigest, clean, monkeypatch):
    # Caches one row longer than a query reads, as before they held W - 1
    # rows: every logit keeps its bits, the gathered rows and verify's
    # cache-bound line move, and verify still passes.
    monkeypatch.setattr(rw.model, "cache_slots", lambda window: window)
    monkeypatch.setattr(cli, "cache_slots", lambda window: window)
    faulty, parts = toy_digest(bitdigest)["configs"]["toy"], clean["configs"]["toy"]
    assert [part for part in parts if faulty[part] != parts[part]] == ["caches", "verify"]


def test_every_pinned_verify_config_is_digested(bitdigest):
    # The paper's shape included: its 32 layers carry the bit check furthest.
    assert set(GOLDEN_VERIFY) <= {tuple(flags) for flags, _ in bitdigest.CONFIGS.values() if flags is not None}
