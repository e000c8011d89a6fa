"""`tools/pairs.py`: its summaries recompute the committed BENCH files from
their `runs`, its decision rule claims a gain only as it states, and its
call counts of a decode step are exact."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import rollwin as rw

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def recorded_metrics(name):
    for workload, entry in json.loads((ROOT / name).read_text())["workloads"].items():
        for metric, figures in entry["end_to_end"].items():
            yield workload, metric, figures


# These files summarised unrounded runs and recorded both rounded to 6
# decimals, so a recomputed figure may differ by one in the last place.
@pytest.mark.parametrize("name", ["BENCH_18.json", "BENCH_19.json", "BENCH_21.json"])
def test_summaries_recompute_from_the_recorded_runs(pairs, name):
    checked = 0
    for workload, metric, figures in recorded_metrics(name):
        for side in ("parent", "change"):
            expected = pairs.summary(figures["runs"][side])
            for key, value in figures[side].items():
                assert value == pytest.approx(expected[key], abs=1.5e-6), (workload, metric, side, key)
                checked += 1
        compared = pairs.compare(figures["runs"], figures["better"], figures.get("bound", 0.2))
        assert compared["change_better_pairs"] == figures["change_better_pairs"], (workload, metric)
        if "median_change" in figures:
            assert compared["median_change"] == pytest.approx(figures["median_change"], abs=1.5e-4)
        checked += 1
    assert checked >= 100


def test_the_drivers_own_file_recomputes_exactly(pairs):
    # The driver rounds the runs before it summarises them.
    for name in ("BENCH_27.json", "BENCH_28.json"):
        for workload, metric, figures in recorded_metrics(name):
            compared = pairs.compare(figures["runs"], figures["better"], figures["bound"])
            assert {key: figures[key] for key in compared} == compared, (name, workload, metric)


def ten_pairs(parent, change):
    return {"parent": [float(v) for v in parent], "change": [float(v) for v in change]}


class TestDecisionRule:
    PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_nine_of_ten_better_beyond_the_iqr_is_a_gain(self, pairs):
        change = [90] * 9 + [103]
        verdict = pairs.compare(ten_pairs(self.PARENT, change), "lower", 0.2)
        assert (verdict["change_better_pairs"], verdict["gain"], verdict["regression"]) == (9, True, False)

    def test_eight_of_ten_is_no_gain(self, pairs):
        change = [90] * 8 + [103, 103]
        assert not pairs.compare(ten_pairs(self.PARENT, change), "lower", 0.2)["gain"]

    def test_a_gap_inside_the_parents_iqr_is_no_gain(self, pairs):
        change = [v - 0.5 for v in self.PARENT]  # better in every pair, by less than the IQR
        verdict = pairs.compare(ten_pairs(self.PARENT, change), "lower", 0.2)
        assert verdict["change_better_pairs"] == 10 and not verdict["gain"]

    def test_fewer_than_ten_pairs_claim_nothing(self, pairs):
        verdict = pairs.compare({"parent": [100.0], "change": [50.0]}, "lower", 0.2)
        assert verdict["change_better_pairs"] == 1 and not verdict["gain"]

    def test_direction_follows_the_metric(self, pairs):
        change = [110] * 10
        assert pairs.compare(ten_pairs(self.PARENT, change), "higher", 0.2)["gain"]
        assert not pairs.compare(ten_pairs(self.PARENT, change), "lower", 0.2)["gain"]

    def test_worse_by_more_than_the_bound_is_a_regression(self, pairs):
        assert pairs.compare(ten_pairs(self.PARENT, [125] * 10), "lower", 0.2)["regression"]
        assert not pairs.compare(ten_pairs(self.PARENT, [115] * 10), "lower", 0.2)["regression"]
        assert pairs.compare(ten_pairs(self.PARENT, [75] * 10), "higher", 0.2)["regression"]

    def test_identical_runs_claim_nothing(self, pairs):
        verdict = pairs.compare(ten_pairs(self.PARENT, self.PARENT), "lower", 0.2)
        assert (verdict["change_better_pairs"], verdict["gain"], verdict["median_change"]) == (0, False, 0.0)


def test_two_call_counts_of_one_tree_agree(pairs):
    weights = rw.init_random(rw.PRESET_TOY, 1)
    tokens = [int(t) for t in np.random.default_rng(0).integers(0, rw.PRESET_TOY.vocab_size, 41)]
    first, second = pairs.step_calls(rw, weights, tokens), pairs.step_calls(rw, weights, tokens)
    assert first == second and first["python"] > 0 and first["c"] > 0
