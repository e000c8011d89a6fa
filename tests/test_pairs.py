"""`tools/pairs.py`: its summaries recompute the committed BENCH files from
their `runs`, its decision rule claims a gain only as it states, and its
call counts of a decode step are exact."""

import importlib.util
import json
import subprocess
import sys
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
    for name in ("BENCH_27.json", "BENCH_28.json", "BENCH_29.json", "BENCH_30.json", "BENCH_31.json",
                 "BENCH_32.json", "BENCH_33.json"):
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


def test_the_split_medians_recompute_from_the_recorded_processes(pairs):
    split = json.loads((ROOT / "BENCH_31.json").read_text())["decode_step_split"]
    for side in ("parent", "change"):
        assert pairs.split_medians(split["runs"][side]) == split[side], side
        assert set(split[side]["lockstep_us"]) == {str(streams) for streams in pairs.LOCKSTEP}


def test_the_split_spread_recomputes_from_the_recorded_processes(pairs):
    split = json.loads((ROOT / "BENCH_33.json").read_text())["decode_step_split"]
    for side in ("parent", "change"):
        assert pairs.summary([e["step_us"] for e in split["runs"][side]]) == split["step_us_spread"][side], side


def test_two_call_counts_of_one_tree_agree(pairs):
    weights = rw.init_random(rw.PRESET_TOY, 1)
    tokens = [int(t) for t in np.random.default_rng(0).integers(0, rw.PRESET_TOY.vocab_size, 41)]
    first, second = pairs.step_calls(rw, weights, tokens), pairs.step_calls(rw, weights, tokens)
    assert first == second and first["python"] > 0 and first["c"] > 0


def test_the_stage_split_times_every_stage(pairs, tmp_path):
    # Only `--split` runs the split otherwise, so a stage renamed in the engine
    # would surface only when a BENCH file is recorded.
    command = [sys.executable, str(ROOT / "tools" / "pairs.py"), "--stage-split", str(Path(rw.__file__).parent.parent),
               str(tmp_path / "toy.mwdc")]
    split = json.loads(subprocess.run(command, check=True, capture_output=True, text=True).stdout)
    assert set(split["stages_us"]) == {name for _, _, name in pairs.STAGES}
    assert all(us > 0 for us in split["stages_us"].values()) and split["step_us"] > 0
    assert set(split["lockstep_us"]) == {str(streams) for streams in pairs.LOCKSTEP}
    assert all(us > 0 for us in split["lockstep_us"].values())
    assert split["calls_per_step"]["python"] > 0 and split["calls_per_step"]["c"] > 0
