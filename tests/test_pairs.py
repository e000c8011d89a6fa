"""`tools/pairs.py`: its summaries recompute the committed BENCH files from
their `runs`, its decision rule claims a gain only as it states and only
for the claimed metric, its call counts of a decode step are exact, its bit
check names each part whose digest differs and holds it to the change's
declared moves, and every recorded `bits` section differs in exactly its
declared parts."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rollwin as rw

ROOT = Path(__file__).resolve().parent.parent
BENCH = {path.name: json.loads(path.read_text()) for path in ROOT.glob("BENCH_*.json")}
DRIVER_FILES = sorted(name for name, report in BENCH.items() if report.get("protocol", "").startswith("tools/pairs.py"))


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def recorded_metrics(name):
    for workload, entry in BENCH[name]["workloads"].items():
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
    # The driver rounds the runs before it summarises them. A file that
    # records a `claim` (BENCH_37 on) reads a gain for that metric alone;
    # older files read the rule for every metric and keep those claims.
    for name in DRIVER_FILES:
        report, gains = BENCH[name], []
        for workload, metric, figures in recorded_metrics(name):
            claimed = report["claim"] == f"{workload} {metric}" if "claim" in report else True
            compared = pairs.compare(figures["runs"], figures["better"], figures["bound"], claimed)
            assert {key: figures[key] for key in compared} == compared, (name, workload, metric)
            gains += [f"{workload} {metric}"] if compared["gain"] else []
        assert report["claims"] == gains, name


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
        verdict = pairs.compare({"parent": [100.0], "change": [150.0]}, "lower", 0.2)  # 50% worse, bound 20%
        assert verdict["change_better_pairs"] == 0 and not verdict["regression"]

    def test_direction_follows_the_metric(self, pairs):
        change = [110] * 10
        assert pairs.compare(ten_pairs(self.PARENT, change), "higher", 0.2)["gain"]
        assert not pairs.compare(ten_pairs(self.PARENT, change), "lower", 0.2)["gain"]

    def test_worse_by_more_than_the_bound_is_a_regression(self, pairs):
        assert pairs.compare(ten_pairs(self.PARENT, [125] * 10), "lower", 0.2)["regression"]
        assert not pairs.compare(ten_pairs(self.PARENT, [115] * 10), "lower", 0.2)["regression"]
        assert pairs.compare(ten_pairs(self.PARENT, [75] * 10), "higher", 0.2)["regression"]

    def test_a_metric_not_claimed_reads_no_gain(self, pairs):
        verdict = pairs.compare(ten_pairs(self.PARENT, [90] * 10), "lower", 0.2, claimed=False)
        assert (verdict["change_better_pairs"], verdict["gain"]) == (10, False)
        assert pairs.compare(ten_pairs(self.PARENT, [125] * 10), "lower", 0.2, claimed=False)["regression"]

    def test_identical_runs_claim_nothing(self, pairs):
        verdict = pairs.compare(ten_pairs(self.PARENT, self.PARENT), "lower", 0.2)
        assert (verdict["change_better_pairs"], verdict["gain"], verdict["median_change"]) == (0, False, 0.0)


def test_the_split_medians_recompute_from_the_recorded_processes(pairs):
    for name in DRIVER_FILES[DRIVER_FILES.index("BENCH_31.json"):]:  # the split times lockstep steps since BENCH_31
        split = BENCH[name]["decode_step_split"]
        for side in ("parent", "change"):
            assert pairs.split_medians(split["runs"][side]) == split[side], (name, side)
            assert set(split[side]["lockstep_us"]) == {str(streams) for streams in pairs.LOCKSTEP}


def test_the_split_spread_recomputes_from_the_recorded_processes(pairs):
    for name in DRIVER_FILES[DRIVER_FILES.index("BENCH_33.json"):]:  # and records its spread since BENCH_33
        split = BENCH[name]["decode_step_split"]
        for side in ("parent", "change"):
            summary = pairs.summary([e["step_us"] for e in split["runs"][side]])
            assert summary == split["step_us_spread"][side], (name, side)


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


def test_differs_names_each_config_and_part_that_moved(pairs):
    parent = {"configs": {"toy": {"engine": "a", "oracle": "b"}, "paper": {"engine": "c", "verify": "d"}}}
    change = {"configs": {"toy": {"engine": "a", "oracle": "B"}, "paper": {"engine": "C", "verify": "d"}}}
    assert pairs.differs(parent, parent) == []
    assert pairs.differs(parent, change) == ["paper: engine", "toy: oracle"]


def test_a_declaration_holds_only_against_its_parent(pairs):
    declaration = {"parent_src": "a" * 40, "moves": ["toy: verify", "desk: caches"], "why": "a layout change"}
    assert pairs.declared(declaration, "a" * 40) == ["desk: caches", "toy: verify"]
    assert pairs.declared(declaration, "b" * 40) == []
    assert pairs.declared(None, "a" * 40) == []


def test_the_bits_must_move_exactly_as_declared(pairs):
    def bits(declared, default, baseline):
        return {"declared": declared, "default": {"differs": default}, "baseline": {"differs": baseline}}
    assert pairs.off_declaration(bits([], [], [])) == []
    assert pairs.off_declaration(bits(["toy: caches"], ["toy: caches"], ["toy: caches"])) == []
    assert pairs.off_declaration(bits([], ["toy: logits"], [])) == ["default"]  # an undeclared move
    assert pairs.off_declaration(bits(["toy: caches"], ["toy: caches"], [])) == ["baseline"]  # one that did not move
    assert pairs.off_declaration(bits(["toy: caches"], ["toy: caches", "toy: logits"], ["toy: caches"])) == ["default"]


def test_the_committed_declaration_names_digested_parts():
    spec = importlib.util.spec_from_file_location("bitdigest", ROOT / "tools" / "bitdigest.py")
    bitdigest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bitdigest)
    declaration = json.loads((ROOT / "tools" / "moved_bits.json").read_text())
    assert len(declaration["parent_src"]) == 40 and declaration["why"]
    for move in declaration["moves"]:
        config, _, part = move.partition(": ")
        assert config in bitdigest.CONFIGS and part in {"logits", "caches", "oracle", "verify", "verify_exit"}, move


@pytest.mark.parametrize("name", [name for name in DRIVER_FILES if "bits" in BENCH[name]])
def test_recorded_bits_are_equal_at_both_levels(name):
    # Equal but for the parts the change declared it moves (none before BENCH_37).
    bits = BENCH[name]["bits"]
    declared = bits.get("declared", [])
    assert bits["baseline"]["NPY_DISABLE_CPU_FEATURES"] and bits["baseline"]["cpu_dispatch_enabled"] == []
    for level in ("default", "baseline"):
        assert bits[level]["differs"] == declared, level
        assert (bits[level]["change"] == bits[level]["parent"]) == (not declared), level
