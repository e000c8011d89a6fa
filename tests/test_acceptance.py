"""End-to-end acceptance checks, one test per shipping criterion.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion
with the measured quantity behind the verdict.
"""

import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import rollwin as rw
from conftest import subprocess_env

TOY = rw.PRESET_TOY  # dim 64, 4 layers, 4 heads, 2 kv heads, W=8, vocab 256


def verdict(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} - {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_01_oracle_equivalence():
    weights = rw.init_random(TOY, 42)
    tokens = [int(t) for t in np.random.default_rng(42).integers(0, TOY.vocab_size, size=64)]
    started = time.perf_counter()
    session = rw.GenerationSession(weights)
    engine = np.stack([session.forward_decode(t) for t in tokens])
    oracle = rw.oracle_forward_swa(weights, TOY, tokens)
    elapsed = time.perf_counter() - started
    err = float(np.max(np.abs(engine - oracle)))
    verdict(
        "criterion 1 oracle equivalence",
        err <= 1e-5 and elapsed < 10.0,
        f"max |dlogit| {err:.2e} over 64 steps in {elapsed:.2f}s",
    )


def test_criterion_02_vanilla_degeneracy():
    weights = rw.init_random(TOY, 42)
    tokens = [int(t) for t in np.random.default_rng(2).integers(0, TOY.vocab_size, size=8)]
    session = rw.GenerationSession(weights)
    engine = np.stack([session.forward_decode(t) for t in tokens])
    causal = rw.oracle_forward_causal(weights, TOY, tokens)
    err = float(np.max(np.abs(engine - causal)))
    verdict("criterion 2 vanilla degeneracy", err <= 1e-5, f"max |dlogit| {err:.2e} at L=8<=W")


def test_criterion_03_chunked_prefill():
    weights = rw.init_random(TOY, 42)
    rng = np.random.default_rng(3)
    worst = 0.0
    states_ok = True
    for length in (1, 7, 8, 9, 24, 26):
        prompt = [int(t) for t in rng.integers(0, TOY.vocab_size, size=length)]
        chunked = rw.GenerationSession(weights)
        chunked_logits = chunked.prefill(prompt)
        stepped = rw.GenerationSession(weights)
        for t in prompt:
            stepped_logits = stepped.forward_decode(t)
        worst = max(worst, float(np.max(np.abs(chunked_logits - stepped_logits))))
        for a, b in zip(chunked.caches, stepped.caches):
            if list(a.retained_positions()) != list(b.retained_positions()):
                states_ok = False
    verdict(
        "criterion 3 chunked prefill",
        worst <= 1e-6 and states_ok,
        f"max |dlogit| {worst:.2e} over lengths 1/7/8/9/24/26, retained sets identical",
    )


def test_criterion_04_cache_bound():
    weights = rw.init_random(TOY, 42)
    tokens = [int(t) for t in np.random.default_rng(4).integers(0, TOY.vocab_size, size=64)]
    session = rw.GenerationSession(weights)
    for t in tokens:
        session.forward_decode(t)
    rolling_entries = {c.filled for c in session.caches}
    _, history = rw.run_swa_with_history(weights, TOY, tokens)
    oracle_entries = {keys.shape[1] for keys, _ in history}
    ratio = 64 / TOY.window_size
    verdict(
        "criterion 4 cache bound",
        rolling_entries == {8} and oracle_entries == {64} and ratio == 8.0,
        f"rolling {sorted(rolling_entries)} entries/layer vs oracle {sorted(oracle_entries)}, ratio {ratio}",
    )


def test_criterion_05_receptive_field():
    config = replace(TOY, n_layers=2, window_size=4)
    weights = rw.init_random(config, 42)
    tokens = [int(t) for t in np.random.default_rng(5).integers(0, config.vocab_size, size=12)]
    affected = rw.reach_probe(weights, tokens, 0)
    verdict(
        "criterion 5 receptive field",
        affected == list(range(7)),
        f"positions affected by probing 0: {affected} (boundary 2*(4-1)=6, position 7 untouched)",
    )


def test_criterion_06_operation_count_ratio():
    swa = rw.score_pair_count(16384, 4096)
    full = rw.full_pair_count(16384)
    exhaustive_ok = True
    for window in range(1, 17):
        for length in range(1, 65):
            mask = rw.build_swa_mask(range(length), range(length), window)
            if int(mask.sum()) != rw.score_pair_count(length, window):
                exhaustive_ok = False
    verdict(
        "criterion 6 operation-count ratio",
        full == 134_225_920 and swa == 58_722_304 and full / swa >= 2.0 and exhaustive_ok,
        f"full {full} / windowed {swa} = {full / swa:.3f}, mask enumeration matches for L<=64, W<=16",
    )


def test_criterion_07_gqa_degeneracy():
    rng = np.random.default_rng(5)
    n_heads, n_tokens, head_dim = 4, 6, 8
    q = (rng.standard_normal((n_heads, n_tokens, head_dim)) * 0.5).astype(np.float32)
    k = (rng.standard_normal((n_heads, n_tokens, head_dim)) * 0.5).astype(np.float32)
    v = (rng.standard_normal((n_heads, n_tokens, head_dim)) * 0.5).astype(np.float32)
    mask = rw.build_swa_mask(range(n_tokens), range(n_tokens), window=3)
    out = rw.gqa_attend(q, k, v, mask)
    reference = np.empty_like(out, dtype=np.float64)
    for h in range(n_heads):
        scores = q[h].astype(np.float64) @ k[h].astype(np.float64).T / np.sqrt(head_dim)
        scores = np.where(mask, scores, -np.inf)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = np.where(mask, weights, 0.0)
        weights /= weights.sum(axis=-1, keepdims=True)
        reference[h] = weights @ v[h].astype(np.float64)
    err = float(np.max(np.abs(out - reference)))
    verdict("criterion 7 gqa degeneracy", err <= 1e-6, f"max |d| {err:.2e} vs plain multi-head baseline")


def test_criterion_08_parameter_count():
    production = rw.parameter_count(rw.PRESET_7B)
    toy_allocated = sum(t.size for _, t in rw.init_random(TOY, 0).named_tensors())
    ok = (
        production == 7_241_732_096
        and 7.0e9 <= production <= 7.5e9
        and toy_allocated == rw.parameter_count(TOY)
    )
    verdict(
        "criterion 8 parameter count",
        ok,
        f"7B preset {production:,}; toy formula {rw.parameter_count(TOY):,} == allocated {toy_allocated:,}",
    )


def test_criterion_09_rolling_slot_law():
    rng = np.random.default_rng(9)
    failures = 0
    for case in range(200):
        capacity = int(rng.choice([1, 2, 3, 4, 8]))
        length = int(rng.integers(1, 129))
        cache = rw.RollingKvCache(2, capacity, 4)
        log = []
        for pos in range(length):
            k = rng.standard_normal((2, 4), dtype=np.float32)
            v = rng.standard_normal((2, 4), dtype=np.float32)
            cache.append(pos, k, v)
            log.append((pos, k, v))
        view = cache.window_view()
        tail = log[-min(length, capacity):]
        same = [p for p, _, _ in view] == [p for p, _, _ in tail] and all(
            np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
            for a, b in zip(view, tail)
        )
        failures += 0 if same else 1
    verdict(
        "criterion 9 rolling slot law",
        failures == 0,
        f"200 randomized append sequences match the unbounded log ({failures} failures)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    cfg_path = tmp_path / "toy.json"
    cfg_path.write_text(rw.config_to_json(TOY))
    argv = [
        sys.executable, "-m", "rollwin", "generate", "--random-init", "--seed", "42",
        "--config", str(cfg_path), "--prompt-ids", "1 2 3", "--max-tokens", "8", "--greedy",
    ]
    first = subprocess.run(argv, capture_output=True, env=subprocess_env())
    second = subprocess.run(argv, capture_output=True, env=subprocess_env())
    reports = []
    for run in (first, second):
        report = json.loads(run.stderr.decode().strip().splitlines()[-1])
        report.pop("wall_time")
        report.pop("tokens_per_second")  # derived from wall_time
        reports.append(report)
    ok = (
        first.returncode == second.returncode == 0
        and first.stdout == second.stdout
        and reports[0] == reports[1]
    )
    verdict(
        "criterion 10 determinism",
        ok,
        f"identical stdout ({first.stdout.decode().strip()!r}) and reports modulo wall_time",
    )
