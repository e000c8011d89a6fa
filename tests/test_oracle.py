import ast
import inspect
from dataclasses import replace

import numpy as np
import pytest

import rollwin as rw
import rollwin.oracle

from conftest import random_tokens


class TestForwardVariants:
    def test_swa_equals_causal_when_window_covers_sequence(self, toy_config, toy_weights):
        tokens = random_tokens(toy_config.window_size, seed=20)
        swa = rw.oracle_forward_swa(toy_weights, toy_config, tokens)
        causal = rw.oracle_forward_causal(toy_weights, toy_config, tokens)
        assert np.array_equal(swa, causal)

    def test_swa_differs_from_causal_on_long_sequences(self, toy_config):
        weights = rw.init_random(toy_config, 42)
        tokens = random_tokens(4 * toy_config.window_size, seed=42)
        swa = rw.oracle_forward_swa(weights, toy_config, tokens)
        causal = rw.oracle_forward_causal(weights, toy_config, tokens)
        # Positions inside the first window agree; later ones must not.
        window = toy_config.window_size
        assert np.array_equal(swa[: window], causal[: window])
        assert float(np.max(np.abs(swa[window:] - causal[window:]))) > 1e-7

    def test_single_token_equals_fresh_engine_step(self, toy_config, toy_weights):
        oracle = rw.oracle_forward_swa(toy_weights, toy_config, [123])
        engine = rw.GenerationSession(toy_weights).forward_decode(123)
        assert np.array_equal(oracle[0], engine)

    def test_causal_position_one_depends_on_token_zero(self, toy_config, toy_weights):
        a = rw.oracle_forward_causal(toy_weights, toy_config, [10, 11])
        b = rw.oracle_forward_causal(toy_weights, toy_config, [12, 11])
        assert float(np.max(np.abs(a[1] - b[1]))) > 1e-7

    def test_logit_shape(self, toy_config, toy_weights):
        out = rw.oracle_forward_swa(toy_weights, toy_config, [1, 2, 3])
        assert out.shape == (3, toy_config.vocab_size)
        assert np.isfinite(out).all()


def history_floats(history):
    """Scalars the oracle's per-layer K/V arrays hold."""
    return sum(keys.size + values.size for keys, values in history)


class TestHistoryAccounting:
    def test_one_row_per_layer_per_position(self, toy_config, toy_weights):
        tokens = random_tokens(9, seed=6)
        _, history = rw.run_swa_with_history(toy_weights, toy_config, tokens)
        for keys, _ in history:
            assert keys.shape[1] == len(tokens)
        for _, values in history:
            assert values.shape[1] == len(tokens)

    def test_memory_grows_linearly_with_length(self, toy_config, toy_weights):
        counts = {}
        for length in (4, 8, 16):
            _, history = rw.run_swa_with_history(toy_weights, toy_config, random_tokens(length, seed=7))
            counts[length] = history_floats(history)
        per_token = counts[4] / 4
        assert counts[8] == 8 * per_token
        assert counts[16] == 16 * per_token

    def test_history_dwarfs_rolling_cache_on_long_runs(self, toy_config, toy_weights):
        length = 8 * toy_config.window_size
        _, history = rw.run_swa_with_history(toy_weights, toy_config, random_tokens(length, seed=8))
        rolling_floats = sum(c.nbytes for c in rw.GenerationSession(toy_weights).caches) // 4
        assert history_floats(history) == 8 * rolling_floats


TAIL_CONFIGS = {
    "toy": rw.PRESET_TOY,
    "w1": replace(rw.PRESET_TOY, window_size=1),
    "w4l2": replace(rw.PRESET_TOY, window_size=4, n_layers=2),
    "w16": replace(rw.PRESET_TOY, window_size=16),
    "group1": replace(rw.PRESET_TOY, n_kv_heads=4),
    "group4": replace(rw.PRESET_TOY, n_kv_heads=1),
}


@pytest.mark.parametrize("fill", ["stepped", "prefilled"])
@pytest.mark.parametrize("name", sorted(TAIL_CONFIGS))
def test_rolling_cache_holds_the_last_window_of_the_oracle_history(name, fill):
    # Each layer's cache is exactly the last W rows of the K/V the oracle
    # computed for the same tokens, bit for bit, after decoding token by
    # token and after one prefill.
    config = TAIL_CONFIGS[name]
    weights = rw.init_random(config, 11)
    tokens = random_tokens(70, seed=12)
    session = rw.GenerationSession(weights)
    if fill == "stepped":
        for t in tokens:
            session.forward_decode(t)
    else:
        session.prefill(tokens)
    _, history = rw.run_swa_with_history(weights, config, tokens)
    window = config.window_size
    for cache, (keys, values) in zip(session.caches, history, strict=True):
        positions, k, v = cache.gather()
        assert positions == range(70 - window, 70)
        assert np.array_equal(k, keys[:, -window:])
        assert np.array_equal(v, values[:, -window:])


class TestGuards:
    def test_empty_token_list_rejected(self, toy_config, toy_weights):
        with pytest.raises(ValueError, match="non-empty"):
            rw.oracle_forward_swa(toy_weights, toy_config, [])

    def test_context_overflow_rejected(self, toy_config, toy_weights):
        tokens = [0] * (toy_config.context_len + 1)
        with pytest.raises(ValueError, match="context_len"):
            rw.oracle_forward_swa(toy_weights, toy_config, tokens)

    def test_refuses_above_desk_scale(self):
        fat = rw.ModelConfig(
            dim=2048, n_layers=1, head_dim=128, hidden_dim=4,
            n_heads=16, n_kv_heads=16, window_size=8, context_len=1024, vocab_size=4,
        )
        weights = rw.init_random(fat, 0)
        with pytest.raises(ValueError, match="refusing oracle run"):
            rw.oracle_forward_swa(weights, fat, [0] * 513)

    def test_refuses_more_tokens_than_the_token_bound(self):
        # The n x n score blocks grow with the token count alone: a dim-2
        # model is far inside the history-element bound, yet refused.
        tiny = rw.ModelConfig(
            dim=2, n_layers=1, head_dim=2, hidden_dim=1,
            n_heads=1, n_kv_heads=1, window_size=8, context_len=10**6, vocab_size=2,
        )
        limit = rollwin.oracle.MAX_ORACLE_TOKENS
        rollwin.oracle.guard(tiny, limit)
        with pytest.raises(rollwin.oracle.OracleSizeError, match="refusing oracle run"):
            rollwin.oracle.guard(tiny, limit + 1)
        with pytest.raises(rollwin.oracle.OracleSizeError, match="refusing oracle run"):
            rw.oracle_forward_swa(rw.init_random(tiny, 0), tiny, [0] * (limit + 1))

    def test_admits_the_longest_benchmark_oracle_run(self):
        # The desk preset's 1,000-token prompt, the longest oracle run
        # the benchmark gates on.
        desk = rw.ModelConfig(
            dim=128, n_layers=6, head_dim=16, hidden_dim=384,
            n_heads=8, n_kv_heads=2, window_size=64, context_len=2048, vocab_size=1024,
        )
        rollwin.oracle.guard(desk, 1000)

    @pytest.mark.parametrize("change", [{"window_size": 3}, {"vocab_size": 300}], ids=["window", "vocab"])
    @pytest.mark.parametrize(
        "entry", [rw.run_swa_with_history, rw.oracle_forward_swa, rw.oracle_forward_causal],
        ids=["history", "swa", "causal"],
    )
    def test_config_other_than_the_weights_own_rejected_before_any_work(
        self, monkeypatch, toy_config, toy_weights, entry, change
    ):
        def no_work(*args):
            raise AssertionError("the oracle ran before checking its config")

        monkeypatch.setattr(rollwin.tensor, "matmul", no_work)
        with pytest.raises(ValueError, match="weights' config"):
            entry(toy_weights, replace(toy_config, **change), random_tokens(20, seed=5))

    def test_invalid_token_id_rejected(self, toy_config, toy_weights):
        with pytest.raises(ValueError, match="vocabulary"):
            rw.oracle_forward_swa(toy_weights, toy_config, [99999])

    def test_non_integer_token_id_rejected(self, toy_config, toy_weights):
        for tokens in ([3.7, 5.2], [3, np.float64(5.0)]):
            for oracle in (rw.oracle_forward_swa, rw.oracle_forward_causal):
                with pytest.raises(ValueError, match="integers"):
                    oracle(toy_weights, toy_config, tokens)
            with pytest.raises(ValueError, match="integers"):
                rw.reach_probe(toy_weights, tokens, 0)
        ids = np.array([3, 5], dtype=np.int32)
        assert np.array_equal(rw.oracle_forward_swa(toy_weights, toy_config, ids),
                              rw.oracle_forward_swa(toy_weights, toy_config, [3, 5]))


class TestIndependence:
    def test_oracle_module_never_imports_the_cache(self):
        # The equivalence tests are only meaningful while the oracle stays
        # structurally independent of the rolling cache implementation.
        tree = ast.parse(inspect.getsource(rollwin.oracle))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                imported.add(module)
                imported.update(f"{module}.{alias.name}" if module else alias.name for alias in node.names)
        assert not any("cache" in name for name in imported)
        assert not any("model" in name for name in imported)
