import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rollwin as rw
from rollwin import tensor as tensor_module

from conftest import FAINT_BOUNDARY, random_tokens


#: The benchmark's prefill preset: dim 128, 6 layers, W 64, exact_reach 379.
DESK = rw.ModelConfig(dim=128, n_layers=6, head_dim=16, hidden_dim=384, n_heads=8,
                      n_kv_heads=2, window_size=64, context_len=2048, vocab_size=1024)


class TestForwardDecode:
    def test_logits_shape_and_finiteness(self, toy_config, toy_weights):
        session = rw.GenerationSession(toy_weights)
        logits = session.forward_decode(5)
        assert logits.shape == (toy_config.vocab_size,)
        assert np.isfinite(logits).all()
        assert session.next_position == 1

    def test_first_token_matches_single_token_oracle(self, toy_config, toy_weights):
        session = rw.GenerationSession(toy_weights)
        engine = session.forward_decode(17)
        oracle = rw.oracle_forward_swa(toy_weights, toy_config, [17])
        assert np.array_equal(engine, oracle[0])

    def test_invalid_token_rejected(self, toy_config, toy_weights):
        session = rw.GenerationSession(toy_weights)
        with pytest.raises(ValueError, match="vocabulary"):
            session.forward_decode(toy_config.vocab_size)
        with pytest.raises(ValueError, match="vocabulary"):
            session.forward_decode(-1)

    def test_position_overflow_rejected(self, toy_weights):
        config = replace(rw.PRESET_TOY, context_len=3, window_size=2)
        session = rw.GenerationSession(rw.init_random(config, 0))
        for t in (1, 2, 3):
            session.forward_decode(t)
        with pytest.raises(ValueError, match="overflow"):
            session.forward_decode(4)

    def test_layer_caches_march_together(self, toy_weights):
        session = rw.GenerationSession(toy_weights)
        for t in random_tokens(5, seed=0):
            session.forward_decode(t)
        assert all(c.next_position == session.next_position for c in session.caches)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("window", [4, 8])
    def test_rolling_engine_matches_full_history_oracle(self, seed, window):
        config = replace(rw.PRESET_TOY, window_size=window)
        weights = rw.init_random(config, seed)
        for length in (2 * window, 8 * window):
            tokens = random_tokens(length, seed=seed + 100)
            session = rw.GenerationSession(weights)
            engine = np.stack([session.forward_decode(t) for t in tokens])
            oracle = rw.oracle_forward_swa(weights, config, tokens)
            assert float(np.max(np.abs(engine - oracle))) <= 1e-5

    def test_short_sequences_also_match_vanilla_causal(self, toy_config, toy_weights):
        tokens = random_tokens(toy_config.window_size, seed=5)
        session = rw.GenerationSession(toy_weights)
        engine = np.stack([session.forward_decode(t) for t in tokens])
        causal = rw.oracle_forward_causal(toy_weights, toy_config, tokens)
        assert float(np.max(np.abs(engine - causal))) <= 1e-5


class TestPrefill:
    @pytest.mark.parametrize("length", [1, 7, 8, 9, 24, 26])
    def test_matches_token_by_token_decode(self, toy_config, toy_weights, length):
        prompt = random_tokens(length, seed=length)
        chunked = rw.GenerationSession(toy_weights)
        chunked_logits = chunked.prefill(prompt)
        stepped = rw.GenerationSession(toy_weights)
        for t in prompt:
            stepped_logits = stepped.forward_decode(t)
        assert float(np.max(np.abs(chunked_logits - stepped_logits))) <= 1e-6
        assert chunked.next_position == stepped.next_position == length
        for a, b in zip(chunked.caches, stepped.caches):
            assert list(a.retained_positions()) == list(b.retained_positions())
            # Fixed accumulation order makes the cache contents bit-identical.
            assert np.array_equal(a.keys, b.keys)
            assert np.array_equal(a.values, b.values)

    def test_single_token_prompt_equals_forward_decode(self, toy_weights):
        a = rw.GenerationSession(toy_weights).prefill([9])
        b = rw.GenerationSession(toy_weights).forward_decode(9)
        assert np.array_equal(a, b)

    def test_requires_fresh_session(self, toy_weights):
        session = rw.GenerationSession(toy_weights)
        session.forward_decode(1)
        with pytest.raises(ValueError, match="fresh session"):
            session.prefill([1, 2, 3])

    def test_prompt_too_long(self, toy_weights):
        session = rw.GenerationSession(toy_weights)
        too_long = [0] * (rw.PRESET_TOY.context_len + 1)
        with pytest.raises(ValueError, match="exceeds context_len"):
            session.prefill(too_long)

    def test_empty_prompt_rejected(self, toy_weights):
        with pytest.raises(ValueError, match="non-empty"):
            rw.GenerationSession(toy_weights).prefill([])

    def test_transient_score_matrices_stay_bounded(self, toy_config, toy_weights, monkeypatch):
        # Chunks of at most W positions: each query row scores exactly its W
        # keys, so a head's score block is at most W x W, and no rank-2
        # product takes more than W rows, whatever the prompt length.
        window, group = toy_config.window_size, toy_config.n_heads // toy_config.n_kv_heads
        for length in (64, 3 * rw.exact_reach(toy_config), toy_config.context_len):
            scores, rows = record_prefill(monkeypatch, toy_weights, length)
            assert max(scores) == (toy_config.n_kv_heads, window, group, window)
            assert all(shape[0] == toy_config.n_kv_heads and shape[1] <= window and shape[2:] == (group, window)
                       for shape in scores)
            assert max(rows) == window

    def test_attention_scores_exactly_each_window(self, monkeypatch):
        # One softmax per chunk and layer with output rows, over n_heads * W
        # scores per output row, and each product on the rows the chunk plan
        # says; at the desk preset
        # of the benchmark's prefill workload, its five prompt lengths make
        # 2,276,352 scores in all, as many as one chunk per prompt did.
        weights = rw.init_random(DESK, 5)
        window, group = DESK.window_size, DESK.n_heads // DESK.n_kv_heads
        total = 0
        for length in (150, 363, 576, 789, 1000):
            scores, rows = record_prefill(monkeypatch, weights, length)
            plan = [layer for chunk in chunk_plan(DESK, length) for layer in chunk]
            assert scores == [(DESK.n_kv_heads, out, group, window) for _, out in plan if out]
            # Wq|Wk|Wv on the K/V rows, then Wo, W1|W3 and W2 on the output rows; one logit row.
            assert rows == [n for kv, out in plan for n in ([kv] + [out] * 3 if out else [kv])] + [1]
            total += sum(np.prod(shape) for shape in scores)
        assert total == 2_276_352

    @pytest.mark.parametrize(
        "config, lengths, flat_macs",
        [
            (rw.PRESET_TOY, (1, 7, 8, 9, 29, 30, 64, 128), 1_988_608),
            (DESK, (1, 63, 64, 65, 379, 380, 150, 576, 1000, 2000), 204_185_600),
        ],
        ids=["toy", "desk"],
    )
    def test_chunked_prefill_does_the_one_chunk_macs(self, monkeypatch, config, lengths, flat_macs):
        # Summed from what the products make: several queries score W key
        # rows each (a band pads shallow slots), one query scores the
        # min(n_k, W) rows it reads. Chunk by chunk that is prefill_macs,
        # never more than running the prompt as one chunk trimmed per layer,
        # and the same from exact_reach (29 on toy, 379 on desk), where it
        # stops growing. Below it, a first chunk of one row scores fewer
        # keys alone than inside the one chunk's band (toy 9, desk 65).
        weights, reach = rw.init_random(config, 5), rw.exact_reach(config)
        for length in lengths:
            calls = []
            original, attend = tensor_module.matmul, rw.attention.window_attend

            def counting(a, b):
                out = original(a, b)
                calls.append(out.size * np.shape(a)[-1])
                return out

            def counting_attend(q, keys, values, window):
                before = len(calls)
                out = attend(q, keys, values, window)
                if len(calls) == before:  # the one-query regime forms its scores and AV terms itself
                    calls.extend([q.size * min(keys.shape[1], window)] * 2)
                return out

            monkeypatch.setattr(tensor_module, "matmul", counting)
            monkeypatch.setattr(rw.attention, "window_attend", counting_attend)
            rw.GenerationSession(weights).prefill(random_tokens(length, seed=length, vocab=config.vocab_size))
            monkeypatch.undo()
            assert sum(calls) == prefill_macs(config, length), length
            assert sum(calls) <= prefill_macs(config, length, one_chunk=True), length
            if length >= reach:
                assert sum(calls) == prefill_macs(config, length, one_chunk=True) == flat_macs, length

    def test_chunk_plan_aligns_to_the_end(self):
        # The short remainder chunk comes first, where only the early layers
        # run: a 30-token toy prefill makes 7 full layer passes (10 if the
        # chunks started at the prompt's start), and a desk one of 379
        # tokens or more makes 16.
        plan = chunk_plan(rw.PRESET_TOY, 30)
        assert plan[0] == [(5, 0)]
        assert [len([out for _, out in chunk if out]) for chunk in plan] == [0, 1, 2, 4]
        for length in (379, 1000, 2000):
            assert sum(1 for chunk in chunk_plan(DESK, length) for _, out in chunk if out) == 16


def chunk_plan(config, length):
    """Per chunk of a fresh prefill of length tokens, oldest first, each
    layer's (K/V rows, output rows) until the first layer with no output
    row: chunks of W positions back from the end, over the last kv_0 rows."""
    window, reach = config.window_size, rw.exact_reach(config)
    kv = [min(length, reach - i * (window - 1)) for i in range(config.n_layers)] + [1]
    stops = list(range(length, length - kv[0], -window))[::-1]
    plan = []
    for stop in stops:
        begin, layers = max(length - kv[0], stop - window), []
        for kv_rows, out_rows in zip(kv, kv[1:]):
            layers.append((stop - max(begin, length - kv_rows), max(0, stop - max(begin, length - out_rows))))
            if layers[-1][1] == 0:
                break
        plan.append(layers)
    return plan


def prefill_macs(config, length, one_chunk=False):
    """A fresh prefill's MACs as its products make them, chunk by chunk as
    chunk_plan runs it, or with the whole prompt as one chunk: each layer
    projects its kv_l K/V rows and computes its kv_{l+1} output rows. Several
    queries score W key rows each, shallow slots padded; one query scores
    the min(n_k, W) rows it reads, those from the layer's first row on."""
    window, reach, dim, head_dim = config.window_size, rw.exact_reach(config), config.dim, config.head_dim
    kv = [min(length, reach - i * (window - 1)) for i in range(config.n_layers)] + [1]
    qkv = dim * (config.n_heads + 2 * config.n_kv_heads) * head_dim
    row = config.n_heads * head_dim * dim + 3 * dim * config.hidden_dim
    macs, begin = dim * config.vocab_size, length - kv[0]
    for stop in [length] if one_chunk else range(length - (kv[0] - 1) // window * window, length + 1, window):
        for kv_rows, out_rows in zip(kv, kv[1:]):
            out = max(0, stop - max(begin, length - out_rows))
            keys = window * out if out > 1 else out * min(stop - (length - kv_rows), window)
            macs += (stop - max(begin, length - kv_rows)) * qkv + out * row + 2 * config.n_heads * head_dim * keys
            if out == 0:
                break
        begin = stop
    return macs


def record_prefill(monkeypatch, weights, length):
    """Score block shapes (one per softmax) and rank-2 product row counts of one fresh prefill."""
    scores, rows = [], []
    softmax, matmul = tensor_module.softmax_stable, tensor_module.matmul

    def recording_softmax(x, masked=None):
        # [n_kv_heads, n_q, group, W]; one query's [n_kv_heads, group, min(n_k, W)] as n_q = 1
        scores.append(x.shape if x.ndim == 4 else x.shape[:1] + (1,) + x.shape[1:])
        return softmax(x, masked)

    def recording_matmul(a, b):
        if np.ndim(a) == 2:
            rows.append(np.shape(a)[0])
        return matmul(a, b)

    monkeypatch.setattr(tensor_module, "softmax_stable", recording_softmax)
    monkeypatch.setattr(tensor_module, "matmul", recording_matmul)
    config = weights.config
    rw.GenerationSession(weights).prefill(random_tokens(length, seed=length, vocab=config.vocab_size))
    monkeypatch.undo()
    return scores, rows


def unbatched_matmul(a, b):
    """The 2-D ordered loop, applied to one batch slice (attention head) at a time."""
    a, b = np.asarray(a, np.float32), np.asarray(b, np.float32)
    if a.ndim > 2:
        return np.stack([unbatched_matmul(x, y) for x, y in zip(a, b)])
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
    term = np.empty_like(out)
    for k in range(a.shape[1]):
        np.multiply(a[:, k, np.newaxis], b[k, np.newaxis, :], out=term)
        np.add(out, term, out=out)
    return out


class TestWideProductsChangeNoBit:
    @pytest.mark.parametrize(
        "changes",
        [{}, {"window_size": 4, "n_layers": 2}, {"n_heads": 4, "n_kv_heads": 1, "window_size": 5}],
        ids=["toy", "w4l2", "group4"],
    )
    def test_logits_equal_per_head_two_d_products(self, changes, monkeypatch):
        config = replace(rw.PRESET_TOY, **changes)
        weights = rw.init_random(config, 9)
        prompt = random_tokens(2 * config.window_size + 3, seed=31)

        def run():
            session = rw.GenerationSession(weights)
            rows = [session.prefill(prompt)]
            for _ in range(5):
                rows.append(session.forward_decode(int(np.argmax(rows[-1]))))
            return np.stack(rows)

        batched = run()
        ranks = []

        def recording(a, b):
            ranks.append(np.ndim(a))
            return unbatched_matmul(a, b)

        monkeypatch.setattr(tensor_module, "matmul", recording)
        assert np.array_equal(run(), batched)
        assert 4 in ranks, "attention never made a banded product"


class TestReceptiveField:
    def test_influence_travels_exactly_layers_times_window_minus_one(self):
        config = replace(rw.PRESET_TOY, n_layers=2, window_size=4)
        weights = rw.init_random(config, 7)
        tokens = random_tokens(12, seed=1)
        horizon = config.n_layers * (config.window_size - 1)  # 6
        for j in range(len(tokens)):
            affected = rw.reach_probe(weights, tokens, j)
            assert affected == list(range(j, min(j + horizon, len(tokens) - 1) + 1))

    def test_difference_beyond_horizon_is_exactly_zero(self):
        config = replace(rw.PRESET_TOY, n_layers=2, window_size=4)
        weights = rw.init_random(config, 7)
        tokens = random_tokens(12, seed=2)
        base = rw.oracle_forward_swa(weights, config, tokens)
        assert tokens.count(tokens[0]) == 1  # so poking its embedding row pokes position 0 alone
        embedding = weights.token_embedding.copy()
        embedding[tokens[0], 0] += np.float32(1e-2)
        poked = rw.oracle_forward_swa(replace(weights, token_embedding=embedding), config, tokens)
        assert float(np.max(np.abs(base[7:] - poked[7:]))) == 0.0
        assert float(np.max(np.abs(base[6] - poked[6]))) > 1e-7


class TestReachProbe:
    def test_single_layer_window_arithmetic(self):
        config = replace(rw.PRESET_TOY, n_layers=1, window_size=3)
        weights = rw.init_random(config, 3)
        tokens = random_tokens(10, seed=3)
        for j in (0, 2, 5):
            affected = rw.reach_probe(weights, tokens, j)
            assert affected == list(range(j, min(j + 2, 9) + 1))

    def test_affected_sets_are_contiguous_from_probe(self, toy_weights):
        tokens = random_tokens(16, seed=4)
        for j in (0, 5, 11):
            affected = rw.reach_probe(toy_weights, tokens, j)
            assert affected == list(range(j, affected[-1] + 1))

    def test_last_position_probe_affects_only_itself(self, toy_weights):
        tokens = random_tokens(10, seed=5)
        assert rw.reach_probe(toy_weights, tokens, 9) == [9]

    def test_probe_position_validated(self, toy_weights):
        with pytest.raises(ValueError):
            rw.reach_probe(toy_weights, [1, 2], 2)

    def test_overlong_stream_refused_before_any_step(self, toy_config, toy_weights, monkeypatch):
        steps = []
        monkeypatch.setattr(rw.GenerationSession, "forward_decode", lambda self, t: steps.append(t))
        with pytest.raises(ValueError, match="context_len"):
            rw.reach_probe(toy_weights, [0] * (toy_config.context_len + 1), 0)
        assert steps == []

    @pytest.mark.parametrize("vocab_size", [32, 1])
    def test_repeated_tokens_reach_exactly_the_field(self, vocab_size):
        # A nudge's influence on FAINT_BOUNDARY rounds away near the
        # boundary at some seeds (6 at vocab 32; 1 and 3-7 at vocab 1);
        # the taint does not depend on the tokens or on the vocabulary.
        config = replace(FAINT_BOUNDARY, vocab_size=vocab_size)
        horizon = config.n_layers * (config.window_size - 1)
        tokens = [0] * 12
        for seed in range(10):
            weights = rw.init_random(config, seed)
            for j in range(len(tokens)):
                expected = list(range(j, min(j + horizon, len(tokens) - 1) + 1))
                assert rw.reach_probe(weights, tokens, j) == expected, (seed, j)


def test_reach_probe_hits_the_boundary_exactly_at_window_16():
    config = replace(rw.PRESET_TOY, window_size=16)
    boundary = config.n_layers * (config.window_size - 1)
    weights = rw.init_random(config, 0)
    tokens = random_tokens(boundary + 6, seed=0)
    assert rw.reach_probe(weights, tokens, 0) == list(range(0, boundary + 1))


class TestCacheBoundDuringDecode:
    def test_memory_constant_after_window_fills(self, toy_config, toy_weights):
        window = toy_config.window_size
        session = rw.GenerationSession(toy_weights)
        tokens = random_tokens(8 * window, seed=3)
        for t in tokens[:window]:
            session.forward_decode(t)
        snapshot = session.total_cache_bytes
        for t in tokens[window:]:
            session.forward_decode(t)
        assert session.total_cache_bytes == snapshot
        assert all(len(c.retained_positions()) == rw.cache_slots(window) == window - 1 for c in session.caches)

    def test_no_state_grows_with_context_len(self, toy_config, toy_weights):
        # A context_len of 2**40 runs like the toy: nothing (caches, RoPE
        # tables) is sized by the context, only by the window.
        huge = rw.GenerationSession(replace(toy_weights, config=replace(toy_config, context_len=2**40)))
        plain = rw.GenerationSession(toy_weights)
        assert huge.total_cache_bytes == plain.total_cache_bytes
        prompt = random_tokens(12, seed=8)
        assert np.array_equal(huge.prefill(prompt), plain.prefill(prompt))
        for t in random_tokens(3, seed=9):
            assert np.array_equal(huge.forward_decode(t), plain.forward_decode(t))
        for a, b in zip(huge.caches, plain.caches):
            assert np.array_equal(a.keys, b.keys) and np.array_equal(a.values, b.values)


#: One layer, a window of 2: small enough to generate in every example.
TINY = rw.ModelConfig(
    dim=8, n_layers=1, head_dim=4, hidden_dim=16, n_heads=2, n_kv_heads=1,
    window_size=2, context_len=2, vocab_size=16,
)


class TestSampling:
    def test_greedy_picks_lowest_id_on_ties(self):
        logits = np.asarray([0.0, 3.0, 3.0, 1.0], dtype=np.float32)
        assert rw.sample_token(logits, rw.SamplerSpec(), None) == 1

    def test_top_k_one_equals_greedy_over_many_rows(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            logits = rng.standard_normal(64).astype(np.float32)
            spec = rw.SamplerSpec(k=1, temperature=0.7, seed=3)
            assert rw.sample_token(logits, spec, np.random.default_rng(3)) == int(np.argmax(logits))

    @given(
        logits=st.lists(st.integers(-3, 3), min_size=1, max_size=12),
        temperature=st.floats(allow_nan=True, allow_infinity=True),
        seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    def test_k_one_is_argmax_at_any_temperature_and_seed(self, logits, temperature, seed):
        # Small integer logits tie often; np.argmax takes the lowest id.
        row = np.asarray(logits, dtype=np.float32)
        rng = None if seed is None else np.random.default_rng(seed)
        spec = rw.SamplerSpec(k=1, temperature=temperature, seed=seed or 0)
        assert rw.sample_token(row, spec, rng) == int(np.argmax(row)) == logits.index(max(logits))

    def test_top_k_restricts_support(self):
        logits = np.asarray([0.0, 5.0, 4.0, -1.0], dtype=np.float32)
        rng = np.random.default_rng(5)
        spec = rw.SamplerSpec(k=2, temperature=1.0, seed=5)
        draws = {rw.sample_token(logits, spec, rng) for _ in range(50)}
        assert draws <= {1, 2}

    def test_bad_sampler_rejected(self, toy_weights, monkeypatch):
        products = []
        monkeypatch.setattr(tensor_module, "matmul", lambda a, b: products.append(a.shape))
        session = rw.GenerationSession(toy_weights)
        for k in (0, toy_weights.config.vocab_size + 1):
            with pytest.raises(ValueError, match="top-k"):
                session.generate([1], 2, rw.SamplerSpec(k=k))
        for k in (2.5, 2.0, "2"):  # refused before the prefill, not truncated
            with pytest.raises(TypeError):
                session.generate([1, 2], 3, rw.SamplerSpec(k=k))
        assert session.next_position == 0
        assert products == []


class TestGenerate:
    def test_max_tokens_zero_is_prefill_only(self, toy_weights):
        session = rw.GenerationSession(toy_weights)
        for bad in (2.5, 0.0, "3"):  # refused before the prefill, not rounded
            with pytest.raises(TypeError):
                session.generate([1, 2, 3], bad)
        assert session.next_position == 0
        assert session.generate([1, 2, 3], max_tokens=0) == []
        assert session.next_position == 3

    def test_multi_stream_session_refused_before_the_prefill(self, toy_weights, monkeypatch):
        products = []
        monkeypatch.setattr(tensor_module, "matmul", lambda a, b: products.append(a.shape))
        session = rw.GenerationSession(toy_weights, streams=2)
        with pytest.raises(ValueError, match="one stream"):
            session.generate([[1, 2], [3, 4]], 3)
        assert session.next_position == 0
        assert products == []

    def test_greedy_deterministic_across_runs(self, toy_weights):
        runs = [rw.GenerationSession(toy_weights).generate([1, 2, 3], 12) for _ in range(2)]
        assert runs[0] == runs[1]
        assert len(runs[0]) == 12

    def test_top_k_one_generation_equals_greedy(self, toy_weights):
        greedy = rw.GenerationSession(toy_weights).generate([4, 5], 16, rw.SamplerSpec())
        top1 = rw.GenerationSession(toy_weights).generate(
            [4, 5], 16, rw.SamplerSpec(k=1, temperature=0.5, seed=11)
        )
        assert greedy == top1

    def test_top_k_seeded_reproducible(self, toy_weights):
        spec = rw.SamplerSpec(k=8, temperature=1.3, seed=21)
        a = rw.GenerationSession(toy_weights).generate([9], 20, spec)
        b = rw.GenerationSession(toy_weights).generate([9], 20, spec)
        assert a == b

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_finite_or_non_positive_temperature_rejected_before_prefill(self, toy_weights, temperature):
        session = rw.GenerationSession(toy_weights)
        for k in (1, 3):  # k = 1 is greedy, and its temperature is still checked
            with pytest.raises(ValueError, match="finite and positive"):
                session.generate([1, 2], 2, rw.SamplerSpec(k=k, temperature=temperature))
        assert session.next_position == 0

    def test_context_overflow_truncates_cleanly(self):
        config = replace(rw.PRESET_TOY, context_len=6, window_size=4)
        weights = rw.init_random(config, 1)
        session = rw.GenerationSession(weights)
        tokens = session.generate([1, 2, 3, 4], max_tokens=10)
        assert len(tokens) == 3  # one after the prompt, then one per free position
        assert session.next_position == config.context_len

    @given(context_len=st.integers(2, 24), data=st.data())
    def test_length_is_max_tokens_unless_the_context_stops_it(self, context_len, data):
        weights = rw.init_random(replace(TINY, context_len=context_len), 0)
        n_prompt = data.draw(st.integers(1, context_len))
        max_tokens = data.draw(st.integers(0, context_len + 4))
        session = rw.GenerationSession(weights)
        tokens = session.generate([7] * n_prompt, max_tokens)
        expected = min(max_tokens, context_len - n_prompt + 1)
        assert len(tokens) == expected
        assert session.next_position == n_prompt + max(expected - 1, 0)

    def test_report_fields_consistent(self, toy_config, toy_weights):
        session = rw.GenerationSession(toy_weights)
        session.generate([1, 2, 3], 8)
        assert session.next_position == 3 + 8 - 1  # the last sampled token is not fed back
        assert session.caches[0].nbytes == (
            2 * toy_config.n_kv_heads * rw.cache_slots(toy_config.window_size) * toy_config.head_dim * 4
        )
        assert session.total_cache_bytes == session.caches[0].nbytes * toy_config.n_layers


def _arrays_held(obj, skip):
    """Every ndarray reachable from obj through containers and instance
    attributes, except through skip."""
    if obj is skip:
        return
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays_held(item, skip)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from _arrays_held(value, skip)


class TestSessionHoldsOnlyItsCaches:
    """A session's state is its caches and a position; the weights are shared."""

    def test_a_desk_session_allocates_its_caches_and_little_more(self):
        weights = rw.init_random(DESK, 5)
        gc.collect()
        tracemalloc.start()
        try:
            session = rw.GenerationSession(weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= session.total_cache_bytes + 16 * 1024

    def test_no_session_attribute_holds_a_weight_array(self, toy_weights):
        session = rw.GenerationSession(toy_weights, 2)
        session.forward_chunk([random_tokens(20, seed=1), random_tokens(20, seed=2)])
        arrays = list(_arrays_held(session, toy_weights))
        assert sum(a.nbytes for a in arrays) == session.total_cache_bytes
        assert not any(np.shares_memory(a, t) for a in arrays for _, t in toy_weights.named_tensors())
