"""forward_chunk: continuation at unaligned starts, and rejected input.

Decode and prefill both run through GenerationSession.forward_chunk. These
tests drive it directly at non-zero, window-unaligned positions, with chunks
shorter and longer than the window, and check that it matches token-by-token
decoding bit for bit, and that a rejected chunk leaves the session exactly
as it was. Each layer computes only the rows a kept result can read (at
most exact_reach, fewer in each later layer); the same comparisons cover
every layer's row count on both sides, and a matmul counter pins the plan.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

import rollwin as rw
from rollwin import attention, tensor

from conftest import assert_same_state, random_tokens

CONFIGS = {
    "toy": rw.PRESET_TOY,
    "w4l2": replace(rw.PRESET_TOY, window_size=4, n_layers=2),
    "group4": replace(rw.PRESET_TOY, n_kv_heads=1),
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def weights(request):
    return rw.init_random(CONFIGS[request.param], 7)


@pytest.mark.parametrize("prefix,chunk", [(1, 3), (5, 8), (9, 5), (20, 8), (3, 1), (3, 20)])
def test_continuation_equals_stepped_decoding(weights, prefix, chunk):
    tokens = random_tokens(prefix + chunk + 3, seed=prefix * 31 + chunk)
    stepped = rw.GenerationSession(weights)
    stepped_logits = [stepped.forward_decode(t) for t in tokens]

    session = rw.GenerationSession(weights)
    session.prefill(tokens[:prefix])
    logits = session.forward_chunk(tokens[prefix:prefix + chunk])
    assert session.next_position == prefix + chunk
    assert np.array_equal(logits, stepped_logits[prefix + chunk - 1])
    for i in range(prefix + chunk, len(tokens)):
        assert np.array_equal(session.forward_decode(tokens[i]), stepped_logits[i])
    assert_same_state(session, stepped)


class TestRejectedChunkChangesNothing:
    @pytest.fixture
    def session(self, toy_weights):
        session = rw.GenerationSession(toy_weights)
        session.prefill(random_tokens(11, seed=3))
        return session

    def test_out_of_vocabulary_mid_chunk(self, session, toy_config):
        before = copy.deepcopy(session)
        with pytest.raises(ValueError, match=str(toy_config.vocab_size + 5)):
            session.forward_chunk([1, 2, toy_config.vocab_size + 5, 4])
        assert_same_state(session, before)

    @pytest.mark.parametrize("chunk", [[3.7, 5.2], [3, 5.0], [np.float32(3)], ["3"]],
                             ids=["fractions", "whole-float", "numpy-float", "string"])
    def test_non_integer_ids_rejected(self, session, chunk):
        # A float id is never truncated to a token: [3.7, 5.2] is not [3, 5].
        before = copy.deepcopy(session)
        with pytest.raises(ValueError, match="integers"):
            session.forward_chunk(chunk)
        assert_same_state(session, before)

    def test_numpy_integer_ids_equal_python_ints(self, toy_weights):
        logits = rw.GenerationSession(toy_weights).forward_chunk([3, 5])
        for ids in (np.array([3, 5], dtype=np.int32), [np.uint8(3), np.int64(5)]):
            assert np.array_equal(rw.GenerationSession(toy_weights).forward_chunk(ids), logits)

    def test_empty_chunk(self, session):
        before = copy.deepcopy(session)
        with pytest.raises(ValueError, match="non-empty"):
            session.forward_chunk([])
        assert_same_state(session, before)

    def test_overflowing_chunk(self, session, toy_config):
        before = copy.deepcopy(session)
        room = toy_config.context_len - session.next_position
        with pytest.raises(ValueError, match="overflow.*exceeds context_len"):
            session.forward_chunk([1] * (room + 1))
        assert_same_state(session, before)

    def test_bad_token_in_a_later_prefill_chunk(self, toy_weights, toy_config):
        # The whole prompt is checked before its first chunk is written.
        session = rw.GenerationSession(toy_weights)
        before = copy.deepcopy(session)
        prompt = random_tokens(3 * toy_config.window_size, seed=4) + [-1]
        with pytest.raises(ValueError, match="vocabulary"):
            session.prefill(prompt)
        assert_same_state(session, before)

    def test_chunk_filling_the_context_exactly_is_accepted(self, session, toy_config):
        room = toy_config.context_len - session.next_position
        session.forward_chunk([1] * room)
        assert session.next_position == toy_config.context_len


SKIP_CONFIGS = {
    **CONFIGS,
    "w1": replace(rw.PRESET_TOY, window_size=1),
    "w3l1": replace(rw.PRESET_TOY, window_size=3, n_layers=1),
    "group1": replace(rw.PRESET_TOY, n_kv_heads=4),
}


def snapshot(session):
    return session.next_position, [
        (c.keys.copy(), c.values.copy(), list(c.retained_positions())) for c in session.caches
    ]


def assert_matches_snapshot(session, snap):
    position, layers = snap
    assert session.next_position == position
    for cache, (keys, values, retained) in zip(session.caches, layers):
        assert np.array_equal(cache.keys, keys)
        assert np.array_equal(cache.values, values)
        assert list(cache.retained_positions()) == retained


@pytest.fixture(scope="module", params=sorted(SKIP_CONFIGS))
def stepped_run(request):
    """Token-by-token decoding over a whole context: logits and state at every length."""
    config = SKIP_CONFIGS[request.param]
    weights = rw.init_random(config, 5)
    tokens = random_tokens(config.context_len, seed=len(request.param), vocab=config.vocab_size)
    session = rw.GenerationSession(weights)
    logits, states = [], [snapshot(session)]
    for t in tokens:
        logits.append(session.forward_decode(t))
        states.append(snapshot(session))
    return weights, tokens, logits, states


def skip_lengths(config):
    reach, window = rw.exact_reach(config), config.window_size
    lengths = {reach - 1, reach, reach + 1, reach + window + 3, config.context_len - 2}
    return sorted(n for n in lengths if 1 <= n <= config.context_len)


def layer_boundaries(config):
    """Rows each layer computes K/V for on a long chunk: exact_reach - l*(W-1)."""
    reach, window = rw.exact_reach(config), config.window_size
    return [reach - layer * (window - 1) for layer in range(config.n_layers)]


def test_prefill_at_each_layer_boundary_equals_stepped_decoding(stepped_run):
    # Toy: 29, 22, 15 and 8 rows; a prompt one longer restarts that layer.
    weights, tokens, logits, states = stepped_run
    for n in sorted({b + extra for b in layer_boundaries(weights.config) for extra in (0, 1)}):
        session = rw.GenerationSession(weights)
        assert np.array_equal(session.prefill(tokens[:n]), logits[n - 1])
        assert_matches_snapshot(session, states[n])
        for i in range(n, n + 3):
            assert np.array_equal(session.forward_decode(tokens[i]), logits[i])
        assert_matches_snapshot(session, states[n + 3])


def test_continuation_straddling_each_layer_boundary_equals_stepped_decoding(stepped_run):
    weights, tokens, logits, states = stepped_run
    prefix = weights.config.window_size + 1
    for chunk in sorted({b + extra for b in layer_boundaries(weights.config) for extra in (0, 1)}):
        session = rw.GenerationSession(weights)
        session.prefill(tokens[:prefix])
        end = prefix + chunk
        assert np.array_equal(session.forward_chunk(tokens[prefix:end]), logits[end - 1])
        assert_matches_snapshot(session, states[end])
        assert np.array_equal(session.forward_decode(tokens[end]), logits[end])
        assert_matches_snapshot(session, states[end + 1])


def test_prefill_past_exact_reach_equals_stepped_decoding(stepped_run):
    weights, tokens, logits, states = stepped_run
    for n in skip_lengths(weights.config):
        session = rw.GenerationSession(weights)
        assert np.array_equal(session.prefill(tokens[:n]), logits[n - 1])
        assert_matches_snapshot(session, states[n])


def test_long_continuation_chunk_equals_stepped_decoding(stepped_run):
    weights, tokens, logits, states = stepped_run
    config = weights.config
    reach = rw.exact_reach(config)
    for prefix, chunk in [(3, reach + 1), (config.window_size + 2, reach + config.window_size + 3)]:
        session = rw.GenerationSession(weights)
        session.prefill(tokens[:prefix])
        end = prefix + chunk
        assert np.array_equal(session.forward_chunk(tokens[prefix:end]), logits[end - 1])
        assert_matches_snapshot(session, states[end])
        for i in range(end, end + 3):
            assert np.array_equal(session.forward_decode(tokens[i]), logits[i])
        assert_matches_snapshot(session, states[end + 3])


class TestSkippedPrefix:
    def test_bad_token_in_the_skipped_prefix_is_rejected(self, toy_weights, toy_config):
        session = rw.GenerationSession(toy_weights)
        session.prefill(random_tokens(5, seed=8))
        before = copy.deepcopy(session)
        chunk = random_tokens(3 * rw.exact_reach(toy_config), seed=9)
        chunk[1] = toy_config.vocab_size
        with pytest.raises(ValueError, match="vocabulary"):
            session.forward_chunk(chunk)
        assert_same_state(session, before)
        assert [c.retained_positions() for c in session.caches] == [
            c.retained_positions() for c in before.caches
        ]

    def test_overflow_is_reported_on_the_full_length(self, toy_weights, toy_config):
        session = rw.GenerationSession(toy_weights)
        session.prefill(random_tokens(5, seed=8))
        before = copy.deepcopy(session)
        n = toy_config.context_len - 4
        with pytest.raises(ValueError, match=f"position 5 plus {n} tokens"):
            session.forward_chunk([1] * n)
        assert_same_state(session, before)

    def test_prefill_cost_stops_growing_at_exact_reach(self, toy_weights, toy_config, monkeypatch):
        real = tensor.matmul
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tensor, "matmul", counting)
        reach = rw.exact_reach(toy_config)
        counts = []
        for n in (reach, reach + 1, reach + 7, toy_config.context_len):
            calls.clear()
            rw.GenerationSession(toy_weights).prefill(random_tokens(n, seed=n))
            counts.append(len(calls))
        assert counts == [counts[0]] * 4


@pytest.mark.parametrize("name,prefix,n", [("toy", 0, 40), ("toy", 11, 20), ("w4l2", 0, 40), ("w4l2", 5, 6)])
def test_each_layer_computes_only_the_rows_a_kept_output_reads(name, prefix, n, monkeypatch):
    config = CONFIGS[name]
    session = rw.GenerationSession(rw.init_random(config, 2))
    if prefix:
        session.prefill(random_tokens(prefix, seed=1))
    stage_of = {}
    for i, layer in enumerate(session.weights.layers):
        stage_of.update({id(layer.Wqkv): ("qkv", i), id(layer.Wo): ("Wo", i), id(layer.W2): ("W2", i)})
    rows = {}
    real = tensor.matmul

    def counting(a, b):
        if id(b) in stage_of:
            rows[stage_of[id(b)]] = rows.get(stage_of[id(b)], 0) + a.shape[0]
        return real(a, b)

    monkeypatch.setattr(tensor, "matmul", counting)
    session.forward_chunk(random_tokens(n, seed=n))
    layers = range(config.n_layers)
    kv = [min(n, rw.exact_reach(config) - layer * (config.window_size - 1)) for layer in layers]
    out = kv[1:] + [1]
    assert [rows["qkv", layer] for layer in layers] == kv
    assert [rows["Wo", layer] for layer in layers] == out
    assert [rows["W2", layer] for layer in layers] == out
    if (name, n) == ("toy", 40):
        # Running all exact_reach = 29 rows in every layer would be 116.
        assert (sum(kv), sum(out)) == (74, 46)


@pytest.mark.parametrize("step", ["decode", "chunk-5", "prefill-5"])
def test_each_step_makes_one_call_per_product_and_one_cache_write_per_layer(step, toy_weights, monkeypatch):
    # Per layer: the Wq|Wk|Wv, Wo, W1|W3 and W2 products, one attention call
    # and one cache write; then the logits. An attention call makes its
    # scores and AV products as two batched matmuls, or none in its one-query
    # regime: the decode step's layers and a chunk's or prefill's last layer,
    # whose one output row forms its own terms. A split product, a second
    # attention call or an extra cache write fails this.
    config = toy_weights.config
    session = rw.GenerationSession(toy_weights)
    if step != "prefill-5":
        session.prefill(random_tokens(20, seed=3))
    counts = {"matmul": 0, "batched": 0, "window_attend": 0, "prefill_bulk": 0}
    real_matmul, real_attend, real_write = tensor.matmul, attention.window_attend, rw.RollingKvCache.prefill_bulk

    def counting_matmul(a, b):
        counts["matmul" if np.ndim(a) == 2 else "batched"] += 1
        return real_matmul(a, b)

    def counting_attend(*args):
        counts["window_attend"] += 1
        return real_attend(*args)

    def counting_write(*args):
        counts["prefill_bulk"] += 1
        return real_write(*args)

    monkeypatch.setattr(tensor, "matmul", counting_matmul)
    monkeypatch.setattr(attention, "window_attend", counting_attend)
    monkeypatch.setattr(rw.RollingKvCache, "prefill_bulk", counting_write)
    if step == "decode":
        session.forward_decode(5)
    else:
        session.forward_chunk(random_tokens(5, seed=4))
    layers = config.n_layers
    batched = {"decode": 0, "chunk-5": 2 * (layers - 1), "prefill-5": 2 * (layers - 1)}[step]
    assert counts == {"matmul": 4 * layers + 1, "batched": batched, "window_attend": layers, "prefill_bulk": layers}


def test_every_decode_step_attends_with_one_softmax_and_no_matmul_or_band(toy_weights, toy_config, monkeypatch):
    # From position 0, where the window holds one key, to past W: each step's
    # one query forms its own terms from the keys it has, with no matmul or
    # band view inside window_attend, and normalizes its [n_kv, group,
    # min(position + 1, W)] scores with one softmax_stable call per layer;
    # the logits are the oracle's.
    real_attend, softmax, calls = attention.window_attend, tensor.softmax_stable, []
    tokens, window = random_tokens(2 * toy_config.window_size + 2, seed=6), toy_config.window_size
    n_kv, group = toy_config.n_kv_heads, toy_config.n_heads // toy_config.n_kv_heads

    def refused(*args, **kwargs):
        raise AssertionError("a decode step's attention called matmul or built a band")

    def counting_softmax(x, masked=None):
        calls.append(x.shape)
        return softmax(x, masked)

    def guarded_attend(*args):
        with pytest.MonkeyPatch.context() as patch:
            for module, name in ((tensor, "matmul"), (attention, "_bands")):
                patch.setattr(module, name, refused)
            return real_attend(*args)

    monkeypatch.setattr(attention, "window_attend", guarded_attend)
    monkeypatch.setattr(tensor, "softmax_stable", counting_softmax)
    session, logits = rw.GenerationSession(toy_weights), []
    for position, token in enumerate(tokens):
        logits.append(session.forward_decode(token))
        assert calls == [(n_kv, group, min(position + 1, window))] * toy_config.n_layers
        calls.clear()
    monkeypatch.undo()
    assert np.array_equal(np.stack(logits), rw.oracle_forward_swa(toy_weights, toy_config, tokens))


#: Four heads of 64 at W 512: past the one-query bound, n_heads * W * head_dim
#: over BLOCK_ELEMENTS, which a one-query window of 256 keys reaches.
PAST_THE_BOUND = rw.ModelConfig(dim=256, n_layers=1, head_dim=64, hidden_dim=64, n_heads=4, n_kv_heads=2,
                                window_size=512, context_len=520, vocab_size=64)


def test_a_decode_step_scores_only_its_window_past_the_one_query_bound(monkeypatch):
    # Up to 256 keys a decode step takes the one-query path, from 257 the band
    # path; on both sides of the bound its one softmax_stable input holds
    # n_heads * min(position + 1, W) scores, unmasked, and the logits are
    # the oracle's.
    config, window = PAST_THE_BOUND, PAST_THE_BOUND.window_size
    weights, tokens = rw.init_random(config, 7), random_tokens(window + 1, seed=7, vocab=config.vocab_size)
    expected, softmax, calls = rw.oracle_forward_swa(weights, config, tokens), tensor.softmax_stable, []

    def counting_softmax(x, masked=None):
        calls.append((x.size, masked is None))
        return softmax(x, masked)

    for position in (0, 1, 255, 256, window - 1, window):
        session = rw.GenerationSession(weights)
        if position:
            session.prefill(tokens[:position])
        with monkeypatch.context() as patch:
            patch.setattr(tensor, "softmax_stable", counting_softmax)
            logits = session.forward_decode(tokens[position])
        assert calls == [(config.n_heads * min(position + 1, window), True)], position
        assert np.array_equal(logits, expected[position]), position
        calls.clear()
