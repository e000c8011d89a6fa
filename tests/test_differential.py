"""The engine against the full-history oracle over drawn configs.

Hypothesis draws a window of 1-12 keys, 1-4 layers, a query-head group size
of 1, 2 or 4 and a token stream run as prefill, one continuation chunk and
stepped decoding. Every logit row the engine returns must be `array_equal`
to the oracle's row at that position, and after the stream every layer's
cache must be `array_equal` to the cache of a session stepped one token at
a time. Over the same configs, tainting input 0 must reach output 0 and
every output up to n_layers*(W-1) positions after it, and no later one,
while the probe's clean stream gives a one-stream session's logits and
cache heads at every step.
Over the same kind of configs, 1-3 streams stepped in lockstep by one
session must each give the logits and cache heads of that stream run alone.
"""

import copy

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import rollwin as rw
from conftest import assert_same_state


@st.composite
def streams(draw):
    """(config, tokens, prefill length, continuation length): the rest decodes."""
    window, layers = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    group, n_kv = draw(st.sampled_from([1, 2, 4])), draw(st.integers(1, 2))
    # Up to past exact_reach, so that prefill skips rows and caches restart.
    n = draw(st.integers(1, layers * (window - 1) + window + 3))
    config = rw.ModelConfig(
        dim=4 * group * n_kv, n_layers=layers, head_dim=4, hidden_dim=24, n_heads=group * n_kv,
        n_kv_heads=n_kv, window_size=window,
        context_len=draw(st.integers(max(window, n), rw.oracle.MAX_ORACLE_TOKENS)),
        vocab_size=32,
    )
    tokens = draw(st.lists(st.integers(0, config.vocab_size - 1), min_size=n, max_size=n))
    prefill = draw(st.integers(1, n))
    continuation = draw(st.integers(0, n - prefill))
    return config, tokens, prefill, continuation


@settings(max_examples=150)
@given(streams(), st.integers(0, 2**16))
def test_engine_equals_oracle_and_stepped_caches(stream, seed):
    config, tokens, prefill, continuation = stream
    weights = rw.init_random(config, seed)
    oracle = rw.oracle_forward_swa(weights, config, tokens)

    session = rw.GenerationSession(weights)
    assert np.array_equal(session.prefill(tokens[:prefill]), oracle[prefill - 1])
    end = prefill + continuation
    if continuation:
        assert np.array_equal(session.forward_chunk(tokens[prefill:end]), oracle[end - 1])
    for i in range(end, len(tokens)):
        assert np.array_equal(session.forward_decode(tokens[i]), oracle[i])

    stepped = rw.GenerationSession(weights)
    for t in tokens:
        stepped.forward_decode(t)
    for mine, theirs in zip(session.caches, stepped.caches):
        (positions, k, v), (stepped_positions, stepped_k, stepped_v) = mine.gather(), theirs.gather()
        assert positions == stepped_positions
        assert np.array_equal(k, stepped_k) and np.array_equal(v, stepped_v)


@settings(max_examples=100)
@given(streams(), st.integers(0, 2**16))
def test_reach_probe_stays_inside_the_receptive_field(stream, seed):
    config, tokens, _, _ = stream
    weights = rw.init_random(config, seed)
    field = range(min(config.n_layers * (config.window_size - 1), len(tokens) - 1) + 1)
    assert rw.reach_probe(weights, tokens, 0) == list(field)


@settings(max_examples=100)
@given(streams(), st.integers(0, 2**16))
def test_reach_probe_steps_its_clean_stream_as_a_session_alone(stream, seed):
    config, tokens, _, _ = stream
    weights = rw.init_random(config, seed)
    alone, n_kv, steps = rw.GenerationSession(weights), config.n_kv_heads, []

    def on_step(session, row):
        steps.append(session.next_position)
        assert np.array_equal(row, alone.forward_decode(tokens[len(steps) - 1]))
        for probed, own in zip(session.caches, alone.caches):
            (positions, keys, values), (own_positions, own_keys, own_values) = probed.gather(), own.gather()
            assert positions == own_positions
            assert np.array_equal(keys[:n_kv], own_keys) and np.array_equal(values[:n_kv], own_values)

    rw.reach_probe(weights, tokens, 0, on_step=on_step)
    assert steps == list(range(1, len(tokens) + 1))


@st.composite
def lockstep_streams(draw):
    """(config, one token list per stream, prefill length, continuation
    length): the continuation is longer than exact_reach, so every cache
    restarts, and 1-3 tokens are decoded after it."""
    window, layers = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    group, n_kv = draw(st.sampled_from([1, 2, 4])), draw(st.integers(1, 2))
    reach = layers * (window - 1) + 1
    prefill, continuation = draw(st.integers(1, window + 3)), draw(st.integers(reach + 1, reach + 4))
    n = prefill + continuation + draw(st.integers(1, 3))
    config = rw.ModelConfig(
        dim=4 * group * n_kv, n_layers=layers, head_dim=4, hidden_dim=24, n_heads=group * n_kv,
        n_kv_heads=n_kv, window_size=window, context_len=max(window, n), vocab_size=32,
    )
    token = st.integers(0, config.vocab_size - 1)
    streams = draw(st.lists(st.lists(token, min_size=n, max_size=n), min_size=1, max_size=3))
    return config, streams, prefill, continuation


@settings(max_examples=80)
@given(lockstep_streams(), st.integers(0, 2**16))
def test_lockstep_streams_equal_each_stream_run_alone(case, seed):
    config, streams, prefill, continuation = case
    weights = rw.init_random(config, seed)
    count, n = len(streams), len(streams[0])
    together = rw.GenerationSession(weights, streams=count)
    alone = [rw.GenerationSession(weights) for _ in streams]
    cuts = [0, prefill, prefill + continuation, *range(prefill + continuation + 1, n + 1)]
    for start, stop in zip(cuts, cuts[1:]):
        chunks = [tokens[start:stop] for tokens in streams]
        if stop - start == 1:
            ids = [chunk[0] for chunk in chunks]
            rows = together.forward_decode(ids if count > 1 else ids[0])
        else:
            rows = together.forward_chunk(chunks if count > 1 else chunks[0])
        rows = rows.reshape(count, -1)
        for row, session, chunk in zip(rows, alone, chunks):
            assert np.array_equal(row, session.forward_chunk(chunk))
    n_kv = config.n_kv_heads
    for layer, cache in enumerate(together.caches):
        positions, keys, values = cache.gather()
        for s, session in enumerate(alone):
            heads = slice(s * n_kv, (s + 1) * n_kv)
            own_positions, own_keys, own_values = session.caches[layer].gather()
            assert positions == own_positions
            assert np.array_equal(keys[heads], own_keys) and np.array_equal(values[heads], own_values)


@pytest.mark.parametrize("streams", [0, -1])
def test_lockstep_refuses_fewer_than_one_stream(toy_weights, streams):
    with pytest.raises(ValueError, match="streams must be >= 1"):
        rw.GenerationSession(toy_weights, streams=streams)


@pytest.mark.parametrize("chunk", [[[1, 2], [3]], [[1, 2]], [[1], [2], [3]], [1, 2], [[], []]],
                         ids=["unequal", "one-list", "three-lists", "flat", "empty"])
def test_lockstep_refuses_a_bad_chunk_before_any_write(toy_weights, chunk):
    session = rw.GenerationSession(toy_weights, streams=2)
    session.forward_chunk([[1, 2, 3], [4, 5, 6]])
    before = copy.deepcopy(session)
    with pytest.raises(ValueError):
        session.forward_chunk(chunk)
    assert_same_state(session, before)
