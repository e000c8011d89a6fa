"""The engine against the full-history oracle over drawn configs.

Hypothesis draws a window of 1-12 keys, 1-4 layers, a query-head group size
of 1, 2 or 4 and a token stream run as prefill, one continuation chunk and
stepped decoding. Every logit row the engine returns must be `array_equal`
to the oracle's row at that position, and after the stream every layer's
cache must be `array_equal` to the cache of a session stepped one token at
a time. Over the same configs, tainting input 0 must reach output 0 and
every output up to n_layers*(W-1) positions after it, and no later one.
"""

from hypothesis import given, settings, strategies as st
import numpy as np

import rollwin as rw


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
