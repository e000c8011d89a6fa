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
A continuation chunk that starts mid-window and runs at least two chunks
of W past exact_reach must give stepped decoding's logits and caches, and
a stream kept from it must decode on as that stream alone.
`rollwin verify` must pass all four checks on drawn configs whose
context_len lets the stream run past the reach boundary, and refuse one
that is a position short.
Every small config that `ModelConfig` accepts must run: prefill equals the
oracle and generation completes, with no overflow or invalid operation.
Every such config must read back equal from its config document and, with
its weights, from a weight file; with any field drawn as a look-alike of an
int (a float, bool or numpy scalar) instead, `ModelConfig` must refuse it.
"""

import copy
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

import rollwin as rw
from conftest import assert_same_state
from rollwin import cli
from rollwin.config import CONFIG_KEYS


@st.composite
def streams(draw):
    """(config, tokens, prefill length, continuation length): the rest decodes."""
    window, layers = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    group, n_kv = draw(st.sampled_from([1, 2, 4, 8])), draw(st.integers(1, 8))
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


@st.composite
def continuations(draw):
    """(config, one token list per stream, prefix length, continuation
    length): the prefix ends mid-window, and the continuation is at least
    two chunks of W longer than exact_reach; 1-2 tokens follow it."""
    window, layers = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    group, n_kv = draw(st.sampled_from([1, 2, 4])), draw(st.integers(1, 2))
    reach = layers * (window - 1) + 1
    prefix = draw(st.integers(0, 2)) * window + draw(st.integers(1, window - 1))
    continuation = draw(st.integers(reach + 2 * window, reach + 3 * window))
    n = prefix + continuation + draw(st.integers(1, 2))
    config = rw.ModelConfig(
        dim=4 * group * n_kv, n_layers=layers, head_dim=4, hidden_dim=24, n_heads=group * n_kv,
        n_kv_heads=n_kv, window_size=window, context_len=n, vocab_size=32,
    )
    token = st.integers(0, config.vocab_size - 1)
    streams = draw(st.lists(st.lists(token, min_size=n, max_size=n), min_size=1, max_size=3))
    return config, streams, prefix, continuation


@settings(max_examples=60)
@given(continuations(), st.integers(0, 2**16), st.data())
def test_continuation_chunks_equal_stepped_decoding(case, seed, data):
    # A long chunk on a non-fresh session runs in W-sized chunks aligned to
    # its end, not to the window; then one stream is kept and decodes on.
    config, streams, prefix, continuation = case
    weights = rw.init_random(config, seed)
    count, end, n_kv = len(streams), prefix + continuation, config.n_kv_heads
    stepped = [rw.GenerationSession(weights) for _ in streams]
    rows = [[session.forward_decode(t) for t in tokens[:end]] for session, tokens in zip(stepped, streams)]
    together = rw.GenerationSession(weights, streams=count)
    for start, stop in ((0, prefix), (prefix, end)):
        chunks = [tokens[start:stop] for tokens in streams]
        last = together.forward_chunk(chunks if count > 1 else chunks[0]).reshape(count, -1)
        assert all(np.array_equal(row, own[stop - 1]) for row, own in zip(last, rows))
    for layer, cache in enumerate(together.caches):
        positions, keys, values = cache.gather()
        for s, session in enumerate(stepped):
            heads = slice(s * n_kv, (s + 1) * n_kv)
            stepped_positions, stepped_keys, stepped_values = session.caches[layer].gather()
            assert positions == stepped_positions == range(end - config.window_size, end)
            assert np.array_equal(keys[heads], stepped_keys) and np.array_equal(values[heads], stepped_values)
    kept = data.draw(st.integers(0, count - 1))
    together.keep_stream(kept)
    for token in streams[kept][end:]:
        assert np.array_equal(together.forward_decode(token), stepped[kept].forward_decode(token))
    for mine, theirs in zip(together.caches, stepped[kept].caches):
        (positions, keys, values), (own_positions, own_keys, own_values) = mine.gather(), theirs.gather()
        assert positions == own_positions
        assert np.array_equal(keys, own_keys) and np.array_equal(values, own_values)


@pytest.mark.parametrize("stream", [-1, 2, 1.0])
def test_keep_stream_refuses_a_stream_it_does_not_have(toy_weights, stream):
    session = rw.GenerationSession(toy_weights, streams=2)
    session.forward_chunk([[1, 2, 3], [4, 5, 6]])
    before = copy.deepcopy(session)
    with pytest.raises((ValueError, TypeError)):
        session.keep_stream(stream)
    assert session.streams == 2
    assert_same_state(session, before)


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


@st.composite
def verify_configs(draw, slack):
    """A small config whose context_len is exact_reach plus a drawn `slack`."""
    window, layers = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    n_kv, group, head_dim = draw(st.integers(1, 2)), draw(st.sampled_from([1, 2, 4])), draw(st.sampled_from([2, 4]))
    return rw.ModelConfig(
        dim=group * n_kv * head_dim, n_layers=layers, head_dim=head_dim, hidden_dim=8, n_heads=group * n_kv,
        n_kv_heads=n_kv, window_size=window, context_len=layers * (window - 1) + 1 + draw(slack),
        vocab_size=draw(st.integers(2, 32)),
    )


@settings(max_examples=200)
@given(verify_configs(st.integers(1, 9)), st.integers(0, 4))
def test_verify_passes_across_the_config_space(config, seed):
    assert [check.name for check in cli.run_verification(config, seed) if not check.passed] == []


@settings(max_examples=20)
@given(verify_configs(st.just(0)))
def test_verify_refuses_a_stream_one_position_short(config):
    with pytest.raises(cli.UsageError, match=f"needs context_len >= {rw.exact_reach(config) + 1} "):
        cli.run_verification(config, 0)


@st.composite
def raw_configs(draw):
    """Small raw values, with n_kv_heads a divisor of n_heads; ModelConfig may refuse them."""
    n_heads, head_dim = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    context_len = draw(st.integers(1, 12))
    return dict(
        dim=n_heads * head_dim, n_layers=draw(st.integers(1, 3)), head_dim=head_dim,
        hidden_dim=draw(st.integers(1, 16)), n_heads=n_heads,
        n_kv_heads=draw(st.sampled_from([d for d in range(1, n_heads + 1) if n_heads % d == 0])),
        window_size=draw(st.integers(1, context_len)), context_len=context_len,
        vocab_size=draw(st.integers(1, 32)),
    )


@settings(max_examples=100)
@given(raw_configs(), st.integers(0, 2**16), st.data())
def test_every_config_that_exists_runs(values, seed, data):
    try:
        config = rw.ModelConfig(**values)
    except rw.ConfigError:
        assume(False)
    weights = rw.init_random(config, seed)
    n = data.draw(st.integers(1, min(2, config.context_len)))
    prompt = data.draw(st.lists(st.integers(0, config.vocab_size - 1), min_size=n, max_size=n))
    with np.errstate(over="raise", invalid="raise"):
        logits = rw.GenerationSession(weights).prefill(prompt)
        assert np.array_equal(logits, rw.oracle_forward_swa(weights, config, prompt)[-1])
        tokens = rw.GenerationSession(weights).generate(prompt, 3)
    assert len(tokens) == min(3, config.context_len - n + 1)


#: Some fields of a drawn config, each to be passed as a look-alike of an int.
look_alikes = st.one_of(st.just({}), st.dictionaries(
    st.sampled_from(CONFIG_KEYS), st.sampled_from([float, bool, np.int64]), min_size=1, max_size=2))


@settings(max_examples=100)
@given(raw_configs(), look_alikes, st.integers(0, 2**16))
def test_every_config_that_exists_round_trips(values, look_alikes, seed):
    drawn = {key: look_alikes.get(key, int)(value) for key, value in values.items()}
    if look_alikes:
        # Refused before any rule, naming the first look-alike in field order.
        first = next(key for key in CONFIG_KEYS if key in look_alikes)
        with pytest.raises(rw.ConfigError, match=f"^non-integer value for '{first}'"):
            rw.ModelConfig(**drawn)
        return
    try:
        config = rw.ModelConfig(**drawn)
    except rw.ConfigError:
        assume(False)
    assert rw.parse_config(rw.config_to_json(config)) == config
    weights = rw.init_random(config, seed)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "weights.bin"
        rw.save_weights(weights, path)
        loaded = rw.load_weights(path)
    assert loaded.config == config
    for (name, tensor), (loaded_name, loaded_tensor) in zip(weights.named_tensors(), loaded.named_tensors(), strict=True):
        assert name == loaded_name and np.array_equal(tensor, loaded_tensor)
