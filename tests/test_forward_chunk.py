"""forward_chunk: continuation at unaligned starts, and rejected input.

Decode and prefill both run through GenerationSession.forward_chunk. These
tests drive it directly at non-zero, window-unaligned positions, with chunks
shorter and longer than the window, and check that it matches token-by-token
decoding bit for bit, and that a rejected chunk leaves the session exactly
as it was.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

import rollwin as rw

from conftest import random_tokens

CONFIGS = {
    "toy": rw.PRESET_TOY,
    "w4l2": replace(rw.PRESET_TOY, window_size=4, n_layers=2),
    "group4": replace(rw.PRESET_TOY, n_kv_heads=1),
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def weights(request):
    return rw.init_random(CONFIGS[request.param], 7)


def assert_same_state(a, b):
    assert a.next_position == b.next_position
    for ca, cb in zip(a.caches, b.caches):
        assert ca.next_position == cb.next_position
        assert np.array_equal(ca.keys, cb.keys)
        assert np.array_equal(ca.values, cb.values)


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
