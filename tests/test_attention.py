import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rollwin as rw
from conftest import KERNEL_TOL
from rollwin import attention as attention_module
from rollwin import tensor as tensor_module


def plain_mha_reference(q, k, v, admissible):
    """Independent multi-head attention baseline: float64, -inf masking, BLAS."""
    n_heads, n_q, head_dim = q.shape
    out = np.empty((n_heads, n_q, head_dim))
    for h in range(n_heads):
        scores = q[h].astype(np.float64) @ k[h].astype(np.float64).T
        scores /= np.sqrt(head_dim)
        scores = np.where(admissible, scores, -np.inf)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = np.where(admissible, weights, 0.0)
        weights /= weights.sum(axis=-1, keepdims=True)
        out[h] = weights @ v[h].astype(np.float64)
    return out


class TestSwaMask:
    def test_returns_bool_query_by_key_array(self):
        mask = rw.build_swa_mask(range(3, 6), range(7), window=2)
        assert isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (3, 7)

    def test_window_three(self):
        mask = rw.build_swa_mask([4], range(5), window=3)
        assert [k for k, ok in zip(range(5), mask[0]) if ok] == [2, 3, 4]

    def test_first_token_attends_itself(self):
        for window in (1, 2, 16):
            mask = rw.build_swa_mask([0], [0], window)
            assert mask[0, 0]

    def test_window_four_at_position_eight(self):
        mask = rw.build_swa_mask([8], range(9), window=4)
        assert [k for k, ok in zip(range(9), mask[0]) if ok] == [5, 6, 7, 8]

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            rw.build_swa_mask([0], [0], 0)

    def test_rejects_negative_positions(self):
        with pytest.raises(ValueError):
            rw.build_swa_mask([-1], [0], 2)

    @pytest.mark.parametrize("window", range(1, 17))
    def test_exhaustive_invariants_and_pair_counts(self, window):
        # For every L <= 64: causality, the window bound, a self key per row,
        # and agreement between the closed-form count and the mask itself.
        for length in range(1, 65):
            mask = rw.build_swa_mask(range(length), range(length), window)
            q = np.arange(length)[:, None]
            k = np.arange(length)[None, :]
            assert not (mask & (k > q)).any()
            assert not (mask & (q - k > window - 1)).any()
            assert mask.any(axis=1).all()
            assert int(mask.sum()) == rw.score_pair_count(length, window)


def swa_mask_of_chunk(start, chunk_len, cache, window):
    """build_swa_mask over a chunk's positions and the cache's followed by the chunk's."""
    chunk = list(range(start, start + chunk_len))
    return rw.build_swa_mask(chunk, list(cache) + chunk, window)


class TestPrefillMask:
    def test_third_chunk_geometry(self):
        # Chunk covers positions 8..11 with cache 4..7 and window 4.
        mask = rw.build_prefill_mask(8, 4, [4, 5, 6, 7], window=4)
        admitted = {q: [k for k, ok in zip(range(4, 12), row) if ok] for q, row in zip(range(8, 12), mask)}
        assert admitted[8] == [5, 6, 7, 8]
        assert admitted[11] == [8, 9, 10, 11]

    def test_first_chunk_is_pure_causal(self):
        mask = rw.build_prefill_mask(0, 4, [], window=4)
        assert np.array_equal(mask, np.tril(np.ones((4, 4), dtype=bool)))

    def test_cache_position_after_chunk_start_rejected(self):
        with pytest.raises(ValueError, match="cache position"):
            rw.build_prefill_mask(4, 2, [4], window=4)

    def test_window_and_position_checks_are_build_swa_masks(self):
        with pytest.raises(ValueError, match="window"):
            rw.build_prefill_mask(4, 2, [3], window=0)
        with pytest.raises(ValueError, match="non-negative"):
            rw.build_prefill_mask(-1, 2, [], window=4)
        with pytest.raises(ValueError, match="chunk_len"):
            rw.build_prefill_mask(4, 0, [3], window=4)

    def test_equals_swa_mask_on_random_geometries(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            window = int(rng.integers(1, 11))
            start = int(rng.integers(0, 40))
            chunk_len = int(rng.integers(1, 12))
            depth = int(rng.integers(0, min(start, window) + 1))
            cache = list(range(start - depth, start))
            combined = rw.build_prefill_mask(start, chunk_len, cache, window)
            assert combined.shape == (chunk_len, depth + chunk_len)
            assert np.array_equal(combined, swa_mask_of_chunk(start, chunk_len, cache, window))

    def test_equals_swa_mask_exhaustively(self):
        # Every rolling-cache-reachable geometry with combined extent <= 32.
        for window in (1, 2, 3, 4, 8, 16):
            for start in range(0, 32):
                for chunk_len in range(1, 33 - start):
                    depth = min(start, window)
                    cache = list(range(start - depth, start))
                    combined = rw.build_prefill_mask(start, chunk_len, cache, window)
                    assert np.array_equal(combined, swa_mask_of_chunk(start, chunk_len, cache, window))

    def test_shallow_cache_geometries(self):
        # Depths below the reachable one still satisfy the same predicate.
        for window in (1, 2, 3, 4):
            for start in range(0, 9):
                for chunk_len in range(1, 7):
                    for depth in range(0, min(start, window) + 1):
                        cache = list(range(start - depth, start))
                        combined = rw.build_prefill_mask(start, chunk_len, cache, window)
                        assert np.array_equal(combined, swa_mask_of_chunk(start, chunk_len, cache, window))


def one_position_heads(n_heads, n_kv, head_dim=2):
    """q, k, v for one position: q and k zero, kv head g's value row 10 * (g + 1)."""
    q = np.zeros((n_heads, 1, head_dim), dtype=np.float32)
    k = np.zeros((n_kv, 1, head_dim), dtype=np.float32)
    v = np.repeat(10.0 * np.arange(1, n_kv + 1, dtype=np.float32), head_dim).reshape(n_kv, 1, head_dim)
    return q, k, v


def attend_both(q, k, v):
    """gqa_attend and window_attend of one query over the one key."""
    return [rw.gqa_attend(q, k, v, rw.build_swa_mask([0], [0], window=1)), rw.window_attend(q, k, v, 1)]


SHAPES_MESSAGE = "are not \\[heads, rows, head_dim\\]"

# (q, keys, values) shapes that each break one part of the operand rule, and
# the message both kernels raise; well formed would be q [4 heads, 3 rows,
# head_dim 8] over keys and values [2 kv heads, 6 rows, head_dim 8].
MALFORMED_OPERANDS = {
    "q-2d": ((4, 3), (2, 6, 8), (2, 6, 8), SHAPES_MESSAGE),
    "q-4d": ((4, 3, 8, 1), (2, 6, 8), (2, 6, 8), SHAPES_MESSAGE),
    "keys-values-2d": ((4, 3, 8), (6, 8), (6, 8), SHAPES_MESSAGE),  # not 6 kv heads
    "keys-values-4d": ((4, 3, 8), (2, 6, 8, 1), (2, 6, 8, 1), SHAPES_MESSAGE),
    "k-v-differ": ((4, 3, 8), (2, 6, 8), (2, 5, 8), SHAPES_MESSAGE),
    "head-dim": ((4, 3, 4), (2, 6, 8), (2, 6, 8), SHAPES_MESSAGE),
    "uneven-kv-heads": ((6, 3, 8), (4, 6, 8), (4, 6, 8), "^6 query heads cannot share 4 kv heads evenly$"),
    # Not a ZeroDivisionError: the count is checked before it divides.
    "zero-kv-heads": ((4, 3, 8), (0, 6, 8), (0, 6, 8), "^4 query heads cannot share 0 kv heads evenly$"),
}


class TestHeadGrouping:
    """The grouping comes from the shapes: q's and K/V's leading axes."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_OPERANDS))
    def test_both_kernels_refuse_a_malformed_operand_alike(self, case):
        *shapes, match = MALFORMED_OPERANDS[case]
        q, keys, values = (np.ones(shape, np.float32) for shape in shapes)
        with pytest.raises(ValueError, match=match) as dense:
            rw.gqa_attend(q, keys, values, np.ones((3, 6), bool))
        with pytest.raises(ValueError, match=match) as banded:
            rw.window_attend(q, keys, values, 4)
        assert str(banded.value) == str(dense.value)

    def test_preset_7b_mapping(self):
        # 32 query heads over 8 kv heads: head h reads kv head h // 4.
        for out in attend_both(*one_position_heads(32, 8)):
            assert [float(out[h, 0, 0]) for h in range(32)] == [10.0 * (h // 4 + 1) for h in range(32)]

    def test_identity_grouping(self):
        for out in attend_both(*one_position_heads(4, 4)):
            assert [float(out[h, 0, 0]) for h in range(4)] == [10.0, 20.0, 30.0, 40.0]


class TestGqaAttend:
    def _random_inputs(self, seed, n_heads, n_kv, n_tokens, head_dim, scale=0.5):
        rng = np.random.default_rng(seed)
        q = (rng.standard_normal((n_heads, n_tokens, head_dim)) * scale).astype(np.float32)
        k = (rng.standard_normal((n_kv, n_tokens, head_dim)) * scale).astype(np.float32)
        v = (rng.standard_normal((n_kv, n_tokens, head_dim)) * scale).astype(np.float32)
        return q, k, v

    def test_matches_plain_mha_when_ungrouped(self):
        q, k, v = self._random_inputs(5, n_heads=2, n_kv=2, n_tokens=5, head_dim=4)
        mask = rw.build_swa_mask(range(5), range(5), window=3)
        out = rw.gqa_attend(q, k, v, mask)
        ref = plain_mha_reference(q, k, v, mask)
        assert np.max(np.abs(out - ref)) <= 1e-6

    def test_single_admissible_key_returns_value_row(self):
        q, k, v = self._random_inputs(6, n_heads=4, n_kv=2, n_tokens=1, head_dim=8)
        mask = rw.build_swa_mask([3], [3], window=4)
        out = rw.gqa_attend(q, k, v, mask)
        for h in range(4):
            assert np.array_equal(out[h, 0], v[h // 2, 0])

    def test_query_heads_read_grouped_kv_heads(self):
        # With one key per kv head, the output row exposes the mapping.
        q = np.zeros((4, 1, 2), dtype=np.float32)
        k = np.zeros((2, 1, 2), dtype=np.float32)
        v = np.stack([np.full((1, 2), 10.0), np.full((1, 2), 20.0)]).astype(np.float32)
        mask = rw.build_swa_mask([0], [0], window=1)
        out = rw.gqa_attend(q, k, v, mask)
        assert [float(out[h, 0, 0]) for h in range(4)] == [10.0, 10.0, 20.0, 20.0]

    def test_wide_window_matches_vanilla_causal(self):
        n_tokens = 6
        q, k, v = self._random_inputs(9, n_heads=4, n_kv=2, n_tokens=n_tokens, head_dim=4)
        mask = rw.build_swa_mask(range(n_tokens), range(n_tokens), window=n_tokens)
        out = rw.gqa_attend(q, k, v, mask)
        # Vanilla baseline: expand kv heads to query heads, lower-triangular mask.
        expanded_k = np.repeat(k, 2, axis=0)
        expanded_v = np.repeat(v, 2, axis=0)
        ref = plain_mha_reference(q, expanded_k, expanded_v, np.tril(np.ones((n_tokens, n_tokens), bool)))
        assert np.max(np.abs(out - ref)) <= 1e-6

    def test_outputs_stay_in_value_envelope(self):
        for seed in range(4):
            q, k, v = self._random_inputs(seed, n_heads=4, n_kv=2, n_tokens=7, head_dim=4, scale=1.0)
            mask = rw.build_swa_mask(range(7), range(7), window=3)
            out = rw.gqa_attend(q, k, v, mask)
            for h in range(4):
                g = h // 2
                for i in range(7):
                    rows = v[g][mask[i]]
                    assert np.all(out[h, i] >= rows.min(axis=0) - 1e-5)
                    assert np.all(out[h, i] <= rows.max(axis=0) + 1e-5)

    @pytest.mark.parametrize("n_kv", [4, 2, 1])
    def test_each_head_equals_its_2d_reference(self, n_kv):
        # Chunk 8..13 at W=4 over cache 4..7: cache keys in and out of the
        # window, in-chunk keys cut by causality and by the window.
        n_heads, head_dim = 4, 8
        adm = rw.build_prefill_mask(8, 6, range(4, 8), window=4)
        assert adm[:, :4].any() and not adm[:, :4].all()
        assert not adm[0, 5] and not adm[5, 4]
        rng = np.random.default_rng(n_kv)
        q = rng.standard_normal((n_heads, 6, head_dim), dtype=np.float32)
        k = rng.standard_normal((n_kv, 10, head_dim), dtype=np.float32)
        v = rng.standard_normal((n_kv, 10, head_dim), dtype=np.float32)
        out = rw.gqa_attend(q, k, v, adm)
        scale = np.float32(np.sqrt(head_dim))
        for h in range(n_heads):
            g = h // (n_heads // n_kv)
            weights = rw.softmax_stable(rw.matmul(q[h], k[g].T) / scale, masked=~adm)
            assert np.array_equal(out[h], rw.matmul(weights, v[g]))

    def test_all_masked_row_propagates(self):
        q, k, v = self._random_inputs(10, n_heads=2, n_kv=2, n_tokens=2, head_dim=4)
        mask = rw.build_swa_mask([0, 1], [0, 1], window=2)
        mask[0, :] = False
        with pytest.raises(ValueError, match="degenerate attention row"):
            rw.gqa_attend(q, k, v, mask)

    def test_mask_shape_mismatch_rejected(self):
        q, k, v = self._random_inputs(11, n_heads=2, n_kv=2, n_tokens=3, head_dim=4)
        mask = rw.build_swa_mask(range(2), range(2), window=2)
        with pytest.raises(ValueError, match="mask shape"):
            rw.gqa_attend(q, k, v, mask)


def spread_normal(rng, shape):
    """float32 values over four decades, so a reordered or padded sum shows in the bits."""
    magnitude = np.float32(10.0) ** rng.uniform(-2, 2, size=shape).astype(np.float32)
    return (rng.standard_normal(shape) * magnitude).astype(np.float32)


def repeat_kv(rows, group):
    """mistral-src `repeat_kv`: each kv head `group` times in a row along the
    head axis (torch.repeat_interleave), so query head h reads kv head h // group."""
    return np.repeat(rows, group, axis=0)


def tiled_kv(rows, group):
    """A wrong repeat_kv, for the negative control: all kv heads, `group` times over."""
    return np.tile(rows, (group, 1, 1))


def mistral_attention(q, keys, values, window, expand=repeat_kv):
    """float64 sliding-window GQA written from mistral-src `Attention`: kv
    heads expanded to query heads, then softmax(q k^T / sqrt(head_dim)) v
    over keys j with 0 <= i - j <= window - 1. Keys are positions 0..n_k-1
    and the queries the last n_q of them, as window_attend reads its rows."""
    n_q, n_k = q.shape[1], keys.shape[1]
    group = q.shape[0] // keys.shape[0]
    k, v = (expand(rows.astype(np.float64), group) for rows in (keys, values))
    delta = (n_k - n_q + np.arange(n_q))[:, None] - np.arange(n_k)
    scores = q.astype(np.float64) @ k.transpose(0, 2, 1) / np.sqrt(q.shape[2])
    scores = np.where((delta >= 0) & (delta <= window - 1), scores, -np.inf)
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return (weights / weights.sum(axis=-1, keepdims=True)) @ v


class TestMistralReference:
    """Both attentions against mistral_attention, within float32 tolerance."""

    def _inputs(self, n_kv, group, n_q, n_k, head_dim=8):
        rng = np.random.default_rng(n_kv * 100 + group * 10 + n_q)
        return (rng.standard_normal((n_kv * group, n_q, head_dim), dtype=np.float32),
                rng.standard_normal((n_kv, n_k, head_dim), dtype=np.float32),
                rng.standard_normal((n_kv, n_k, head_dim), dtype=np.float32))

    def _both(self, q, keys, values, window):
        n_q, n_k = q.shape[1], keys.shape[1]
        mask = rw.build_swa_mask(range(n_k - n_q, n_k), range(n_k), window)
        return rw.window_attend(q, keys, values, window), rw.gqa_attend(q, keys, values, mask)

    @pytest.mark.parametrize("n_q, n_k", [(1, 1), (1, 12), (5, 5), (6, 14)])
    @pytest.mark.parametrize("window", [1, 3, 8])
    @pytest.mark.parametrize("group", [1, 2, 4])
    @pytest.mark.parametrize("n_kv", [1, 2])
    def test_holds_to_mistral_reference(self, n_kv, group, window, n_q, n_k):
        q, keys, values = self._inputs(n_kv, group, n_q, n_k)
        reference = mistral_attention(q, keys, values, window)
        for out in self._both(q, keys, values, window):
            assert np.allclose(out, reference, atol=KERNEL_TOL, rtol=KERNEL_TOL)

    @pytest.mark.parametrize("window", [1, 3, 8])
    @pytest.mark.parametrize("group", [2, 4])
    def test_tiled_kv_heads_fail_mistral_reference(self, group, window):
        # Negative control: with 1 < n_kv_heads < n_heads, tiling the kv heads
        # pairs query heads with the wrong kv heads.
        q, keys, values = self._inputs(2, group, 6, 14)
        tiled = mistral_attention(q, keys, values, window, expand=tiled_kv)
        for out in self._both(q, keys, values, window):
            assert not np.allclose(out, tiled, atol=KERNEL_TOL, rtol=KERNEL_TOL)


class TestWindowAttend:
    """The banded product, given only the key rows, against gqa_attend under
    the dense window mask over the rows' absolute positions."""

    def _dense(self, q, keys, values, q_start, key_start, window):
        n_q = q.shape[1]
        mask = rw.build_swa_mask(range(q_start, q_start + n_q), range(key_start, q_start + n_q), window)
        return rw.gqa_attend(q, keys, values, mask)

    def _inputs(self, seed, n_heads, n_kv, n_q, n_k, head_dim=8):
        rng = np.random.default_rng(seed)
        return (spread_normal(rng, (n_heads, n_q, head_dim)),
                spread_normal(rng, (n_kv, n_k, head_dim)),
                spread_normal(rng, (n_kv, n_k, head_dim)))

    # (window, q_start, key_start, n_q): full bands with extra older keys
    # (decode over W + 1 retained keys), pad rows at position 0 and after a
    # shallow cache, n_q from 1 to past W, and W = 1.
    @pytest.mark.parametrize(
        "window, q_start, key_start, n_q",
        [(4, 20, 16, 1), (4, 20, 17, 1), (4, 20, 17, 3), (4, 20, 17, 4), (4, 20, 17, 9),
         (4, 20, 10, 6), (4, 0, 0, 1), (4, 0, 0, 3), (4, 0, 0, 10), (4, 2, 0, 5),
         (4, 9, 8, 7), (1, 5, 5, 1), (1, 5, 3, 6), (1, 0, 0, 4), (7, 3, 0, 20)],
    )
    @pytest.mark.parametrize("n_kv", [4, 2, 1], ids=["group1", "group2", "group4"])
    def test_equals_gqa_attend_under_dense_mask(self, window, q_start, key_start, n_q, n_kv):
        n_k = q_start + n_q - key_start
        q, keys, values = self._inputs(window * 100 + q_start + n_q, 4, n_kv, n_q, n_k)
        banded = rw.window_attend(q, keys, values, window)
        dense = self._dense(q, keys, values, q_start, key_start, window)
        assert banded.shape == (4, n_q, 8)
        assert np.array_equal(banded, dense)

    def test_strided_query_rows_equal_contiguous(self):
        # The engine passes q[:, n_kv - n_out:], a view into a wider block.
        q, keys, values = self._inputs(3, 4, 2, 12, 16)
        view = rw.window_attend(q[:, 4:], keys[:, 4:], values[:, 4:], 4)
        copy = rw.window_attend(q[:, 4:].copy(), keys[:, 4:].copy(), values[:, 4:].copy(), 4)
        assert np.array_equal(view, copy)

    @pytest.mark.parametrize("q_start, key_start, n_q", [(20, 16, 1), (20, 17, 6), (2, 0, 5)],
                             ids=["decode", "chunk", "padded"])
    def test_non_contiguous_keys_and_values_equal_contiguous(self, q_start, key_start, n_q):
        # Keys laid out row-major per position, [n_k, n_kv, head_dim], read
        # head-major through a transposed view.
        n_k = q_start + n_q - key_start
        q, keys, values = self._inputs(6, 4, 2, n_q, n_k)
        k_view = np.ascontiguousarray(keys.transpose(1, 0, 2)).transpose(1, 0, 2)
        v_view = np.ascontiguousarray(values.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not k_view.flags.c_contiguous and np.array_equal(k_view, keys)
        view = rw.window_attend(q, k_view, v_view, 4)
        assert np.array_equal(view, rw.window_attend(q, keys, values, 4))

    @pytest.mark.parametrize("layout, n_q", [
        ("contiguous", 6), ("transposed", 6), ("row-slice", 6),
        ("contiguous", 1), ("transposed", 1), ("row-slice", 1),  # one band: a basic slice of the rows
    ], ids=["contiguous", "transposed", "row-slice", "contiguous-one-band", "transposed-one-band", "row-slice-one-band"])
    def test_bands_are_read_only_windows_of_rows(self, layout, n_q):
        rng = np.random.default_rng(9)
        if layout == "transposed":
            rows = spread_normal(rng, (11, 2, 8)).transpose(1, 0, 2)
        elif layout == "row-slice":
            rows = spread_normal(rng, (2, 14, 8))[:, 3:]
        else:
            rows = spread_normal(rng, (2, 11, 8))
        before = rows.copy()
        bands = attention_module._bands(rows, 2, n_q, 4)
        assert bands.shape == (2, n_q, 4, 8) and not bands.flags.writeable
        for i in range(n_q):
            assert np.array_equal(bands[:, i], rows[:, 2 + i : 6 + i])
        assert np.array_equal(bands, attention_module._bands(before, 2, n_q, 4))
        with pytest.raises(ValueError, match="read-only"):
            bands[0, 0, 0, 0] = 1.0
        assert np.array_equal(rows, before)

    def test_inputs_left_unchanged(self):
        q, keys, values = self._inputs(4, 4, 2, 3, 5)
        before = [a.copy() for a in (q, keys, values)]
        rw.window_attend(q, keys, values, 4)
        assert all(np.array_equal(a, b) for a, b in zip((q, keys, values), before))

    def test_shape_mismatches_rejected(self):
        q, keys, values = self._inputs(5, 4, 2, 3, 6)
        with pytest.raises(ValueError, match=SHAPES_MESSAGE):
            rw.window_attend(q, keys, values[:, 1:], 4)
        with pytest.raises(ValueError, match="k/v shapes .* do not fit 3 queries"):
            rw.window_attend(q, keys[:, :2], values[:, :2], 4)  # fewer key rows than queries
        with pytest.raises(ValueError, match=SHAPES_MESSAGE):
            rw.window_attend(q[..., :4], keys, values, 4)
        with pytest.raises(ValueError, match="query heads"):
            rw.window_attend(q[:3], keys, values, 4)
        with pytest.raises(ValueError, match="window"):
            rw.window_attend(q, keys, values, 0)


class TestOneQueryRegime:
    """window_attend's one query (every decode step, from position 0) reads
    its last min(n_k, W) key rows, exactly its window, and forms its score
    and AV terms itself in float32, with no matmul call or band view, and
    one softmax_stable call, whenever each reduce keeps more than one
    output: each drawn case equals, bit for bit, the last row of a
    many-query call over the same rows and gqa_attend under the dense
    window mask."""

    @settings(max_examples=200)
    @given(n_kv=st.sampled_from([1, 2, 3]), group=st.sampled_from([1, 2, 4]),
           head_dim=st.sampled_from([1, 2, 4, 8, 16]), window=st.integers(1, 9), n_k=st.integers(1, 21),
           n_q=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           specials=st.sampled_from([(), (0.0, -0.0), (-0.0, 3e4, -3e4)]))
    def test_equals_many_query_last_row_and_gqa_attend(self, n_kv, group, head_dim, window, n_k, n_q, seed,
                                                      specials):
        # n_k below W is a shallow window; below n_q + W - 1 key rows the
        # many-query call pads its first queries' windows.
        rng = np.random.default_rng(seed)
        n_heads, n_q = n_kv * group, min(n_q, n_k)
        q, keys, values = (spread_normal(rng, shape) for shape in
                           ((n_heads, n_q, head_dim), (n_kv, n_k, head_dim), (n_kv, n_k, head_dim)))
        for rows in (q, keys, values):
            for value in specials:
                rows[rng.random(rows.shape) < 0.1] = value
        many = rw.window_attend(q, keys, values, window)
        mask = rw.build_swa_mask([n_k - 1], range(n_k), window)
        dense = rw.gqa_attend(q[:, -1:], keys, values, mask)

        softmax, calls = tensor_module.softmax_stable, []

        def refused(*args, **kwargs):
            raise AssertionError("the one-query regime called matmul or built a band")

        def counting_softmax(x, masked=None):
            calls.append((x.shape, masked))
            return softmax(x, masked)

        one_query = n_heads * min(n_k, window, head_dim) > 1
        with pytest.MonkeyPatch.context() as patch:
            # A reduce that keeps one output (one score, or one AV output) runs down a lone
            # axis, which numpy sums pairwise, so the band path takes that query.
            if one_query:
                patch.setattr(tensor_module, "matmul", refused)
                patch.setattr(attention_module, "_bands", refused)
            patch.setattr(tensor_module, "softmax_stable", counting_softmax)
            one = rw.window_attend(q[:, -1:], keys, values, window)
        if one_query:
            assert calls == [((n_kv, group, min(n_k, window)), None)]
        assert one.shape == (n_heads, 1, head_dim) and one.dtype == np.float32
        assert np.array_equal(one, many[:, -1:]) and np.array_equal(one, dense)

    @pytest.mark.parametrize("dtype", [np.float64, np.float16])
    def test_other_float_inputs_give_the_float32_result(self, dtype):
        # As the band path and gqa_attend do, whatever the inputs' dtype: over
        # a shallow window, a full one and one past full.
        rng = np.random.default_rng(8)
        for n_k in (3, 8, 11):
            shapes = ((4, 1, 8), (2, n_k, 8), (2, n_k, 8))
            q, keys, values = (spread_normal(rng, shape).astype(dtype) for shape in shapes)
            out = rw.window_attend(q, keys, values, 8)
            assert out.dtype == np.float32
            assert np.array_equal(out, rw.window_attend(*(rows.astype(np.float32) for rows in (q, keys, values)), 8))

    def test_one_head_of_head_dim_one_sums_its_values_in_order(self):
        # One AV output per call, so numpy would sum the lone window axis
        # pairwise; q = 0 weights the 16 keys equally, 1/16 each.
        rng = np.random.default_rng(16)
        for _ in range(20):
            q, keys, values = np.zeros((1, 1, 1), np.float32), *(spread_normal(rng, (1, 16, 1)) for _ in "kv")
            dense = rw.gqa_attend(q, keys, values, rw.build_swa_mask([15], range(16), 16))
            assert np.array_equal(rw.window_attend(q, keys, values, 16), dense)

    @pytest.mark.parametrize("window", [1, 4])
    def test_one_head_over_one_key_sums_its_score_in_order(self, window):
        # Sixteen score terms, eight of +2e38 then eight of -2e38: in order
        # they overflow to +inf and the row is NaN, as under gqa_attend; a
        # pairwise sum would cancel to 0 and return the value row.
        q = np.ones((1, 1, 16), np.float32)
        keys = np.repeat(np.float32([2e38, -2e38]), 8).reshape(1, 1, 16)
        values = np.arange(16, dtype=np.float32).reshape(1, 1, 16)
        with np.errstate(over="ignore", invalid="ignore"):
            out = rw.window_attend(q, keys, values, window)
            dense = rw.gqa_attend(q, keys, values, rw.build_swa_mask([0], [0], window))
        assert np.isnan(dense).all() and np.array_equal(out, dense, equal_nan=True)


class TestPairCounts:
    def test_production_scale_ratio(self):
        swa = rw.score_pair_count(16384, 4096)
        full = rw.full_pair_count(16384)
        assert swa == 58_722_304
        assert full == 134_225_920
        assert full / swa >= 2.0

    def test_window_never_binds(self):
        for length in (1, 5, 100):
            assert rw.score_pair_count(length, length) == rw.full_pair_count(length)
            assert rw.score_pair_count(length, length + 10) == rw.full_pair_count(length)

    def test_small_case_by_enumeration(self):
        assert rw.score_pair_count(5, 2) == 1 + 2 + 2 + 2 + 2 == 9
        assert rw.full_pair_count(5) == 15
        mask = rw.build_swa_mask(range(5), range(5), 2)
        assert int(mask.sum()) == 9

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ValueError):
            rw.full_pair_count(0)
        with pytest.raises(ValueError):
            rw.score_pair_count(5, 0)
