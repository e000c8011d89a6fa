import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rollwin as rw

#: The benchmark's desk preset for long prefill.
DESK = rw.ModelConfig(dim=128, n_layers=6, head_dim=16, hidden_dim=384, n_heads=8, n_kv_heads=2,
                      window_size=64, context_len=2048, vocab_size=1024)

def row_pair(rng, n_kv=2, head_dim=3):
    k = rng.standard_normal((n_kv, head_dim), dtype=np.float32)
    v = rng.standard_normal((n_kv, head_dim), dtype=np.float32)
    return k, v


class TestConstruction:
    def test_new_cache_from_config(self, toy_config):
        cache = rw.new_cache(toy_config)
        assert cache.capacity == toy_config.window_size
        assert len(cache.retained_positions()) == 0
        assert cache.next_position == 0

    def test_four_slot_cache_starts_empty(self):
        cache = rw.RollingKvCache(2, 4, 3)
        assert len(cache.retained_positions()) == 0
        with pytest.raises(ValueError):
            cache.window_view()

    def test_single_slot_cache(self):
        cache = rw.RollingKvCache(1, 1, 2)
        rng = np.random.default_rng(0)
        for pos in range(5):
            k, v = row_pair(rng, 1, 2)
            cache.append(pos, k, v)
            (only,) = cache.window_view()
            assert only[0] == pos
            assert np.array_equal(only[1], k)

    def test_footprint_is_shape_arithmetic(self, toy_config):
        cache = rw.new_cache(toy_config)
        floats = 2 * toy_config.n_kv_heads * toy_config.window_size * toy_config.head_dim
        assert cache.nbytes == floats * 4

    @pytest.mark.parametrize("config", [rw.PRESET_TOY, DESK], ids=["toy", "desk"])
    def test_position_bytes_times_window_is_cache_nbytes(self, config):
        # The formula the CLI's size check and `bench` use, against the allocation.
        assert rw.cache.position_bytes(config) * config.window_size == rw.new_cache(config).nbytes

    def test_invalid_config_rejected(self):
        from dataclasses import replace

        # An invalid config cannot be built, so it never reaches new_cache.
        with pytest.raises(rw.ConfigError, match="window_size"):
            rw.new_cache(replace(rw.PRESET_TOY, window_size=0))


class TestAppend:
    def test_position_maps_to_modular_slot(self):
        cache = rw.RollingKvCache(1, 4, 2)
        rng = np.random.default_rng(1)
        rows = []
        for pos in range(6):
            k, v = row_pair(rng, 1, 2)
            rows.append(k)
            cache.append(pos, k, v)
        # Position 5 landed in slot 1, position 4 in slot 0.
        assert np.array_equal(cache.keys[:, 1, :], rows[5])
        assert np.array_equal(cache.keys[:, 0, :], rows[4])
        assert np.array_equal(cache.keys[:, 3, :], rows[3])

    def test_wraparound_evicts_oldest(self):
        cache = rw.RollingKvCache(2, 4, 3)
        rng = np.random.default_rng(2)
        for pos in range(5):
            cache.append(pos, *row_pair(rng))
        positions = [p for p, _, _ in cache.window_view()]
        assert positions == [1, 2, 3, 4]

    def test_out_of_order_append_names_positions(self):
        cache = rw.RollingKvCache(2, 4, 3)
        rng = np.random.default_rng(3)
        for pos in range(3):
            cache.append(pos, *row_pair(rng))
        with pytest.raises(ValueError, match="expected position 3, got 1"):
            cache.append(1, *row_pair(rng))

    def test_append_past_the_end_restarts_as_a_one_row_block_does(self):
        rng = np.random.default_rng(17)
        appended, bulk = rw.RollingKvCache(2, 4, 3), rw.RollingKvCache(2, 4, 3)
        for pos in (0, 1, 2, 9, 10, 15):  # past the end at 9 and at 15
            k, v = row_pair(rng)
            appended.append(pos, k, v)
            bulk.prefill_bulk(pos, k[:, np.newaxis], v[:, np.newaxis])
            assert appended.retained_positions() == bulk.retained_positions()
            assert np.array_equal(appended.keys, bulk.keys) and np.array_equal(appended.values, bulk.values)
        assert appended.retained_positions() == range(15, 16)

    def test_row_shape_checked(self):
        cache = rw.RollingKvCache(2, 4, 3)
        with pytest.raises(ValueError):
            cache.append(0, np.zeros((2, 5), np.float32), np.zeros((2, 5), np.float32))


class TestWindowView:
    def test_pre_wrap_insertion_order(self):
        cache = rw.RollingKvCache(2, 4, 3)
        rng = np.random.default_rng(4)
        for pos in range(3):
            cache.append(pos, *row_pair(rng))
        assert [p for p, _, _ in cache.window_view()] == [0, 1, 2]

    def test_post_wrap_chronological_gather(self):
        cache = rw.RollingKvCache(2, 4, 3)
        rng = np.random.default_rng(5)
        log = []
        for pos in range(6):
            k, v = row_pair(rng)
            cache.append(pos, k, v)
            log.append((pos, k, v))
        view = cache.window_view()
        assert [p for p, _, _ in view] == [2, 3, 4, 5]
        for (pv, kv_, vv), (pl, kl, vl) in zip(view, log[-4:]):
            assert pv == pl
            assert np.array_equal(kv_, kl)
            assert np.array_equal(vv, vl)

    def test_long_run_against_unbounded_log(self):
        window = 4
        cache = rw.RollingKvCache(2, window, 3)
        rng = np.random.default_rng(6)
        log = []
        total = 10 * window + 1
        for pos in range(total):
            k, v = row_pair(rng)
            cache.append(pos, k, v)
            log.append((pos, k, v))
        view = cache.window_view()
        assert len(view) == window
        assert view[0][0] == total - window
        for got, want in zip(view, log[-window:]):
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[2], want[2])

    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.sampled_from([1, 2, 3, 4, 8]),
        length=st.integers(1, 200),
        seed=st.integers(0, 2**16),
    )
    def test_master_property_matches_log_tail(self, capacity, length, seed):
        rng = np.random.default_rng(seed)
        cache = rw.RollingKvCache(2, capacity, 3)
        log = []
        for pos in range(length):
            k, v = row_pair(rng)
            cache.append(pos, k, v)
            log.append((pos, k, v))
        view = cache.window_view()
        tail = log[-min(length, capacity):]
        assert [p for p, _, _ in view] == [p for p, _, _ in tail]
        assert all(np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2]) for a, b in zip(view, tail))

    def test_slot_bijection(self):
        cache = rw.RollingKvCache(2, 5, 3)
        rng = np.random.default_rng(7)
        for pos in range(17):
            cache.append(pos, *row_pair(rng))
            retained = list(cache.retained_positions())
            slots = [p % cache.capacity for p in retained]
            assert len(set(slots)) == len(retained)


class TestMemoryBound:
    def test_allocation_never_changes(self):
        cache = rw.RollingKvCache(2, 8, 4)
        keys_buffer = cache.keys
        values_buffer = cache.values
        size = cache.nbytes
        rng = np.random.default_rng(8)
        for pos in range(200):
            cache.append(pos, *row_pair(rng, 2, 4))
            assert cache.nbytes == size
        # Same arrays, mutated in place: no reallocation ever happened.
        assert cache.keys is keys_buffer and cache.values is values_buffer

    def test_filled_saturates_at_capacity(self):
        cache = rw.RollingKvCache(1, 3, 2)
        rng = np.random.default_rng(9)
        seen = []
        for pos in range(7):
            cache.append(pos, *row_pair(rng, 1, 2))
            seen.append(len(cache.retained_positions()))
        assert seen == [1, 2, 3, 3, 3, 3, 3]


class TestPrefillBulk:
    def _bulk_vs_appends(self, capacity, block_len, seed, start=0, prefix=0):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        bulk = rw.RollingKvCache(2, capacity, 3)
        stepped = rw.RollingKvCache(2, capacity, 3)
        for pos in range(prefix):
            k, v = row_pair(rng_a)
            bulk.append(pos, k, v)
            stepped.append(pos, *row_pair(rng_b))
        k_block = rng_a.standard_normal((2, block_len, 3), dtype=np.float32)  # [n_kv, rows, head_dim]
        v_block = rng_a.standard_normal((2, block_len, 3), dtype=np.float32)
        _ = rng_b.standard_normal((2, block_len, 3), dtype=np.float32)
        _ = rng_b.standard_normal((2, block_len, 3), dtype=np.float32)
        bulk.prefill_bulk(prefix, k_block, v_block)
        for i in range(block_len):
            stepped.append(prefix + i, k_block[:, i], v_block[:, i])
        assert bulk.next_position == stepped.next_position
        assert np.array_equal(bulk.keys, stepped.keys)
        assert np.array_equal(bulk.values, stepped.values)

    def test_exhaustive_block_sizes(self):
        for capacity in range(1, 9):
            for block_len in range(1, 3 * capacity + 1):
                self._bulk_vs_appends(capacity, block_len, seed=capacity * 100 + block_len)

    def test_bulk_after_existing_entries(self):
        for prefix in (1, 3, 7):
            self._bulk_vs_appends(4, 6, seed=prefix, prefix=prefix)

    def test_exact_capacity_block_replaces_all_slots(self):
        cache = rw.RollingKvCache(1, 4, 2)
        rng = np.random.default_rng(10)
        first = rng.standard_normal((1, 4, 2), dtype=np.float32)
        cache.prefill_bulk(0, first, first.copy())
        second = rng.standard_normal((1, 4, 2), dtype=np.float32)
        cache.prefill_bulk(4, second, second.copy())
        assert [p for p, _, _ in cache.window_view()] == [4, 5, 6, 7]
        got = np.stack([k[0] for _, k, _ in cache.window_view()])
        assert np.array_equal(got, second[0])

    def test_oversized_block_keeps_trailing_rows(self):
        capacity = 4
        cache = rw.RollingKvCache(1, capacity, 2)
        rng = np.random.default_rng(11)
        block = rng.standard_normal((1, 11, 2), dtype=np.float32)
        cache.prefill_bulk(0, block, block.copy())
        view = cache.window_view()
        assert [p for p, _, _ in view] == [7, 8, 9, 10]
        for pos, k_row, _ in view:
            assert np.array_equal(k_row, block[:, pos])

    def test_out_of_order_bulk_rejected(self):
        cache = rw.RollingKvCache(1, 4, 2)
        block = np.zeros((1, 2, 2), np.float32)
        cache.prefill_bulk(0, block, block)
        with pytest.raises(ValueError, match="expected position 2, got 1"):
            cache.prefill_bulk(1, block, block)

    def test_empty_block_rejected(self):
        cache = rw.RollingKvCache(1, 4, 2)
        block = np.zeros((1, 0, 2), np.float32)
        with pytest.raises(ValueError, match="at least one row"):
            cache.prefill_bulk(0, block, block)

    def test_position_major_block_rejected(self):
        cache = rw.RollingKvCache(2, 4, 3)
        block = np.zeros((5, 2, 3), np.float32)  # [rows, n_kv, head_dim]
        with pytest.raises(ValueError, match="do not fit"):
            cache.prefill_bulk(0, block, block)


def modular_gather(cache):
    """The read the slot runs replaced: one index gather over position % capacity."""
    positions = cache.retained_positions()
    slots = np.arange(positions.start, positions.stop) % cache.capacity
    return positions, cache.keys[:, slots], cache.values[:, slots]


class TestSlotRuns:
    """Reads and writes address slots as at most two contiguous runs. Over
    capacities 1-6, `prefill_bulk` restarts at positions
    capacity+1..3*capacity+1 (every slot residue) and block lengths
    1..2*capacity+1 (oversized blocks included), `gather` and `prefill_bulk`
    return exactly what the modular index returned, and the slot arrays
    after every write equal a reference written one row at a time."""

    @pytest.mark.parametrize("capacity", range(1, 7))
    def test_runs_equal_the_modular_index_and_a_row_by_row_reference(self, capacity):
        rng = np.random.default_rng(capacity)
        for start in range(capacity + 1, 3 * capacity + 2):
            for block_len in range(1, 2 * capacity + 2):
                cache = rw.RollingKvCache(2, capacity, 3)
                stale = rng.standard_normal((2, 2, capacity, 3), dtype=np.float32)
                cache.prefill_bulk(0, stale[0], stale[1])  # rows no read after the restart may show
                reference = stale.copy()
                position = start
                for write in range(3):
                    k, v = rng.standard_normal((2, 2, block_len, 3), dtype=np.float32)
                    # The first write restarts past the stale rows, so none precede its block.
                    before = modular_gather(cache) if write else (range(0), k[:, :0], v[:, :0])
                    keys, values = cache.prefill_bulk(position, k, v)
                    assert np.array_equal(keys, np.concatenate([before[1], k], axis=1))
                    assert np.array_equal(values, np.concatenate([before[2], v], axis=1))
                    for i in range(block_len):
                        reference[:, :, (position + i) % capacity] = k[:, i], v[:, i]
                    position += block_len
                    assert cache.next_position == position
                    assert np.array_equal(cache.keys, reference[0])
                    assert np.array_equal(cache.values, reference[1])
                    positions, keys, values = cache.gather()
                    expected = modular_gather(cache)
                    assert positions == expected[0]
                    assert np.array_equal(keys, expected[1]) and np.array_equal(values, expected[2])


class TestPastTheEnd:
    @pytest.fixture
    def written(self):
        cache = rw.RollingKvCache(2, 4, 3)
        rng = np.random.default_rng(12)
        for pos in range(6):
            cache.append(pos, *row_pair(rng))
        return cache

    def test_block_past_the_end_empties_the_cache_first(self, written):
        block = np.ones((2, 1, 3), np.float32)
        keys, values = written.prefill_bulk(20, block, block)
        assert keys.shape == values.shape == (2, 1, 3)  # no row from before the restart
        assert written.next_position == 21
        positions, keys, values = written.gather()
        assert list(positions) == [20]
        assert np.array_equal(keys, block) and np.array_equal(values, block)

    def test_next_write_must_not_precede_the_blocks_end(self, written):
        row = np.zeros((2, 1, 3), np.float32)
        written.prefill_bulk(20, row, row)
        for wrong in (6, 20):
            with pytest.raises(ValueError, match=f"expected position 21, got {wrong}"):
                written.prefill_bulk(wrong, row, row)
            with pytest.raises(ValueError, match=f"expected position 21, got {wrong}"):
                written.append(wrong, row[:, 0], row[:, 0])

    def test_allocation_unchanged(self):
        cache = rw.RollingKvCache(2, 4, 3)
        keys_buffer, size = cache.keys, cache.nbytes
        block = np.zeros((2, 1, 3), np.float32)
        cache.prefill_bulk(9, block, block)
        assert cache.nbytes == size and cache.keys is keys_buffer

    def test_retained_range_grows_from_the_block(self, written):
        rng = np.random.default_rng(13)
        rows, retained = {}, []
        for pos in range(20, 27):
            rows[pos] = row_pair(rng)
            written.prefill_bulk(pos, *(row[:, np.newaxis] for row in rows[pos]))  # restarts at 20
            retained.append(len(written.retained_positions()))
            assert list(written.retained_positions()) == list(range(max(20, pos - 3), pos + 1))
        assert retained == [1, 2, 3, 4, 4, 4, 4]
        positions, keys, values = written.gather()
        assert list(positions) == [23, 24, 25, 26]
        for i, pos in enumerate(positions):
            assert np.array_equal(keys[:, i, :], rows[pos][0])
            assert np.array_equal(values[:, i, :], rows[pos][1])

    def test_negative_position_rejected(self):
        block = np.zeros((1, 1, 2), np.float32)
        with pytest.raises(ValueError, match="out-of-order write: expected position 0, got -1"):
            rw.RollingKvCache(1, 4, 2).prefill_bulk(-1, block, block)

    def test_block_past_the_end_restarts_the_cache_there(self):
        cache = rw.RollingKvCache(2, 4, 3)
        rng = np.random.default_rng(14)
        cache.prefill_bulk(0, *rng.standard_normal((2, 2, 5, 3), dtype=np.float32))
        k, v = rng.standard_normal((2, 2, 2, 3), dtype=np.float32)
        keys, values = cache.prefill_bulk(9, k, v)
        assert np.array_equal(keys, k) and np.array_equal(values, v)
        assert cache.retained_positions() == range(9, 11)

    def test_block_before_the_end_is_rejected_unwritten(self):
        cache = rw.RollingKvCache(2, 4, 3)
        rng = np.random.default_rng(15)
        cache.prefill_bulk(0, *rng.standard_normal((2, 2, 5, 3), dtype=np.float32))
        keys, values = cache.keys.copy(), cache.values.copy()
        block = np.zeros((2, 1, 3), np.float32)
        with pytest.raises(ValueError, match="expected position 5, got 4"):
            cache.prefill_bulk(4, block, block)
        assert cache.next_position == 5
        assert np.array_equal(cache.keys, keys) and np.array_equal(cache.values, values)

    def test_result_is_a_copy(self):
        cache = rw.RollingKvCache(1, 4, 2)
        block = np.ones((1, 3, 2), np.float32)
        keys, values = cache.prefill_bulk(0, block, block)
        keys[...] = values[...] = 7.0
        block[...] = 5.0
        assert np.array_equal(cache.gather()[1], np.ones((1, 3, 2), np.float32))


def assert_same_cache(cache, before):
    assert (cache.first_position, cache.next_position) == (before.first_position, before.next_position)
    assert cache.retained_positions() == before.retained_positions()
    assert np.array_equal(cache.keys, before.keys) and np.array_equal(cache.values, before.values)


class TestRefusedBlockChangesNothing:
    """prefill_bulk checks the block before it restarts the retained range,
    so a refused block leaves the cache as a deep copy taken before the call."""

    @pytest.fixture
    def cache(self):
        cache = rw.RollingKvCache(2, 4, 8)  # capacity 4, holding positions 0-2
        cache.prefill_bulk(0, *np.random.default_rng(16).standard_normal((2, 2, 3, 8), dtype=np.float32))
        return cache

    @pytest.mark.parametrize("first", [10, 3], ids=["past-the-end", "at-the-end"])
    @pytest.mark.parametrize("k_shape,v_shape,match", [
        ((3, 1, 8), (3, 1, 8), "block shapes"),  # three kv heads, the cache has two
        ((2, 1, 4), (2, 1, 4), "block shapes"),  # head_dim 4, the cache has 8
        ((2, 1, 8), (2, 2, 8), "block shapes"),  # k and v differ
        ((2, 0, 8), (2, 0, 8), "at least one row"),
    ], ids=["kv-heads", "head-dim", "k-v-differ", "zero-rows"])
    def test_bad_block(self, cache, first, k_shape, v_shape, match):
        before = copy.deepcopy(cache)
        with pytest.raises(ValueError, match=match):
            cache.prefill_bulk(first, np.ones(k_shape, np.float32), np.ones(v_shape, np.float32))
        assert_same_cache(cache, before)

    def test_block_before_the_end(self, cache):
        before = copy.deepcopy(cache)
        block = np.ones((2, 1, 8), np.float32)
        with pytest.raises(ValueError, match="out-of-order write: expected position 3, got 2"):
            cache.prefill_bulk(2, block, block)
        assert_same_cache(cache, before)

    def test_accepted_block_past_the_end_still_restarts(self, cache):
        block = np.ones((2, 1, 8), np.float32)
        cache.prefill_bulk(10, block, block)
        assert cache.retained_positions() == range(10, 11)
