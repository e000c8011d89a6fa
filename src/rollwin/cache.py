"""Fixed-capacity key/value cache with modular slot placement.

The entry for absolute position i lives in slot i % capacity, so once
`capacity` positions have been written every new write overwrites the
oldest entry and memory stops growing. K/V blocks are head-major,
[n_kv_heads, rows, head_dim], in and out: the layout the engine's
projections produce and its attention reads. Reads return the retained
positions in ascending order whatever the slot layout: up to `capacity`
consecutive positions fill at most two contiguous slot runs (up to the
last slot, then from slot 0), and every read and write goes through them.
An engine session gives each layer `config.cache_slots(W)` slots, W - 1 for
a window of W keys: a query takes its own key from the block it is in, so
the cache holds only rows that a later query reads.

A write before the cache's end is refused; one past it restarts there: the
retained range starts at the block and grows with each write, as if the
cache had been built from that position onwards. A layer of a long chunk
does this when it starts computing rows past the cache's end, because no
result it keeps can read the rows in between.

A cache belongs to exactly one generation session: single writer, no
concurrent readers during a write. Distinct sessions are independent.
"""

from __future__ import annotations

import operator

import numpy as np

from .config import ModelConfig, cache_slots
from .tensor import Tensor


class RollingKvCache:
    """One layer's K/V store: `capacity` slots written strictly in sequence."""

    def __init__(self, n_kv_heads: int, capacity: int, head_dim: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.keys = np.zeros((n_kv_heads, capacity, head_dim), dtype=np.float32)
        self.values = np.zeros((n_kv_heads, capacity, head_dim), dtype=np.float32)
        self.first_position = 0
        self.next_position = 0

    @property
    def nbytes(self) -> int:
        """Allocated cache bytes; constant for the cache's lifetime."""
        return self.keys.nbytes + self.values.nbytes

    def retained_positions(self) -> range:
        """Absolute positions currently stored, oldest first."""
        return range(max(self.first_position, self.next_position - self.capacity), self.next_position)

    def append(self, position: int, k_row: Tensor, v_row: Tensor) -> None:
        """Store one token's K/V rows ([n_kv_heads, head_dim]) at `position`.

        A one-row prefill_bulk, with its rule for a position before or past
        the end; the row lands in slot position % capacity.
        """
        self.prefill_bulk(position, k_row[:, np.newaxis], v_row[:, np.newaxis])

    def gather(self) -> tuple[range, Tensor, Tensor]:
        """Retained positions, ascending, with their keys and values.

        keys and values are [n_kv_heads, len(positions), head_dim] copies, row i
        holding positions[i]; the caller may hold them across later writes.
        An empty cache gives an empty range and zero-row blocks.
        """
        positions = self.retained_positions()
        head, tail = self._slot_runs(positions.start, positions.stop)
        return (positions, np.concatenate((self.keys[:, head], self.keys[:, tail]), axis=1),
                np.concatenate((self.values[:, head], self.values[:, tail]), axis=1))

    def window_view(self) -> list[tuple[int, Tensor, Tensor]]:
        """Retained (position, k_row, v_row) triples, ascending by position.

        Rows are copies; the caller may hold them across later writes.
        """
        positions, keys, values = self.gather()
        if not positions:
            raise ValueError("window_view on an empty cache")
        return [(p, keys[:, i, :], values[:, i, :]) for i, p in enumerate(positions)]

    def prefill_bulk(self, start_position: int, k_block: Tensor, v_block: Tensor) -> tuple[Tensor, Tensor]:
        """Write a block of rows ([n_kv_heads, block_len, head_dim]) at once;
        return copies of `gather`'s keys and values from before the write, each
        followed by the block: the rows the block's queries read.

        The cache's one write and its one check: `append` and every engine
        forward step come here, in the layout `gather` returns. A block at a
        non-integer start or before the end is refused; one past the end
        restarts the retained range at its start once every check has
        passed, so a refused block leaves the cache as it was. Equivalent to
        appending each row in order; rows before the block's trailing
        `capacity` are never materialized.
        """
        try:
            start_position = operator.index(start_position)
        except TypeError:
            raise ValueError(f"write position must be an integer, got {start_position!r}") from None
        if start_position < self.next_position:
            raise ValueError(f"out-of-order write: expected position {self.next_position}, got {start_position}")
        shape, (n_kv, _, head_dim) = k_block.shape, self.keys.shape
        if shape != v_block.shape or len(shape) != 3 or shape[0] != n_kv or shape[2] != head_dim:
            raise ValueError(f"block shapes {shape}/{v_block.shape} do not fit [{n_kv}, rows, {head_dim}] blocks")
        if shape[1] < 1:
            raise ValueError("bulk write needs at least one row")
        if start_position > self.next_position:  # past the end: restart the retained range there
            self.first_position = self.next_position = start_position
        positions = self.retained_positions()
        head, tail = self._slot_runs(positions.start, positions.stop)
        keys = np.concatenate((self.keys[:, head], self.keys[:, tail], k_block), axis=1)
        values = np.concatenate((self.values[:, head], self.values[:, tail], v_block), axis=1)
        # Only the block's last `capacity` positions outlive the write: its rows from `first` on.
        end, first = start_position + shape[1], max(0, shape[1] - self.capacity)
        head, tail = self._slot_runs(start_position + first, end)
        split = first + head.stop - head.start
        self.keys[:, head], self.values[:, head] = k_block[:, first:split], v_block[:, first:split]
        if tail.stop:  # they wrap: rows from `split` on land from slot 0
            self.keys[:, tail], self.values[:, tail] = k_block[:, split:], v_block[:, split:]
        self.next_position = end
        return keys, values

    def _slot_runs(self, start: int, stop: int) -> tuple[slice, slice]:
        """Slots of positions [start, stop), at most `capacity`: two runs, the second empty but on a wrap."""
        first = start % self.capacity
        end = first + stop - start
        return slice(first, min(end, self.capacity)), slice(0, max(0, end - self.capacity))


def position_bytes(config: ModelConfig) -> int:
    """Bytes of one position in one layer's cache: a float32 K and V row per kv head."""
    return 2 * config.n_kv_heads * config.head_dim * np.dtype(np.float32).itemsize


def new_cache(config: ModelConfig) -> RollingKvCache:
    """Fresh empty cache sized by the config: `cache_slots` rows per kv head."""
    return RollingKvCache(config.n_kv_heads, cache_slots(config.window_size), config.head_dim)
