"""Fixed-capacity key/value cache with modular slot placement.

The entry for absolute position i lives in slot i % capacity, so once
`capacity` positions have been written every new append overwrites the
oldest entry and memory stops growing. Reads gather the retained positions
back in ascending order regardless of physical slot layout: `gather`
returns them with their K/V blocks from one index gather over
position % capacity, so the slot layout is known only to this module.

A cache belongs to exactly one generation session: single writer, no
concurrent readers during a write. Distinct sessions are independent.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig, validate
from .tensor import Tensor


class RollingKvCache:
    """One layer's K/V store: `capacity` slots written strictly in sequence."""

    def __init__(self, n_kv_heads: int, capacity: int, head_dim: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.keys = np.zeros((n_kv_heads, capacity, head_dim), dtype=np.float32)
        self.values = np.zeros((n_kv_heads, capacity, head_dim), dtype=np.float32)
        self.next_position = 0

    @property
    def filled(self) -> int:
        """Count of valid entries, saturating at capacity."""
        return min(self.next_position, self.capacity)

    @property
    def nbytes(self) -> int:
        """Allocated cache bytes; constant for the cache's lifetime."""
        return self.keys.nbytes + self.values.nbytes

    def retained_positions(self) -> range:
        """Absolute positions currently stored, oldest first."""
        return range(max(0, self.next_position - self.capacity), self.next_position)

    def _row_shape(self) -> tuple[int, int]:
        return self.keys.shape[0], self.keys.shape[2]

    def append(self, position: int, k_row: Tensor, v_row: Tensor) -> None:
        """Store one token's K/V rows ([n_kv_heads, head_dim]) at `position`.

        Writes must be strictly sequential; the row lands in slot
        position % capacity, overwriting any prior occupant.
        """
        if position != self.next_position:
            raise ValueError(
                f"out-of-order append: expected position {self.next_position}, got {position}"
            )
        expected = self._row_shape()
        if k_row.shape != expected or v_row.shape != expected:
            raise ValueError(
                f"row shapes {k_row.shape}/{v_row.shape} do not match cache rows {expected}"
            )
        slot = position % self.capacity
        self.keys[:, slot, :] = k_row
        self.values[:, slot, :] = v_row
        self.next_position = position + 1

    def gather(self) -> tuple[range, Tensor, Tensor]:
        """Retained positions, ascending, with their keys and values.

        keys and values are [n_kv_heads, filled, head_dim] copies, row i
        holding positions[i]; the caller may hold them across later writes.
        An empty cache gives an empty range and zero-row blocks.
        """
        positions = self.retained_positions()
        slots = np.arange(positions.start, positions.stop) % self.capacity
        return positions, self.keys[:, slots, :], self.values[:, slots, :]

    def window_view(self) -> list[tuple[int, Tensor, Tensor]]:
        """Retained (position, k_row, v_row) triples, ascending by position.

        Rows are copies; the caller may hold them across later writes.
        """
        if self.filled == 0:
            raise ValueError("window_view on an empty cache")
        positions, keys, values = self.gather()
        return [(p, keys[:, i, :], values[:, i, :]) for i, p in enumerate(positions)]

    def prefill_bulk(self, start_position: int, k_block: Tensor, v_block: Tensor) -> None:
        """Write a block of rows ([block_len, n_kv_heads, head_dim]) at once.

        Equivalent to appending each row in order. Rows that would already
        have been overwritten (anything before the trailing `capacity` rows)
        are never materialized in the cache.
        """
        if start_position != self.next_position:
            raise ValueError(
                f"out-of-order bulk write: expected position {self.next_position}, got {start_position}"
            )
        if k_block.ndim != 3 or k_block.shape != v_block.shape:
            raise ValueError(f"block shapes {k_block.shape}/{v_block.shape} do not match")
        n_kv, head_dim = self._row_shape()
        block_len = k_block.shape[0]
        if block_len < 1:
            raise ValueError("bulk write needs at least one row")
        if k_block.shape[1:] != (n_kv, head_dim):
            raise ValueError(
                f"block row shape {k_block.shape[1:]} does not match cache rows {(n_kv, head_dim)}"
            )
        keep_from = max(0, block_len - self.capacity)
        positions = np.arange(start_position + keep_from, start_position + block_len)
        slots = positions % self.capacity
        self.keys[:, slots, :] = np.moveaxis(k_block[keep_from:], 0, 1)
        self.values[:, slots, :] = np.moveaxis(v_block[keep_from:], 0, 1)
        self.next_position = start_position + block_len


def new_cache(config: ModelConfig) -> RollingKvCache:
    """Fresh empty cache sized by the config: window_size slots per kv head."""
    violations = validate(config)
    if violations:
        raise ValueError("invalid config: " + "; ".join(violations))
    return RollingKvCache(config.n_kv_heads, config.window_size, config.head_dim)
