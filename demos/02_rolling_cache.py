#!/usr/bin/env python3
"""The rolling K/V cache: position i lives in slot i mod W.

Watch four slots absorb eight writes. Memory never grows; the oldest entry
is overwritten and a chronological read-out still comes back in order.
"""

import numpy as np

import rollwin as rw

W = 4
cache = rw.RollingKvCache(n_kv_heads=1, capacity=W, head_dim=2)

print(f"capacity {W} slots, {cache.nbytes} bytes allocated up front\n")

for position in range(8):
    marker = np.full((1, 2), float(position), dtype=np.float32)
    cache.append(position, marker, marker)
    slots = ["--"] * W
    for p in cache.retained_positions():
        slots[p % W] = f"{p:2d}"
    retained = list(cache.retained_positions())
    print(
        f"append pos {position}: slot {position % W} | slots {slots} "
        f"| retained {retained} | {cache.nbytes} bytes"
    )

print()
print("window_view() gathers ascending positions, not slot order:")
for position, k_row, _ in cache.window_view():
    print(f"  position {position} (slot {position % W}) -> key row {k_row[0]}")

print()
print("Bulk writes behave exactly like repeated appends:")
bulk = rw.RollingKvCache(1, W, 2)
block = np.arange(12, dtype=np.float32).reshape(1, 6, 2)  # [n_kv_heads, rows, head_dim]
bulk.prefill_bulk(0, block, block.copy())
print(f"  after one 6-row block: retained {list(bulk.retained_positions())}")
print("  rows older than the trailing W were never stored at all")
