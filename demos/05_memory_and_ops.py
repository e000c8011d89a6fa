#!/usr/bin/env python3
"""What the window buys at production scale, in closed form.

No model execution here: attention work is counted as admissible
(query, key) score pairs and cache cost as stored K/V entries, straight
from the shapes.
"""

import rollwin as rw

cfg = rw.PRESET_7B
W = cfg.window_size
entry_bytes = 2 * cfg.n_kv_heads * cfg.head_dim * 4

print(f"7B preset: window {W}, {cfg.n_kv_heads} kv heads x head_dim {cfg.head_dim}")
print(f"parameters: {rw.parameter_count(cfg):,}")
print()

header = f"{'seq_len':>8} {'full pairs':>14} {'windowed':>14} {'speedup':>8} {'cache MB':>9} {'rolling MB':>11} {'ratio':>6}"
print(header)
print("-" * len(header))
for length in (4096, 8192, 16384, 32768, 65536, 131072):
    full = rw.full_pair_count(length)
    swa = rw.score_pair_count(length, W)
    unbounded_mb = length * entry_bytes * cfg.n_layers / 2**20
    rolling_mb = min(length, rw.cache_slots(W)) * entry_bytes * cfg.n_layers / 2**20
    ratio = rw.cache_memory_ratio(length, cfg)
    print(
        f"{length:>8} {full:>14,} {swa:>14,} {full / swa:>7.2f}x "
        f"{unbounded_mb:>8.0f} {rolling_mb:>10.0f} {ratio:>5.1f}x"
    )

print()
print("At 16k tokens the window already halves the score work; at 32k the")
print("rolling cache is 8x smaller than an unbounded one, and past that the")
print("gap keeps widening while the rolling side stays flat.")
