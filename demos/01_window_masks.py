#!/usr/bin/env python3
"""Sliding-window masks, drawn.

Every query position may look at itself and the W-1 keys before it. Stack
layers and the visible horizon widens by W-1 positions per layer, which is
how a small window still serves long-range information flow.
"""

import rollwin as rw


def draw(query_positions, key_positions, admissible):
    header = "      " + " ".join(f"{k:2d}" for k in key_positions)
    print(header)
    for q, row in zip(query_positions, admissible):
        cells = " ".join(" x" if ok else " ." for ok in row)
        print(f"q={q:2d} | {cells}")


print("=== one layer, W=3, ten tokens ===")
draw(range(10), range(10), rw.build_swa_mask(range(10), range(10), window=3))
print()
print("Row q=4 admits keys 2, 3, 4: the window is W keys counting itself.")
print()

print("=== the same predicate during a chunked prefill ===")
print("Chunk at positions 8..11, cache holding 4..7, W=4:")
keys = [4, 5, 6, 7, *range(8, 12)]  # the cache's positions, then the chunk's own
draw(range(8, 12), keys, rw.build_swa_mask(range(8, 12), keys, window=4))
print()
print("Left keys fell out of the window, the middle block is the windowed")
print("cache, and the right block is plain causal attention inside the chunk.")
print()

print("=== how far information can travel ===")
cfg = rw.PRESET_7B
print(f"7B preset: {cfg.n_layers} layers x window {cfg.window_size}")
print(f"  theoretical span  n_layers * W        = {rw.theoretical_span(cfg):,} tokens")
print(f"  exact reach       n_layers*(W-1) + 1  = {rw.exact_reach(cfg):,} tokens")
print("The span is the paper's \"approximately 131K tokens\"; with W keys counting")
print("self, each layer reaches back W-1 positions, so the exact reach is the tight bound.")
