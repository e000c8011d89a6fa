#!/usr/bin/env python3
"""Chunked prefill: bulk-load a prompt without giant score matrices.

A known prompt does not need token-by-token decoding. It runs as one chunk,
layer by layer. Each layer computes only the rows a kept result can read
(the last row's logits and each layer's last W cache rows), so later layers
run fewer rows, and each query row scores exactly the W keys of its
window. The final state is identical to having decoded every token one at
a time.
"""

import numpy as np

import rollwin as rw

cfg = rw.PRESET_TOY
weights = rw.init_random(cfg, 42)
prompt = [int(t) for t in np.random.default_rng(0).integers(0, cfg.vocab_size, size=26)]

print(f"prompt of {len(prompt)} tokens, window {cfg.window_size}")
# Layer l computes K/V for its last kv_l rows and queries, Wo and the
# feed-forward for its last out_l rows: W - 1 fewer per layer, 1 at the top.
reach, W = rw.exact_reach(cfg), cfg.window_size
kv = [min(len(prompt), reach - layer * (W - 1)) for layer in range(cfg.n_layers)]
for layer, (kv_rows, out_rows) in enumerate(zip(kv, kv[1:] + [1])):
    print(f"  layer {layer}: K/V rows {kv_rows:2d}, query/Wo/FFN rows {out_rows:2d}")
print()

chunked = rw.GenerationSession(weights)
logits_chunked = chunked.prefill(prompt)

stepped = rw.GenerationSession(weights)
for token in prompt:
    logits_stepped = stepped.forward_decode(token)

print("final-position logit difference, prefill vs token-by-token:")
print(f"  max abs = {np.max(np.abs(logits_chunked - logits_stepped)):.2e}")

positions_equal = all(
    list(a.retained_positions()) == list(b.retained_positions())
    for a, b in zip(chunked.caches, stepped.caches)
)
contents_equal = all(
    np.array_equal(a.keys, b.keys) and np.array_equal(a.values, b.values)
    for a, b in zip(chunked.caches, stepped.caches)
)
print(f"  retained positions identical: {positions_equal}")
print(f"  cache contents bit-identical: {contents_equal}")
print()

# Each query row scores exactly its W keys, and a layer runs at most
# kv_1 = exact_reach - W + 1 query rows, so a head's score block stays
# within (exact_reach - W + 1) x W however long the prompt is.
rows = min(len(prompt), reach - W + 1)
print("largest score block a single head ever sees during this prefill:")
print(f"  {rows} queries x {W} keys = {rows * W} scores "
      f"(vs {len(prompt)}^2 = {len(prompt) ** 2} for dense attention over the prompt)")
