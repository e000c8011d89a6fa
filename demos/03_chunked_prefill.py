#!/usr/bin/env python3
"""Chunked prefill: bulk-load a prompt without giant score matrices.

A known prompt does not need token-by-token decoding. As in the paper, it
runs in chunks of W positions, each attending the cache and itself. Each
layer computes only the rows a kept result can read (the last row's logits
and each layer's last W cache rows), so later layers run fewer rows. The
chunks are aligned to the prompt's end: the short remainder comes first,
where only the early layers run, and a chunk stops at the first layer none
of its rows reach. Each query row scores exactly the W keys of its window,
so a head's score block is at most W x W. The final state is identical to
having decoded every token one at a time.
"""

import numpy as np

import rollwin as rw

cfg = rw.PRESET_TOY
weights = rw.init_random(cfg, 42)
prompt = [int(t) for t in np.random.default_rng(0).integers(0, cfg.vocab_size, size=30)]
n, reach, W = len(prompt), rw.exact_reach(cfg), cfg.window_size

print(f"prompt of {n} tokens, window {W}, exact_reach {reach}")
# Layer l computes K/V for the last kv_l rows of the prompt and queries, Wo
# and the feed-forward for its last kv_{l+1} rows: W - 1 fewer per layer,
# 1 at the top. The chunks cover layer 0's rows, W at a time from the end.
kv = [min(n, reach - layer * (W - 1)) for layer in range(cfg.n_layers)] + [1]
stops = list(range(n, n - kv[0], -W))[::-1]
print("chunk plan (K/V rows / query, Wo and FFN rows per layer):")
for stop in stops:
    begin, layers = max(n - kv[0], stop - W), []
    for kv_rows, out_rows in zip(kv, kv[1:]):
        layers.append(f"{stop - max(begin, n - kv_rows)}/{max(0, stop - max(begin, n - out_rows))}")
        if layers[-1].endswith("/0"):
            break
    print(f"  positions [{begin:2d}, {stop:2d}): " + "  ".join(layers))
print()

scores = []
softmax = rw.tensor.softmax_stable


def recording(x, masked=None):
    scores.append(x.shape)  # [n_kv_heads, query rows, group, keys]
    return softmax(x, masked)


rw.tensor.softmax_stable = recording
chunked = rw.GenerationSession(weights)
logits_chunked = chunked.prefill(prompt)
rw.tensor.softmax_stable = softmax

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

# A chunk has at most W query rows, each scoring exactly its W keys, so a
# head's score block stays within W x W however long the prompt is.
rows = max(shape[1] for shape in scores)
keys = max(shape[-1] for shape in scores)
print(f"largest score block a single head saw during this prefill ({len(scores)} attention calls):")
print(f"  {rows} queries x {keys} keys = {rows * keys} scores, bound W x W = {W * W} "
      f"(vs {n}^2 = {n ** 2} for dense attention over the prompt)")
