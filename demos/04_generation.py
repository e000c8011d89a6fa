#!/usr/bin/env python3
"""Autoregressive generation over the rolling cache, checked against the
full-history oracle.

The engine keeps W entries per layer no matter how long the run gets; the
oracle stores everything and recomputes attention over the whole past. Both
produce the same logits, so the bounded memory costs nothing.
"""

import numpy as np

import rollwin as rw

cfg = rw.PRESET_TOY
weights = rw.init_random(cfg, 42)
prompt = [3, 1, 4, 1, 5]

print("--- greedy decoding ---")
session = rw.GenerationSession(weights)
print("continuation:", session.generate(prompt, max_tokens=12, sampler=rw.SamplerSpec()))
print(f"{session.next_position} positions processed, {session.total_cache_bytes} cache bytes total")
print()

print("--- top-k sampling, seeded ---")
for seed in (0, 1):
    session = rw.GenerationSession(weights)
    spec = rw.SamplerSpec(k=16, temperature=0.9, seed=seed)
    print(f"seed {seed}:", session.generate(prompt, max_tokens=12, sampler=spec))
print()

print("--- every step agrees with the unbounded-history oracle ---")
tokens = [int(t) for t in np.random.default_rng(7).integers(0, cfg.vocab_size, size=48)]
session = rw.GenerationSession(weights)
engine_logits = np.stack([session.forward_decode(t) for t in tokens])
oracle_logits = rw.oracle_forward_swa(weights, cfg, tokens)
print(f"max |dlogit| over {len(tokens)} steps: {np.max(np.abs(engine_logits - oracle_logits)):.2e}")

_, history = rw.run_swa_with_history(weights, cfg, tokens)
engine_floats = sum(c.nbytes for c in session.caches) // 4
print(f"engine cache floats: {engine_floats:,} (constant)")
history_floats = sum(k.size + v.size for k, v in history)
print(f"oracle history floats: {history_floats:,} (keeps growing)")
