"""Slow full-history baselines used as ground truth for the rolling engine.

These deliberately duplicate the decoder's layer stack instead of calling
into it: an equivalence test against shared code would prove nothing.
Attention is the dense `gqa_attend` under a `build_swa_mask` mask (window
n for plain causal), one [n, n] block per head, not the engine's banded
kernel. Every layer keeps the K/V of every position, so memory grows
linearly with sequence length, which is exactly the behavior the rolling
cache removes. This module must stay independent of the cache and model
modules. It cannot carry `model.reach_probe`'s NaN taint: its dense masked
products multiply masked weights by every key row.
"""

from __future__ import annotations

import numpy as np

from . import attention, tensor
# By name: perfbench/tracer.py swaps attention.gqa_attend for a wrapper that
# reads an older signature and raises, so a call through the module breaks.
from .attention import gqa_attend
from .config import ModelConfig, token_ids
from .tensor import Tensor
from .weights import DecoderWeights

#: Refuse runs whose hidden-state history would exceed this element count;
#: the oracles are for desk-scale verification only.
MAX_HISTORY_ELEMENTS = 2**20

#: Refuse runs longer than this many tokens: each head's n x n score block
#: costs 20-23 bytes of peak memory per entry, about 181 MiB at 3072.
MAX_ORACLE_TOKENS = 3072


class OracleSizeError(ValueError):
    """An oracle run beyond desk scale; the CLI maps it to exit code 1."""


def guard(config: ModelConfig, n_tokens: int) -> None:
    """The one oracle size rule: every oracle entry point checks it, and
    `verify` and `bench --execute` check their longest run before set-up."""
    if n_tokens < 1:
        raise ValueError("token list must be non-empty")
    if n_tokens > config.context_len:
        raise ValueError(f"length {n_tokens} exceeds context_len {config.context_len}")
    if n_tokens > MAX_ORACLE_TOKENS or n_tokens * config.dim > MAX_HISTORY_ELEMENTS:
        raise OracleSizeError(
            f"refusing oracle run: {n_tokens} tokens x dim {config.dim} exceeds "
            f"{MAX_ORACLE_TOKENS} tokens or {MAX_HISTORY_ELEMENTS} history elements"
        )


def _forward(
    weights: DecoderWeights, config: ModelConfig, tokens, causal: bool
) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
    """Full-sequence forward pass under the window mask, or the plain causal
    one; returns the logits and each layer's (keys, values), [n_kv_heads, n,
    head_dim]. Every entry point comes through here: the config must be the
    weights' own and the run must pass `guard`, before any work."""
    if config != weights.config:
        raise ValueError(f"config {config} is not the weights' config {weights.config}")
    guard(config, len(tokens))
    n = len(tokens)
    admissible = attention.build_swa_mask(range(n), range(n), n if causal else config.window_size)
    x = weights.token_embedding[np.asarray(token_ids(config, tokens))]  # [n, dim]
    rope = tensor.rope_table(np.arange(n), config.head_dim)
    history = []
    for layer in weights.layers:
        h = tensor.rms_norm(x, layer.attn_norm_gain)
        q = tensor.matmul(h, layer.Wq).reshape(n, config.n_heads, config.head_dim)
        q = tensor.rope_apply(q.transpose(1, 0, 2), rope)  # [n_heads, n, head_dim]
        k = tensor.matmul(h, layer.Wk).reshape(n, config.n_kv_heads, config.head_dim)
        k = tensor.rope_apply(k.transpose(1, 0, 2), rope)  # [n_kv_heads, n, head_dim]
        v = tensor.matmul(h, layer.Wv).reshape(n, config.n_kv_heads, config.head_dim).transpose(1, 0, 2)
        history.append((k, v))
        merged = gqa_attend(q, k, v, admissible).transpose(1, 0, 2).reshape(n, -1)  # [n, n_heads * head_dim]
        x = x + tensor.matmul(merged, layer.Wo)
        h2 = tensor.rms_norm(x, layer.ffn_norm_gain)
        gated = tensor.silu_gate(tensor.matmul(h2, layer.W1), tensor.matmul(h2, layer.W3))
        x = x + tensor.matmul(gated, layer.W2)
    logits = tensor.matmul(tensor.rms_norm(x, weights.final_norm_gain), weights.output_proj)
    return logits, history


def run_swa_with_history(
    weights: DecoderWeights, config: ModelConfig, tokens
) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
    """Windowed forward pass returning logits plus every layer's (keys,
    values) for all positions, each [n_kv_heads, len(tokens), head_dim]."""
    return _forward(weights, config, tokens, causal=False)


def oracle_forward_swa(weights: DecoderWeights, config: ModelConfig, tokens) -> Tensor:
    """Per-position logits with unbounded storage and an explicit window mask."""
    return _forward(weights, config, tokens, causal=False)[0]


def oracle_forward_causal(weights: DecoderWeights, config: ModelConfig, tokens) -> Tensor:
    """Per-position logits under plain causal attention, no window."""
    return _forward(weights, config, tokens, causal=True)[0]
