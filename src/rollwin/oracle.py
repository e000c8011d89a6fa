"""Slow full-history baselines used as ground truth for the rolling engine.

These deliberately duplicate the decoder's layer arithmetic instead of
calling into it: an equivalence test against shared code would prove
nothing. Every layer keeps the K/V of every position, as [n_kv_heads, n,
head_dim] arrays, so memory grows linearly with sequence length, which is
exactly the behavior the rolling cache removes. This module must stay
independent of the cache module.
"""

from __future__ import annotations

import math

import numpy as np

from . import attention, tensor
from .config import ModelConfig, token_ids
from .tensor import Tensor
from .weights import DecoderWeights

#: Refuse runs whose hidden-state history would exceed this element count;
#: the oracles are for desk-scale verification only.
MAX_HISTORY_ELEMENTS = 2**20

#: Refuse runs longer than this many tokens: each head's n x n score block
#: costs 25-29 bytes of peak memory per entry, about 230 MiB at 3072.
MAX_ORACLE_TOKENS = 3072

#: Logit change regarded as influence in reach probes: any change at all.
#: The oracle's arithmetic is deterministic and masked keys add exact
#: zeros, so an output outside the reach of the nudged input reproduces its
#: logits bit for bit, while one just inside it may move by far less than
#: any fixed tolerance (1e-7 missed real influence near the boundary).
REACH_THRESHOLD = 0.0

#: The nudge reach probes add to the first coordinate of one input row.
REACH_EPSILON = 1e-2


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


def _embed(weights: DecoderWeights, tokens) -> Tensor:
    return weights.token_embedding[np.asarray(token_ids(weights.config, tokens))]  # [len, dim]


def _forward_embedded(
    weights: DecoderWeights, config: ModelConfig, x: Tensor, admissible: np.ndarray
) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
    """Full-sequence forward pass from embedded inputs under an explicit mask;
    returns the logits and each layer's (keys, values), [n_kv_heads, n, head_dim]."""
    n = x.shape[0]
    group_size = config.n_heads // config.n_kv_heads
    scale = np.float32(math.sqrt(config.head_dim))
    inadmissible = ~admissible
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
        ctx = np.empty((config.n_heads, n, config.head_dim), dtype=np.float32)
        for head in range(config.n_heads):
            kv = head // group_size
            scores = tensor.matmul(q[head], k[kv].T) / scale
            probs = tensor.softmax_stable(scores, masked=inadmissible)
            ctx[head] = tensor.matmul(probs, v[kv])
        merged = ctx.transpose(1, 0, 2).reshape(n, config.n_heads * config.head_dim)
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
    guard(config, len(tokens))
    n = len(tokens)
    admissible = attention.build_swa_mask(range(n), range(n), config.window_size)
    return _forward_embedded(weights, config, _embed(weights, tokens), admissible)


def oracle_forward_swa(weights: DecoderWeights, config: ModelConfig, tokens) -> Tensor:
    """Per-position logits with unbounded storage and an explicit window mask."""
    return run_swa_with_history(weights, config, tokens)[0]


def oracle_forward_causal(weights: DecoderWeights, config: ModelConfig, tokens) -> Tensor:
    """Per-position logits under plain causal attention, no window."""
    guard(config, len(tokens))
    n = len(tokens)
    admissible = np.tril(np.ones((n, n), dtype=bool))
    return _forward_embedded(weights, config, _embed(weights, tokens), admissible)[0]


def reach_probe(weights: DecoderWeights, config: ModelConfig, tokens, perturb_position: int) -> list[int]:
    """Output positions whose logits move when one input embedding is nudged.

    The embedded input row at perturb_position is shifted by REACH_EPSILON
    in its first coordinate; a position counts as affected when its max-abs
    logit difference exceeds REACH_THRESHOLD, that is, when any logit
    changed.
    """
    n = len(tokens)
    guard(config, n)
    if not 0 <= perturb_position < n:
        raise ValueError(f"perturb_position {perturb_position} outside [0, {n})")
    admissible = attention.build_swa_mask(range(n), range(n), config.window_size)
    base = _embed(weights, tokens)
    poked = base.copy()
    poked[perturb_position, 0] += np.float32(REACH_EPSILON)
    ref, _ = _forward_embedded(weights, config, base, admissible)
    alt, _ = _forward_embedded(weights, config, poked, admissible)
    diff = np.max(np.abs(ref - alt), axis=1)
    return [int(i) for i in np.nonzero(diff > REACH_THRESHOLD)[0]]
