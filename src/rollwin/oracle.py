"""Slow full-history baselines used as ground truth for the rolling engine.

These deliberately duplicate the decoder's layer arithmetic instead of
calling into it: an equivalence test against shared code would prove
nothing. Every K/V row ever produced is kept in an unbounded log, so memory
grows linearly with sequence length, which is exactly the behavior the
rolling cache removes. This module must stay independent of the cache
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import attention, tensor
from .config import ModelConfig
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


@dataclass
class FullHistoryState:
    """Unbounded K/V log: one row appended per layer per position."""

    keys: list[list[Tensor]] = field(default_factory=list)    # [layer][position]
    values: list[list[Tensor]] = field(default_factory=list)

    @classmethod
    def empty(cls, n_layers: int) -> "FullHistoryState":
        return cls([[] for _ in range(n_layers)], [[] for _ in range(n_layers)])

    def append(self, layer: int, k_row: Tensor, v_row: Tensor) -> None:
        self.keys[layer].append(k_row)
        self.values[layer].append(v_row)

    def float_count(self) -> int:
        """Stored scalar count; grows linearly with logged positions."""
        return sum(r.size for rows in self.keys for r in rows) + sum(
            r.size for rows in self.values for r in rows
        )


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
    ids = np.asarray([int(t) for t in tokens])
    outside = [int(t) for t in ids if not 0 <= t < weights.config.vocab_size]
    if outside:
        raise ValueError(f"token ids {outside} outside vocabulary of size {weights.config.vocab_size}")
    return weights.token_embedding[ids]  # [len, dim]


def _forward_embedded(
    weights: DecoderWeights, config: ModelConfig, x: Tensor, admissible: np.ndarray
) -> tuple[Tensor, FullHistoryState]:
    """Full-sequence forward pass from embedded inputs under an explicit mask."""
    n = x.shape[0]
    group_size = config.n_heads // config.n_kv_heads
    scale = np.float32(math.sqrt(config.head_dim))
    inadmissible = ~admissible
    positions = np.arange(n)
    state = FullHistoryState.empty(config.n_layers)
    for li, layer in enumerate(weights.layers):
        h = tensor.rms_norm(x, layer.attn_norm_gain)
        q = tensor.matmul(h, layer.Wq).reshape(n, config.n_heads, config.head_dim)
        q = tensor.rope_apply(q.transpose(1, 0, 2), positions)  # [n_heads, n, head_dim]
        k = tensor.matmul(h, layer.Wk).reshape(n, config.n_kv_heads, config.head_dim)
        k = tensor.rope_apply(k.transpose(1, 0, 2), positions)  # [n_kv_heads, n, head_dim]
        v = tensor.matmul(h, layer.Wv).reshape(n, config.n_kv_heads, config.head_dim)
        for t in range(n):
            state.append(li, k[:, t, :], v[t])
        keys = np.stack(state.keys[li], axis=1)    # [n_kv, n, head_dim]
        values = np.stack(state.values[li], axis=1)
        ctx = np.empty((config.n_heads, n, config.head_dim), dtype=np.float32)
        for head in range(config.n_heads):
            kv = head // group_size
            scores = tensor.matmul(q[head], keys[kv].T) / scale
            probs = tensor.softmax_stable(scores, masked=inadmissible)
            ctx[head] = tensor.matmul(probs, values[kv])
        merged = ctx.transpose(1, 0, 2).reshape(n, config.n_heads * config.head_dim)
        x = x + tensor.matmul(merged, layer.Wo)
        h2 = tensor.rms_norm(x, layer.ffn_norm_gain)
        gated = tensor.silu_gate(tensor.matmul(h2, layer.W1), tensor.matmul(h2, layer.W3))
        x = x + tensor.matmul(gated, layer.W2)
    logits = tensor.matmul(tensor.rms_norm(x, weights.final_norm_gain), weights.output_proj)
    return logits, state


def run_swa_with_history(
    weights: DecoderWeights, config: ModelConfig, tokens
) -> tuple[Tensor, FullHistoryState]:
    """Windowed forward pass returning logits plus the K/V log it built."""
    guard(config, len(tokens))
    n = len(tokens)
    mask = attention.build_swa_mask(range(n), range(n), config.window_size)
    return _forward_embedded(weights, config, _embed(weights, tokens), mask.admissible)


def oracle_forward_swa(weights: DecoderWeights, config: ModelConfig, tokens) -> Tensor:
    """Per-position logits with unbounded storage and an explicit window mask."""
    return run_swa_with_history(weights, config, tokens)[0]


def oracle_forward_causal(weights: DecoderWeights, config: ModelConfig, tokens) -> Tensor:
    """Per-position logits under plain causal attention, no window."""
    guard(config, len(tokens))
    n = len(tokens)
    admissible = np.tril(np.ones((n, n), dtype=bool))
    return _forward_embedded(weights, config, _embed(weights, tokens), admissible)[0]


def reach_probe(
    weights: DecoderWeights,
    config: ModelConfig,
    tokens,
    perturb_position: int,
    epsilon: float = 1e-2,
) -> list[int]:
    """Output positions whose logits move when one input embedding is nudged.

    The embedded input row at perturb_position is shifted by epsilon in its
    first coordinate; a position counts as affected when its max-abs logit
    difference exceeds REACH_THRESHOLD, that is, when any logit changed.
    """
    n = len(tokens)
    guard(config, n)
    if not 0 <= perturb_position < n:
        raise ValueError(f"perturb_position {perturb_position} outside [0, {n})")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    mask = attention.build_swa_mask(range(n), range(n), config.window_size)
    base = _embed(weights, tokens)
    poked = base.copy()
    poked[perturb_position, 0] += np.float32(epsilon)
    ref, _ = _forward_embedded(weights, config, base, mask.admissible)
    alt, _ = _forward_embedded(weights, config, poked, mask.admissible)
    diff = np.max(np.abs(ref - alt), axis=1)
    return [int(i) for i in np.nonzero(diff > REACH_THRESHOLD)[0]]
