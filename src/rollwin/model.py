"""Decoder stack over rolling caches: one chunk forward path for decode and
chunked prompt prefill, and the autoregressive generation loop.

Weights are shared and immutable; a GenerationSession owns the mutable state
(one rolling cache per layer plus the next absolute position) for exactly
one sequence. `forward_chunk` is the only layer loop: it runs any number of
tokens in window-sized pieces, so a decode step is a chunk of one token and
prefill is the prompt as one chunk. On a full cache a decode step also
scores the oldest cached key, one position outside the window; it is
masked, so it adds exact zeros to the ordered sums. Layer arithmetic:
rms-norm, grouped-query attention with rotary positions under the
sliding-window mask, then a gated feed-forward, each with a residual
connection. A session concatenates each layer's Wq|Wk|Wv and W1|W3 by
columns once, so each is one ordered product per layer; every output
column is still its own left-to-right dot product.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import attention, tensor
from .attention import HeadGrouping
from .cache import RollingKvCache, new_cache
from .tensor import Tensor
from .weights import DecoderWeights, LayerWeights


@dataclass(frozen=True)
class SamplerSpec:
    """How to turn a logit row into the next token.

    Greedy mode ignores k, temperature, and seed; top-k renormalizes the k
    best logits at the given temperature and draws from a seeded generator.
    """

    mode: str = "greedy"  # "greedy" | "top-k"
    k: int = 1
    temperature: float = 1.0
    seed: int = 0


@dataclass
class GenerationResult:
    """Continuation tokens plus the run's accounting."""

    tokens: list[int]
    prompt_len: int
    seq_len: int             # positions actually pushed through attention
    wall_time: float
    truncated: bool
    cache_bytes_per_layer: int
    total_cache_bytes: int
    swa_score_pairs: int
    full_score_pairs: int


def chunk_prompt(prompt_len: int, window: int) -> list[tuple[int, int]]:
    """Split [0, prompt_len) into consecutive window-sized half-open ranges.

    The last range may be shorter; together they cover the prompt exactly.
    """
    if prompt_len < 1:
        raise ValueError(f"prompt_len must be >= 1, got {prompt_len}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return [(start, min(start + window, prompt_len)) for start in range(0, prompt_len, window)]


def _check_sampler(sampler: SamplerSpec, vocab_size: int) -> None:
    if sampler.mode not in ("greedy", "top-k"):
        raise ValueError(f"unknown sampler mode: {sampler.mode!r}")
    if sampler.mode == "top-k":
        if not (1 <= sampler.k <= vocab_size):
            raise ValueError(f"top-k k={sampler.k} outside [1, {vocab_size}]")
        if sampler.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {sampler.temperature}")


def sample_token(logits: Tensor, sampler: SamplerSpec, rng: np.random.Generator) -> int:
    """Greedy argmax (ties to the lowest id) or a temperature-scaled top-k draw."""
    if sampler.mode == "greedy":
        return int(np.argmax(logits))
    # Stable descending sort breaks logit ties toward the lower token id,
    # which keeps k=1 identical to greedy.
    order = np.argsort(-logits, kind="stable")[: sampler.k]
    scaled = logits[order].astype(np.float64) / sampler.temperature
    scaled -= scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    return int(rng.choice(order, p=probs))


class GenerationSession:
    """Mutable decode state for one sequence over shared immutable weights."""

    def __init__(self, weights: DecoderWeights):
        self.weights = weights
        self.config = weights.config
        self.grouping = HeadGrouping(self.config.n_heads, self.config.n_kv_heads)
        self.caches: list[RollingKvCache] = [
            new_cache(self.config) for _ in range(self.config.n_layers)
        ]
        self._fused = [
            (np.concatenate([layer.Wq, layer.Wk, layer.Wv], axis=1),
             np.concatenate([layer.W1, layer.W3], axis=1))
            for layer in weights.layers
        ]
        self.next_position = 0

    @property
    def cache_bytes_per_layer(self) -> int:
        return self.caches[0].nbytes

    @property
    def total_cache_bytes(self) -> int:
        return sum(c.nbytes for c in self.caches)

    def _check_tokens(self, tokens) -> list[int]:
        cfg = self.config
        tokens = [int(t) for t in tokens]
        for t in tokens:
            if not 0 <= t < cfg.vocab_size:
                raise ValueError(f"token id {t} outside vocabulary of size {cfg.vocab_size}")
        if not tokens:
            raise ValueError("tokens must be non-empty")
        if self.next_position + len(tokens) > cfg.context_len:
            raise ValueError(
                f"position overflow: position {self.next_position} plus {len(tokens)} tokens "
                f"exceeds context_len {cfg.context_len}"
            )
        return tokens

    def _qkv(self, x: Tensor, layer: LayerWeights, Wqkv: Tensor, positions):
        """Rotated q, k and unrotated v, head-major: [heads, len(positions), head_dim]."""
        cfg = self.config
        h = tensor.rms_norm(x, layer.attn_norm_gain)
        heads = tensor.matmul(h, Wqkv).reshape(x.shape[0], -1, cfg.head_dim).transpose(1, 0, 2)
        n_rotated = cfg.n_heads + cfg.n_kv_heads
        qk = tensor.rope_apply(heads[:n_rotated], positions)
        return qk[: cfg.n_heads], qk[cfg.n_heads:], heads[n_rotated:]

    def _attend_ffn(self, x: Tensor, layer: LayerWeights, W13: Tensor, q, keys, values, mask) -> Tensor:
        """Attention output and residual through Wo, then the gated feed-forward."""
        ctx = attention.gqa_attend(q, keys, values, mask, self.grouping)
        merged = ctx.transpose(1, 0, 2).reshape(x.shape[0], -1)
        x = x + tensor.matmul(merged, layer.Wo)
        h = tensor.rms_norm(x, layer.ffn_norm_gain)
        gates = tensor.matmul(h, W13)
        hidden = self.config.hidden_dim
        gated = tensor.silu_gate(gates[:, :hidden], gates[:, hidden:])
        return x + tensor.matmul(gated, layer.W2)

    def forward_chunk(self, tokens) -> Tensor:
        """Run tokens at the current position; return the last one's logit row.

        The tokens are checked before any write, then run in window-sized
        pieces: per layer a piece attends the rolling cache plus itself, then
        its K/V rows are written. Each score matrix stays within W x 2W.
        """
        tokens = self._check_tokens(tokens)
        for lo, hi in chunk_prompt(len(tokens), self.config.window_size):
            start, end = self.next_position, self.next_position + hi - lo
            x = self.weights.token_embedding[np.asarray(tokens[lo:hi])]  # [n, dim]
            for layer, (Wqkv, W13), cache in zip(self.weights.layers, self._fused, self.caches):
                q, k, v = self._qkv(x, layer, Wqkv, np.arange(start, end))
                cache_positions, k_cache, v_cache = cache.gather()
                keys = np.concatenate([k_cache, k], axis=1)
                values = np.concatenate([v_cache, v], axis=1)
                mask = attention.build_prefill_mask(start, end - start, cache_positions, self.config.window_size)
                x = self._attend_ffn(x, layer, W13, q, keys, values, mask)
                cache.prefill_bulk(start, k.transpose(1, 0, 2), v.transpose(1, 0, 2))
            self.next_position = end
        h = tensor.rms_norm(x[-1:, :], self.weights.final_norm_gain)
        return tensor.matmul(h, self.weights.output_proj)[0]

    def forward_decode(self, token_id: int) -> Tensor:
        """Decode one token at the current position: a chunk of one."""
        return self.forward_chunk([token_id])

    def prefill(self, prompt) -> Tensor:
        """Process a whole prompt as one chunk on a fresh session.

        The resulting session state matches token-by-token decoding, and the
        returned logits are those of the last prompt position.
        """
        if self.next_position != 0:
            raise ValueError("prefill requires a fresh session (next_position 0)")
        return self.forward_chunk(prompt)

    def generate(self, prompt, max_tokens: int = 0, sampler: SamplerSpec = SamplerSpec()) -> GenerationResult:
        """Prefill the prompt, then decode up to max_tokens continuation tokens.

        Stops early, flagging truncation, if the context limit is reached
        with tokens still to produce. The final sampled token is not fed
        back through the model.
        """
        cfg = self.config
        if max_tokens < 0:
            raise ValueError(f"max_tokens must be >= 0, got {max_tokens}")
        _check_sampler(sampler, cfg.vocab_size)
        rng = np.random.default_rng(sampler.seed)
        started = time.perf_counter()
        logits = self.prefill(prompt)
        tokens: list[int] = []
        truncated = False
        for i in range(max_tokens):
            tokens.append(sample_token(logits, sampler, rng))
            if i == max_tokens - 1:
                break
            if self.next_position >= cfg.context_len:
                truncated = True
                break
            logits = self.forward_decode(tokens[-1])
        wall_time = time.perf_counter() - started
        seq_len = self.next_position
        return GenerationResult(
            tokens=tokens,
            prompt_len=len(prompt),
            seq_len=seq_len,
            wall_time=wall_time,
            truncated=truncated,
            cache_bytes_per_layer=self.cache_bytes_per_layer,
            total_cache_bytes=self.total_cache_bytes,
            swa_score_pairs=attention.score_pair_count(seq_len, cfg.window_size),
            full_score_pairs=attention.full_pair_count(seq_len),
        )
