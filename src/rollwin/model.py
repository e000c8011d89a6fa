"""Decoder stack over rolling caches: one chunk forward path for decode and
chunked prompt prefill, and the autoregressive generation loop.

Weights are shared and immutable; a GenerationSession owns the mutable state
(one rolling cache per layer plus the next absolute position) for exactly
one sequence. `forward_chunk` is the only layer loop: decode is a chunk of
one token and prefill is the prompt as one chunk. It runs layer by layer,
each layer on only the rows that a kept result can read. What a session
keeps is the last row's logits and each layer's last W K/V rows, and a
query reads W - 1 positions back, so layer l (from 0) of a chunk of n
tokens computes K/V for its last kv_l = min(n, exact_reach - l*(W-1)) rows
and queries, Wo and the feed-forward for its last kv_{l+1} rows (one row
at the last layer). Layer 0 starts `exact_reach` tokens from the end, so
prefill work stops growing with prompt length, and the later layers shrink
by W - 1 rows each. Every row computed sees its whole window, so the
results are bit-identical to running every row.

Layer arithmetic: rms-norm, grouped-query attention with rotary positions
over the sliding window, then a gated feed-forward, each with a residual
connection. Attention is one banded product per layer: every query row
scores exactly its W keys (`attention.window_attend`), and the query
heads that share a kv head follow from the q and K/V shapes. A session
concatenates each layer's Wq|Wk|Wv and W1|W3 by columns once, so each is
one ordered product per layer; every output column is still its own
left-to-right dot product. The Wq|Wk|Wv product runs on all kv_l rows:
its W - 1 unused query rows per layer cost less than a second product
would on every decode step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import attention, tensor
from .cache import RollingKvCache, new_cache
from .config import exact_reach, token_ids
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


def _check_sampler(sampler: SamplerSpec, vocab_size: int) -> None:
    if sampler.mode not in ("greedy", "top-k"):
        raise ValueError(f"unknown sampler mode: {sampler.mode!r}")
    if sampler.mode == "top-k":
        if not (1 <= sampler.k <= vocab_size):
            raise ValueError(f"top-k k={sampler.k} outside [1, {vocab_size}]")
        if not 0 < sampler.temperature < np.inf:
            raise ValueError(f"temperature must be finite and positive, got {sampler.temperature}")


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
        tokens = token_ids(cfg, tokens)
        if not tokens:
            raise ValueError("tokens must be non-empty")
        if self.next_position + len(tokens) > cfg.context_len:
            raise ValueError(
                f"position overflow: position {self.next_position} plus {len(tokens)} tokens "
                f"exceeds context_len {cfg.context_len}"
            )
        return tokens

    def _qkv(self, x: Tensor, layer: LayerWeights, Wqkv: Tensor, rope: tensor.RopeTable):
        """Rotated q, k and unrotated v, head-major: [heads, rows, head_dim]."""
        cfg = self.config
        h = tensor.rms_norm(x, layer.attn_norm_gain)
        heads = tensor.matmul(h, Wqkv).reshape(x.shape[0], -1, cfg.head_dim).transpose(1, 0, 2)
        n_rotated = cfg.n_heads + cfg.n_kv_heads
        qk = tensor.rope_apply(heads[:n_rotated], rope)
        return qk[: cfg.n_heads], qk[cfg.n_heads:], heads[n_rotated:]

    def _residual_ffn(self, x: Tensor, layer: LayerWeights, W13: Tensor, ctx: Tensor) -> Tensor:
        """Attention context [heads, rows, head_dim] through Wo into the
        residual, then the gated feed-forward with its residual."""
        merged = ctx.transpose(1, 0, 2).reshape(x.shape[0], -1)
        x = x + tensor.matmul(merged, layer.Wo)
        h = tensor.rms_norm(x, layer.ffn_norm_gain)
        gates = tensor.matmul(h, W13)
        hidden = self.config.hidden_dim
        gated = tensor.silu_gate(gates[:, :hidden], gates[:, hidden:])
        return x + tensor.matmul(gated, layer.W2)

    def forward_chunk(self, tokens) -> Tensor:
        """Run tokens at the current position; return the last one's logit row.

        The tokens are checked before any write. Layer l then computes K/V
        for its last kv_l = min(n, exact_reach - l*(W-1)) rows and queries,
        Wo and the feed-forward for its last kv_{l+1} rows (one at the last
        layer): only the rows a kept result can read (see the module
        docstring). A layer whose first K/V row lies past its cache restarts
        the cache there. The layer's query rows then attend in one banded
        call over the cached keys followed by the chunk's: each row scores
        exactly the W keys of its window, so a head's score block is
        kv_{l+1} x W. Wo and the feed-forward run once over all of the
        layer's output rows. Decode is the one-row case of the same call.

        This is exact. Each row of every product is its own ordered dot
        product, so computing fewer rows, or more in one product, changes no
        bit of the others. Every row computed sees its whole window, in the
        cache or in the chunk, and keys outside it would only have added
        exact zeros.
        """
        tokens = self._check_tokens(tokens)
        window = self.config.window_size
        end = self.next_position + len(tokens)
        reach = exact_reach(self.config)
        kv_rows = [min(len(tokens), reach - i * (window - 1)) for i in range(self.config.n_layers)] + [1]
        x = self.weights.token_embedding[np.asarray(tokens[len(tokens) - kv_rows[0]:])]  # [kv_0, dim]
        rope = tensor.rope_table(np.arange(end - kv_rows[0], end), self.config.head_dim)
        for n_kv, n_out, layer, (Wqkv, W13), cache in zip(
            kv_rows, kv_rows[1:], self.weights.layers, self._fused, self.caches
        ):
            first = end - n_kv
            if first > cache.next_position:
                cache.restart(first)
            q, k, v = self._qkv(x, layer, Wqkv, tensor.RopeTable(*(t[-n_kv:] for t in rope)))
            cached, k_cache, v_cache = cache.gather()
            keys = np.concatenate([k_cache, k], axis=1)  # positions [cached.start, end)
            values = np.concatenate([v_cache, v], axis=1)
            cache.prefill_bulk(first, k, v)
            ctx = attention.window_attend(
                q[:, n_kv - n_out:], keys, values, end - n_out, cached.start, window
            )
            x = self._residual_ffn(x[n_kv - n_out:], layer, W13, ctx)
        self.next_position = end
        h = tensor.rms_norm(x, self.weights.final_norm_gain)
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
