"""Decoder stack over rolling caches: one chunk forward path for decode and
chunked prompt prefill, and the autoregressive generation loop, which
returns only the sampled tokens. Greedy decoding is top-k sampling at k = 1.

Weights are shared and immutable; a GenerationSession owns the mutable state
(one rolling cache per layer plus the next absolute position) for exactly
one sequence, and a caller reads positions and cache bytes off it.
`forward_chunk` is the only layer loop: decode is a chunk of one token and
prefill is the prompt as one chunk. It runs layer by layer, each layer on
only the rows that a kept result can read. What a session keeps is the
last row's logits and each layer's last W K/V rows, and a query reads
W - 1 positions back, so layer l (from 0) of a chunk of n tokens computes
K/V for its last kv_l = min(n, exact_reach - l*(W-1)) rows and queries,
Wo and the feed-forward for its last kv_{l+1} rows (one row at the last
layer). Layer 0 starts `exact_reach` tokens from the end, so
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

import operator
from dataclasses import dataclass, replace

import numpy as np

from . import attention, tensor
from .cache import RollingKvCache, new_cache
from .config import exact_reach, token_ids
from .tensor import Tensor
from .weights import DecoderWeights, LayerWeights


@dataclass(frozen=True)
class SamplerSpec:
    """How to turn a logit row into the next token.

    The k best logits are renormalized at the given temperature and one is
    drawn from a generator seeded with seed. k = 1 is greedy: the argmax,
    whatever the seed and temperature (`generate` still refuses a
    temperature that is not finite and positive).
    """

    k: int = 1
    temperature: float = 1.0
    seed: int = 0


def _check_sampler(sampler: SamplerSpec, vocab_size: int) -> None:
    if not (1 <= sampler.k <= vocab_size):
        raise ValueError(f"top-k k={sampler.k} outside [1, {vocab_size}]")
    if not 0 < sampler.temperature < np.inf:
        raise ValueError(f"temperature must be finite and positive, got {sampler.temperature}")


def sample_token(logits: Tensor, sampler: SamplerSpec, rng: np.random.Generator | None) -> int:
    """Argmax for k = 1 (ties to the lowest id, no generator needed), else a
    temperature-scaled top-k draw from rng."""
    if sampler.k == 1:
        return int(np.argmax(logits))
    # A stable descending sort breaks logit ties toward the lower token id.
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
        self.caches: list[RollingKvCache] = [new_cache(self.config) for _ in range(self.config.n_layers)]
        self._fused = [
            (np.concatenate([layer.Wq, layer.Wk, layer.Wv], axis=1),
             np.concatenate([layer.W1, layer.W3], axis=1))
            for layer in weights.layers
        ]
        self.next_position = 0

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
        for its last kv_l rows and the rest for its last kv_{l+1} (see the
        module docstring). One `cache.extend` per layer writes the K/V rows
        and returns the cached keys followed by the chunk's, over which the
        query rows attend in one banded call: each row scores exactly the W
        keys of its window. Wo and the feed-forward run once over all of the
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
        cos, sin = tensor.rope_table(np.arange(end - kv_rows[0], end), self.config.head_dim)
        for n_kv, n_out, layer, (Wqkv, W13), cache in zip(
            kv_rows, kv_rows[1:], self.weights.layers, self._fused, self.caches
        ):
            q, k, v = self._qkv(x, layer, Wqkv, tensor.RopeTable(cos[-n_kv:], sin[-n_kv:]))
            key_start, keys, values = cache.extend(end - n_kv, k, v)  # positions [key_start, end)
            ctx = attention.window_attend(q[:, n_kv - n_out:], keys, values, end - n_out, key_start, window)
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

    def generate(self, prompt, max_tokens: int = 0, sampler: SamplerSpec = SamplerSpec()) -> list[int]:
        """Prefill the prompt, then sample up to max_tokens continuation tokens.

        Returns the sampled tokens, fewer than max_tokens exactly when the
        context limit stopped the run. The final sampled token is not fed
        back through the model, so `next_position` ends at the prompt length
        plus all but one of them.
        """
        if operator.index(max_tokens) < 0:  # TypeError for a non-integer
            raise ValueError(f"max_tokens must be >= 0, got {max_tokens}")
        _check_sampler(sampler, self.config.vocab_size)
        rng = np.random.default_rng(sampler.seed)
        logits = self.prefill(prompt)
        tokens: list[int] = []
        while len(tokens) < max_tokens:
            tokens.append(sample_token(logits, sampler, rng))
            if len(tokens) == max_tokens or self.next_position >= self.config.context_len:
                break
            logits = self.forward_decode(tokens[-1])
        return tokens


def reach_probe(weights: DecoderWeights, tokens, perturb_position: int) -> list[int]:
    """Output positions that the input at perturb_position reaches.

    That input becomes an extra token id with a NaN embedding row (and a
    zero output_proj column), one session steps the stream, and the
    positions whose logits hold a NaN are returned. NaN survives every +,
    *, exp and max, and 0 * NaN is NaN, so both ends are exact, even for a
    masked read outside the window. The oracle cannot carry the taint: its
    dense masked AV product multiplies masked weights (0) by the NaN row,
    which turns every later row NaN. So non-finite detection in the
    kernels must leave this probe a way through.
    """
    config = weights.config
    tokens = token_ids(config, tokens)
    if not 0 <= perturb_position < len(tokens):
        raise ValueError(f"perturb_position {perturb_position} outside [0, {len(tokens)})")
    tainted = replace(
        weights,
        config=replace(config, vocab_size=config.vocab_size + 1),
        token_embedding=np.vstack([weights.token_embedding, np.full((1, config.dim), np.nan, np.float32)]),
        output_proj=np.hstack([weights.output_proj, np.zeros((config.dim, 1), np.float32)]),
    )
    tokens[perturb_position] = config.vocab_size
    session = GenerationSession(tainted)
    session._check_tokens(tokens)  # refuse an overlong stream before the first step
    return [p for p, t in enumerate(tokens) if np.isnan(session.forward_decode(t)).any()]
