"""Decoder stack over rolling caches: one chunk forward path for decode and
chunked prompt prefill, and the autoregressive generation loop, which
returns only the sampled tokens. Greedy decoding is top-k sampling at k = 1.

Weights are shared and immutable; a GenerationSession owns the mutable state
(a rolling cache per layer, the next absolute position) of one sequence, or
of `streams` stepped in lockstep; a caller reads positions and cache bytes.
`forward_chunk` is the only layer loop: decode is a chunk of one token, and
a prompt runs in chunks of W positions, as in the paper. A session keeps the
last row's logits and each layer's last max(W - 1, 1) K/V rows
(`cache_slots`): a query reads its own key from its chunk and the W - 1
positions before it, so layer l (from 0) of a run of n tokens computes and caches
K/V for its last kv_l = min(n, exact_reach - l*(W-1)) rows (its cache
restarts at the first when that is past its end) and queries, Wo and the
feed-forward for its last kv_{l+1} rows (one row at the last layer): prefill
work stops growing at `exact_reach` tokens. The chunks are aligned to the
end, so the short remainder comes first, where only the early layers run,
and a chunk stops at the first layer none of its rows reach. No product
takes more than W rows per stream and a head's score block is at most W x W,
at the MACs of running the rows as one chunk. Every row computed sees its
whole window, so the results are bit-identical to running every row.

Layer arithmetic: rms-norm, grouped-query attention with rotary positions
over the sliding window, then a gated feed-forward, each with a residual
connection. Attention is one `attention.window_attend` call per layer, W
key slots per row of a chunk and min(n_k, W) keys for one query; the query
heads that share a kv head follow from the q and K/V shapes. The weight set
holds each layer's Wq|Wk|Wv and W1|W3 by columns (`LayerWeights.Wqkv`, `W13`),
one ordered product each per layer, so a session allocates only its caches;
every output column is still its own left-to-right dot product. The Wq|Wk|Wv product runs on all kv_l rows:
its W - 1 unused query rows per layer cost less than a second product
would on every decode step.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from . import attention, tensor
from .cache import RollingKvCache
from .config import cache_slots, exact_reach, token_ids
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
    if not (1 <= operator.index(sampler.k) <= vocab_size):  # TypeError for a non-integer
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
    top = logits[order].astype(np.float64)
    # Gaps below the top logit scale to -inf under a tiny temperature; exp
    # then gives the correct limit 0, so the warning alone is suppressed.
    with np.errstate(over="ignore"):
        probs = np.exp((top - top[0]) / sampler.temperature)
    probs /= probs.sum()
    return int(rng.choice(order, p=probs))


class GenerationSession:
    """Mutable decode state for `streams` equal-length sequences (one by
    default), stepped in lockstep over shared immutable weights. Rows, query
    heads and each layer's `streams * n_kv_heads` cache heads are
    stream-major, so the streams share every product, cache write and
    attention call, and each stays exact: rows and heads never mix."""

    def __init__(self, weights: DecoderWeights, streams: int = 1):
        if operator.index(streams) < 1:
            raise ValueError(f"streams must be >= 1, got {streams}")
        self.weights, self.config, self.streams = weights, weights.config, streams
        shape = (streams * self.config.n_kv_heads, cache_slots(self.config.window_size), self.config.head_dim)
        self.caches = [RollingKvCache(*shape) for _ in weights.layers]
        self.next_position = 0

    @property
    def total_cache_bytes(self) -> int:
        return sum(c.nbytes for c in self.caches)

    def _check_tokens(self, tokens) -> list[list[int]]:
        cfg = self.config
        rows = [token_ids(cfg, row) for row in ([tokens] if self.streams == 1 else tokens)]
        if len(rows) != self.streams or len({len(row) for row in rows}) != 1:
            raise ValueError(f"expected {self.streams} token lists of equal length")
        if not rows[0]:
            raise ValueError("tokens must be non-empty")
        if self.next_position + len(rows[0]) > cfg.context_len:
            raise ValueError(
                f"position overflow: position {self.next_position} plus {len(rows[0])} tokens "
                f"exceeds context_len {cfg.context_len}"
            )
        return rows

    def _qkv(self, x: Tensor, layer: LayerWeights, rope: tensor.RopeTable):
        """Rotated q, k and unrotated v, head-major: [streams * heads, rows, head_dim]."""
        n_heads, n_kv, head_dim = self.config.n_heads, self.config.n_kv_heads, self.config.head_dim
        n = x.shape[0] // self.streams
        h = tensor.rms_norm(x, layer.attn_norm_gain)
        heads = tensor.matmul(h, layer.Wqkv).reshape(self.streams, n, -1, head_dim).swapaxes(1, 2)
        qk = tensor.rope_apply(heads[:, :n_heads + n_kv], rope)
        q, k, v = qk[:, :n_heads], qk[:, n_heads:], heads[:, n_heads + n_kv:]
        return q.reshape(-1, n, head_dim), k.reshape(-1, n, head_dim), v.reshape(-1, n, head_dim)

    def _residual_ffn(self, x: Tensor, layer: LayerWeights, ctx: Tensor) -> Tensor:
        """Attention context [streams * heads, rows, head_dim] (in row order already at one row
        per stream) through Wo into the residual, then the gated feed-forward with its residual."""
        rows = ctx if ctx.shape[1] == 1 else ctx.reshape(self.streams, -1, *ctx.shape[1:]).swapaxes(1, 2)
        x = x + tensor.matmul(rows.reshape(x.shape[0], -1), layer.Wo)
        gates = tensor.matmul(tensor.rms_norm(x, layer.ffn_norm_gain), layer.W13)
        hidden = self.config.hidden_dim
        gated = tensor.silu_gate(gates[:, :hidden], gates[:, hidden:])
        return x + tensor.matmul(gated, layer.W2)

    def forward_chunk(self, tokens) -> Tensor:
        """Run tokens at the current position; return the last one's logit row
        (with streams > 1, one token list in and one row out per stream).

        The tokens are checked before any write, then run in end-aligned
        chunks of at most W positions (see the module docstring). In a
        chunk, one `cache.prefill_bulk` per layer writes the K/V rows, from
        the layer's first computed one (past the cache's end, it restarts
        the cache there), and returns the cached keys followed by the
        chunk's, over which the query rows attend in one call: each row
        scores the keys of its window, at most W. Wo and the feed-forward
        run once over the layer's output rows. Decode is the one-row case.

        This is exact. Each row of every product is its own ordered dot
        product, so computing fewer rows, or more in one product, changes no
        bit of the others. Every row computed sees its whole window, in the
        cache or in the chunk, and keys outside it would only have added
        exact zeros.
        """
        rows = np.asarray(self._check_tokens(tokens))
        config, start = self.config, self.next_position
        window, end, reach = config.window_size, start + rows.shape[1], exact_reach(config)
        # Layer l computes K/V from position firsts[l] and its output from firsts[l + 1].
        firsts = [max(start, end - reach + i * (window - 1)) for i in range(config.n_layers)]
        layers = list(zip(firsts, firsts[1:] + [end - 1], self.weights.layers, self.caches))
        for stop in range(end - (end - firsts[0] - 1) // window * window, end + 1, window):
            begin = max(firsts[0], stop - window)
            x = self.weights.token_embedding.take(rows[:, begin - start:stop - start].ravel(), axis=0)
            table = tensor.rope_table(np.arange(begin, stop), config.head_dim)
            for first, out, layer, cache in layers:
                first = max(first, begin)
                rope = table if first == begin else tensor.RopeTable(*(t[first - begin:] for t in table))
                q, k, v = self._qkv(x, layer, rope)
                keys, values = cache.prefill_bulk(first, k, v)  # rows ending at position stop - 1
                if out >= stop:  # no row of this chunk reaches the next layer
                    break
                if out > first:  # each stream's last stop - out rows
                    q = q[:, out - first:]
                    x = x.reshape(self.streams, stop - first, -1)[:, out - first:].reshape(-1, x.shape[1])
                x = self._residual_ffn(x, layer, attention.window_attend(q, keys, values, window))
        self.next_position = end
        h = tensor.rms_norm(x, self.weights.final_norm_gain)
        logits = tensor.matmul(h, self.weights.output_proj)
        return logits if self.streams > 1 else logits[0]

    def keep_stream(self, stream: int) -> None:
        """Go on as that stream's one-stream session, dropping the other streams' cache heads."""
        if not 0 <= operator.index(stream) < self.streams:
            raise ValueError(f"stream {stream} outside [0, {self.streams})")
        heads = slice(stream * self.config.n_kv_heads, (stream + 1) * self.config.n_kv_heads)
        for cache in self.caches:
            cache.keys, cache.values = cache.keys[heads].copy(), cache.values[heads].copy()
        self.streams = 1

    def forward_decode(self, token_id) -> Tensor:
        """Decode one token (with streams > 1, a list of one per stream): a chunk of one."""
        return self.forward_chunk([token_id] if self.streams == 1 else [[t] for t in token_id])

    def prefill(self, prompt) -> Tensor:
        """Run a whole prompt on a fresh session, in chunks of W positions; the
        state and the returned last-position logits match token-by-token decoding."""
        if self.next_position != 0:
            raise ValueError("prefill requires a fresh session (next_position 0)")
        return self.forward_chunk(prompt)

    def generate(self, prompt, max_tokens: int = 0, sampler: SamplerSpec = SamplerSpec()) -> list[int]:
        """Prefill the prompt, then sample up to max_tokens continuation tokens (one stream).

        Returns the sampled tokens, fewer than max_tokens exactly when the
        context limit stopped the run. The final sampled token is not fed
        back through the model, so `next_position` ends at the prompt length
        plus all but one of them.
        """
        if self.streams != 1:
            raise ValueError(f"generate steps one stream, not {self.streams}")
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


def reach_probe(weights: DecoderWeights, tokens, perturb_position: int, on_step=None) -> list[int]:
    """Output positions that the input at perturb_position reaches.

    One session on a tainted weight set steps the tokens as stream 0 and,
    as stream 1, a copy whose input at perturb_position is an extra id with
    a NaN embedding row (and a zero output_proj column). A position is
    reached when its two logit rows differ. NaN survives every +, *, exp
    and max, and 0 * NaN is NaN, so a reached row is NaN even through a
    masked read outside the window, and any other row is bit-identical to
    stream 0's. The oracle cannot carry the taint: its dense masked AV
    product multiplies masked weights (0) by the NaN row, which turns every
    later row NaN. So non-finite detection in the kernels must leave this
    probe a way through.

    Once every layer's cache heads of stream 1 equal stream 0's again (no NaN
    row is left: from position perturb_position + n_layers*(W-1) on), the
    streams hold the same state and read the same tokens, so no later row
    can differ: the session keeps stream 0 alone from there. The caches are
    compared only after a step whose rows agree, which is at most one step
    late: after every reached position but the last, some layer's cache
    still holds a NaN row. After each
    step, on_step(session, row) gets stream 0's logits over the real
    vocabulary; they and its cache heads are a one-stream session's.
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
    probe = tokens[:perturb_position] + [config.vocab_size] + tokens[perturb_position + 1:]
    session = GenerationSession(tainted, 2)
    session._check_tokens([tokens, probe])  # refuse an overlong stream before the first step
    reached = []
    for position, ids in enumerate(zip(tokens, probe)):
        if session.streams == 1:
            clean = session.forward_decode(ids[0])
        else:
            clean, probed = session.forward_decode(ids)
            if not np.array_equal(clean, probed):
                reached.append(position)
            elif position >= perturb_position and all(np.array_equal(*a.reshape(2, -1))
                                                      for c in session.caches for a in (c.keys, c.values)):
                session.keep_stream(0)
        if on_step:
            on_step(session, clean[:-1])
    return reached
