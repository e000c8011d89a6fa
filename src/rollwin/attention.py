"""Grouped-query scaled-dot-product attention under sliding-window masks.

Pure functions over immutable inputs. Masks carry absolute token positions;
keys and values are always consumed in ascending absolute-position order so
that every caller accumulates attention sums identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import tensor
from .tensor import Tensor


@dataclass(frozen=True, eq=False)
class AttentionMask:
    """Admissibility of (query, key) pairs at absolute token positions.

    admissible[i, j] says whether the query at query_positions[i] may attend
    the key at key_positions[j]. Admissible pairs are always causal
    (key <= query) and within the window (query - key <= window - 1).
    """

    query_positions: tuple[int, ...]
    key_positions: tuple[int, ...]
    admissible: np.ndarray  # bool, [n_queries, n_keys]


@dataclass(frozen=True)
class HeadGrouping:
    """Assignment of query heads to shared key/value heads."""

    n_heads: int
    n_kv_heads: int

    def __post_init__(self):
        if self.n_kv_heads < 1 or self.n_heads % self.n_kv_heads != 0:
            raise ValueError(
                f"{self.n_heads} query heads cannot share {self.n_kv_heads} kv heads evenly"
            )

    @property
    def group_size(self) -> int:
        return self.n_heads // self.n_kv_heads

    def kv_head(self, query_head: int) -> int:
        """KV head serving the given query head."""
        return query_head // self.group_size


def build_swa_mask(
    query_positions: Iterable[int], key_positions: Iterable[int], window: int
) -> AttentionMask:
    """Admit (q, k) iff 0 <= q - k <= window - 1.

    The window counts `window` keys including the query's own position, so a
    query at position i sees keys in [max(0, i - window + 1), i].
    """
    qpos = tuple(int(p) for p in query_positions)
    kpos = tuple(int(p) for p in key_positions)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if any(p < 0 for p in qpos + kpos):
        raise ValueError("positions must be non-negative")
    delta = np.asarray(qpos, dtype=np.int64)[:, None] - np.asarray(kpos, dtype=np.int64)[None, :]
    admissible = (delta >= 0) & (delta <= window - 1)
    return AttentionMask(qpos, kpos, admissible)


def build_prefill_mask(
    chunk_start: int, chunk_len: int, cache_positions: Iterable[int], window: int
) -> AttentionMask:
    """Mask for one prefill chunk attending the cache and itself.

    The key axis is the cache positions followed by the chunk's own
    positions. Three regions emerge: in-chunk keys under a causal rule,
    recent cache keys inside the window, and older keys excluded entirely.
    The admissibility predicate is identical to build_swa_mask over the
    combined key list.
    """
    if chunk_len < 1:
        raise ValueError(f"chunk_len must be >= 1, got {chunk_len}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if chunk_start < 0:
        raise ValueError(f"chunk_start must be non-negative, got {chunk_start}")
    cached = tuple(int(p) for p in cache_positions)
    for p in cached:
        if p >= chunk_start:
            raise ValueError(f"cache position {p} is not before chunk start {chunk_start}")
        if p < 0:
            raise ValueError("positions must be non-negative")
    qpos = np.arange(chunk_start, chunk_start + chunk_len, dtype=np.int64)
    if cached:
        # Cache block: causality is given (cache < chunk), only the window binds.
        cache_block = qpos[:, None] - np.asarray(cached, dtype=np.int64)[None, :] <= window - 1
    else:
        cache_block = np.zeros((chunk_len, 0), dtype=bool)
    # Chunk block: causal within the chunk, windowed for chunks wider than W.
    delta = qpos[:, None] - qpos[None, :]
    chunk_block = (delta >= 0) & (delta <= window - 1)
    admissible = np.concatenate([cache_block, chunk_block], axis=1)
    keys = cached + tuple(range(chunk_start, chunk_start + chunk_len))
    return AttentionMask(tuple(int(p) for p in qpos), keys, admissible)


def gqa_attend(
    q: Tensor, k: Tensor, v: Tensor, mask: AttentionMask, grouping: HeadGrouping
) -> Tensor:
    """Grouped-query attention over position-ordered keys.

    q: [n_heads, n_q, head_dim]; k, v: [n_kv_heads, n_k, head_dim] with rows
    in ascending absolute-position order (mask.key_positions). Query head h
    reads kv head h // group_size; per head the output is
    softmax(q k^T / sqrt(head_dim)) v with masked pairs excluded from the
    max and the normalizer. All heads share one batched product per stage,
    bit-identical to one 2-D product per head.
    """
    if q.ndim != 3 or q.shape[0] != grouping.n_heads:
        raise ValueError(f"q shape {q.shape} does not fit {grouping.n_heads} query heads")
    if k.ndim != 3 or k.shape != v.shape or k.shape[0] != grouping.n_kv_heads:
        raise ValueError(
            f"k/v shapes {k.shape}/{v.shape} do not fit {grouping.n_kv_heads} kv heads"
        )
    if q.shape[2] != k.shape[2]:
        raise ValueError(f"head_dim mismatch: q {q.shape[2]} vs k {k.shape[2]}")
    n_q, n_k = q.shape[1], k.shape[1]
    if mask.admissible.shape != (n_q, n_k):
        raise ValueError(f"mask shape {mask.admissible.shape}, expected {(n_q, n_k)}")
    if any(b <= a for a, b in zip(mask.key_positions, mask.key_positions[1:])):
        raise ValueError("key positions must be strictly ascending")

    # One batched product per stage: query head h reads kv head h // group_size.
    kv = np.arange(grouping.n_heads) // grouping.group_size
    scale = np.float32(math.sqrt(q.shape[2]))
    scores = tensor.matmul(q, k[kv].transpose(0, 2, 1)) / scale    # [n_heads, n_q, n_k]
    masked = np.broadcast_to(~mask.admissible, scores.shape)
    weights = tensor.softmax_stable(scores, masked=masked)
    return tensor.matmul(weights, v[kv])


def full_pair_count(seq_len: int) -> int:
    """Admissible (query, key) pairs under plain causal attention."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    return seq_len * (seq_len + 1) // 2


def score_pair_count(seq_len: int, window: int) -> int:
    """Admissible (query, key) pairs under the sliding window.

    Position i admits min(i + 1, window) keys, so the total ramps up
    quadratically until the window binds and grows linearly after.
    """
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if seq_len <= window:
        return full_pair_count(seq_len)
    return window * (window + 1) // 2 + (seq_len - window) * window
