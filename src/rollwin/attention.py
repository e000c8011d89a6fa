"""Grouped-query scaled-dot-product attention under sliding-window masks.

Pure functions over immutable inputs. A mask is a boolean [n_q, n_k] array
over given query and key positions; keys and values are always consumed in
ascending absolute-position order so that every caller accumulates
attention sums identically. The engine calls `window_attend`, which reads
each query's window as a band of contiguous key rows; `gqa_attend` under
an explicit mask is its dense reference, and the oracle builds its masks
with `build_swa_mask`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import tensor
from .tensor import Tensor


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


def build_swa_mask(
    query_positions: Iterable[int], key_positions: Iterable[int], window: int
) -> np.ndarray:
    """Admit (q, k) iff 0 <= q - k <= window - 1: a bool [n_q, n_k] array.

    The window counts `window` keys including the query's own position, so a
    query at position i sees keys in [max(0, i - window + 1), i].
    """
    qpos = np.asarray([int(p) for p in query_positions], dtype=np.int64)
    kpos = np.asarray([int(p) for p in key_positions], dtype=np.int64)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if (qpos < 0).any() or (kpos < 0).any():
        raise ValueError("positions must be non-negative")
    delta = qpos[:, None] - kpos[None, :]
    return (delta >= 0) & (delta <= window - 1)


def build_prefill_mask(
    chunk_start: int, chunk_len: int, cache_positions: Iterable[int], window: int
) -> np.ndarray:
    """Mask for one chunk attending the cache and itself.

    The key axis is the cache positions followed by the chunk's own
    positions. Three regions emerge: in-chunk keys under a causal rule,
    recent cache keys inside the window, and older keys excluded entirely.
    After checking the chunk against the cache this is build_swa_mask over
    the combined key list, which checks the window and the positions, so
    the admissibility rule lives in one place.
    """
    if chunk_len < 1:
        raise ValueError(f"chunk_len must be >= 1, got {chunk_len}")
    cached = [int(p) for p in cache_positions]
    for p in cached:
        if p >= chunk_start:
            raise ValueError(f"cache position {p} is not before chunk start {chunk_start}")
    chunk = range(chunk_start, chunk_start + chunk_len)
    return build_swa_mask(chunk, cached + list(chunk), window)


def gqa_attend(
    q: Tensor, k: Tensor, v: Tensor, admissible: np.ndarray, grouping: HeadGrouping
) -> Tensor:
    """Grouped-query attention over position-ordered keys.

    q: [n_heads, n_q, head_dim]; k, v: [n_kv_heads, n_k, head_dim];
    admissible: bool [n_q, n_k], as build_swa_mask returns. The caller
    gives the key rows in ascending absolute-position order, the order
    every other attention path sums in. Query head h reads kv head
    h // group_size; per head the output is softmax(q k^T / sqrt(head_dim)) v
    with inadmissible pairs excluded from the max and the normalizer. All
    heads share one batched product per stage, bit-identical to one 2-D
    product per head.
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
    if admissible.shape != (n_q, n_k):
        raise ValueError(f"mask shape {admissible.shape}, expected {(n_q, n_k)}")

    # One batched product per stage: query head h reads kv head h // group_size.
    kv = np.arange(grouping.n_heads) // grouping.group_size
    scale = np.float32(math.sqrt(q.shape[2]))
    scores = tensor.matmul(q, k[kv].transpose(0, 2, 1)) / scale    # [n_heads, n_q, n_k]
    masked = np.broadcast_to(~admissible, scores.shape)
    weights = tensor.softmax_stable(scores, masked=masked)
    return tensor.matmul(weights, v[kv])


def _bands(rows: Tensor, first: int, n_q: int, window: int) -> Tensor:
    """Read-only [n_kv_heads, n_q, window, head_dim] view of rows
    [n_kv_heads, n_k, head_dim]: band i is rows[:, first + i : first + i + window]."""
    rows = np.ascontiguousarray(rows)
    kv_stride, row_stride, dim_stride = rows.strides
    bands = np.ndarray((rows.shape[0], n_q, window, rows.shape[2]), rows.dtype, rows,
                       first * row_stride, (kv_stride, row_stride, row_stride, dim_stride))
    bands.flags.writeable = False
    return bands


def window_attend(
    q: Tensor,
    keys: Tensor,
    values: Tensor,
    q_start: int,
    key_start: int,
    window: int,
    grouping: HeadGrouping,
) -> Tensor:
    """Sliding-window grouped-query attention as one banded product.

    q: [n_heads, n_q, head_dim] for positions [q_start, q_start + n_q);
    keys, values: [n_kv_heads, n_k, head_dim] for the contiguous positions
    [key_start, q_start + n_q). Query i scores exactly the `window` keys at
    positions q_start + i - window + 1 ... q_start + i, read as strided
    bands over the key rows (copied only if not C-contiguous; the engine's
    are). Slots before key_start are zero rows, masked; there are none once
    the keys reach W - 1 positions before q_start, so the steady state runs
    softmax without a mask. Query heads sit as rows on the kv head they
    read, so K/V are never repeated per query head, and a call is one
    scores product, one softmax and one AV product for all heads.

    Bit-identical to gqa_attend under build_swa_mask over the same keys:
    every admissible score is the same ordered dot product, and the keys a
    band leaves out would only have added exact zeros to ordered sums that
    start at +0.0.
    """
    n_heads, n_q, head_dim = q.shape
    n_kv, group = grouping.n_kv_heads, grouping.group_size
    if n_heads != grouping.n_heads:
        raise ValueError(f"q shape {q.shape} does not fit {grouping.n_heads} query heads")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if key_start < 0 or key_start > q_start:
        raise ValueError(f"key_start {key_start} must lie in [0, q_start {q_start}]")
    expected = (n_kv, q_start + n_q - key_start, head_dim)
    if keys.shape != expected or values.shape != expected:
        raise ValueError(f"k/v shapes {keys.shape}/{values.shape}, expected {expected}")

    first = q_start - window + 1 - key_start  # key row of query 0's oldest slot
    masked = None
    if first < 0:
        pad = np.zeros((n_kv, -first, head_dim), dtype=np.float32)
        keys = np.concatenate([pad, keys], axis=1)
        values = np.concatenate([pad, values], axis=1)
        slot_positions = q_start - window + 1 + np.arange(n_q)[:, None] + np.arange(window)
        masked = np.broadcast_to((slot_positions < key_start)[:, None, :], (n_kv, n_q, group, window))
        first = 0
    k_bands = _bands(keys, first, n_q, window)
    v_bands = _bands(values, first, n_q, window)
    # Query head h = kv * group + g becomes row g of kv head kv's band product.
    grouped = q.reshape(n_kv, group, n_q, head_dim).transpose(0, 2, 1, 3)
    scale = np.float32(math.sqrt(head_dim))
    scores = tensor.matmul(grouped, k_bands.transpose(0, 1, 3, 2)) / scale  # [n_kv, n_q, group, W]
    weights = tensor.softmax_stable(scores, masked=masked)
    out = tensor.matmul(weights, v_bands)  # [n_kv, n_q, group, head_dim]
    return out.transpose(0, 2, 1, 3).reshape(n_heads, n_q, head_dim)


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
