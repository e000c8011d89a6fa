"""Grouped-query scaled-dot-product attention under sliding-window masks.

Pure functions over immutable inputs. A mask is a boolean [n_q, n_k] array
over given query and key positions; keys and values are always consumed in
ascending absolute-position order so that every caller accumulates
attention sums identically. The head grouping comes from the shapes: q
is [n_heads, ...], keys are [n_kv_heads, ...], and query head h reads kv
head h // (n_heads // n_kv_heads). The engine calls `window_attend`, which
reads each query's window as a band of the key rows that end at the last
query; `gqa_attend` under a `build_swa_mask` mask is its dense reference
and the oracle's attention.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import tensor
from .tensor import Tensor


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


def gqa_attend(q: Tensor, k: Tensor, v: Tensor, admissible: np.ndarray) -> Tensor:
    """Grouped-query attention under an explicit mask: window_attend's
    dense reference and the oracle's attention.

    q: [n_heads, n_q, head_dim]; k, v: [n_kv_heads, n_k, head_dim], rows in
    ascending position order, the order every attention path sums in;
    admissible: bool [n_q, n_k], as build_swa_mask returns. Query head h
    reads kv head h // group and is softmax(q k^T / sqrt(head_dim)) v, one
    2-D product per stage, inadmissible pairs excluded from the max and the
    normalizer; the largest transient is one head's [n_q, n_k] block.
    """
    if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape:
        raise ValueError(f"q/k/v shapes {q.shape}/{k.shape}/{v.shape} are not [heads, rows, head_dim]")
    (n_heads, _, head_dim), n_kv = q.shape, k.shape[0]
    if n_kv < 1 or n_heads % n_kv != 0:
        raise ValueError(f"{n_heads} query heads cannot share {n_kv} kv heads evenly")
    if head_dim != k.shape[2]:
        raise ValueError(f"head_dim mismatch: q {head_dim} vs k {k.shape[2]}")
    if admissible.shape != (q.shape[1], k.shape[1]):
        raise ValueError(f"mask shape {admissible.shape}, expected {(q.shape[1], k.shape[1])}")

    scale, group = np.float32(math.sqrt(head_dim)), n_heads // n_kv
    masked = ~admissible
    out = np.empty(q.shape, dtype=np.float32)
    for head in range(n_heads):
        scores = tensor.matmul(q[head], k[head // group].T) / scale
        out[head] = tensor.matmul(tensor.softmax_stable(scores, masked=masked), v[head // group])
    return out


def _bands(rows: Tensor, first: int, n_q: int, window: int) -> Tensor:
    """Read-only [n_kv_heads, n_q, window, head_dim] view of rows
    [n_kv_heads, n_k, head_dim]: band i is rows[:, first + i : first + i + window]."""
    if n_q == 1:  # one band: a basic slice
        bands = rows[:, np.newaxis, first:first + window]
    else:  # numpy refuses a view past the end of its buffer
        rows = np.ascontiguousarray(rows)
        kv_stride, row_stride, dim_stride = rows.strides
        bands = np.ndarray((rows.shape[0], n_q, window, rows.shape[2]), rows.dtype, rows,
                           first * row_stride, (kv_stride, row_stride, row_stride, dim_stride))
    bands.setflags(write=False)
    return bands


def window_attend(q: Tensor, keys: Tensor, values: Tensor, window: int) -> Tensor:
    """Sliding-window grouped-query attention as one banded product.

    q: [n_heads, n_q, head_dim]; keys, values: [n_kv_heads, n_k, head_dim]
    with n_k >= n_q, contiguous positions ending at the last query's. Query
    i scores exactly the `window` key rows ending at its own, read as
    strided bands (copied only if not C-contiguous; the engine's are). The
    rule is relative, so no positions are passed: a shortfall of
    n_q + window - 1 - n_k rows is the start of the sequence, zero rows
    under a mask; the steady state has none and runs softmax unmasked.
    Query heads sit as rows on the kv head they read, so K/V are never
    repeated per query head, and a call is one scores product, one softmax
    and one AV product for all heads.

    Bit-identical to gqa_attend under build_swa_mask over the same keys:
    every admissible score is the same ordered dot product, and the keys a
    band leaves out would only have added exact zeros to ordered sums that
    start at +0.0.
    """
    n_heads, n_q, head_dim = q.shape
    n_kv, n_k = keys.shape[:2]
    if n_kv < 1 or n_heads % n_kv != 0:
        raise ValueError(f"{n_heads} query heads cannot share {n_kv} kv heads evenly")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if values.shape != keys.shape or keys.shape[2:] != (head_dim,) or n_k < n_q:
        raise ValueError(f"k/v shapes {keys.shape}/{values.shape} do not fit {n_q} queries of head_dim {head_dim}")

    first, group = n_k - n_q - window + 1, n_heads // n_kv  # first: key row of query 0's oldest slot
    masked = None
    if first < 0:
        pad = np.zeros((n_kv, -first, head_dim), dtype=np.float32)
        keys, values = (np.concatenate([pad, rows], axis=1) for rows in (keys, values))
        slot_rows = first + np.arange(n_q)[:, None] + np.arange(window)
        masked = np.broadcast_to((slot_rows < 0)[:, None, :], (n_kv, n_q, group, window))
        first = 0
    # Query head h = kv * group + g becomes row g of kv head kv's band product.
    grouped = q.reshape(n_kv, group, n_q, head_dim).swapaxes(1, 2)
    k_bands = _bands(keys, first, n_q, window).swapaxes(2, 3)
    scores = tensor.matmul(grouped, k_bands) / tensor._float32(math.sqrt(head_dim))  # [n_kv, n_q, group, W]
    out = tensor.matmul(tensor.softmax_stable(scores, masked), _bands(values, first, n_q, window))
    return out.swapaxes(1, 2).reshape(n_heads, n_q, head_dim)  # from [n_kv, n_q, group, head_dim]


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
