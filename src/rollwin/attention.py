"""Grouped-query scaled-dot-product attention under sliding-window masks.

Pure functions over immutable inputs. A mask is a boolean [n_q, n_k] array
over given query and key positions; keys and values are always consumed in
ascending absolute-position order so that every caller accumulates
attention sums identically. Both kernels check their operands by one
rule, `_group`: q is [n_heads, n_q, head_dim], keys and values share one
[n_kv_heads, n_k, head_dim] shape, n_kv_heads >= 1 divides n_heads, and
query head h reads kv head h // (n_heads // n_kv_heads). The engine calls
`window_attend`, which reads each query's window as a band of the key rows
ending at the last query; `gqa_attend` under a `build_swa_mask` mask is its
dense reference and the oracle's attention.
"""

from __future__ import annotations

import math
import operator
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
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    qpos, kpos = _positions(query_positions), _positions(key_positions)
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
    try:
        chunk_start, chunk_len = operator.index(chunk_start), operator.index(chunk_len)
    except TypeError:
        raise ValueError(f"chunk start and length must be integers, got {chunk_start!r}, {chunk_len!r}") from None
    if chunk_len < 1:
        raise ValueError(f"chunk_len must be >= 1, got {chunk_len}")
    cached = _positions(cache_positions).tolist()
    for p in cached:
        if p >= chunk_start:
            raise ValueError(f"cache position {p} is not before chunk start {chunk_start}")
    chunk = range(chunk_start, chunk_start + chunk_len)
    return build_swa_mask(chunk, cached + list(chunk), window)


def _positions(positions: Iterable[int]) -> np.ndarray:
    """The positions as int64, or ValueError for a negative or non-integer one (never truncated)."""
    try:
        out = np.asarray(list(map(operator.index, positions)), dtype=np.int64)
        if not (out < 0).any():
            return out
    except TypeError:
        pass
    raise ValueError("positions must be non-negative integers")


def _group(q: Tensor, keys: Tensor, values: Tensor) -> int:
    """Query heads per kv head, or ValueError if q, keys and values break
    both kernels' one operand rule (see the module docstring)."""
    if q.ndim != 3 or keys.ndim != 3 or keys.shape != values.shape or q.shape[2] != keys.shape[2]:
        raise ValueError(f"q/k/v shapes {q.shape}/{keys.shape}/{values.shape} are not [heads, rows, head_dim]")
    if keys.shape[0] < 1 or q.shape[0] % keys.shape[0] != 0:
        raise ValueError(f"{q.shape[0]} query heads cannot share {keys.shape[0]} kv heads evenly")
    return q.shape[0] // keys.shape[0]


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
    group = _group(q, k, v)
    if admissible.shape != (q.shape[1], k.shape[1]):
        raise ValueError(f"mask shape {admissible.shape}, expected {(q.shape[1], k.shape[1])}")

    scale, masked = np.float32(math.sqrt(q.shape[2])), ~admissible
    out = np.empty(q.shape, dtype=np.float32)
    for head in range(q.shape[0]):
        scores = tensor.matmul(q[head], k[head // group].T) / scale
        out[head] = tensor.matmul(tensor.softmax_stable(scores, masked=masked), v[head // group])
    return out


def _bands(rows: Tensor, first: int, n_q: int, window: int) -> Tensor:
    """Read-only [n_kv_heads, n_q, window, head_dim] view of rows
    [n_kv_heads, n_k, head_dim]: band i is rows[:, first + i : first + i + window]."""
    rows = np.ascontiguousarray(rows)  # numpy refuses a view past the end of its buffer
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
    and one AV product for all heads. One query (every decode step) reads
    only its last min(n_k, W) rows, never padded or masked, so a decode step
    scores n_heads * min(position + 1, W) pairs. It forms both products'
    float32 terms itself, as matmul's one-row multiply does, if each reduce
    keeps over one output and each product is at most BLOCK_ELEMENTS terms;
    it normalizes with the same softmax_stable.

    Bit-identical to gqa_attend under build_swa_mask over the same keys:
    every admissible score is the same ordered dot product, and the keys
    left out or padded would only have added exact zeros to ordered sums
    that start at +0.0.
    """
    group = _group(q, keys, values)
    (n_heads, n_q, head_dim), (n_kv, n_k) = q.shape, keys.shape[:2]
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if n_k < n_q:
        raise ValueError(f"k/v shapes {keys.shape}/{values.shape} do not fit {n_q} queries")

    window = min(window, n_k) if n_q == 1 else window  # one query: the rows there are, so no pad or mask
    scale = tensor._float32(math.sqrt(head_dim))
    if n_q == 1 and n_heads * min(window, head_dim) > 1 and n_heads * window * head_dim <= tensor.BLOCK_ELEMENTS:
        # [head_dim, n_kv, group, window] score and [window, n_kv, group, head_dim] AV terms. Each reduce
        # keeps more than one output: numpy would sum a lone reduced axis pairwise, not in order.
        terms = np.multiply(q.T.reshape(head_dim, n_kv, group, 1), keys.transpose(2, 0, 1)[:, :, np.newaxis, -window:],
                            order="C", dtype=tensor._F32)
        weights = tensor.softmax_stable(np.add.reduce(terms, axis=0, initial=tensor._ZERO) / scale)
        terms = np.multiply(weights.transpose(2, 0, 1)[..., np.newaxis],
                            values.transpose(1, 0, 2)[-window:, :, np.newaxis], order="C", dtype=tensor._F32)
        return np.add.reduce(terms, axis=0, initial=tensor._ZERO).reshape(n_heads, 1, head_dim)
    first, masked = n_k - n_q - window + 1, None  # first: key row of query 0's oldest slot
    if first < 0:
        pad = np.zeros((n_kv, -first, head_dim), dtype=np.float32)
        keys, values = (np.concatenate([pad, rows], axis=1) for rows in (keys, values))
        slot_rows = first + np.arange(n_q)[:, None] + np.arange(window)
        masked = np.broadcast_to((slot_rows < 0)[:, None, :], (n_kv, n_q, group, window))
        first = 0
    # Query head h = kv * group + g becomes row g of kv head kv's band product.
    grouped = q.reshape(n_kv, group, n_q, head_dim).swapaxes(1, 2)
    k_bands = _bands(keys, first, n_q, window).swapaxes(2, 3)
    scores = tensor.matmul(grouped, k_bands) / scale  # [n_kv, n_q, group, W]
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
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if seq_len <= window:  # full_pair_count refuses seq_len < 1
        return full_pair_count(seq_len)
    return window * (window + 1) // 2 + (seq_len - window) * window
