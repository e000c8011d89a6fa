"""Minimal dense float32 kernel with a reproducible accumulation order.

Tensors are plain numpy float32 ndarrays, row-major. Every reduction here
(matrix products, softmax normalizers, mean-square norms) accumulates
strictly left-to-right in float32, so a row pushed through a block operation
is bit-identical to the same row pushed through alone. BLAS-backed matmul
does not give that guarantee, so matmul sums each dot product itself, with
no BLAS call. Products of fewer than BLOCK_ELEMENTS / 8 outputs write a
block of k's terms (all of k if it fits, as in toy decode) C-ordered in one
call and add them with one `np.add.reduce` down k, which numpy does one row
at a time; larger ones form each term with an einsum that sums over no
index, then add it. Both regimes add the same terms in the same order, so
the choice changes no bit. The other sums use `np.add.accumulate`, which is
sequential by definition; elementwise work is delegated to numpy.

Because the order is fixed per output element, making an operation wider
never changes a bit: matmul takes leading batch axes (one product for all
attention heads), a product against column-concatenated weights equals the
separate products column for column, and a chunk forms one RoPE table
whose rows each layer rotates by. matmul reads strided operands as views.

The RoPE base and the rms_norm variance floor are fixed by the model, as
ROPE_THETA and RMS_NORM_EPS, so no kernel takes them as parameters.
Operations never mutate their inputs. Results are fresh allocations.
"""

from __future__ import annotations

import collections
import math

import numpy as np

Tensor = np.ndarray

#: Rotation frequency base for rotary position embedding.
ROPE_THETA = 10000.0

#: Variance floor for rms_norm.
RMS_NORM_EPS = 1e-5

#: float32 cos and sin of rope_apply's pair angles, each [rows, head_dim // 2].
RopeTable = collections.namedtuple("RopeTable", "cos sin")

#: Floats in one k-block of matmul terms (256 KiB): a product with `outputs`
#: elements forms BLOCK_ELEMENTS // (outputs + 1) - 1 terms per output in one
#: call (a block holds a running-sum row, and one spare column if outputs
#: is 1), and takes the per-k regime below 7, i.e. above 8,191 outputs.
#: Measured on a 2-core x86-64 host with numpy 2.4, desk-preset prefill of
#: 150-1000-token prompts (CPU time, median of 5) took 848, 840, 935 and
#: 1370 ms at 2**14, 2**16, 2**18 and 2**20: larger blocks spill L2. Toy
#: decode, whose products all fit one block, did not move (1.52-1.65 ms).
BLOCK_ELEMENTS = 2**16


def _f32(x) -> Tensor:
    return np.asarray(x, dtype=np.float32)


def _ordered_sum(x: Tensor) -> Tensor:
    """Sum over the trailing axis, accumulating strictly left-to-right."""
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1], dtype=np.float32)
    # accumulate starts from x[..., 0] rather than from +0.0; adding +0.0
    # maps the one difference, an all-(-0.0) slice, to +0.0 as well.
    return np.add.accumulate(x, axis=-1)[..., -1] + np.float32(0.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with fixed left-to-right accumulation per dot product.

    a: [..., n, k], b: [..., k, m] with identical leading batch axes; each
    batch slice is the 2-D product of its operands.

    Every output element is +0.0 + t_0 + ... + t_{k-1}, t_i = a_i * b_i, in
    float32. A block holds room = BLOCK_ELEMENTS // (outputs + 1) - 1 terms
    per output.

    room >= 7 (up to 8,191 outputs): one `np.multiply` of [k, ..., n, 1]
    and [k, ..., 1, m] transposed views (no copy) writes C-ordered
    [k, outputs] terms, and `np.add.reduce(axis=0)` adds them row by row:
    numpy sums pairwise only along the fast axis (`numpy.sum`, Notes), and
    its default order="K" would follow a's layout, where k can be fast. If
    k <= room and outputs > 1 that is the product, plus +0.0 (the reduce
    starts from t_0). Otherwise k goes in blocks of step = min(k, room)
    into rows 1.. of a [step + 1, width] buffer whose row 0 is the running
    sum; width is outputs plus, for one output, a spare zero column
    without which the reduced axis would be the contiguous one.

    room < 7 (more outputs): per k, an einsum with no summed index writes
    each term as one rounded product, and `np.add` adds it to the running
    sum. Without a summed index einsum calls no BLAS. With so few terms per
    block, a blocked product cost more than this: on 64 x 1024 products,
    16 rows (room 2) took 1.7x as long blocked as per k.

    Both regimes add the same terms in the same order, so the regime
    changes no bit of a result; a NaN's sign and payload follow numpy's
    SIMD lanes on either.
    """
    a, b = _f32(a), _f32(b)
    if a.ndim < 2 or b.ndim != a.ndim or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    k = a.shape[-1]
    out_shape = a.shape[:-1] + b.shape[-1:]
    outputs = math.prod(out_shape)
    room = BLOCK_ELEMENTS // (outputs + 1) - 1
    if k and room >= 7:
        a_k = a.transpose(a.ndim - 1, *range(a.ndim - 1))[..., np.newaxis]  # [k, ..., n, 1]
        b_k = b.transpose(b.ndim - 2, *range(b.ndim - 2), b.ndim - 1)[..., np.newaxis, :]  # [k, ..., 1, m]
        if k <= room and outputs > 1:
            terms = np.multiply(a_k, b_k, order="C").reshape(k, outputs)
            return np.add.reduce(terms, axis=0).reshape(out_shape) + np.float32(0.0)
        step, width = min(k, room), outputs + (outputs == 1)
        block = np.zeros((step + 1, width), dtype=np.float32)
        terms = block[1:, :outputs].reshape((step,) + out_shape)
        for start in range(0, k, step):
            stop = min(start + step, k)
            np.multiply(a_k[start:stop], b_k[start:stop], out=terms[: stop - start])
            np.add.reduce(block[: stop - start + 1], axis=0, out=block[0])
        return block[0, :outputs].reshape(out_shape).copy()  # frees the block
    out = np.zeros(out_shape, dtype=np.float32)
    term = np.empty_like(out)
    for i in range(k):
        np.einsum("...i,...j->...ij", a[..., i], b[..., i, :], out=term)
        np.add(out, term, out=out)
    return out


def softmax_stable(x: Tensor, masked: Tensor | None = None) -> Tensor:
    """Softmax over the trailing axis, stabilized by max-subtraction.

    `masked` marks entries to exclude: they are dropped from the max and the
    normalizer (never set to -inf) and come back as exactly 0. Each slice
    must keep at least one entry. Without a mask the same values come from
    plain elementwise steps, with no keep array to build.
    """
    x = _f32(x)
    if masked is None:
        if x.shape[-1] == 0:
            raise ValueError("degenerate attention row: all entries masked")
        weights = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    else:
        keep = ~np.asarray(masked, dtype=bool)
        if keep.shape != x.shape:
            raise ValueError(f"mask shape {keep.shape} != input shape {x.shape}")
        if not keep.any(axis=-1).all():
            raise ValueError("degenerate attention row: all entries masked")
        peak = np.maximum.reduce(x, axis=-1, keepdims=True, where=keep, initial=np.float32(-np.inf))
        shifted = np.where(keep, x - peak, np.float32(0.0))
        weights = np.where(keep, np.exp(shifted), np.float32(0.0))
    total = _ordered_sum(weights)[..., np.newaxis]
    return weights / total


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """Scale each trailing-axis slice to unit root-mean-square, then by gain."""
    x, gain = _f32(x), _f32(gain)
    if gain.ndim != 1 or x.shape[-1] != gain.shape[0]:
        raise ValueError(f"rms_norm gain shape {gain.shape} does not fit input shape {x.shape}")
    mean_sq = _ordered_sum(x * x) / np.float32(x.shape[-1])
    denom = np.sqrt(mean_sq + np.float32(RMS_NORM_EPS))[..., np.newaxis]
    return x / denom * gain


def rope_table(positions, head_dim: int) -> RopeTable:
    """The RopeTable of a 1-D run of non-negative integer positions; angles in float64."""
    positions = np.asarray(positions)
    if positions.ndim != 1 or positions.dtype.kind not in "iu" or np.any(positions < 0):
        raise ValueError(f"positions must be a 1-D run of non-negative integers, got {positions!r}")
    angles = positions[:, np.newaxis] * ROPE_THETA ** (-2.0 * np.arange(head_dim // 2) / head_dim)
    return RopeTable(np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32))


def rope_apply(x: Tensor, table: RopeTable) -> Tensor:
    """Rotate trailing-axis pairs (x[2j], x[2j+1]) by position-scaled angles.

    Pair j turns by position * ROPE_THETA**(-2j / head_dim), so dot products
    between rotated queries and keys depend only on relative position. Each
    pair keeps its Euclidean norm; position 0 is the identity. `table` is
    rope_table's, one row per row of x along axis -2. A row is the same bits
    in any table it is in.
    """
    x = _f32(x)
    head_dim = x.shape[-1]
    if head_dim % 2 != 0:
        raise ValueError(f"rope_apply needs an even trailing dimension, got {head_dim}")
    cos, sin = table
    if cos.shape != x.shape[-2:-1] + (head_dim // 2,):
        raise ValueError(f"table shapes {cos.shape} do not fit input shape {x.shape}")
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def silu_gate(x1: Tensor, x3: Tensor) -> Tensor:
    """Gated activation: silu(x1) * x3 with silu(t) = t / (1 + exp(-t))."""
    x1, x3 = _f32(x1), _f32(x3)
    if x1.shape != x3.shape:
        raise ValueError(f"silu_gate shape mismatch: {x1.shape} vs {x3.shape}")
    # exp(-t) may overflow for very negative t; the quotient then underflows
    # to the correct limit 0, so the warning alone is suppressed.
    with np.errstate(over="ignore"):
        act = x1 / (np.float32(1.0) + np.exp(-x1))
    return act * x3
