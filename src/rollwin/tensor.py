"""Minimal dense float32 kernel with a reproducible accumulation order.

Tensors are plain numpy float32 ndarrays, row-major. Every reduction here
(matrix products, softmax normalizers, mean-square norms) accumulates
strictly left-to-right in float32, so a row pushed through a block operation
is bit-identical to the same row pushed through alone. BLAS-backed matmul
does not give that guarantee, so matmul adds the terms of each dot product
itself, with no BLAS call, in the same order whichever way it forms them:
one multiply for one row, else one einsum per tile of terms.
Other sums use `np.add.accumulate`, sequential by definition; numpy does
elementwise work.

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
import functools
import itertools
import math

import numpy as np

Tensor = np.ndarray

#: Rotation frequency base for rotary position embedding.
ROPE_THETA = 10000.0

#: Variance floor for rms_norm.
RMS_NORM_EPS = 1e-5


@functools.cache
def _float32(value) -> Tensor:
    """Read-only 0-d float32 array of value, made once: a cheaper ufunc operand than a numpy scalar."""
    return np.broadcast_to(np.float32(value), ())


_ZERO, _ONE = _float32(0.0), _float32(1.0)
_EPS = np.float32(RMS_NORM_EPS)  # a scalar: rms_norm's one-row regime adds it in scalar arithmetic
_F32 = np.dtype(np.float32)  # np.asarray converts a dtype faster than the scalar type

#: rope_apply's float32 tables, each [rows, head_dim]: (cos, cos) and (-sin, sin) per pair.
RopeTable = collections.namedtuple("RopeTable", "cos sin")

#: Most terms, k * m, that matmul's one-row multiply forms (window_attend's one query too, per product).
BLOCK_ELEMENTS = 2**16

#: Floats in matmul's tile buffer (1 MiB): of 2**16 to 2**19, the fastest for desk-preset
#: prefills (CPU time, 2-core x86-64, interleaved rounds; the figures are in BENCH_19.json).
TILE_ELEMENTS = 2**18


def _ordered_sum(x: Tensor) -> Tensor:
    """Sum over the trailing axis, kept as length 1, accumulating strictly left-to-right."""
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1] + (1,), dtype=np.float32)
    # accumulate starts from x[..., 0] rather than from +0.0; adding +0.0
    # maps the one difference, an all-(-0.0) slice, to +0.0 as well.
    return np.add.accumulate(x, axis=-1)[..., -1:] + _ZERO


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with fixed left-to-right accumulation per dot product.

    a: [..., n, k], b: [..., k, m] with identical leading batch axes; each
    batch slice is the 2-D product of its operands. Every output element is
    +0.0 + t_0 + ... + t_{k-1}, t_i = a_i * b_i, in float32: the terms are
    formed C-ordered as [k, *outputs], and `np.add.reduce(axis=0,
    initial=+0.0)` adds them one row at a time, since numpy sums pairwise
    only along the fast axis (`numpy.sum`, Notes). Three ways form them:

    - one row, up to BLOCK_ELEMENTS terms, k * m (every weight product of
      a toy decode step): a 2-D a of one row is one
      `np.multiply(order="C")` of the [k, 1] view a.T and the [k, m] b,
      which is faster than an einsum on tiny products;
    - one tile, any other product of more than one output and up to
      TILE_ELEMENTS terms (lockstep streams, short chunks, the oracle's
      small products): one `np.einsum("...nk,...km->k...nm",
      order="C")`, which sums over no index (so no BLAS, one rounding per
      term), and one reduce. The order is load-bearing: einsum's default
      order="K" follows the operands' layout, and for an F-ordered b (the
      oracle's `k[kv].T`) puts k on the fast axis;
    - tiles along the output's longest axis other than the last, and along
      its columns too where one index holds more than TILE_ELEMENTS terms:
      per tile, the same einsum writes [k, *tile] into a C-ordered buffer
      reused across tiles (its `out`, which fixes the order as well), and
      one reduce adds them. A tile of one output, whose k would be the
      fast axis, is one `_ordered_sum` instead.

    The way changes no bit of a result; a NaN's sign and payload follow
    numpy's SIMD lanes.
    """
    a, b = np.asarray(a, _F32), np.asarray(b, _F32)
    a_shape, b_shape, ndim = a.shape, b.shape, a.ndim
    if ndim < 2 or len(b_shape) != ndim or a_shape[:-2] != b_shape[:-2] or a_shape[-1] != b_shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a_shape} @ {b_shape}")
    k, m = a_shape[-1], b_shape[-1]
    if a_shape == (1, k) and 1 < m and k * m <= BLOCK_ELEMENTS:  # one row: [k, 1] by [k, m]
        return np.add.reduce(np.multiply(a.T, b, order="C"), axis=0, keepdims=True, initial=_ZERO)
    out_shape = a_shape[:-1] + b_shape[-1:]
    outputs = math.prod(out_shape)
    if outputs > 1 and k * outputs <= TILE_ELEMENTS:  # one tile: [k, ..., n, m] terms
        return np.add.reduce(np.einsum("...nk,...km->k...nm", a, b, order="C"), axis=0, initial=_ZERO)
    axis = max(range(ndim - 1), key=out_shape.__getitem__)
    length = out_shape[axis]
    per_column = outputs // max(length * m, 1)  # outputs of one index of axis, per column
    width = max(1, min(m, TILE_ELEMENTS // max(1, k * per_column)))
    step = max(1, TILE_ELEMENTS // max(1, k * per_column * width))
    out, buffer = np.empty(out_shape, np.float32), np.empty(k * per_column * width * step, np.float32)
    index = [slice(None)] * ndim  # out's; a's drops the last, b's takes k whole
    for start, column in itertools.product(range(0, length, step), range(0, m, width)):
        index[axis], index[-1] = slice(start, start + step), slice(column, column + width)
        tile = out[tuple(index)]
        terms = buffer[: k * tile.size].reshape((k,) + tile.shape)
        b_tile = b[(*index[:-2], slice(None), index[-1])]
        np.einsum("...nk,...km->k...nm", a[tuple(index[:-1])], b_tile, out=terms)
        if tile.size != 1:
            np.add.reduce(terms, axis=0, initial=_ZERO, out=tile)
        else:
            tile[...] = _ordered_sum(terms.reshape(1, k))
    return out


def softmax_stable(x: Tensor, masked: Tensor | None = None) -> Tensor:
    """Softmax over the trailing axis, stabilized by max-subtraction.

    `masked` marks entries to exclude: they are set to -inf, so they drop
    out of the max and come back from exp as exactly +0.0, adding nothing
    to the normalizer. Each slice must keep at least one entry.
    """
    x = np.asarray(x, _F32)
    if masked is not None:
        masked = np.asarray(masked, dtype=bool)
        if masked.shape != x.shape:
            raise ValueError(f"mask shape {masked.shape} != input shape {x.shape}")
        if masked.all(axis=-1).any():
            raise ValueError("degenerate attention row: all entries masked")
        x = np.where(masked, np.float32(-np.inf), x)
    elif x.shape[-1] == 0:
        raise ValueError("degenerate attention row: all entries masked")
    weights = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    # No weight is -0.0, so no slice needs _ordered_sum's +0.0: its last partial sum is the total.
    return weights / np.add.accumulate(weights, axis=-1)[..., -1:]


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """Scale each trailing-axis slice to unit root-mean-square, then by gain."""
    x, gain = np.asarray(x, _F32), np.asarray(gain, _F32)
    if gain.ndim != 1 or x.shape[-1] != gain.shape[0]:
        raise ValueError(f"rms_norm gain shape {gain.shape} does not fit input shape {x.shape}")
    # Squares, like softmax_stable's weights, are never -0.0: the last partial sum is the ordered total.
    if x.shape[:-1] == (1,) and x.shape[-1]:  # one non-empty row: its mean square as a float32 scalar
        row = x[0]
        mean_sq = np.add.accumulate(row * row)[-1] / np.float32(row.shape[0]) + _EPS
        # binary64 sqrt rounded to binary32 is the correctly rounded binary32 sqrt, as np.sqrt's is
        return (row / np.float32(math.sqrt(mean_sq)) * gain).reshape(x.shape)
    mean_sq = np.add.accumulate(x * x, axis=-1)[..., -1:] / _float32(x.shape[-1])
    return x / np.sqrt(mean_sq + _EPS) * gain


@functools.cache
def _rope_constants(head_dim: int) -> tuple[Tensor, Tensor, Tensor]:
    """Read-only [head_dim] arrays, once per member: pair j's float64 frequency
    ROPE_THETA**(-2j / head_dim) at 2j and 2j + 1, its sines' signs (-1, 1), and
    the index of each element's partner (2j + 1, 2j)."""
    constants = (ROPE_THETA ** (-2.0 * np.arange(head_dim // 2).repeat(2) / head_dim),
                 np.tile([-1.0, 1.0], head_dim // 2), np.arange(head_dim) ^ 1)
    for array in constants:
        array.flags.writeable = False
    return constants


def rope_table(positions, head_dim: int) -> RopeTable:
    """The RopeTable of a 1-D run of non-negative integer positions; angles in float64."""
    positions = np.asarray(positions)
    if positions.ndim != 1 or positions.dtype.kind not in "iu" or min(positions.tolist(), default=0) < 0:
        raise ValueError(f"positions must be a 1-D run of non-negative integers, got {positions!r}")
    frequencies, signs, _ = _rope_constants(head_dim)
    angles = positions[:, np.newaxis] * frequencies
    # A sign commutes with rounding, so it precedes the cast.
    return RopeTable(np.cos(angles).astype(_F32), (np.sin(angles) * signs).astype(_F32))


def rope_apply(x: Tensor, table: RopeTable) -> Tensor:
    """Rotate trailing-axis pairs (x[2j], x[2j+1]) by position-scaled angles.

    Pair j turns by position * ROPE_THETA**(-2j / head_dim), so dot products
    between rotated queries and keys depend only on relative position. Each
    pair keeps its Euclidean norm; position 0 is the identity. `table` is
    rope_table's, one row per row of x along axis -2. A row is the same bits
    in any table it is in.
    """
    x = np.asarray(x, _F32)
    shape, (cos, sin) = x.shape, table
    if shape[-1] % 2 != 0:
        raise ValueError(f"rope_apply needs an even trailing dimension, got {shape[-1]}")
    if cos.shape != shape[-2:]:
        raise ValueError(f"table shapes {cos.shape} do not fit input shape {shape}")
    # (even, odd) * (cos, cos) + (odd, even) * (-sin, sin) is even*cos - odd*sin and
    # even*sin + odd*cos bit for bit: a - b is a + (-b), and float addition commutes. The
    # swapped pairs are gathered by index, which reads faster than a reversed-stride view.
    return x * cos + x.take(_rope_constants(shape[-1])[2], axis=-1) * sin


def silu_gate(x1: Tensor, x3: Tensor) -> Tensor:
    """Gated activation: silu(x1) * x3 with silu(t) = t / (1 + exp(-t))."""
    x1, x3 = np.asarray(x1, _F32), np.asarray(x3, _F32)
    if x1.shape != x3.shape:
        raise ValueError(f"silu_gate shape mismatch: {x1.shape} vs {x3.shape}")
    # exp(-t) may overflow for very negative t; the quotient then underflows
    # to the correct limit 0, so the warning alone is suppressed.
    with np.errstate(over="ignore"):
        act = x1 / (_ONE + np.exp(-x1))
    return act * x3
