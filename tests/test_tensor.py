import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rollwin as rw
from conftest import KERNEL_TOL


def f32(x):
    return np.asarray(x, dtype=np.float32)


def ordered_total(values):
    """Scalar reference: float32 sum from +0.0, strictly left to right."""
    acc = np.float32(0.0)
    for x in values:
        acc = np.float32(acc + x)
    return acc


def reference_matmul(a, b):
    """Scalar reference product: each dot product summed left to right in float32."""
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.float32)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = np.float32(0.0)
            for k in range(a.shape[1]):
                acc = np.float32(acc + a[i, k] * b[k, j])
            out[i, j] = acc
    return out


def loop_matmul(a, b):
    """A per-k loop kernel, one ordered add per k: the reference for every matmul path."""
    out = np.zeros(a.shape[:-1] + b.shape[-1:], dtype=np.float32)
    term = np.empty_like(out)
    for k in range(a.shape[-1]):
        np.multiply(a[..., k, np.newaxis], b[..., k, np.newaxis, :], out=term)
        np.add(out, term, out=out)
    return out


def float_bits(x):
    """Bytes of x with every NaN replaced by np.nan.

    Signed zeros and infinities count bit for bit; NaN positions count, but
    not a NaN's sign or payload. numpy picks those by the SIMD lane an
    element lands in, not by a rule: with two NaN payloads in play the loop
    kernel alone gives a row different NaN bits inside a block than alone.
    """
    return np.where(np.isnan(x), np.float32(np.nan), x).tobytes()


def tiles(a, b):
    """Tiles matmul splits a product into (along the output's longest axis
    but the last, then its columns), or None if it forms every term in one
    block: one einsum of at most TILE_ELEMENTS terms (k * outputs) for
    more than one output, or its one-row multiply (see `takes_one_row`)."""
    out_shape = a.shape[:-1] + b.shape[-1:]
    outputs, k, budget = math.prod(out_shape), a.shape[-1], rw.tensor.TILE_ELEMENTS
    if outputs > 1 and k * outputs <= budget:
        return None
    length, m = max(out_shape[:-1]), out_shape[-1]
    per_column = outputs // max(length * m, 1)
    width = max(1, min(m, budget // max(1, k * per_column)))
    step = max(1, budget // max(1, k * per_column * width))
    return -(-length // step) * -(-m // width)


def takes_one_row(a, b):
    """matmul's one-row multiply: a 2-D a of one row, whose [k, 1] by [k, m]
    terms need no third axis, up to BLOCK_ELEMENTS terms (k * m)."""
    k, m = b.shape[-2:]
    return a.ndim == 2 and a.shape[0] == 1 and 1 < m and k * m <= rw.tensor.BLOCK_ELEMENTS


def sampled_columns(count, at_most=48):
    """Up to `at_most` column indices spread over [0, count), both ends included.

    Each output column is its own set of dot products, so checking a wide
    product against reference_matmul on these columns is exact for them.
    """
    return np.unique(np.linspace(0, count - 1, min(count, at_most)).astype(int))


def spread(rng, shape):
    """float32 values over six decades, so any reordered sum shows in the bits."""
    magnitude = np.float32(10.0) ** rng.uniform(-3, 3, size=shape).astype(np.float32)
    return (rng.standard_normal(shape) * magnitude).astype(np.float32)


class TestMatmul:
    def test_identity_left(self):
        b = f32([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert np.array_equal(rw.matmul(np.eye(2, dtype=np.float32), b), b)

    def test_hand_product(self):
        a = f32([[1, 2], [3, 4]])
        b = f32([[5, 6], [7, 8]])
        assert np.array_equal(rw.matmul(a, b), f32([[19, 22], [43, 50]]))

    def test_zero_annihilates(self):
        a = np.zeros((3, 4), dtype=np.float32)
        b = f32(np.arange(20).reshape(4, 5))
        assert np.array_equal(rw.matmul(a, b), np.zeros((3, 5), dtype=np.float32))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            rw.matmul(np.ones((2, 3), np.float32), np.ones((2, 3), np.float32))

    def test_against_naive_triple_loop(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((17, 13), dtype=np.float32)
        b = rng.standard_normal((13, 9), dtype=np.float32)
        expected = np.zeros((17, 9))
        for i in range(17):
            for j in range(9):
                acc = 0.0
                for k in range(13):
                    acc += float(a[i, k]) * float(b[k, j])
                expected[i, j] = acc
        assert np.max(np.abs(rw.matmul(a, b) - expected)) <= 1e-5

    def test_block_and_single_row_agree_bitwise(self):
        # The fixed accumulation order makes batching invisible.
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 31), dtype=np.float32)
        b = rng.standard_normal((31, 7), dtype=np.float32)
        block = rw.matmul(a, b)
        for i in range(6):
            assert np.array_equal(rw.matmul(a[i : i + 1], b)[0], block[i])


class TestKernelOrder:
    """The kernels against scalar left-to-right references, bit for bit.

    The engine-vs-oracle tests cannot see a reordered sum, because both sides
    call the same kernels; these tests can.
    """

    # Over k = 32: 1x1 is one tile of one output, one row of 8 columns the
    # one-row multiply, outputs up to 8192 (64 x 128, exactly TILE_ELEMENTS
    # terms) one einsum, and 4 x 5461 and 4 x 5462 four tiles of one row.
    @pytest.mark.parametrize(
        "rows, cols",
        [(1, 8), (3, 8), (64, 8), (1, 1), (65, 8), (16, 40), (32, 128), (4, 2047), (4, 2048),
         (64, 128), (4, 5461), (4, 5462)],
        ids=["1", "3", "64", "1x1", "65x8", "16x40", "32x128", "4x2047", "4x2048",
             "64x128", "4x5461", "4x5462"],
    )
    def test_matmul_equals_scalar_reference(self, rows, cols):
        rng = np.random.default_rng(rows)
        a, b = spread(rng, (rows, 32)), spread(rng, (32, cols))
        out = rw.matmul(a, b)
        cols = sampled_columns(cols)
        assert np.array_equal(out[:, cols], reference_matmul(a, b[:, cols]))

    @pytest.mark.parametrize("k", [64, 200])
    def test_one_output_sums_in_order(self, k):
        # Terms reduced along their only axis would be summed pairwise (k
        # would be the fast axis); a tile of one output is one ordered
        # accumulate instead.
        rng = np.random.default_rng(k)
        a, b = spread(rng, (1, k)), spread(rng, (k, 1))
        assert np.array_equal(rw.matmul(a, b), reference_matmul(a, b))

    @pytest.mark.parametrize("m, einsums", [(1024, 0), (1025, 1)], ids=["block-elements", "one-more"])
    def test_one_row_takes_the_multiply_up_to_block_elements_terms(self, m, einsums, monkeypatch):
        # 64 x 1024 is exactly BLOCK_ELEMENTS terms (k * m): one multiply.
        # One column more is one einsum of one tile.
        rng, calls, einsum = np.random.default_rng(m), [], np.einsum
        a, b = spread(rng, (1, 64)), spread(rng, (64, m))
        assert takes_one_row(a, b) == (einsums == 0) and tiles(a, b) is None

        def counting_einsum(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting_einsum)
        out = rw.matmul(a, b)
        monkeypatch.undo()
        assert len(calls) == einsums
        cols = sampled_columns(m)
        assert np.array_equal(out[:, cols], reference_matmul(a, b[:, cols]))

    def test_batched_matmul_equals_scalar_reference_per_slice(self):
        rng = np.random.default_rng(21)
        a, b = spread(rng, (3, 5, 17)), spread(rng, (3, 17, 4))
        out = rw.matmul(a, b)
        assert out.shape == (3, 5, 4)
        for i in range(3):
            assert np.array_equal(out[i], reference_matmul(a[i], b[i]))

    # Outputs of 1 (one output), 512 to 29124 (one einsum each; 29124 is
    # the most of k = 9 within TILE_ELEMENTS terms) and 29128 (two tiles),
    # batch axes included.
    @pytest.mark.parametrize(
        "batch, n, k, m",
        [((1,), 1, 17, 1), ((4,), 8, 9, 16), ((2, 3), 5, 7, 18), ((4,), 1, 9, 2047),
         ((2, 2), 1, 9, 2048), ((4,), 1, 9, 5461), ((2, 2), 1, 9, 5462), ((4,), 1, 9, 7281), ((2, 2), 1, 9, 7282)],
        ids=["out1", "out512", "out540", "out8188", "out8192", "out21844", "out21848", "out29124", "out29128"],
    )
    def test_batched_matmul_equals_scalar_reference_on_both_paths(self, batch, n, k, m):
        rng = np.random.default_rng(24)
        a, b = spread(rng, batch + (n, k)), spread(rng, batch + (k, m))
        assert tiles(a, b) == (1 if m == 1 else 2 if m == 7282 else None)
        out = rw.matmul(a, b)
        assert out.shape == batch + (n, m)
        cols = sampled_columns(m)
        for index in np.ndindex(*batch):
            assert np.array_equal(out[index][:, cols], reference_matmul(a[index], b[index][:, cols]))

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((3, 0), (0, 4)), ((0, 5), (5, 3)), ((2, 5, 0), (2, 0, 60))],
        ids=["small", "no-rows", "large"],
    )
    def test_matmul_with_empty_shared_axis_returns_zeros(self, a_shape, b_shape):
        out = rw.matmul(np.ones(a_shape, np.float32), np.ones(b_shape, np.float32))
        expected = np.zeros(a_shape[:-1] + b_shape[-1:], dtype=np.float32)
        assert out.dtype == np.float32 and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "a_shape, b_shape, count",
        [((0, 5), (5, 3), 0), ((0, 65536), (65536, 3), 0), ((0, 3, 65536), (0, 65536, 2), 1)],
        ids=["short-k", "long-k", "empty-batch"],
    )
    def test_zero_row_products_are_empty(self, a_shape, b_shape, count):
        a, b = np.ones(a_shape, np.float32), np.ones(b_shape, np.float32)
        assert tiles(a, b) == count
        out = rw.matmul(a, b)
        assert out.dtype == np.float32 and out.shape == a_shape[:-1] + b_shape[-1:]

    @pytest.mark.parametrize("m", [1100, 1025], ids=["three-column-tiles", "one-column-remainder"])
    def test_wide_row_is_tiled_by_columns(self, m):
        # One row of more than TILE_ELEMENTS terms goes in tiles of 512
        # columns; at m = 1025 the last tile is one output.
        rng = np.random.default_rng(m)
        a, b = spread(rng, (1, 512)), spread(rng, (512, m))
        assert tiles(a, b) == 3
        cols = sampled_columns(m)
        assert np.array_equal(rw.matmul(a, b)[:, cols], reference_matmul(a, b[:, cols]))

    def test_tile_buffer_stays_within_tile_elements(self):
        # Untiled, this row's terms would take 16 MiB.
        a, b = np.ones((1, 1024), np.float32), np.ones((1024, 4096), np.float32)
        tracemalloc.start()
        try:
            rw.matmul(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * rw.tensor.TILE_ELEMENTS + 2**16

    def test_batched_matmul_rejects_mismatched_batch_axes(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            rw.matmul(np.ones((2, 3, 4), np.float32), np.ones((3, 4, 5), np.float32))
        with pytest.raises(ValueError, match="shape mismatch"):
            rw.matmul(np.ones((2, 3, 4), np.float32), np.ones((4, 5), np.float32))

    def test_negative_zero_products_sum_to_positive_zero(self):
        # Summing from +0.0 turns an all-(-0.0) dot product into +0.0: in one
        # row (2 outputs), in one einsum (4 and 10,000) and in two tiles (40,000).
        for rows, count in ((1, None), (2, None), (5000, None), (20000, 2)):
            a, b = np.full((rows, 9), -0.0, dtype=np.float32), np.ones((9, 2), np.float32)
            assert tiles(a, b) == count and takes_one_row(a, b) == (rows == 1)
            out = rw.matmul(a, b)
            assert not np.signbit(out).any()
            assert not np.signbit(rw.tensor._ordered_sum(a)).any()

    def test_softmax_normalizer_equals_scalar_reference(self):
        rng = np.random.default_rng(22)
        x = spread(rng, (4, 6, 40)) * np.float32(1e-2)
        masked = rng.random((4, 6, 40)) < 0.3
        masked[..., 0] = False
        keep = ~masked
        peak = np.max(x, axis=-1, keepdims=True, where=keep, initial=np.float32(-np.inf))
        weights = np.where(keep, np.exp(np.where(keep, x - peak, np.float32(0.0))), np.float32(0.0))
        totals = np.empty(x.shape[:-1], dtype=np.float32)
        for index in np.ndindex(*totals.shape):
            totals[index] = ordered_total(weights[index])
        expected = weights / totals[..., np.newaxis]
        assert np.array_equal(rw.softmax_stable(x, masked), expected)

    def test_rms_norm_normalizer_equals_scalar_reference(self):
        rng = np.random.default_rng(23)
        x, gain = spread(rng, (5, 48)), spread(rng, 48)
        expected = np.empty_like(x)
        for i in range(5):
            mean_sq = ordered_total(x[i] * x[i]) / np.float32(48)
            expected[i] = x[i] / np.sqrt(mean_sq + np.float32(rw.tensor.RMS_NORM_EPS)) * gain
        assert np.array_equal(rw.rms_norm(x, gain), expected)


def _laid_out(draw, rng, shape):
    """A float32 operand of `shape`, contiguous or as a strided view."""
    layout = draw(st.sampled_from(["contiguous", "transposed", "column-slice"]))
    specials = draw(st.sampled_from([(), (-0.0,), (np.nan, np.inf, -np.inf, -0.0)]))
    rate = draw(st.sampled_from([0.05, 0.3, 1.0]))
    if layout == "transposed":  # like k[head // group].T in gqa_attend
        base_shape = shape[:-2] + (shape[-1], shape[-2])
    elif layout == "column-slice":  # like gates[:, :hidden] in the engine
        base_shape = shape[:-1] + (shape[-1] + 5,)
    else:
        base_shape = shape
    base = spread(rng, base_shape)
    if specials:
        hit = rng.random(base_shape) < rate
        base[hit] = rng.choice(np.float32(specials), int(hit.sum()))
    if layout == "transposed":
        return base.swapaxes(-1, -2)
    if layout == "column-slice":
        return base[..., 2 : 2 + shape[-1]]
    return base


@st.composite
def matmul_operands(draw):
    """Operands with 0-2 batch axes, sized for one way of forming terms: a
    few columns (one einsum, or one output if every axis is 1), one row of a
    2-D product in one multiply, one einsum of up to TILE_ELEMENTS terms,
    exactly that many or one more (k * outputs), several tiles (up to about
    four tiles' worth), or one output of up to 1000 terms."""
    size = draw(st.sampled_from(["few", "one-row", "one-tile", "tile-edge", "tiles", "one-output"]))
    if size == "one-output":
        batch, n, k, m = (1,) * draw(st.integers(0, 2)), 1, draw(st.integers(0, 1000)), 1
    elif size == "one-row":  # 2-D, every layout of b: C-ordered, F-ordered ("transposed") and column-sliced
        batch, n, k = (), 1, draw(st.integers(0, 64))
        m = draw(st.integers(2, rw.tensor.BLOCK_ELEMENTS // max(k, 1)))
    elif size == "tile-edge":  # batch + (n, k, m) of TILE_ELEMENTS terms, or of TILE_ELEMENTS + 1 = 5 * 13 * 37 * 109
        *batch, n, k, m = draw(st.sampled_from([(64, 64, 64), (4, 16, 64, 64), (2, 2, 32, 32, 64),
                                                (37, 109, 65), (13, 37, 545), (5, 37, 13, 109)]))
        batch = tuple(batch)
    else:
        batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
        n = draw(st.integers(2 if size == "tiles" else 1, 12))
        rows, k = math.prod(batch) * n, draw(st.integers(8, 48))
        tile = rw.tensor.TILE_ELEMENTS // (k * rows)
        if size == "few":
            m, k = draw(st.integers(1, 8)), draw(st.integers(0, 24))
        elif size == "one-tile":
            m = draw(st.integers(2, tile))
        else:
            m = draw(st.integers(tile + 1, 4 * tile))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _laid_out(draw, rng, batch + (n, k)), _laid_out(draw, rng, batch + (k, m))


def band_view(rows, window):
    """[..., n - window + 1, window, d] read-only windows over rows [..., n, d]."""
    return np.lib.stride_tricks.sliding_window_view(rows, window, axis=-2).swapaxes(-1, -2)


class TestMatmulOnViews:
    """matmul reads its operands through transposed views of any strides, so
    a strided operand gives the same bits as its contiguous copy, and both
    equal the scalar reference."""

    # (a, b) builders per rank, by the way matmul forms their terms:
    # "-blocked" takes one einsum, "-one-row" the one-row multiply of a 2-D
    # product, "-tiles" several tiles, and "-one-output" sums one dot product.
    CASES = {
        "rank2-blocked": lambda rng: (spread(rng, (40, 6)).T, spread(rng, (40, 50))[:, 3:43]),
        "rank2-tiles": lambda rng: (spread(rng, (32, 4)).T, spread(rng, (2100, 32)).T),
        # At the einsum's bound: exactly TILE_ELEMENTS terms (64 x 64 x 64) take
        # one einsum, one more (37 x 109 x 65) two tiles; F-ordered or sliced b.
        "rank2-f-ordered-edge-blocked": lambda rng: (spread(rng, (64, 64)), spread(rng, (64, 64)).T),
        "rank2-column-sliced-edge-blocked": lambda rng: (spread(rng, (64, 64)), spread(rng, (64, 70))[:, 3:67]),
        "rank2-f-ordered-edge-tiles": lambda rng: (spread(rng, (37, 109)), spread(rng, (65, 109)).T),
        "rank2-column-sliced-edge-tiles": lambda rng: (spread(rng, (37, 109)), spread(rng, (109, 70))[:, 3:68]),
        "rank2-one-output": lambda rng: (spread(rng, (1000, 3)).T[1:2], spread(rng, (1000, 5))[:, 2:3]),
        # One row, as every toy decode weight product; an F-ordered b puts k on
        # the fast axis of its terms unless they are formed C-ordered.
        "rank2-c-ordered-one-row": lambda rng: (spread(rng, (40, 3)).T[1:2], spread(rng, (40, 50))),
        "rank2-column-sliced-one-row": lambda rng: (spread(rng, (1, 40)), spread(rng, (40, 60))[:, 5:55]),
        "rank2-f-ordered-one-row": lambda rng: (spread(rng, (1, 40)), spread(rng, (50, 40)).T),
        # The oracle's scores product: q against k[kv].T, whose slices are
        # F-ordered, so einsum's default order="K" would put k on the fast axis.
        "rank3-f-ordered-tiles": lambda rng: (
            spread(rng, (4, 128, 16)), spread(rng, (4, 128, 16)).transpose(0, 2, 1),
        ),
        # Grouped queries against key bands, as window_attend reads them: the
        # scores product and then the weights against value bands.
        "rank4-blocked": lambda rng: (
            spread(rng, (2, 4, 5, 16)).transpose(0, 2, 1, 3),
            band_view(spread(rng, (2, 12, 16)), 8).transpose(0, 1, 3, 2),
        ),
        "rank4-chunk-blocked": lambda rng: (  # a 64-row chunk's scores, 163,840 terms
            spread(rng, (2, 4, 64, 16)).transpose(0, 2, 1, 3),
            band_view(spread(rng, (2, 83, 16)), 20).transpose(0, 1, 3, 2),
        ),
        "rank4-band-values-blocked": lambda rng: (
            spread(rng, (2, 5, 4, 8)), band_view(spread(rng, (2, 12, 16)), 8),
        ),
        "rank4-band-values-tiles": lambda rng: (
            spread(rng, (2, 600, 4, 8)), band_view(spread(rng, (2, 607, 16)), 8),
        ),
    }
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_strided_operands_equal_contiguous_copies(self, case):
        a, b = self.CASES[case](np.random.default_rng(31))
        assert not (a.flags.c_contiguous and b.flags.c_contiguous)
        count, outputs = tiles(a, b), math.prod(a.shape[:-1]) * b.shape[-1]
        kind = ("one-row" if takes_one_row(a, b) else "blocked" if count is None else "one-output" if outputs == 1
                else "tiles")
        assert case.endswith(kind) and (kind != "tiles" or count > 1)
        out = rw.matmul(a, b)
        assert np.array_equal(out, rw.matmul(np.ascontiguousarray(a), np.ascontiguousarray(b)))
        assert out.flags.c_contiguous and out.flags.writeable
        cols = sampled_columns(b.shape[-1], at_most=8)
        assert np.array_equal(out[..., cols], batched_reference(a, b[..., cols]))


class TestMatmulPaths:
    @settings(max_examples=80, deadline=None)
    @given(matmul_operands())
    def test_matmul_matches_loop_kernel_bit_for_bit(self, operands):
        a, b = operands
        with np.errstate(invalid="ignore", over="ignore"):
            expected = loop_matmul(a, b)
            out = rw.matmul(a, b)
        assert out.shape == expected.shape
        assert float_bits(out) == float_bits(expected)


def batched_reference(a, b):
    """reference_matmul on every batch slice of rank-2 or larger operands."""
    out = np.empty(a.shape[:-1] + b.shape[-1:], dtype=np.float32)
    for index in np.ndindex(*a.shape[:-2]):
        out[index] = reference_matmul(a[index], b[index])
    return out


def decode_products(config, rng, streams=1):
    """(name, a, b) for the rank-2 weight products of one decode step of
    `streams` lockstep streams (one row each), laid out as the engine passes
    them, also with transposed views as operands, and the rank-4 scores and
    AV products of one query per stream over band views of a full window's
    keys and values. A decode step makes those two only where
    window_attend's band path takes its query, one head over one key (at
    W = 1, or at position 0); else it forms their terms itself."""
    n_kv, hd, W = streams * config.n_kv_heads, config.head_dim, config.window_size
    group = config.n_heads // config.n_kv_heads
    qkv = config.dim + 2 * config.n_kv_heads * hd
    products = []
    for name, k, m in [("Wqkv", config.dim, qkv), ("Wo", config.dim, config.dim),
                       ("W13", config.dim, 2 * config.hidden_dim), ("W2", config.hidden_dim, config.dim),
                       ("logits", config.dim, config.vocab_size)]:
        products.append((name, spread(rng, (streams, k)), spread(rng, (k, m))))
        products.append((name + "-transposed", spread(rng, (k, streams)).T, spread(rng, (m, k)).T))
    q = spread(rng, (streams * config.n_heads, 1, hd)).reshape(n_kv, group, 1, hd).transpose(0, 2, 1, 3)
    keys, values = spread(rng, (n_kv, W, hd)), spread(rng, (n_kv, W, hd))
    k_bands = rw.attention._bands(keys, 0, 1, W)
    products.append(("scores", q, k_bands.transpose(0, 1, 3, 2)))
    products.append(("av", spread(rng, (n_kv, 1, group, W)), rw.attention._bands(values, 0, 1, W)))
    return products


def takes_one_block(a, b):
    """matmul forms every term at once, one multiply for one row or else one
    einsum, and reduces them once."""
    return tiles(a, b) is None


DESK = rw.ModelConfig(dim=128, n_layers=6, head_dim=16, hidden_dim=384, n_heads=8, n_kv_heads=2,
                      window_size=64, context_len=2048, vocab_size=1024)
W1_ONE_HEAD = rw.ModelConfig(dim=64, n_layers=4, head_dim=64, hidden_dim=128, n_heads=1, n_kv_heads=1,
                             window_size=1, context_len=128, vocab_size=256)
#: (config, lockstep streams) of the decode steps whose products are checked.
DECODE_CONFIGS = {"toy": (rw.PRESET_TOY, 1), "toy-two-streams": (rw.PRESET_TOY, 2), "desk": (DESK, 1),
                  "w1-one-head": (W1_ONE_HEAD, 1)}
DECODE_PRODUCTS = [(config, name) for config in sorted(DECODE_CONFIGS)
                   for name, _, _ in decode_products(DECODE_CONFIGS[config][0], np.random.default_rng(0))]


class TestOneBlockMatmul:
    """A product of at most TILE_ELEMENTS terms (k * outputs) forms its
    C-ordered [k, *outputs] terms in one block, one multiply for one row of a
    2-D product and else one einsum, and reduces them once down k. Every
    decode product of the toy preset takes it, one stream or several; each
    case here is held to the scalar left-to-right reference."""

    @pytest.mark.parametrize("config, name", DECODE_PRODUCTS, ids=[f"{c}-{n}" for c, n in DECODE_PRODUCTS])
    def test_decode_products_equal_scalar_reference(self, config, name):
        (config, streams), rng = DECODE_CONFIGS[config], np.random.default_rng(41)
        a, b = {n: (a, b) for n, a, b in decode_products(config, rng, streams)}[name]
        cols = sampled_columns(b.shape[-1])
        assert np.array_equal(rw.matmul(a, b)[..., cols], batched_reference(a, b[..., cols]))

    def test_every_toy_decode_product_takes_one_block(self):
        # One stream's weight products take the one-row multiply, lockstep streams' one einsum.
        for streams in (1, 2, 8):
            products = decode_products(rw.PRESET_TOY, np.random.default_rng(0), streams)
            assert all(takes_one_block(a, b) for _, a, b in products)
            assert all(takes_one_row(a, b) == (streams == 1) for _, a, b in products if a.ndim == 2)

    def test_one_head_window_one_products(self):
        # W1 with one head: the scores product has one output (one ordered
        # accumulate), the AV product has a one-term shared axis.
        products = {n: (a, b) for n, a, b in decode_products(W1_ONE_HEAD, np.random.default_rng(42))}
        scores, av = products["scores"], products["av"]
        assert rw.matmul(*scores).size == 1 and not takes_one_block(*scores)
        assert av[0].shape[-1] == 1 and takes_one_block(*av)
        for a, b in (scores, av):
            assert np.array_equal(rw.matmul(a, b), batched_reference(a, b))

    @pytest.mark.parametrize("a_shape, b_shape", [((1, 64), (64, 128)), ((2, 1, 2, 16), (2, 1, 16, 8))],
                             ids=["rank2", "rank4"])
    def test_all_negative_zero_terms_sum_to_positive_zero(self, a_shape, b_shape):
        # The reduce starts from initial=+0.0, so an all-(-0.0) sum is
        # +0.0 + -0.0 + ... + -0.0 = +0.0.
        a, b = np.full(a_shape, -0.0, np.float32), np.ones(b_shape, np.float32)
        assert takes_one_block(a, b)
        out = rw.matmul(a, b)
        assert not np.signbit(out).any() and np.array_equal(out, np.zeros_like(out))


class TestSoftmax:
    def test_uniform_on_constant_row(self):
        out = rw.softmax_stable(f32([2.0, 2.0, 2.0]))
        assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)

    def test_no_overflow_on_large_inputs(self):
        out = rw.softmax_stable(f32([1000.0, 1000.0]))
        assert np.array_equal(out, f32([0.5, 0.5]))

    def test_known_two_point_distribution(self):
        out = rw.softmax_stable(f32([0.0, math.log(3.0)]))
        assert np.allclose(out, [0.25, 0.75], atol=1e-6)

    def test_masked_entries_exactly_zero(self):
        x = f32([[5.0, 1.0, -2.0, 40.0]])
        masked = np.array([[False, True, False, True]])
        out = rw.softmax_stable(x, masked)
        assert out[0, 1] == 0.0 and out[0, 3] == 0.0
        assert abs(out[0].sum() - 1.0) <= 1e-6

    def test_all_masked_row_rejected(self):
        with pytest.raises(ValueError, match="degenerate attention row"):
            rw.softmax_stable(f32([[1.0, 2.0]]), np.array([[True, True]]))
        with pytest.raises(ValueError, match="degenerate attention row"):
            rw.softmax_stable(np.zeros((2, 0), np.float32))

    def test_unmasked_path_equals_an_all_false_mask(self):
        # The no-mask fast path skips the keep array and both np.where
        # calls; it must give the masked path's bits, signed zeros included.
        rng = np.random.default_rng(25)
        x = spread(rng, (3, 5, 17)) * np.float32(1e-2)
        x[0, 0, :4] = [-0.0, 0.0, -0.0, -0.0]
        x[1, 2] = np.float32(-0.0)
        x[2, 1, 3] = np.inf
        with np.errstate(invalid="ignore"):
            fast = rw.softmax_stable(x)
            full = rw.softmax_stable(x, np.zeros(x.shape, dtype=bool))
        assert float_bits(fast) == float_bits(full)

    def test_mask_shape_mismatch(self):
        with pytest.raises(ValueError):
            rw.softmax_stable(f32([1.0, 2.0]), np.array([[True, False]]))

    @given(
        st.lists(st.integers(-512, 512), min_size=1, max_size=12),
        st.integers(-8, 8),
    )
    def test_shift_invariance(self, raw, c):
        # Entries are multiples of 1/64 so x + c is exact in float32 and the
        # invariance holds to the last bit, not just to tolerance.
        x = f32(raw) / np.float32(64.0)
        shifted = x + np.float32(c)
        diff = np.abs(rw.softmax_stable(x) - rw.softmax_stable(shifted))
        assert float(diff.max()) <= 1e-6

    @given(st.lists(st.floats(-20, 20, width=32), min_size=1, max_size=10))
    def test_probability_vector(self, raw):
        out = rw.softmax_stable(f32(raw))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert abs(float(out.sum()) - 1.0) <= 1e-6


def mistral_rms_norm(x, gain, eps=rw.tensor.RMS_NORM_EPS):
    """float64 RMSNorm written from mistral-src `RMSNorm`:
    x * rsqrt(mean(x**2) + eps) * weight over the last axis."""
    x = x.astype(np.float64)
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps) * gain.astype(np.float64)


def norm_inputs(scale):
    """Rows of a hidden state at `scale` and a gain near 1."""
    rng = np.random.default_rng(56)
    return (scale * rng.standard_normal((6, 64))).astype(np.float32), (1 + 0.1 * rng.standard_normal(64)).astype(np.float32)


class TestRmsNorm:
    # Inputs of magnitude 1000 put mean squares near 1e6, where adding
    # RMS_NORM_EPS changes no bit, so the exact normalized values show.
    def test_ones_fixed_point(self):
        x = np.full((3, 5), 1000.0, dtype=np.float32)
        out = rw.rms_norm(x, np.ones(5, dtype=np.float32))
        assert np.allclose(out, 1.0, atol=1e-6)

    def test_zero_input_stays_zero(self):
        out = rw.rms_norm(np.zeros(4, dtype=np.float32), np.ones(4, dtype=np.float32))
        assert np.array_equal(out, np.zeros(4, dtype=np.float32))

    def test_symmetric_pair(self):
        out = rw.rms_norm(f32([3000.0, -3000.0]), np.ones(2, dtype=np.float32))
        assert np.allclose(out, [1.0, -1.0], atol=1e-6)

    def test_gain_scales_output(self):
        out = rw.rms_norm(f32([3000.0, -3000.0]), f32([2.0, 0.5]))
        assert np.allclose(out, [2.0, -0.5], atol=1e-6)

    def test_gain_shape_mismatch(self):
        with pytest.raises(ValueError):
            rw.rms_norm(np.ones((2, 4), np.float32), np.ones(3, np.float32))

    @pytest.mark.parametrize("scale", [1.0, 0.01])
    def test_holds_to_mistral_reference(self, scale):
        x, gain = norm_inputs(scale)
        assert np.allclose(rw.rms_norm(x, gain), mistral_rms_norm(x, gain), atol=KERNEL_TOL, rtol=KERNEL_TOL)

    @pytest.mark.parametrize("scale", [1.0, 0.01])
    def test_eps_off_by_ten_fails_mistral_reference(self, scale, monkeypatch):
        # Negative control: eps 1e-4 instead of 1e-5.
        monkeypatch.setattr(rw.tensor, "_EPS", np.float32(1e-4))
        x, gain = norm_inputs(scale)
        assert not np.allclose(rw.rms_norm(x, gain), mistral_rms_norm(x, gain), atol=KERNEL_TOL, rtol=KERNEL_TOL)


def rms_rows(draw, rows, dim):
    """Drawn float32 rows: a spread of magnitudes, exact zeros, subnormals and
    squares near float32's largest value (some of whose sums overflow)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-30, 1e-19, 1e-3, 1.0, 1e3, 1e17, 1.8e19]))
    x = (scale * spread(rng, (rows, dim))).astype(np.float32) if scale < 1e17 else (
        scale * rng.uniform(-1.0, 1.0, (rows, dim))).astype(np.float32)
    for value in draw(st.lists(st.sampled_from([0.0, -0.0, 1e-40, -3e-45, 1.8446743e19]), max_size=3)):
        x[rng.random(x.shape) < 0.2] = value
    return x


class TestOneRowRmsNorm:
    """rms_norm of one row ([1, dim], every decode step) takes its mean square
    as a float32 scalar and its root as binary64 math.sqrt rounded to float32,
    the correctly rounded float32 root: bit for bit the same row normalized
    inside a block of rows."""

    @settings(max_examples=150)
    @given(st.data())
    def test_equals_the_row_inside_a_block(self, data):
        rows, dim = data.draw(st.integers(2, 5)), data.draw(st.sampled_from([2, 3, 16, 64, 128, 385]))
        x, gain = rms_rows(data.draw, rows, dim), rms_rows(data.draw, 1, dim)[0]
        with np.errstate(over="ignore", invalid="ignore"):  # a sum of squares past float32's range: a row of zeros
            block = rw.rms_norm(x, gain)
            for i in range(rows):
                assert np.array_equal(rw.rms_norm(x[i:i + 1], gain), block[i:i + 1], equal_nan=True)

    @pytest.mark.parametrize("rows", [0, 1, 2, 3])
    def test_zero_width_rows_give_empty_rows(self, rows):
        # One row of width 0 is no one-row case: it has no mean square to take.
        assert rw.rms_norm(np.zeros((rows, 0), np.float32), np.zeros(0, np.float32)).shape == (rows, 0)

    def test_one_row_keeps_its_shape_and_overflow_raises(self):
        x = np.full((1, 4), 3e19, np.float32)
        assert rw.rms_norm(np.ones((1, 4), np.float32), np.ones(4, np.float32)).shape == (1, 4)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
            rw.rms_norm(x, np.ones(4, np.float32))


def rope(x, positions):
    """rope_apply by the table of `positions`, one per row of x along axis -2."""
    return rw.rope_apply(x, rw.tensor.rope_table(positions, x.shape[-1]))


class TestRope:
    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 1, 16), dtype=np.float32)
        assert np.array_equal(rope(x, [0]), x)

    def test_norm_preserved(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5, 1, 16), dtype=np.float32)
        for position in (1, 7, 500, 31337):
            out = rope(x, [position])
            assert np.allclose(
                np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-5
            )

    def test_per_pair_norm_preserved(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 8), dtype=np.float32)
        out = rope(x, [97])
        pairs_in = x.reshape(4, 2)
        pairs_out = out.reshape(4, 2)
        assert np.allclose(
            np.linalg.norm(pairs_out, axis=1), np.linalg.norm(pairs_in, axis=1), atol=1e-5
        )

    def test_scores_depend_on_relative_position_only(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            q = rng.standard_normal((1, 16), dtype=np.float32)
            k = rng.standard_normal((1, 16), dtype=np.float32)
            m = int(rng.integers(0, 50))
            n = int(rng.integers(0, m + 1))
            s = int(rng.integers(0, 100))
            base = float(np.dot(rope(q, [m])[0], rope(k, [n])[0]))
            moved = float(np.dot(rope(q, [m + s])[0], rope(k, [n + s])[0]))
            assert abs(base - moved) <= 1e-4

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            rope(np.ones((1, 7), np.float32), [1])

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            rope(np.ones((1, 8), np.float32), [-1])

    def test_position_vector_equals_per_row_calls(self):
        rng = np.random.default_rng(14)
        positions = [0, 5, 99, 1000, 31337, 2, 7]
        x = rng.standard_normal((3, len(positions), 16), dtype=np.float32)
        out = rope(x, np.asarray(positions))
        for i, position in enumerate(positions):
            assert np.array_equal(out[:, i, :], rope(x[:, i:i + 1, :], [position])[:, 0])
        flat = rope(x[0], positions)
        for i, position in enumerate(positions):
            assert np.array_equal(flat[i], rope(x[0, i:i + 1], [position])[0])

    def test_negative_entry_in_position_vector_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            rope(np.ones((3, 8), np.float32), [0, -1, 2])

    def test_position_vector_must_match_rows(self):
        with pytest.raises(ValueError, match="do not fit"):
            rope(np.ones((3, 8), np.float32), [0, 1])

    @staticmethod
    def unmemoised_rope(x, positions):
        """rope_apply's arithmetic with its float64 frequencies written out here."""
        head_dim = x.shape[-1]
        freqs = rw.tensor.ROPE_THETA ** (-2.0 * np.arange(head_dim // 2) / head_dim)
        angles = np.asarray(positions)[..., np.newaxis] * freqs
        cos, sin = np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)
        even, odd = x[..., 0::2], x[..., 1::2]
        out = np.empty_like(x)
        out[..., 0::2] = even * cos - odd * sin
        out[..., 1::2] = even * sin + odd * cos
        return out

    def test_memoised_frequencies_equal_recomputed_at_every_position(self):
        rng = np.random.default_rng(15)
        positions = np.arange(2048)
        x = spread(rng, (3, positions.size, 16))
        assert np.array_equal(rope(x, positions), self.unmemoised_rope(x, positions))
        for position in (0, 1, 1000, 2047):
            row = x[:, position:position + 1]
            assert np.array_equal(rope(row, [position]), self.unmemoised_rope(row, [position]))

    @pytest.mark.parametrize("head_dim", [2, 4, 8, 32, 64, 128])
    def test_memoised_frequencies_equal_recomputed_per_head_dim(self, head_dim):
        rng = np.random.default_rng(head_dim)
        positions = np.concatenate([np.arange(64), [1000, 4095, 2**20, 2**40]])
        x = spread(rng, (2, positions.size, head_dim))
        assert np.array_equal(rope(x, positions), self.unmemoised_rope(x, positions))


def mistral_rope(x, positions, theta=rw.tensor.ROPE_THETA):
    """float64 RoPE written from mistral-src `precompute_freqs_cis` and
    `apply_rotary_emb`: pair (x[2j], x[2j+1]) is a complex number times
    e^{i p theta_j}, theta_j = 1 / theta**(2j / head_dim)."""
    head_dim = x.shape[-1]
    freqs = 1.0 / theta ** (np.arange(0, head_dim, 2)[: head_dim // 2] / head_dim)
    freqs_cis = np.exp(1j * np.outer(np.asarray(positions, dtype=np.float64), freqs))
    pairs = x.astype(np.float64).reshape(x.shape[:-1] + (head_dim // 2, 2))
    rotated = (pairs[..., 0] + 1j * pairs[..., 1]) * freqs_cis
    return np.stack([rotated.real, rotated.imag], axis=-1).reshape(x.shape)


#: Tolerance against mistral_rope, per element and relative to the norm of
#: its pair: float32 cos and sin (one rounding each), two float32 products
#: and one float32 sum stay within a few units of 2**-24; 2**-21 is 8 of them.
ROPE_TOLERANCE = 2.0**-21


def within_mistral_rope(out, x, positions):
    pair_norm = np.repeat(np.hypot(x[..., 0::2], x[..., 1::2]).astype(np.float64), 2, axis=-1)
    return bool(np.all(np.abs(out - mistral_rope(x, positions)) <= ROPE_TOLERANCE * pair_norm))


class TestRopeTable:
    """rope_table forms a chunk's angles once; rope_apply rotates by any
    rows of it, bit for bit as by those rows' own positions."""

    @pytest.mark.parametrize("start", [0, 13, 2**40 - 28], ids=["fresh", "restart", "2**40"])
    def test_suffix_of_one_chunk_table_equals_own_positions(self, start):
        # As forward_chunk uses it: layer 0's rows, then shorter suffixes.
        rng = np.random.default_rng(51)
        positions = np.arange(start, start + 29)
        table = rw.tensor.rope_table(positions, 16)
        for rows in (29, 22, 15, 8, 1):
            x = spread(rng, (6, rows, 16))
            own = rope(x, positions[-rows:])
            suffix = rw.tensor.RopeTable(table.cos[-rows:], table.sin[-rows:])
            assert np.array_equal(rw.rope_apply(x, suffix), own)
            assert np.array_equal(own[:, -1:], rope(x[:, -1:], positions[-1:]))

    @pytest.mark.parametrize("head_dim", [2, 16, 64, 128])
    def test_holds_to_mistral_reference(self, head_dim):
        rng = np.random.default_rng(head_dim + 52)
        positions = np.concatenate([np.arange(64), [1000, 4095, 31337, 2**20]])
        x = spread(rng, (3, positions.size, head_dim))
        assert within_mistral_rope(rw.rope_apply(x, rw.tensor.rope_table(positions, head_dim)), x, positions)

    def test_swapped_sin_sign_fails_mistral_reference(self):
        # Negative control: rotating by -angle (sin with its sign swapped).
        rng = np.random.default_rng(53)
        positions = np.arange(1, 40)
        x = spread(rng, (2, positions.size, 16))
        table = rw.tensor.rope_table(positions, 16)
        swapped = rw.rope_apply(x, rw.tensor.RopeTable(table.cos, -table.sin))
        assert not within_mistral_rope(swapped, x, positions)

    @pytest.mark.parametrize("positions", [[0.5, 1.5], [0.0, 1.0], 2.0, [True, False]],
                             ids=["halves", "whole-floats", "float-scalar", "bools"])
    def test_non_integer_positions_rejected(self, positions):
        with pytest.raises(ValueError, match="non-negative integer"):
            rw.tensor.rope_table(positions, 8)

    @pytest.mark.parametrize("positions", [3, np.int64(3), [[0, 1]]], ids=["int", "numpy-int", "2-D"])
    def test_positions_must_be_one_run(self, positions):
        with pytest.raises(ValueError, match="1-D run"):
            rw.tensor.rope_table(positions, 8)

    @pytest.mark.parametrize("positions", [-1, [0, -3], np.array([2, -2**40])])
    def test_negative_positions_rejected(self, positions):
        with pytest.raises(ValueError, match="non-negative"):
            rw.tensor.rope_table(positions, 8)

    def test_numpy_integer_positions_accepted(self):
        x = spread(np.random.default_rng(54), (3, 8))
        for positions in (np.arange(3, dtype=np.int32), np.arange(3, dtype=np.uint64)):
            assert np.array_equal(rope(x, positions), rope(x, [0, 1, 2]))

    def test_table_must_fit_input(self):
        table = rw.tensor.rope_table([0, 1, 2], 8)
        with pytest.raises(ValueError, match="do not fit"):
            rw.rope_apply(np.ones((2, 8), np.float32), table)
        with pytest.raises(ValueError, match="do not fit"):
            rw.rope_apply(np.ones((3, 16), np.float32), table)
        with pytest.raises(ValueError, match="even"):
            rw.rope_apply(np.ones((3, 7), np.float32), table)
        with pytest.raises(ValueError, match="do not fit"):
            rw.rope_apply(np.ones(8, np.float32), rw.tensor.rope_table([0], 8))


class TestSiluGate:
    def test_zero_activation_kills_output(self):
        x1 = f32([0.0, 0.0, 2.0])
        x3 = f32([9.0, -4.0, 1.0])
        out = rw.silu_gate(x1, x3)
        assert out[0] == 0.0 and out[1] == 0.0

    def test_saturates_to_identity(self):
        x1 = f32([40.0, 80.0])
        out = rw.silu_gate(x1, np.ones(2, np.float32))
        assert np.allclose(out, x1, atol=1e-5)

    def test_scalar_value(self):
        out = rw.silu_gate(f32([1.0]), f32([2.0]))
        assert np.allclose(out, [2.0 / (1.0 + math.exp(-1.0))], atol=1e-4)

    def test_very_negative_input_underflows_to_zero(self):
        out = rw.silu_gate(f32([-200.0]), f32([5.0]))
        assert np.isfinite(out).all() and abs(float(out[0])) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rw.silu_gate(np.ones(3, np.float32), np.ones(4, np.float32))

    def test_holds_to_mistral_reference(self):
        # mistral-src `FeedForward`: w2(silu(w1 x) * w3 x), silu(t) = t * sigmoid(t).
        rng = np.random.default_rng(57)
        x1, x3 = (3 * rng.standard_normal((2, 4, 64))).astype(np.float32)
        t = x1.astype(np.float64)
        reference = t / (1 + np.exp(-t)) * x3.astype(np.float64)
        assert np.allclose(rw.silu_gate(x1, x3), reference, atol=KERNEL_TOL, rtol=KERNEL_TOL)
