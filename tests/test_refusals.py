"""Every refusal branch of the kernels, attention, the pair counts and the
cache: one call each, with the ValueError its check raises. Branches that
another module's tests already refuse (softmax_stable's degenerate rows,
gqa_attend's mask shape, full_pair_count, score_pair_count's window, and
prefill_bulk's empty block) are left to them.

The kernels' argument checks run on every call of the hot path, so a
cheaper check must still refuse exactly these arguments.
"""

import numpy as np
import pytest

import rollwin as rw
from rollwin import tensor


def ones(*shape):
    return np.ones(shape, np.float32)


def table(rows, head_dim):
    return tensor.rope_table(np.arange(rows), head_dim)


def cache_at_3():
    """A cache of 2 kv heads, 4 slots and head_dim 8, holding positions 0-2."""
    cache = rw.RollingKvCache(2, 4, 8)
    cache.prefill_bulk(0, ones(2, 3, 8), ones(2, 3, 8))
    return cache


REFUSALS = {
    # matmul: one check, four ways to fail it.
    "matmul-1d-operand": (lambda: tensor.matmul(ones(3), ones(3, 2)), "matmul shape mismatch"),
    "matmul-ranks-differ": (lambda: tensor.matmul(ones(2, 3, 4), ones(4, 5)), "matmul shape mismatch"),
    "matmul-batch-axes-differ": (lambda: tensor.matmul(ones(2, 3, 4), ones(3, 4, 5)), "matmul shape mismatch"),
    "matmul-k-differs": (lambda: tensor.matmul(ones(2, 3), ones(4, 5)), "matmul shape mismatch"),
    "rms-norm-gain-not-1d": (lambda: tensor.rms_norm(ones(2, 4), ones(1, 4)), "gain shape"),
    "rms-norm-gain-length": (lambda: tensor.rms_norm(ones(2, 4), ones(3)), "gain shape"),
    "rope-apply-odd-head-dim": (lambda: tensor.rope_apply(ones(3, 7), table(3, 8)), "even trailing dimension"),
    "rope-apply-table-rows": (lambda: tensor.rope_apply(ones(2, 8), table(3, 8)), "do not fit"),
    "rope-apply-table-head-dim": (lambda: tensor.rope_apply(ones(3, 16), table(3, 8)), "do not fit"),
    "softmax-mask-shape": (lambda: tensor.softmax_stable(ones(2, 3), np.zeros((2, 4), bool)), "mask shape"),
    "silu-gate-shapes": (lambda: tensor.silu_gate(ones(2, 3), ones(2, 4)), "silu_gate shape mismatch"),
    # window_attend: q [4 heads, 3 rows, head_dim 8] over 2 kv heads.
    "window-attend-window": (lambda: rw.window_attend(ones(4, 3, 8), ones(2, 6, 8), ones(2, 6, 8), 0), "window"),
    "window-attend-uneven-groups": (lambda: rw.window_attend(ones(3, 3, 8), ones(2, 6, 8), ones(2, 6, 8), 4),
                                    "cannot share"),
    "window-attend-no-kv-heads": (lambda: rw.window_attend(ones(4, 3, 8), ones(0, 6, 8), ones(0, 6, 8), 4),
                                  "cannot share"),
    "window-attend-k-v-differ": (lambda: rw.window_attend(ones(4, 3, 8), ones(2, 6, 8), ones(2, 5, 8), 4),
                                 "not \\[heads, rows, head_dim\\]"),
    "window-attend-head-dim": (lambda: rw.window_attend(ones(4, 3, 4), ones(2, 6, 8), ones(2, 6, 8), 4),
                               "not \\[heads, rows, head_dim\\]"),
    "window-attend-q-2d": (lambda: rw.window_attend(ones(4, 3), ones(2, 6, 8), ones(2, 6, 8), 4),
                           "not \\[heads, rows, head_dim\\]"),
    "window-attend-q-4d": (lambda: rw.window_attend(ones(4, 3, 8, 1), ones(2, 6, 8), ones(2, 6, 8), 4),
                           "not \\[heads, rows, head_dim\\]"),
    "window-attend-k-v-2d": (lambda: rw.window_attend(ones(4, 3, 8), ones(6, 8), ones(6, 8), 4),
                             "not \\[heads, rows, head_dim\\]"),
    "window-attend-fewer-keys-than-queries": (
        lambda: rw.window_attend(ones(4, 3, 8), ones(2, 2, 8), ones(2, 2, 8), 4), "do not fit 3 queries"),
    # gqa_attend: the same operand rule (its mask check is in test_attention).
    "gqa-attend-rank": (lambda: rw.gqa_attend(ones(4, 3), ones(2, 3, 8), ones(2, 3, 8), np.ones((3, 3), bool)),
                        "not \\[heads, rows, head_dim\\]"),
    "gqa-attend-k-v-differ": (lambda: rw.gqa_attend(ones(4, 3, 8), ones(2, 3, 8), ones(2, 2, 8),
                                                    np.ones((3, 3), bool)), "not \\[heads, rows, head_dim\\]"),
    "gqa-attend-head-dim": (lambda: rw.gqa_attend(ones(4, 3, 4), ones(2, 3, 8), ones(2, 3, 8),
                                                  np.ones((3, 3), bool)), "not \\[heads, rows, head_dim\\]"),
    # The masks refuse a position they would truncate, as rope_table does.
    "swa-mask-float-query": (lambda: rw.build_swa_mask([2.7], [1], 2), "non-negative integers"),
    "swa-mask-numpy-float-key": (lambda: rw.build_swa_mask([2], [np.float64(1.0)], 2), "non-negative integers"),
    "prefill-mask-float-cache-position": (lambda: rw.build_prefill_mask(4, 2, [2.5, 3], 4), "non-negative integers"),
    "prefill-mask-float-start": (lambda: rw.build_prefill_mask(2.5, 2, [], 4), "start and length must be integers"),
    "prefill-mask-float-length": (lambda: rw.build_prefill_mask(2, 2.0, [], 4), "start and length must be integers"),
    "score-pair-count-length": (lambda: rw.score_pair_count(0, 4), "seq_len must be >= 1"),
    "cache-capacity": (lambda: rw.RollingKvCache(2, 0, 8), "capacity must be >= 1"),
    "prefill-bulk-before-the-end": (lambda: cache_at_3().prefill_bulk(2, ones(2, 1, 8), ones(2, 1, 8)),
                                    "out-of-order write: expected position 3, got 2"),
    "prefill-bulk-float-start": (lambda: cache_at_3().prefill_bulk(3.5, ones(2, 1, 8), ones(2, 1, 8)),
                                 "write position must be an integer"),
    "append-float-position": (lambda: cache_at_3().append(np.float64(3.0), ones(2, 8), ones(2, 8)),
                              "write position must be an integer"),
    "prefill-bulk-kv-heads": (lambda: cache_at_3().prefill_bulk(3, ones(3, 1, 8), ones(3, 1, 8)), "block shapes"),
    "prefill-bulk-head-dim": (lambda: cache_at_3().prefill_bulk(3, ones(2, 1, 4), ones(2, 1, 4)), "block shapes"),
    "prefill-bulk-k-v-differ": (lambda: cache_at_3().prefill_bulk(3, ones(2, 1, 8), ones(2, 2, 8)), "block shapes"),
    "prefill-bulk-rank": (lambda: cache_at_3().prefill_bulk(3, ones(2, 1, 8, 1), ones(2, 1, 8, 1)), "block shapes"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused(case):
    call, match = REFUSALS[case]
    with pytest.raises(ValueError, match=match):
        call()
