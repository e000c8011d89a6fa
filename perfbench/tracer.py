"""Span tracer that wraps the engine's public functions from outside.

Each wrapped function records a span: its wall duration and its self time,
which is the duration minus the time spent in spans it caused. Counters taken
from argument and result shapes (MACs, rows, attention pairs, bytes copied)
are recorded at the same boundary.

Names are patched where their callers look them up at call time. A module
that did `from x import y` holds its own binding, so that binding is patched
too (for example `rollwin.cli.run_verification`). `uninstall` restores every
original. Nothing here runs unless a traced run installs it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Span stack plus per-span totals: calls, total ms, self ms and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_s = []  # one accumulator per open span
        self._patched = []  # (owner, attribute, original)

    def wrap(self, name, fn, count=None):
        """Return `fn` wrapped in a span `name`; `count(args, result)` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def exclude(self, seconds):
        """Count `seconds` spent by the benchmark itself as a child of the open span."""
        if self._child_s:
            self._child_s[-1] += seconds

    def patch(self, owner, attribute, name, count=None):
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, count))

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def _count_matmul(counts, args, result):
    a, b = args[0], args[1]
    counts["tensor.matmul.rows"] += a.shape[0]
    counts["tensor.matmul.macs"] += a.shape[0] * a.shape[1] * b.shape[1]


def _count_attend(counts, args, result):
    q, mask, grouping = args[0], args[3], args[4]
    n_q, n_k = mask.admissible.shape
    counts["attention.scored_pairs"] += grouping.n_heads * n_q * n_k
    counts["attention.admissible_pairs"] += grouping.n_heads * int(mask.admissible.sum())


def _count_window_view(counts, args, result):
    counts["cache.window_view.bytes_copied"] += sum(k.nbytes + v.nbytes for _, k, v in result)


def install(rollwin_modules) -> Tracer:
    """Wrap every traced name of the engine; return the tracer holding the totals."""
    m = rollwin_modules
    tracer = Tracer()
    patch = tracer.patch
    patch(m.tensor, "matmul", "tensor.matmul", _count_matmul)
    for fn in ("rope_apply", "softmax_stable", "rms_norm", "silu_gate"):
        patch(m.tensor, fn, f"tensor.{fn}")
    patch(m.attention, "gqa_attend", "attention.gqa_attend", _count_attend)
    patch(m.attention, "build_swa_mask", "attention.mask_build")
    patch(m.attention, "build_prefill_mask", "attention.mask_build")
    patch(m.cache.RollingKvCache, "append", "cache.append")
    patch(m.cache.RollingKvCache, "window_view", "cache.window_view", _count_window_view)
    patch(m.cache.RollingKvCache, "prefill_bulk", "cache.prefill_bulk")
    patch(m.model.GenerationSession, "forward_decode", "model.forward_decode")
    patch(m.model.GenerationSession, "prefill", "model.prefill")
    patch(m.model, "sample_token", "model.sample_token")
    patch(m.cli, "sample_token", "model.sample_token")
    patch(m.cli, "oracle_forward_swa", "oracle.forward_swa")
    patch(m.cli, "reach_probe", "oracle.reach_probe")
    patch(m.cli, "run_verification", "cli.run_verification")
    patch(m.weights, "load_weights", "weights.load_weights")
    return tracer


def per_layer_metrics(tracer: Tracer, scale: float, overhead_ratio: float) -> dict:
    """The per-layer metrics, by name, as {"value": ..., "unit": ...} entries.

    Span times are multiplied by `scale`, the host-speed factor of the run.
    """
    ms = lambda name: tracer.self_s[name] * 1000.0 * scale  # noqa: E731
    calls = tracer.calls
    counts = tracer.counts
    scored = counts["attention.scored_pairs"]
    admissible = counts["attention.admissible_pairs"]
    matmul_calls = calls["tensor.matmul"]
    values = {
        "tensor.matmul.calls": (matmul_calls, "count"),
        "tensor.matmul.self_ms": (ms("tensor.matmul"), "ms"),
        "tensor.matmul.macs": (counts["tensor.matmul.macs"], "count"),
        "tensor.matmul.rows_mean": (
            counts["tensor.matmul.rows"] / matmul_calls if matmul_calls else 0.0, "rows"),
        "tensor.rope_apply.calls": (calls["tensor.rope_apply"], "count"),
        "tensor.rope_apply.self_ms": (ms("tensor.rope_apply"), "ms"),
        "tensor.softmax_stable.self_ms": (ms("tensor.softmax_stable"), "ms"),
        "tensor.rms_norm.self_ms": (ms("tensor.rms_norm"), "ms"),
        "tensor.silu_gate.self_ms": (ms("tensor.silu_gate"), "ms"),
        "attention.gqa_attend.calls": (calls["attention.gqa_attend"], "count"),
        "attention.gqa_attend.self_ms": (ms("attention.gqa_attend"), "ms"),
        "attention.mask_build.self_ms": (ms("attention.mask_build"), "ms"),
        "attention.scored_pairs": (scored, "count"),
        "attention.admissible_pairs": (admissible, "count"),
        "attention.useful_ratio": (admissible / scored if scored else 0.0, "ratio"),
        "cache.append.self_ms": (ms("cache.append"), "ms"),
        "cache.window_view.calls": (calls["cache.window_view"], "count"),
        "cache.window_view.self_ms": (ms("cache.window_view"), "ms"),
        "cache.window_view.bytes_copied": (counts["cache.window_view.bytes_copied"], "bytes"),
        "cache.prefill_bulk.self_ms": (ms("cache.prefill_bulk"), "ms"),
        "model.forward_decode.self_ms": (ms("model.forward_decode"), "ms"),
        "model.prefill.self_ms": (ms("model.prefill"), "ms"),
        "model.sample_token.self_ms": (ms("model.sample_token"), "ms"),
        "oracle.forward_swa.self_ms": (ms("oracle.forward_swa"), "ms"),
        "oracle.reach_probe.self_ms": (ms("oracle.reach_probe"), "ms"),
        "weights.load_weights.ms": (tracer.total_s["weights.load_weights"] * 1000.0 * scale, "ms"),
        "cli.run_verification.self_ms": (ms("cli.run_verification"), "ms"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
