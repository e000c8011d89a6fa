"""Benchmark for the rollwin engine, run from the root of a source checkout.

    python3 perfbench/run.py --workload decode_steady --seed 1 --seconds 25 --trace 0

Builds its inputs from --seed, sets the engine up five times (import,
load_weights of a weight file written beforehand, one warm-up call), runs one
closed-loop client for about --seconds, checks every output against the
oracle-derived golden and prints a JSON report. The last stdout line holds
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The line before it is a longer record with raw times, tails and the metric
names of the benchmark's README. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread for this process only, before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracer as tracing
from clock import REFERENCE_S, Probe
from workloads import WORKLOADS, Stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENGINE_MODULES = ("tensor", "attention", "cache", "config", "model", "oracle", "weights", "cli")
SETUP_REPEATS = 5


def import_engine() -> SimpleNamespace:
    """Import rollwin afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "rollwin" or n.startswith("rollwin.")]:
        del sys.modules[name]
    importlib.import_module("rollwin")
    return SimpleNamespace(
        **{name: importlib.import_module(f"rollwin.{name}") for name in ENGINE_MODULES}
    )


def set_up(workload, weight_path, seed, probe):
    """One set-up: import, load the weight file, one warm-up call; timed."""

    def once():
        m = import_engine()
        weights = m.weights.load_weights(weight_path)
        workload.warm_up(m, weights, seed)
        return m, weights

    (m, weights), raw, scaled = probe.time(once)
    return m, weights, raw, scaled


def run_one(workload, m, weights, item, probe, stats, outputs):
    stats.attempted += 1
    try:
        outputs.append(workload.run(m, weights, item, probe, stats))
    except Exception:  # a failed operation; the loop goes on
        stats.fail(traceback.format_exc(limit=3).strip().splitlines()[-1])


def timed_loop(workload, m, weights, seconds, probe, stats):
    """Closed loop for about `seconds`; whole pool cycles where the workload asks.

    A workload with a `sweep_s` makes a fixed number of cycles instead of
    stopping on the clock, so its operation counts repeat exactly.
    """
    outputs = []
    if getattr(workload, "sweep_s", None):
        for _ in range(max(1, round(seconds / workload.sweep_s))):
            for item in workload.cycle():
                run_one(workload, m, weights, item, probe, stats, outputs)
        return outputs
    started = time.perf_counter()
    cycles = 0
    while True:
        for item in workload.cycle():
            run_one(workload, m, weights, item, probe, stats, outputs)
            if not workload.whole_cycles and time.perf_counter() - started >= seconds:
                return outputs
        cycles += 1
        elapsed = time.perf_counter() - started
        # Stop at the cycle end nearest to `seconds`.
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            return outputs


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values):
    """Highest order statistic with at least 10 samples beyond it: (value, pct, n)."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return {"value": sorted(values)[k - 1], "pct": round(100.0 * k / n, 2), "n": n}


def detail_metrics(times, stats):
    """Every metric the README names, from one set of times (raw or scaled)."""
    out = {}
    for series, label in (("ttft", "ttft_ms"), ("itl", "itl_ms"), ("verify", "verify_ms")):
        values = times.get(series, [])
        out[f"{label}_p50"] = statistics.median(values) * 1000.0 if values else None
        t = tail(values)
        out[f"{label}_tail"] = t and dict(t, value=t["value"] * 1000.0)
    for counter, series, label in (
        ("prompt_tokens", "ttft", "prefill_tok_s"),
        ("decode_tokens", "itl", "decode_tok_s"),
        ("verify_calls", "verify", "verify_calls_s"),
    ):
        total = sum(times.get(series, []))
        out[label] = stats.work.get(counter, 0) / total if total else None
    values = times.get("verify", [])
    out["verify_s"] = statistics.median(values) if values else None
    return out


def end_to_end(workload, stats, setup_scaled):
    """The contract metrics: the workload's own latency and throughput, and sizes."""
    values = stats.scaled.get(workload.latency_series, [])
    if not values:
        return None
    return {
        "latency_ms_p50": {"value": statistics.median(values) * 1000.0, "unit": "ms"},
        "work_per_s": {"value": stats.work[workload.work_counter] / sum(values), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "cache_bytes": {"value": stats.cache_bytes, "unit": "bytes"},
        "peak_rss_mib": {"value": stats.peak_rss_mib, "unit": "MiB"},
    }


def traced_run(workload, m, weight_path, probe, stats):
    """One pool cycle untraced, then the same cycle traced; per-layer metrics.

    Both passes load the weight file and run the same requests, so every
    count repeats exactly for a given workload, and the ratio of their
    scaled operation times is the tracing overhead. Probe samples taken
    inside a span count as its children, so no layer's self time holds them.
    Span times are scaled by the traced pass's own scaled-over-raw factor.
    """
    items = workload.cycle()
    outputs = []

    def one_pass():
        before = [sum(map(sum, times.values())) for times in (stats.raw, stats.scaled)]
        loaded = m.weights.load_weights(weight_path)
        for item in items:
            run_one(workload, m, loaded, item, probe, stats, outputs)
        return [sum(map(sum, t.values())) - b for t, b in zip((stats.raw, stats.scaled), before)]

    _, untraced = one_pass()
    tracer = tracing.install(m)
    probe.on_sample = tracer.exclude
    try:
        traced_raw, traced = one_pass()
    finally:
        probe.on_sample = None
        tracer.uninstall()
    return tracing.per_layer_metrics(tracer, traced / traced_raw, traced / untraced), outputs


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": "1 (OMP/OPENBLAS/MKL_NUM_THREADS for this process)",
        "machine": platform.machine(),
        "reference_probe_s": {"x".join(map(str, k)): v for k, v in REFERENCE_S.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rollwin" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC / 'rollwin'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_build"
    work_root.mkdir(exist_ok=True)
    stats = Stats()
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=work_root) as tmp:
        weight_path = Path(tmp) / "weights.mwdc"
        m = import_engine()
        m.weights.save_weights(m.weights.init_random(cls.make_config(m), args.seed), weight_path)
        probe = Probe(cls.probe_shapes, cls.probe_period_s)
        probe.start_sampling()
        try:
            setups = [set_up(cls, weight_path, args.seed, probe) for _ in range(SETUP_REPEATS)]
            m, weights, _, _ = setups[-1]
            workload = cls(m, np.random.default_rng([args.seed, 20231006]), args.seed)
            if args.trace:
                metrics, outputs = traced_run(workload, m, weight_path, probe, stats)
            else:
                outputs = timed_loop(workload, m, weights, args.seconds, probe, stats)
                stats.peak_rss_mib = peak_rss_mib()
        finally:
            probe.stop_sampling()
    workload.gate(m, weights, outputs, stats)
    setup_scaled = [s[3] for s in setups]
    if not args.trace:
        metrics = end_to_end(workload, stats, setup_scaled)
    if metrics is None:
        print("error: no operation completed", file=sys.stderr)
        return 3

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "failed_ratio": stats.failed / stats.attempted,
        "golden_mismatches": stats.mismatched,
        "failures": stats.notes,
        "samples": {k: len(v) for k, v in stats.raw.items()},
        "setup_s": {"scaled": setup_scaled, "raw": [s[2] for s in setups]},
        "scaled": detail_metrics(stats.scaled, stats),
        "raw": detail_metrics(stats.raw, stats),
        "environment": environment(),
    }))
    print(json.dumps({
        "correct": stats.mismatched == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
