"""Command-line harness: generation, verification, and analytic benchmarks.

Standard output carries nothing but generated token IDs. Everything else
(run reports, verification lines, bench tables) goes to standard error as
JSON or one-line text so the token stream stays machine-parseable.

Every `generate --mode` runs the one `GenerationSession.generate` loop; the
oracle modes only swap in logits recomputed over the full history, so a
cross-check compares forwards, not loops. `verify` steps a random stream
beside a NaN-tainted copy of it, which checks the reach exactly, and compares
it bit for bit with the oracle and with chunked prefills of its prefixes,
some long enough to skip past `exact_reach`.

Exit codes are a stable contract: 0 success, 1 usage, 2 weight file,
3 truncated generation, 4 failed verification.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import attention
from .cache import position_bytes
from .config import (
    PRESET_7B,
    PRESET_TOY,
    ConfigError,
    ModelConfig,
    cache_slots,
    exact_reach,
    parse_config,
)
from .model import GenerationSession, SamplerSpec, reach_probe
from .model import sample_token  # noqa: F401  perfbench/tracer.py patches this name
from .oracle import OracleSizeError, guard, oracle_forward_causal, oracle_forward_swa
from .weights import DecoderWeights, WeightFormatError, init_random, load_weights, parameter_count

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WEIGHTS = 2
EXIT_TRUNCATED = 3
EXIT_VERIFY = 4

#: Most weights `generate --random-init` and `verify` draw: 2**26 float32
#: scalars (256 MiB), against about 1.4M for the benchmark's desk preset and
#: 0.2M for the toy. Checked with the closed-form `parameter_count` before
#: any allocation, so a config with 10**12 layers fails fast.
MAX_RANDOM_PARAMETERS = 2**26

#: Most rolling-cache bytes a session may allocate: 256 MiB, against 94.5 KiB
#: for the desk preset and 7 KiB for the toy. The caches do not depend on
#: the weights, so a small model with a huge window_size fits the parameter
#: cap; this is checked before any GenerationSession is built.
MAX_CACHE_BYTES = 2**28


class UsageError(Exception):
    """Bad flags or unusable inputs; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; remap to the usage code
        raise UsageError(message)


def non_negative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return int(text)


@dataclass
class CheckResult:
    name: str
    detail: str
    passed: bool


def _read_config(path: str) -> ModelConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config {path} is not UTF-8: {exc}")
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise UsageError(f"config {path}: {exc}")


def _check_random_size(config: ModelConfig) -> None:
    count = parameter_count(config)
    if count > MAX_RANDOM_PARAMETERS:
        raise UsageError(
            f"config too large for desk-scale random weights: {count} parameters "
            f"exceed {MAX_RANDOM_PARAMETERS}"
        )


def _check_cache_size(config: ModelConfig) -> None:
    size = config.n_layers * cache_slots(config.window_size) * position_bytes(config)
    if size > MAX_CACHE_BYTES:
        raise UsageError(f"config too large for the rolling caches: {size} bytes exceed {MAX_CACHE_BYTES}")


def _parse_prompt_ids(text: str) -> list[int]:
    ids = []
    for piece in text.split():
        try:
            ids.append(int(piece))
        except ValueError:
            raise UsageError(f"prompt id {piece!r} is not an integer")
    if not ids:
        raise UsageError("--prompt-ids must contain at least one token id")
    return ids


class _OracleSession(GenerationSession):
    """Decode by re-running a full-history oracle each step; for cross-checks.

    Only the logits differ from the engine: the generation loop is the
    shared one, and `cmd_generate` reads the report off the session as for
    the engine, so the rolling caches, though never written, give it the
    architecture's cache bytes rather than the oracle's scratch.
    """

    def __init__(self, weights: DecoderWeights, forward):
        super().__init__(weights)
        self.forward = forward
        self.history: list[int] = []

    def forward_chunk(self, tokens) -> np.ndarray:
        (tokens,) = self._check_tokens(tokens)
        self.history.extend(tokens)
        self.next_position += len(tokens)
        return self.forward(self.weights, self.config, self.history)[-1]


def cmd_generate(args) -> int:
    if args.weights:
        try:
            weights = load_weights(args.weights)
            _check_cache_size(weights.config)
        except (WeightFormatError, OSError, UsageError) as exc:
            print(f"error: weight file: {exc}", file=sys.stderr)
            return EXIT_WEIGHTS
    else:
        if not args.config:
            raise UsageError("--random-init requires --config")
        config = _read_config(args.config)
        _check_random_size(config)
        _check_cache_size(config)
        weights = init_random(config, args.seed)

    prompt = _parse_prompt_ids(args.prompt_ids)
    # --greedy, like no sampler flag, takes no --temperature to check.
    sampler = SamplerSpec() if args.top_k is None else SamplerSpec(args.top_k, args.temperature, args.seed)
    if args.mode == "swa":
        session = GenerationSession(weights)
    else:
        # The oracle's longest run re-reads the prompt and every fed-back
        # token; refuse it before the first step rather than partway.
        config = weights.config
        guard(config, min(len(prompt) + max(args.max_tokens, 1) - 1, config.context_len))
        forward = oracle_forward_swa if args.mode == "oracle-swa" else oracle_forward_causal
        session = _OracleSession(weights, forward)

    # The loop checks max_tokens, the sampler, prompt ids and length; its
    # ValueError is a usage error. Finite weights can still overflow the
    # activations (rms_norm would then scale a row to zero, silently), so
    # overflow and invalid results are refused as a bad weight file.
    started = time.perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise"):
            tokens = session.generate(prompt, args.max_tokens, sampler)
    except ValueError as exc:
        raise UsageError(str(exc))
    except FloatingPointError as exc:
        print(f"error: weights: {exc}", file=sys.stderr)
        return EXIT_WEIGHTS
    wall_time = time.perf_counter() - started

    if tokens:
        print(" ".join(str(t) for t in tokens))
    seq_len = session.next_position
    swa_pairs = attention.score_pair_count(seq_len, session.config.window_size)
    full_pairs = attention.full_pair_count(seq_len)
    truncated = len(tokens) < args.max_tokens
    report = {
        "tokens_generated": len(tokens),
        "wall_time": wall_time,
        "tokens_per_second": len(tokens) / wall_time if wall_time > 0 else 0.0,
        "cache_bytes_per_layer": session.caches[0].nbytes,
        "total_cache_bytes": session.total_cache_bytes,
        "swa_score_pairs": swa_pairs,
        "full_score_pairs": full_pairs,
        "pair_ratio": full_pairs / swa_pairs,
        "truncated": truncated,
    }
    print(json.dumps(report), file=sys.stderr)
    return EXIT_TRUNCATED if truncated else EXIT_OK


def run_verification(config: ModelConfig, seed: int) -> list[CheckResult]:
    """The master equivalence and bound checks at the given desk-scale config.

    `reach_probe` steps one random stream beside its NaN-tainted copy. The
    stream's first `length` rows are checked against the oracle, and each
    chunked prefill of a prefix against the row and the caches (stream 0's
    heads) it held there; the cache bound reads those at W and `length`.
    """
    window = config.window_size
    boundary, reach = config.n_layers * (window - 1), exact_reach(config)
    if config.context_len < reach + 1:  # the tainted stream must run past the boundary
        raise UsageError(f"verify needs context_len >= {reach + 1} to step past the reach boundary "
                         f"at position {boundary}, got {config.context_len}")
    length = min(8 * window, config.context_len)
    steps = max(length, min(boundary + 6, config.context_len))
    guard(config, steps)
    weights = init_random(config, seed)
    checks: list[CheckResult] = []

    # Chunk sizes to prefill: awkward prompt lengths, both sides of the
    # receptive-field skip, and continuations: one that skips at a non-zero
    # position, and one of over W rows that reads a cache wrapped mid-window.
    lengths = (1, window - 1, window, window + 1, 3 * window, 3 * window + 2, reach, reach + 1)
    continuations = [(window, reach + 1), (window + window // 2, min(2 * window + 1, reach - window))]
    splits = {(n,) for n in lengths} | {s for s in continuations if s[1] > window}
    splits = sorted((s for s in splits if 0 not in s and sum(s) <= length), key=lambda s: (sum(s), len(s)))
    ends = {sum(s) for s in splits} | {window, length}

    tokens = [int(t) for t in np.random.default_rng(seed).integers(0, config.vocab_size, size=steps)]
    n_kv, rows, streams, snapshots = config.n_kv_heads, [], [], {}

    def record(session, logits):  # stream 0, after each step
        position, caches = session.next_position, session.caches
        rows.append(logits)
        streams.append(session.streams)
        if position in ends:
            snapshots[position] = [(p, k[:n_kv], v[:n_kv]) for p, k, v in (c.gather() for c in caches)]

    affected = reach_probe(weights, tokens, 0, on_step=record)

    # Rolling-cache engine vs full-history windowed oracle, step by step.
    engine_logits = np.stack(rows[:length])
    oracle_logits = oracle_forward_swa(weights, config, tokens[:length])
    err = float(np.max(np.abs(engine_logits - oracle_logits)))
    checks.append(
        CheckResult(
            "oracle-equivalence",
            f"max |dlogit| {err:.2e} over {length} steps",
            np.array_equal(engine_logits, oracle_logits),
        )
    )

    # Chunked prefill of a stream prefix vs the stepped stream at its end.
    worst = 0.0
    same = True
    for split in splits:
        chunked = GenerationSession(weights)
        for size in split:
            start = chunked.next_position
            logits = chunked.forward_chunk(tokens[start:start + size])
        stepped = rows[chunked.next_position - 1]
        worst = max(worst, float(np.max(np.abs(logits - stepped))))
        same = same and np.array_equal(logits, stepped)
        for cache, (pos_b, k_b, v_b) in zip(chunked.caches, snapshots[chunked.next_position]):
            pos_a, k_a, v_a = cache.gather()
            same = same and pos_a == pos_b and np.array_equal(k_a, k_b) and np.array_equal(v_a, v_b)
    labels = ", ".join("+".join(str(size) for size in split) for split in splits)
    checks.append(
        CheckResult(
            "prefill-decode",
            f"max |dlogit| {worst:.2e} over lengths [{labels}], caches identical",
            same,
        )
    )

    # Influence propagates exactly n_layers*(window-1) positions forward, and the
    # probe keeps the clean stream alone from the step after position boundary + 1.
    expected = list(range(boundary + 1))
    retired = [2] * (boundary + 1) + [1] * (steps - boundary - 1)
    checks.append(
        CheckResult("reach", f"affected <= {boundary}, boundary exact", affected == expected and streams == retired)
    )

    # Cache memory stops growing once the window is full: the K/V bytes held
    # after `length` steps equal those after W, with `cache_slots` entries in every layer.
    held = {p: sum(k.nbytes + v.nbytes for _, k, v in snapshots[p]) for p in (window, length)}
    slots = cache_slots(window)
    checks.append(
        CheckResult(
            "cache-bound",
            f"{held[length]} bytes after {length} tokens == "
            f"{held[window]} after {window}; {slots} entries/layer",
            held[length] == held[window] and all(len(p) == slots for p, _, _ in snapshots[length]),
        )
    )
    return checks


def cmd_verify(args) -> int:
    config = _read_config(args.config) if args.config else PRESET_TOY
    overrides = {"window_size": args.window, "n_layers": args.layers}
    config = replace(config, **{name: value for name, value in overrides.items() if value is not None})
    _check_random_size(config)
    _check_cache_size(config)
    checks = run_verification(config, args.seed)
    for check in checks:
        print(f"{check.name}: {check.detail}: {'pass' if check.passed else 'fail'}", file=sys.stderr)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFY


def _parse_scenarios(text: str) -> list[tuple[int, int]]:
    scenarios = []
    for piece in text.split(","):
        piece = piece.strip()
        match = re.fullmatch(r"(\d+):(\d+)", piece)
        if not match:
            raise UsageError(f"malformed scenario {piece!r}, expected L:W")
        length, window = int(match.group(1)), int(match.group(2))
        if length < 1 or window < 1:
            raise UsageError(f"scenario {piece!r} needs L >= 1 and W >= 1")
        scenarios.append((length, window))
    return scenarios


def _timed_execution(length: int, window: int, seed: int) -> dict:
    """Time a real toy-model decode through both paths for one scenario."""
    exec_config = replace(
        PRESET_TOY, window_size=min(window, length), context_len=length
    )
    guard(exec_config, length)
    weights = init_random(exec_config, seed)
    tokens = [int(t) for t in np.random.default_rng(seed).integers(0, exec_config.vocab_size, size=length)]
    session = GenerationSession(weights)
    started = time.perf_counter()
    for t in tokens:
        session.forward_decode(t)
    engine_seconds = time.perf_counter() - started
    started = time.perf_counter()
    oracle_forward_swa(weights, exec_config, tokens)
    oracle_seconds = time.perf_counter() - started
    return {"engine_seconds": engine_seconds, "oracle_swa_seconds": oracle_seconds}


def cmd_bench(args) -> int:
    scenarios = _parse_scenarios(args.bench)
    config = _read_config(args.config) if args.config else PRESET_7B
    entry_bytes = position_bytes(config)
    for length, window in scenarios:
        swa_pairs = attention.score_pair_count(length, window)
        full_pairs = attention.full_pair_count(length)
        rolling_bytes = entry_bytes * min(length, cache_slots(window))
        unbounded_bytes = entry_bytes * length
        row = {
            "seq_len": length,
            "window": window,
            "full_score_pairs": full_pairs,
            "swa_score_pairs": swa_pairs,
            "pair_ratio": full_pairs / swa_pairs,
            "rolling_cache_bytes_per_layer": rolling_bytes,
            "unbounded_cache_bytes_per_layer": unbounded_bytes,
            "cache_byte_ratio": unbounded_bytes / rolling_bytes,
        }
        if args.execute:
            row.update(_timed_execution(length, window, args.seed))
        print(json.dumps(row), file=sys.stderr)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="rollwin", description="Windowed-attention decoder harness")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="decode a continuation from prompt token ids")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--weights", help="binary weight file")
    source.add_argument("--random-init", action="store_true", help="seeded random weights")
    gen.add_argument("--config", help="JSON config document (required with --random-init)")
    gen.add_argument("--seed", type=non_negative_int, default=0, help="weight-init and sampling seed")
    gen.add_argument("--prompt-ids", required=True, help='prompt token ids, e.g. "1 2 3"')
    gen.add_argument("--max-tokens", type=int, default=0)
    picker = gen.add_mutually_exclusive_group()
    picker.add_argument("--greedy", action="store_true", help="argmax decoding (default)")
    picker.add_argument("--top-k", type=int, default=None, help="sample from the k best logits; 1 is greedy")
    gen.add_argument("--temperature", type=float, default=1.0)
    gen.add_argument("--mode", choices=["swa", "oracle-swa", "oracle-causal"], default="swa")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="run the equivalence and bound checks")
    ver.add_argument("--config", help="JSON config document (default: toy preset)")
    ver.add_argument("--window", type=int, default=None, help="override window_size")
    ver.add_argument("--layers", type=int, default=None, help="override n_layers")
    ver.add_argument("--seed", type=non_negative_int, default=0)
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="analytic operation and memory comparisons")
    ben.add_argument("--bench", required=True, help='scenarios as "L:W,L:W,..."')
    ben.add_argument("--config", help="JSON config document for byte figures (default: 7B preset)")
    ben.add_argument("--execute", action="store_true", help="also time a real toy-model decode")
    ben.add_argument("--seed", type=non_negative_int, default=0)
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError, OracleSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
