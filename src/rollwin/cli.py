"""Command-line harness: generation, verification, and analytic benchmarks.

Standard output carries nothing but generated token IDs. Everything else
(run reports, verification lines, bench tables) goes to standard error as
JSON or one-line text so the token stream stays machine-parseable.

Exit codes are a stable contract: 0 success, 1 usage, 2 weight file,
3 truncated generation, 4 failed verification.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import attention
from .config import (
    PRESET_7B,
    PRESET_TOY,
    ConfigError,
    ModelConfig,
    parse_config,
    validate,
)
from .model import GenerationResult, GenerationSession, SamplerSpec, sample_token
from .oracle import MAX_HISTORY_ELEMENTS, oracle_forward_causal, oracle_forward_swa, reach_probe
from .weights import DecoderWeights, WeightFormatError, init_random, load_weights

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WEIGHTS = 2
EXIT_TRUNCATED = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    """Bad flags or unusable inputs; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; remap to the usage code
        raise UsageError(message)


@dataclass
class RunReport:
    tokens_generated: int
    wall_time: float
    tokens_per_second: float
    cache_bytes_per_layer: int
    total_cache_bytes: int
    swa_score_pairs: int
    full_score_pairs: int
    pair_ratio: float
    truncated: bool

    @classmethod
    def from_result(cls, result: GenerationResult) -> "RunReport":
        rate = len(result.tokens) / result.wall_time if result.wall_time > 0 else 0.0
        return cls(
            tokens_generated=len(result.tokens),
            wall_time=result.wall_time,
            tokens_per_second=rate,
            cache_bytes_per_layer=result.cache_bytes_per_layer,
            total_cache_bytes=result.total_cache_bytes,
            swa_score_pairs=result.swa_score_pairs,
            full_score_pairs=result.full_score_pairs,
            pair_ratio=result.full_score_pairs / result.swa_score_pairs,
            truncated=result.truncated,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self))


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
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise UsageError(f"config {path}: {exc}")


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


def _generate_via_oracle(
    weights: DecoderWeights, prompt: list[int], max_tokens: int, sampler: SamplerSpec, mode: str
) -> GenerationResult:
    """Decode by re-running a full-history oracle each step; for cross-checks."""
    config = weights.config
    forward = oracle_forward_swa if mode == "oracle-swa" else oracle_forward_causal
    rng = np.random.default_rng(sampler.seed)
    started = time.perf_counter()
    history = list(prompt)
    logits = forward(weights, config, history)[-1]
    tokens: list[int] = []
    truncated = False
    for i in range(max_tokens):
        tokens.append(sample_token(logits, sampler, rng))
        if i == max_tokens - 1:
            break
        if len(history) >= config.context_len:
            truncated = True
            break
        history.append(tokens[-1])
        logits = forward(weights, config, history)[-1]
    wall_time = time.perf_counter() - started
    seq_len = len(history)
    # Cache byte figures describe the architecture's rolling bound, not the
    # oracle's scratch memory.
    per_layer = 2 * config.n_kv_heads * config.window_size * config.head_dim * 4
    return GenerationResult(
        tokens=tokens,
        prompt_len=len(prompt),
        seq_len=seq_len,
        wall_time=wall_time,
        truncated=truncated,
        cache_bytes_per_layer=per_layer,
        total_cache_bytes=per_layer * config.n_layers,
        swa_score_pairs=attention.score_pair_count(seq_len, config.window_size),
        full_score_pairs=attention.full_pair_count(seq_len),
    )


def cmd_generate(args) -> int:
    if args.weights:
        try:
            weights = load_weights(args.weights)
        except (WeightFormatError, OSError) as exc:
            print(f"error: weight file: {exc}", file=sys.stderr)
            return EXIT_WEIGHTS
    else:
        if not args.config:
            raise UsageError("--random-init requires --config")
        config = _read_config(args.config)
        weights = init_random(config, args.seed)
    config = weights.config

    prompt = _parse_prompt_ids(args.prompt_ids)
    if args.max_tokens < 0:
        raise UsageError(f"--max-tokens must be >= 0, got {args.max_tokens}")

    if args.top_k is not None:
        if not 1 <= args.top_k <= config.vocab_size:
            raise UsageError(f"--top-k must be in [1, {config.vocab_size}], got {args.top_k}")
        if args.temperature <= 0:
            raise UsageError(f"--temperature must be positive, got {args.temperature}")
        sampler = SamplerSpec("top-k", k=args.top_k, temperature=args.temperature, seed=args.seed)
    else:
        sampler = SamplerSpec("greedy")

    # Both engines check prompt ids and length; their ValueError is a usage error.
    try:
        if args.mode == "swa":
            result = GenerationSession(weights).generate(prompt, args.max_tokens, sampler)
        else:
            result = _generate_via_oracle(weights, prompt, args.max_tokens, sampler, args.mode)
    except ValueError as exc:
        raise UsageError(str(exc))

    if result.tokens:
        print(" ".join(str(t) for t in result.tokens))
    print(RunReport.from_result(result).to_json(), file=sys.stderr)
    return EXIT_TRUNCATED if result.truncated else EXIT_OK


def run_verification(config: ModelConfig, seed: int) -> list[CheckResult]:
    """The master equivalence and bound checks at the given desk-scale config."""
    weights = init_random(config, seed)
    rng = np.random.default_rng(seed)
    window = config.window_size
    checks: list[CheckResult] = []

    # Rolling-cache engine vs full-history windowed oracle, step by step.
    length = min(8 * window, config.context_len)
    tokens = [int(t) for t in rng.integers(0, config.vocab_size, size=length)]
    session = GenerationSession(weights)
    engine_logits = np.stack([session.forward_decode(t) for t in tokens])
    oracle_logits = oracle_forward_swa(weights, config, tokens)
    err = float(np.max(np.abs(engine_logits - oracle_logits)))
    checks.append(
        CheckResult("oracle-equivalence", f"max |dlogit| {err:.2e} over {length} steps", err <= 1e-5)
    )

    # Chunked prefill vs token-by-token decode for awkward prompt lengths.
    lengths = sorted(
        {1, window - 1, window, window + 1, 3 * window, 3 * window + 2}
        & set(range(1, config.context_len + 1))
    )
    worst = 0.0
    state_ok = True
    for n in lengths:
        prompt = [int(t) for t in rng.integers(0, config.vocab_size, size=n)]
        chunked = GenerationSession(weights)
        chunked_logits = chunked.prefill(prompt)
        stepped = GenerationSession(weights)
        for t in prompt:
            stepped_logits = stepped.forward_decode(t)
        worst = max(worst, float(np.max(np.abs(chunked_logits - stepped_logits))))
        for a, b in zip(chunked.caches, stepped.caches):
            if list(a.retained_positions()) != list(b.retained_positions()):
                state_ok = False
    checks.append(
        CheckResult(
            "prefill-decode",
            f"max |dlogit| {worst:.2e} over lengths {lengths}, cache positions identical",
            worst <= 1e-6 and state_ok,
        )
    )

    # Influence propagates exactly n_layers*(window-1) positions forward.
    boundary = config.n_layers * (window - 1)
    length = min(boundary + 6, config.context_len)
    tokens = [int(t) for t in rng.integers(0, config.vocab_size, size=length)]
    affected = reach_probe(weights, config, tokens, 0, 1e-2)
    expected = list(range(0, min(boundary, length - 1) + 1))
    checks.append(
        CheckResult("reach", f"affected <= {boundary}, boundary exact", affected == expected)
    )

    # Cache memory stops growing once the window is full.
    session = GenerationSession(weights)
    tokens = [int(t) for t in rng.integers(0, config.vocab_size, size=min(8 * window, config.context_len))]
    for t in tokens[:window]:
        session.forward_decode(t)
    bytes_at_window = session.total_cache_bytes
    for t in tokens[window:]:
        session.forward_decode(t)
    entries_ok = all(c.filled == window for c in session.caches)
    checks.append(
        CheckResult(
            "cache-bound",
            f"{session.total_cache_bytes} bytes after {len(tokens)} tokens == "
            f"{bytes_at_window} after {window}; {window} entries/layer",
            session.total_cache_bytes == bytes_at_window and entries_ok,
        )
    )
    return checks


def cmd_verify(args) -> int:
    config = _read_config(args.config) if args.config else PRESET_TOY
    overrides = {}
    if args.window is not None:
        overrides["window_size"] = args.window
    if args.layers is not None:
        overrides["n_layers"] = args.layers
    if overrides:
        config = replace(config, **overrides)
    violations = validate(config)
    if violations:
        raise UsageError("invalid config: " + "; ".join(violations))
    if min(8 * config.window_size, config.context_len) * config.dim > MAX_HISTORY_ELEMENTS:
        raise UsageError("config too large for desk-scale verification")
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
    if not scenarios:
        raise UsageError("--bench needs at least one L:W scenario")
    return scenarios


def _timed_execution(length: int, window: int, seed: int) -> dict:
    """Time a real toy-model decode through both paths for one scenario."""
    exec_config = replace(
        PRESET_TOY, window_size=min(window, length), context_len=length
    )
    if length * exec_config.dim > MAX_HISTORY_ELEMENTS:
        raise UsageError(f"--execute scenario {length}:{window} exceeds the oracle size guard")
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
    entry_bytes = 2 * config.n_kv_heads * config.head_dim * 4  # one position, one layer
    for length, window in scenarios:
        swa_pairs = attention.score_pair_count(length, window)
        full_pairs = attention.full_pair_count(length)
        rolling_bytes = entry_bytes * min(length, window)
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
    gen.add_argument("--seed", type=int, default=0, help="weight-init and sampling seed")
    gen.add_argument("--prompt-ids", required=True, help='prompt token ids, e.g. "1 2 3"')
    gen.add_argument("--max-tokens", type=int, default=0)
    picker = gen.add_mutually_exclusive_group()
    picker.add_argument("--greedy", action="store_true", help="argmax decoding (default)")
    picker.add_argument("--top-k", type=int, default=None, help="sample from the k best logits")
    gen.add_argument("--temperature", type=float, default=1.0)
    gen.add_argument("--mode", choices=["swa", "oracle-swa", "oracle-causal"], default="swa")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="run the equivalence and bound checks")
    ver.add_argument("--config", help="JSON config document (default: toy preset)")
    ver.add_argument("--window", type=int, default=None, help="override window_size")
    ver.add_argument("--layers", type=int, default=None, help="override n_layers")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="analytic operation and memory comparisons")
    ben.add_argument("--bench", required=True, help='scenarios as "L:W,L:W,..."')
    ben.add_argument("--config", help="JSON config document for byte figures (default: 7B preset)")
    ben.add_argument("--execute", action="store_true", help="also time a real toy-model decode")
    ben.add_argument("--seed", type=int, default=0)
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
