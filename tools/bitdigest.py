"""SHA-256 digests of the engine's output bits, to compare two source trees.

    python tools/bitdigest.py > digest.json

The script digests the tree it sits in (its `src/` goes first on the path).
For each config it hashes the float32 bytes of:
- the last-row logits of a fresh prefill at lengths 1, W-1, W, exact_reach
  and exact_reach + 1;
- after each prefill, one decode step's logits, then a continuation
  chunk's (W + 2 tokens, so it starts mid-window and spans chunks), then
  every layer's `gather()` positions, keys and values;
- one full-history oracle pass over exact_reach + 1 tokens;
- for the configs that `rollwin verify` pins, its stderr and exit code at
  each seed.

It prints one JSON object: the digests by config, one digest over all of
them, the file of the rollwin it digested, and the numpy version with
numpy's CPU dispatch targets and those enabled. The bits follow numpy's SIMD loops, which differ between hosts
and dispatch levels (`NPY_DISABLE_CPU_FEATURES`), so compare two outputs
only from one host at one dispatch level.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import rollwin as rw  # noqa: E402
from rollwin import cli  # noqa: E402

PAPER_SHAPE = Path(__file__).resolve().parent.parent / "tests" / "paper_shape.json"

#: Seed of every config's weights and token stream.
SEED = 1

#: Name: (`rollwin verify` flags for the config, or None where verify pins none; config).
CONFIGS = {
    "toy": ((), rw.PRESET_TOY),
    "w4l2": (("--window", "4", "--layers", "2"), replace(rw.PRESET_TOY, window_size=4, n_layers=2)),
    "w16": (("--window", "16"), replace(rw.PRESET_TOY, window_size=16)),
    "w3l12": (("--window", "3", "--layers", "12"), replace(rw.PRESET_TOY, window_size=3, n_layers=12)),
    # The paper's depth and head grouping; the config document that `rollwin verify` pins.
    "paper": (("--config", str(PAPER_SHAPE)), rw.parse_config(PAPER_SHAPE.read_text())),
    # One head: a decode step's attention takes the band path at position 0 and the one-query path after it.
    "one-head": (None, replace(rw.PRESET_TOY, n_heads=1, n_kv_heads=1, head_dim=64)),
    # The benchmark's prefill preset.
    "desk": (None, rw.ModelConfig(dim=128, n_layers=6, head_dim=16, hidden_dim=384, n_heads=8, n_kv_heads=2,
                                  window_size=64, context_len=2048, vocab_size=1024)),
    # The paper's head width and grouping: a decode step's attention takes the band path (8 * 128 * 128 terms
    # a product, over BLOCK_ELEMENTS), and its one-row weight products go in column tiles. The stream needs
    # exact_reach + W + 4 = 387 positions.
    "wide": (None, rw.ModelConfig(dim=1024, n_layers=2, head_dim=128, hidden_dim=1024, n_heads=8, n_kv_heads=2,
                                  window_size=128, context_len=512, vocab_size=256)),
}


def _update(h, *arrays) -> None:
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype=np.float32).tobytes())


def engine_digest(config: rw.ModelConfig, weights: rw.DecoderWeights, tokens: list[int]) -> str:
    h = hashlib.sha256()
    window, reach = config.window_size, rw.exact_reach(config)
    for length in sorted({1, window - 1, window, reach, reach + 1}):
        session = rw.GenerationSession(weights)
        _update(h, session.prefill(tokens[:length]))
        _update(h, session.forward_decode(tokens[length]))
        _update(h, session.forward_chunk(tokens[length + 1:length + window + 3]))
        for cache in session.caches:
            positions, keys, values = cache.gather()
            h.update(repr(positions).encode())
            _update(h, keys, values)
    return h.hexdigest()


def oracle_digest(config: rw.ModelConfig, weights: rw.DecoderWeights, tokens: list[int]) -> str:
    h = hashlib.sha256()
    _update(h, rw.oracle_forward_swa(weights, config, tokens[:rw.exact_reach(config) + 1]))
    return h.hexdigest()


def verify_digest(flags, seeds) -> tuple[str, list[int]]:
    h, codes = hashlib.sha256(), []
    for seed in seeds:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            codes.append(cli.main(["verify", *flags, "--seed", str(seed)]))
        h.update(err.getvalue().encode())
    h.update(repr(codes).encode())
    return h.hexdigest(), codes


def _dispatch() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    targets = list(umath.__cpu_dispatch__)
    return {"cpu_dispatch": targets, "cpu_dispatch_enabled": [t for t in targets if umath.__cpu_features__.get(t)]}


def digest(names=tuple(CONFIGS), verify_seeds=range(10)) -> dict:
    """The digests of the named configs, with `verify` run at verify_seeds."""
    configs = {}
    for name in names:
        flags, config = CONFIGS[name]
        weights = rw.init_random(config, SEED)
        reach, window = rw.exact_reach(config), config.window_size
        tokens = [int(t) for t in np.random.default_rng(SEED).integers(0, config.vocab_size, reach + window + 4)]
        entry = {"engine": engine_digest(config, weights, tokens), "oracle": oracle_digest(config, weights, tokens)}
        if flags is not None:
            entry["verify"], entry["verify_exit"] = verify_digest(flags, verify_seeds)
        configs[name] = entry
    return {
        "rollwin": rw.__file__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        **_dispatch(),
        "verify_seeds": list(verify_seeds),
        "configs": configs,
        "digest": hashlib.sha256(json.dumps(configs, sort_keys=True).encode()).hexdigest(),
    }


if __name__ == "__main__":
    print(json.dumps(digest()))
