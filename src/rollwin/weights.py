"""Decoder weight tensors: random initialization and the binary file format.

Weight sets are immutable once built and safe to share across sessions and
threads. A frozen `LayerWeights` holds Wq|Wk|Wv and W1|W3 once, by columns
(`Wqkv`, `W13`), and its Wq, Wk, Wv, W1 and W3 are views of them. The file
format is little-endian: magic "MWDC", a u32 version, a u32 byte length
followed by the embedded JSON config document, then every tensor as raw
row-major float32 in canonical field order with no per-tensor headers.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from .config import ConfigError, ModelConfig, config_to_json, parse_config
from .tensor import Tensor

WEIGHT_MAGIC = b"MWDC"
WEIGHT_VERSION = 1


class WeightFormatError(ValueError):
    """Raised when a weight file fails a structural check."""


@dataclass(frozen=True)
class LayerWeights:
    attn_norm_gain: Tensor  # [dim]
    Wq: Tensor              # [dim, n_heads*head_dim]
    Wk: Tensor              # [dim, n_kv_heads*head_dim]
    Wv: Tensor              # [dim, n_kv_heads*head_dim]
    Wo: Tensor              # [n_heads*head_dim, dim]
    ffn_norm_gain: Tensor   # [dim]
    W1: Tensor              # [dim, hidden_dim]
    W2: Tensor              # [hidden_dim, dim]
    W3: Tensor              # [dim, hidden_dim]
    Wqkv: Tensor = field(init=False, repr=False, compare=False)  # Wq|Wk|Wv by columns
    W13: Tensor = field(init=False, repr=False, compare=False)   # W1|W3 by columns

    def __post_init__(self):
        for fused, names in (("Wqkv", ("Wq", "Wk", "Wv")), ("W13", ("W1", "W3"))):
            parts = [getattr(self, name) for name in names]
            object.__setattr__(self, fused, np.concatenate(parts, axis=1))
            views = np.split(getattr(self, fused), np.cumsum([p.shape[1] for p in parts[:-1]]), axis=1)
            for name, view in zip(names, views):
                object.__setattr__(self, name, view)


_LAYER_FIELDS = tuple(f.name for f in fields(LayerWeights) if f.init)


@dataclass
class DecoderWeights:
    config: ModelConfig
    token_embedding: Tensor  # [vocab_size, dim]
    layers: list[LayerWeights]
    final_norm_gain: Tensor  # [dim]
    output_proj: Tensor      # [dim, vocab_size]

    def named_tensors(self):
        """(name, tensor) pairs in canonical serialization order, named by tensor_shapes."""
        layer_tensors = (getattr(layer, field) for layer in self.layers for field in _LAYER_FIELDS)
        tensors = (self.token_embedding, *layer_tensors, self.final_norm_gain, self.output_proj)
        return zip((name for name, _ in tensor_shapes(self.config)), tensors, strict=True)


def _layer_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of each per-layer tensor, by LayerWeights field name."""
    d, hidden = config.dim, config.hidden_dim
    q_width = config.n_heads * config.head_dim
    kv_width = config.n_kv_heads * config.head_dim
    return {
        "attn_norm_gain": (d,), "Wq": (d, q_width), "Wk": (d, kv_width), "Wv": (d, kv_width),
        "Wo": (q_width, d), "ffn_norm_gain": (d,), "W1": (d, hidden), "W2": (hidden, d), "W3": (d, hidden),
    }


def tensor_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list, in serialization order, for a config."""
    d = config.dim
    layer = _layer_shapes(config)
    return [
        ("token_embedding", (config.vocab_size, d)),
        *((f"layers[{i}].{name}", layer[name]) for i in range(config.n_layers) for name in _LAYER_FIELDS),
        ("final_norm_gain", (d,)),
        ("output_proj", (d, config.vocab_size)),
    ]


def parameter_count(config: ModelConfig) -> int:
    """Total scalar count over all decoder weight tensors.

    The token embedding and the output projection are separate (untied)
    tensors. The count is closed-form, those two plus the final norm gain
    and n_layers times one layer, so it costs the same at any n_layers.
    """
    global_tensors = config.dim * (2 * config.vocab_size + 1)
    return global_tensors + config.n_layers * sum(math.prod(shape) for shape in _layer_shapes(config).values())


def _assemble(config: ModelConfig, tensors: Iterator[Tensor]) -> DecoderWeights:
    """The weight set from its tensors in serialization order, drawn one layer at a time."""
    token_embedding = next(tensors)
    layers = [LayerWeights(*(next(tensors) for _ in _LAYER_FIELDS)) for _ in range(config.n_layers)]
    final_norm_gain = next(tensors)
    output_proj = next(tensors)
    return DecoderWeights(config, token_embedding, layers, final_norm_gain, output_proj)


def init_random(config: ModelConfig, seed: int) -> DecoderWeights:
    """Seeded random weights, bitwise reproducible for a given (config, seed).

    Projection tensors are scaled by 0.02/sqrt(n_layers); norm gains keep
    the generator's unit scale.
    """
    rng = np.random.default_rng(seed)
    proj_scale = np.float32(0.02 / math.sqrt(config.n_layers))

    def draws():
        for name, shape in tensor_shapes(config):
            draw = rng.standard_normal(shape, dtype=np.float32)
            if not name.endswith("norm_gain"):
                draw *= proj_scale
            yield draw
    return _assemble(config, draws())


def save_weights(weights: DecoderWeights, path) -> None:
    """Write magic, version, the embedded config document, then raw tensors."""
    doc = config_to_json(weights.config).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(WEIGHT_MAGIC)
        fh.write(struct.pack("<II", WEIGHT_VERSION, len(doc)))
        fh.write(doc)
        for _, t in weights.named_tensors():
            fh.write(np.ascontiguousarray(t, dtype="<f4").tobytes())


def load_weights(path) -> DecoderWeights:
    """Read and validate a weight file one tensor at a time, each declared length checked
    against the file's size before it is read; every rejected check names itself."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):  # a pipe has no size to check the lengths against
            raise WeightFormatError("not a regular file")
        size = info.st_size
        header = fh.read(12)
        if header[:4] != WEIGHT_MAGIC:
            raise WeightFormatError(f"bad magic: expected {WEIGHT_MAGIC!r}, got {header[:4]!r}")
        if len(header) < 12:
            raise WeightFormatError("header truncated")
        version, doc_len = struct.unpack_from("<II", header, 4)
        if version != WEIGHT_VERSION:
            raise WeightFormatError(f"unsupported version: {version} (expected {WEIGHT_VERSION})")
        header_end = 12 + doc_len
        if size < header_end:
            raise WeightFormatError("embedded config document truncated")
        try:
            config = parse_config(fh.read(doc_len).decode("utf-8"))
        except (ConfigError, UnicodeDecodeError) as exc:
            raise WeightFormatError(f"embedded config rejected: {exc}") from None
        expected = header_end + parameter_count(config) * 4
        if size != expected:
            raise WeightFormatError(f"file length {size} does not match header + parameter_count*4 = {expected}")

        def tensors():
            for name, shape in tensor_shapes(config):
                t = np.frombuffer(fh.read(4 * math.prod(shape)), "<f4").astype(np.float32).reshape(shape)
                if not np.isfinite(t).all():
                    raise WeightFormatError(f"non-finite values in {name}")
                yield t
        return _assemble(config, tensors())
