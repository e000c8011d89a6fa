"""Model hyperparameters, validation, and analytic architecture properties.

The engine is dimension-driven: every tensor shape, cache size, and mask in
the package derives from the nine integers collected here. `ModelConfig`
construction is the one place that decides which configs run: a config
that exists is valid, and nothing downstream checks again.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass, fields


class ConfigError(ValueError):
    """Raised for unparseable configuration documents and invalid configs."""


@dataclass(frozen=True)
class ModelConfig:
    """Decoder hyperparameters. Immutable, safe to share across threads."""

    dim: int          # embedding width
    n_layers: int
    head_dim: int     # per-head width
    hidden_dim: int   # feed-forward inner width
    n_heads: int      # query head count
    n_kv_heads: int   # key/value head count (query heads share kv heads in groups)
    window_size: int  # sliding window width W in keys, self included
    context_len: int  # maximum supported positions
    vocab_size: int

    def __post_init__(self):
        # The one rule list, also run by `replace`: raise naming every
        # violated rule, in this order. RoPE turns pairs of dimensions, so
        # head_dim must be even.
        violations = [f"{name} > 0" for name in CONFIG_KEYS if getattr(self, name) <= 0]
        if self.dim != self.n_heads * self.head_dim:
            violations.append("dim == n_heads*head_dim")
        if self.head_dim % 2 != 0:
            violations.append("head_dim % 2 == 0")
        if self.n_kv_heads >= 1 and self.n_heads % self.n_kv_heads != 0:
            violations.append("n_heads % n_kv_heads == 0")
        if not (1 <= self.window_size <= self.context_len):
            violations.append("1 <= window_size <= context_len")
        if violations:
            raise ConfigError("invalid config: " + "; ".join(violations))


CONFIG_KEYS: tuple[str, ...] = tuple(f.name for f in fields(ModelConfig))


#: Desk-scale preset used by the verification harness, demos, and tests.
PRESET_TOY = ModelConfig(
    dim=64, n_layers=4, head_dim=16, hidden_dim=128,
    n_heads=4, n_kv_heads=2, window_size=8, context_len=128, vocab_size=256,
)

#: Production-scale 7B reference preset. Used for analytics only; this
#: engine never executes at this size.
PRESET_7B = ModelConfig(
    dim=4096, n_layers=32, head_dim=128, hidden_dim=14336,
    n_heads=32, n_kv_heads=8, window_size=4096, context_len=8192, vocab_size=32000,
)


def parse_config(text: str) -> ModelConfig:
    """Parse a JSON configuration document carrying exactly the nine known keys.

    Raises ConfigError naming the offending key for a missing key, an
    unexpected key, or a non-integer value; construction names the violated
    rules when the parsed values are invalid.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    for key in CONFIG_KEYS:
        if key not in doc:
            raise ConfigError(f"missing key: {key!r}")
    for key in doc:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unexpected key: {key!r}")
    values: dict[str, int] = {}
    for key in CONFIG_KEYS:
        value = doc[key]
        # JSON booleans are ints to Python; they are not valid here.
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"non-integer value for {key!r}: {value!r}")
        values[key] = value
    return ModelConfig(**values)


def config_to_json(config: ModelConfig) -> str:
    """Serialize to the nine-key JSON document format."""
    return json.dumps(asdict(config))


def theoretical_span(config: ModelConfig) -> int:
    """The paper's theoretical attention span: n_layers * window_size.

    Mistral 7B quotes "approximately 131K tokens" for 32 layers of a 4096
    window (32 * 4096 = 131,072 at PRESET_7B). It is a loose upper bound on
    how far information travels; under this window convention (W keys, self
    included) the tight figure is `exact_reach`, n_layers - 1 smaller.
    """
    return config.n_layers * config.window_size


def exact_reach(config: ModelConfig) -> int:
    """Input positions visible to one output under this window convention.

    A window of W keys including self reaches back W - 1 positions per
    layer, so an output at position i sees inputs down to
    i - n_layers*(W - 1): that is n_layers*(W - 1) + 1 distinct positions.
    """
    return config.n_layers * (config.window_size - 1) + 1


def token_ids(config: ModelConfig, tokens) -> list[int]:
    """The ids as ints; ValueError for a non-integer (never truncated) or out-of-vocabulary id."""
    try:
        ids = list(map(operator.index, tokens))
    except TypeError as exc:
        raise ValueError(f"token ids must be integers: {exc}") from None
    if outside := [t for t in ids if not 0 <= t < config.vocab_size]:
        raise ValueError(f"token ids {outside} outside vocabulary of size {config.vocab_size}")
    return ids


def cache_memory_ratio(seq_len: int, config: ModelConfig) -> float:
    """Unbounded-history cache entries over rolling-cache entries at seq_len."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    return seq_len / min(seq_len, config.window_size)
