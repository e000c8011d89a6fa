"""Desk-scale CPU decoder inference with sliding-window attention.

A rolling fixed-size KV cache, grouped-query attention, and chunked prompt
prefill keep per-token cost and memory independent of sequence length; the
oracle module recomputes everything with unbounded history to prove the
fast path exact.
"""

from .attention import (
    build_prefill_mask,
    build_swa_mask,
    full_pair_count,
    gqa_attend,
    score_pair_count,
    window_attend,
)
from .cache import RollingKvCache, new_cache
from .config import (
    PRESET_7B,
    PRESET_TOY,
    ConfigError,
    ModelConfig,
    cache_memory_ratio,
    config_to_json,
    exact_reach,
    parse_config,
    theoretical_span,
    validate,
)
from .model import (
    GenerationResult,
    GenerationSession,
    SamplerSpec,
    sample_token,
)
from .oracle import (
    oracle_forward_causal,
    oracle_forward_swa,
    reach_probe,
    run_swa_with_history,
)
from .tensor import (
    ROPE_THETA,
    RMS_NORM_EPS,
    Tensor,
    matmul,
    rms_norm,
    rope_apply,
    silu_gate,
    softmax_stable,
)
from .weights import (
    DecoderWeights,
    LayerWeights,
    WeightFormatError,
    init_random,
    load_weights,
    parameter_count,
    save_weights,
    tensor_shapes,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DecoderWeights",
    "GenerationResult",
    "GenerationSession",
    "LayerWeights",
    "ModelConfig",
    "PRESET_7B",
    "PRESET_TOY",
    "ROPE_THETA",
    "RMS_NORM_EPS",
    "RollingKvCache",
    "SamplerSpec",
    "Tensor",
    "WeightFormatError",
    "build_prefill_mask",
    "build_swa_mask",
    "cache_memory_ratio",
    "config_to_json",
    "exact_reach",
    "full_pair_count",
    "gqa_attend",
    "init_random",
    "load_weights",
    "matmul",
    "new_cache",
    "oracle_forward_causal",
    "oracle_forward_swa",
    "parameter_count",
    "parse_config",
    "reach_probe",
    "rms_norm",
    "rope_apply",
    "run_swa_with_history",
    "sample_token",
    "save_weights",
    "score_pair_count",
    "silu_gate",
    "softmax_stable",
    "tensor_shapes",
    "theoretical_span",
    "validate",
    "window_attend",
]
