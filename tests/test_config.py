import json
import math
from dataclasses import asdict, replace

import pytest
from hypothesis import given, strategies as st

import rollwin as rw
from rollwin.config import CONFIG_KEYS


#: Nine raw ints, mostly violating some rule.
raw_values = st.fixed_dictionaries({key: st.integers(-2, 12) for key in CONFIG_KEYS})


@st.composite
def valid_configs(draw):
    n_heads = draw(st.integers(1, 8))
    head_dim = 2 * draw(st.integers(1, 8))
    divisors = [d for d in range(1, n_heads + 1) if n_heads % d == 0]
    context_len = draw(st.integers(1, 4096))
    return rw.ModelConfig(
        dim=n_heads * head_dim,
        n_layers=draw(st.integers(1, 12)),
        head_dim=head_dim,
        hidden_dim=draw(st.integers(1, 64)),
        n_heads=n_heads,
        n_kv_heads=draw(st.sampled_from(divisors)),
        window_size=draw(st.integers(1, context_len)),
        context_len=context_len,
        vocab_size=draw(st.integers(1, 2000)),
    )


@st.composite
def nudged_values(draw):
    """A valid config's fields with one of them moved by one, often onto a rule's edge."""
    values = asdict(draw(valid_configs()))
    key = draw(st.sampled_from(CONFIG_KEYS))
    values[key] += draw(st.sampled_from((-1, 1)))
    return values


class TestValidate:
    def test_preset_7b_is_valid(self):
        assert replace(rw.PRESET_7B) == rw.PRESET_7B

    def test_preset_toy_is_valid(self):
        assert replace(rw.PRESET_TOY) == rw.PRESET_TOY

    def test_dim_head_product_mismatch(self):
        with pytest.raises(rw.ConfigError, match=r"invalid config: dim == n_heads\*head_dim$"):
            replace(rw.PRESET_7B, head_dim=64)

    def test_odd_head_dim(self):
        with pytest.raises(rw.ConfigError, match="invalid config: head_dim % 2 == 0$"):
            replace(rw.PRESET_7B, dim=32 * 127, head_dim=127)

    def test_kv_head_divisibility(self):
        with pytest.raises(rw.ConfigError, match="invalid config: n_heads % n_kv_heads == 0$"):
            replace(rw.PRESET_7B, n_kv_heads=5)

    def test_window_bounds(self):
        with pytest.raises(rw.ConfigError, match="invalid config: 1 <= window_size <= context_len$"):
            replace(rw.PRESET_7B, window_size=rw.PRESET_7B.context_len + 1)

    def test_nonpositive_field_named(self):
        with pytest.raises(rw.ConfigError, match="invalid config: vocab_size > 0$"):
            replace(rw.PRESET_7B, vocab_size=0)

    @given(st.one_of(raw_values, nudged_values(), valid_configs().map(asdict)))
    def test_total_and_consistent(self, values):
        # Construction succeeds exactly when every invariant holds, and
        # otherwise names every violated rule, in rule-list order.
        holds = {f"{key} > 0": values[key] > 0 for key in CONFIG_KEYS}
        holds["dim == n_heads*head_dim"] = values["dim"] == values["n_heads"] * values["head_dim"]
        holds["head_dim % 2 == 0"] = values["head_dim"] % 2 == 0
        holds["n_heads % n_kv_heads == 0"] = values["n_kv_heads"] < 1 or values["n_heads"] % values["n_kv_heads"] == 0
        holds["1 <= window_size <= context_len"] = 1 <= values["window_size"] <= values["context_len"]
        violated = [rule for rule, ok in holds.items() if not ok]
        if not violated:
            assert asdict(rw.ModelConfig(**values)) == values
            return
        with pytest.raises(rw.ConfigError) as raised:
            rw.ModelConfig(**values)
        assert str(raised.value) == "invalid config: " + "; ".join(violated)


class TestParseConfig:
    def _doc(self, **overrides):
        doc = asdict(rw.PRESET_7B)
        doc.update(overrides)
        return doc

    def test_round_trip_preset(self):
        assert rw.parse_config(json.dumps(self._doc())) == rw.PRESET_7B

    def test_round_trip_serializer(self):
        assert rw.parse_config(rw.config_to_json(rw.PRESET_TOY)) == rw.PRESET_TOY

    def test_missing_key_named(self):
        doc = self._doc()
        del doc["window_size"]
        with pytest.raises(rw.ConfigError, match="window_size"):
            rw.parse_config(json.dumps(doc))

    def test_non_integer_value_named(self):
        with pytest.raises(rw.ConfigError, match="dim"):
            rw.parse_config(json.dumps(self._doc(dim="large")))

    def test_float_value_rejected(self):
        with pytest.raises(rw.ConfigError, match="non-integer"):
            rw.parse_config(json.dumps(self._doc(head_dim=128.5)))

    def test_bool_value_rejected(self):
        with pytest.raises(rw.ConfigError, match="non-integer"):
            rw.parse_config(json.dumps(self._doc(n_layers=True)))

    def test_unexpected_key_named(self):
        with pytest.raises(rw.ConfigError, match="dropout"):
            rw.parse_config(json.dumps(self._doc(dropout=0)))

    def test_invalid_json(self):
        with pytest.raises(rw.ConfigError, match="JSON"):
            rw.parse_config("{not json")

    def test_non_object_document(self):
        with pytest.raises(rw.ConfigError, match="object"):
            rw.parse_config("[1, 2, 3]")

    def test_validation_failure_surfaces_rule(self):
        with pytest.raises(rw.ConfigError, match=r"dim == n_heads\*head_dim"):
            rw.parse_config(json.dumps(self._doc(head_dim=64)))


class TestAnalytics:
    def test_span_preset_7b(self):
        assert rw.theoretical_span(rw.PRESET_7B) == 131072

    @pytest.mark.parametrize(
        "layers,window,expected", [(1, 3, 3), (4, 8, 32)]
    )
    def test_span_small(self, layers, window, expected):
        cfg = replace(rw.PRESET_TOY, n_layers=layers, window_size=window)
        assert rw.theoretical_span(cfg) == expected

    def test_reach_preset_7b(self):
        assert rw.exact_reach(rw.PRESET_7B) == 131041

    def test_reach_single_layer(self):
        assert rw.exact_reach(replace(rw.PRESET_TOY, n_layers=1, window_size=3)) == 3

    def test_reach_self_only_window(self):
        # W=1 attends only itself, so depth adds nothing.
        assert rw.exact_reach(replace(rw.PRESET_TOY, window_size=1)) == 1

    @given(valid_configs())
    def test_span_dominates_reach(self, cfg):
        assert rw.theoretical_span(cfg) >= rw.exact_reach(cfg)

    def test_parameter_count_preset_7b(self):
        count = rw.parameter_count(rw.PRESET_7B)
        assert count == 7_241_732_096
        assert 7.0e9 <= count <= 7.5e9

    def test_parameter_count_toy(self):
        assert rw.parameter_count(rw.PRESET_TOY) == 180_800

    def test_parameter_count_is_closed_form_at_any_depth(self):
        one, two = (rw.parameter_count(replace(rw.PRESET_TOY, n_layers=n)) for n in (1, 2))
        assert rw.parameter_count(replace(rw.PRESET_TOY, n_layers=10**12)) == one + (10**12 - 1) * (two - one)

    @pytest.mark.parametrize("cfg", [rw.PRESET_TOY, rw.PRESET_7B])
    def test_parameter_count_matches_shape_enumeration(self, cfg):
        q_width = cfg.n_heads * cfg.head_dim
        kv_width = cfg.n_kv_heads * cfg.head_dim
        shapes = [(cfg.vocab_size, cfg.dim)]
        for _ in range(cfg.n_layers):
            shapes += [
                (cfg.dim,),
                (cfg.dim, q_width),
                (cfg.dim, kv_width),
                (cfg.dim, kv_width),
                (q_width, cfg.dim),
                (cfg.dim,),
                (cfg.dim, cfg.hidden_dim),
                (cfg.hidden_dim, cfg.dim),
                (cfg.dim, cfg.hidden_dim),
            ]
        shapes += [(cfg.dim,), (cfg.dim, cfg.vocab_size)]
        assert rw.parameter_count(cfg) == sum(math.prod(s) for s in shapes)


class TestCacheMemoryRatio:
    def test_preset_7b_at_32k(self):
        assert rw.cache_memory_ratio(32768, rw.PRESET_7B) == 8.0

    def test_unsaturated_cache(self):
        assert rw.cache_memory_ratio(100, rw.PRESET_7B) == 1.0

    def test_toy_scale_replica(self):
        cfg = replace(rw.PRESET_TOY, window_size=8)
        assert rw.cache_memory_ratio(64, cfg) == 8.0

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            rw.cache_memory_ratio(0, rw.PRESET_TOY)

    @given(st.integers(1, 5000), st.integers(1, 5000))
    def test_monotone_in_seq_len(self, a, b):
        lo, hi = sorted((a, b))
        cfg = rw.PRESET_TOY
        assert rw.cache_memory_ratio(lo, cfg) <= rw.cache_memory_ratio(hi, cfg)

    @given(st.integers(1, 40))
    def test_exact_on_window_multiples(self, m):
        cfg = rw.PRESET_TOY
        assert rw.cache_memory_ratio(m * cfg.window_size, cfg) == float(m)
