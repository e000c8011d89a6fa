import gc
import os
import struct
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import rollwin as rw
from rollwin.weights import WEIGHT_MAGIC, WEIGHT_VERSION

from test_model import DESK


class TestInitRandom:
    def test_same_seed_bitwise_identical(self, toy_config):
        a = rw.init_random(toy_config, 42)
        b = rw.init_random(toy_config, 42)
        for (name_a, t_a), (name_b, t_b) in zip(a.named_tensors(), b.named_tensors()):
            assert name_a == name_b
            assert np.array_equal(t_a, t_b)

    def test_different_seed_differs_immediately(self, toy_config):
        a = rw.init_random(toy_config, 42)
        b = rw.init_random(toy_config, 43)
        assert not np.array_equal(a.token_embedding, b.token_embedding)

    def test_element_count_matches_parameter_count(self, toy_config, toy_weights):
        assert sum(t.size for _, t in toy_weights.named_tensors()) == rw.parameter_count(toy_config)

    def test_shapes_follow_canonical_list(self, toy_config, toy_weights):
        for (name, tensor), (want_name, want_shape) in zip(
            toy_weights.named_tensors(), rw.tensor_shapes(toy_config)
        ):
            assert name == want_name
            assert tensor.shape == want_shape
            assert tensor.dtype == np.float32

    def test_projection_scale_applied(self, toy_config, toy_weights):
        # Projections sit near 0.02/sqrt(n_layers); gains keep unit scale.
        proj_std = float(toy_weights.layers[0].Wq.std())
        gain_std = float(toy_weights.layers[0].attn_norm_gain.std())
        assert 0.005 < proj_std < 0.02
        assert 0.7 < gain_std < 1.3

    def test_invalid_config_rejected(self, toy_config):
        with pytest.raises(ValueError, match="n_heads % n_kv_heads"):
            rw.init_random(replace(toy_config, n_kv_heads=3), 0)

    def test_all_values_finite(self, toy_weights):
        for _, tensor in toy_weights.named_tensors():
            assert np.isfinite(tensor).all()


class TestWeightFile:
    def test_round_trip_bitwise(self, toy_weights, tmp_path):
        path = tmp_path / "toy.bin"
        rw.save_weights(toy_weights, path)
        loaded = rw.load_weights(path)
        assert loaded.config == toy_weights.config
        for (name_a, t_a), (name_b, t_b) in zip(
            toy_weights.named_tensors(), loaded.named_tensors()
        ):
            assert name_a == name_b
            assert np.array_equal(t_a, t_b)

    def test_file_length_is_header_plus_parameters(self, toy_weights, tmp_path):
        path = tmp_path / "toy.bin"
        rw.save_weights(toy_weights, path)
        doc_len = len(rw.config_to_json(toy_weights.config).encode("utf-8"))
        expected = 12 + doc_len + rw.parameter_count(toy_weights.config) * 4
        assert path.stat().st_size == expected

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(rw.WeightFormatError, match="magic"):
            rw.load_weights(path)

    def test_unsupported_version(self, toy_weights, tmp_path):
        path = tmp_path / "v9.bin"
        rw.save_weights(toy_weights, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(rw.WeightFormatError, match="version"):
            rw.load_weights(path)

    def test_truncated_payload(self, toy_weights, tmp_path):
        path = tmp_path / "short.bin"
        rw.save_weights(toy_weights, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with pytest.raises(rw.WeightFormatError, match="length"):
            rw.load_weights(path)

    def test_trailing_garbage(self, toy_weights, tmp_path):
        path = tmp_path / "long.bin"
        rw.save_weights(toy_weights, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(rw.WeightFormatError, match="length"):
            rw.load_weights(path)

    def test_bad_embedded_config(self, toy_weights, tmp_path):
        path = tmp_path / "badcfg.bin"
        doc = b'{"dim": 64}'
        payload = WEIGHT_MAGIC + struct.pack("<II", WEIGHT_VERSION, len(doc)) + doc
        path.write_bytes(payload)
        with pytest.raises(rw.WeightFormatError, match="embedded config"):
            rw.load_weights(path)

    def test_non_finite_values_rejected(self, toy_weights, tmp_path):
        path = tmp_path / "nan.bin"
        rw.save_weights(toy_weights, path)
        blob = bytearray(path.read_bytes())
        doc_len = struct.unpack_from("<I", blob, 8)[0]
        struct.pack_into("<f", blob, 12 + doc_len, float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(rw.WeightFormatError, match="non-finite.*token_embedding"):
            rw.load_weights(path)

    @pytest.mark.parametrize("field, value", [
        ("n_layers", True), ("context_len", 1000.0), ("window_size", np.int64(8)),
        ("window_size", 8.0), ("dim", "64"),
    ])
    def test_no_weights_for_a_config_a_file_cannot_hold(self, toy_config, field, value):
        # Weights drawn for such a config once saved to a file that load_weights
        # refused, or raised a TypeError in save_weights; the config cannot exist.
        with pytest.raises(rw.ConfigError, match=f"^non-integer value for '{field}'"):
            rw.init_random(replace(toy_config, **{field: value}), 0)

    def test_loaded_weights_drive_identical_logits(self, toy_weights, tmp_path):
        path = tmp_path / "toy.bin"
        rw.save_weights(toy_weights, path)
        loaded = rw.load_weights(path)
        a = rw.GenerationSession(toy_weights).forward_decode(7)
        b = rw.GenerationSession(loaded).forward_decode(7)
        assert np.array_equal(a, b)


class TestLoadWeightsFuzz:
    """Damaged weight files fail with WeightFormatError, never another error."""

    @pytest.fixture
    def saved(self, toy_weights, tmp_path):
        path = tmp_path / "toy.bin"
        rw.save_weights(toy_weights, path)
        return path.read_bytes()

    def _load(self, tmp_path, blob):
        path = tmp_path / "fuzzed.bin"
        path.write_bytes(blob)
        return rw.load_weights(path)

    def test_truncation_at_every_header_and_config_offset(self, saved, tmp_path):
        (doc_len,) = struct.unpack_from("<I", saved, 8)
        for end in range(12 + doc_len + 1):
            with pytest.raises(rw.WeightFormatError):
                self._load(tmp_path, saved[:end])

    def test_largest_doc_len(self, saved, tmp_path):
        blob = saved[:8] + struct.pack("<I", 2**32 - 1) + saved[12:]
        with pytest.raises(rw.WeightFormatError, match="truncated"):
            self._load(tmp_path, blob)

    def test_a_pipe_is_refused_before_any_read(self, saved):
        # A pipe's size is unknown, so no declared length could be checked
        # against it before the read.
        read_end, write_end = os.pipe()
        os.write(write_end, saved[:12])
        os.close(write_end)
        with pytest.raises(rw.WeightFormatError, match="^not a regular file$"):
            rw.load_weights(read_end)

    @pytest.mark.parametrize("edit", [lambda b: b[:-4], lambda b: b + struct.pack("<f", 1.0)],
                             ids=["one-float-short", "one-float-long"])
    def test_payload_off_by_one_float(self, saved, tmp_path, edit):
        with pytest.raises(rw.WeightFormatError, match="length"):
            self._load(tmp_path, edit(saved))


class TestFusedProjections:
    """A layer holds Wq|Wk|Wv and W1|W3 once; the separate projections are views."""

    @pytest.mark.parametrize("fused, parts", [("Wqkv", ("Wq", "Wk", "Wv")), ("W13", ("W1", "W3"))])
    def test_each_projection_is_a_column_view_of_its_fused_array(self, toy_weights, fused, parts):
        for layer in toy_weights.layers:
            whole = getattr(layer, fused)
            assert all(np.shares_memory(getattr(layer, name), whole) for name in parts)
            assert np.array_equal(whole, np.concatenate([getattr(layer, name) for name in parts], axis=1))

    def test_a_layer_refuses_to_rebind_a_tensor(self, toy_weights):
        # A rebound W1 would leave W13 stale: the engine would read the old
        # values while the oracle read the new ones.
        layer = toy_weights.layers[0]
        with pytest.raises(FrozenInstanceError):
            layer.Wq = np.zeros_like(layer.Wq)

    def test_replace_fuses_the_new_tensor(self, toy_config, toy_weights):
        layer = toy_weights.layers[0]
        x = np.full_like(layer.W1, 0.5)
        changed = replace(layer, W1=x)
        assert np.array_equal(changed.W13[:, :toy_config.hidden_dim], x)
        assert np.array_equal(changed.W13[:, toy_config.hidden_dim:], layer.W3)
        assert not np.shares_memory(changed.W13, layer.W13)
        assert not np.array_equal(layer.W1, x)

    @pytest.mark.parametrize("config", [rw.PRESET_TOY, DESK], ids=["toy", "desk"])
    def test_load_then_save_writes_identical_bytes(self, config, tmp_path):
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        rw.save_weights(rw.init_random(config, 3), first)
        rw.save_weights(rw.load_weights(first), second)
        assert second.read_bytes() == first.read_bytes()


def test_loading_peaks_near_the_parameter_bytes(tmp_path):
    # The loader reads one tensor at a time and fuses one layer at a time,
    # so no whole-file buffer or second copy of the parameters is alive.
    path = tmp_path / "desk.bin"
    rw.save_weights(rw.init_random(DESK, 1), path)
    gc.collect()
    tracemalloc.start()
    try:
        weights = rw.load_weights(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert weights.config == DESK
    assert peak <= 1.2 * rw.parameter_count(DESK) * 4
