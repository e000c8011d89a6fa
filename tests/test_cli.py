import collections
import importlib
import json
import resource
import struct
import subprocess
import sys
import tomllib
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import rollwin as rw
from conftest import FAINT_BOUNDARY, subprocess_env
from rollwin import attention as attention_module
from rollwin import cli


@pytest.fixture
def toy_config_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(rw.config_to_json(rw.PRESET_TOY))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_report(err):
    return json.loads(err.strip().splitlines()[-1])


def untimed(err):
    """The last report without its wall-clock fields."""
    report = last_report(err)
    report.pop("wall_time"), report.pop("tokens_per_second")
    return report


MODES = ("swa", "oracle-swa", "oracle-causal")


GENERATE = (
    "generate", "--random-init", "--seed", "42",
    "--prompt-ids", "1 2 3", "--max-tokens", "8", "--greedy",
)


class TestGenerate:
    def test_deterministic_across_runs(self, capsys, toy_config_file):
        argv = GENERATE + ("--config", toy_config_file)
        code_a, out_a, err_a = run_cli(capsys, *argv)
        code_b, out_b, err_b = run_cli(capsys, *argv)
        assert code_a == code_b == cli.EXIT_OK
        assert out_a == out_b
        assert untimed(err_a) == untimed(err_b)

    def test_stdout_carries_only_token_ids(self, capsys, toy_config_file):
        code, out, _ = run_cli(capsys, *GENERATE, "--config", toy_config_file)
        assert code == cli.EXIT_OK
        ids = out.split()
        assert len(ids) == 8
        assert all(piece.isdigit() for piece in ids)

    def test_max_tokens_zero_emits_report_only(self, capsys, toy_config_file):
        code, out, err = run_cli(
            capsys, "generate", "--random-init", "--seed", "1",
            "--config", toy_config_file, "--prompt-ids", "5 6", "--max-tokens", "0",
        )
        assert code == cli.EXIT_OK
        assert out == ""
        report = last_report(err)
        assert report["tokens_generated"] == 0
        assert report["truncated"] is False
        assert report["swa_score_pairs"] == rw.score_pair_count(2, rw.PRESET_TOY.window_size)
        assert report["full_score_pairs"] == rw.full_pair_count(2)

    def test_cache_byte_accounting(self, capsys, toy_config_file):
        cfg = rw.PRESET_TOY
        code, _, err = run_cli(capsys, *GENERATE, "--config", toy_config_file)
        assert code == cli.EXIT_OK
        report = last_report(err)
        per_layer = 2 * cfg.n_kv_heads * cfg.window_size * cfg.head_dim * 4
        assert report["cache_bytes_per_layer"] == per_layer
        assert report["total_cache_bytes"] == per_layer * cfg.n_layers
        # 3 prompt tokens and 7 of the 8 sampled ones pass through the model.
        assert report["full_score_pairs"] == rw.full_pair_count(10)
        assert report["swa_score_pairs"] == rw.score_pair_count(10, cfg.window_size)
        assert report["pair_ratio"] == report["full_score_pairs"] / report["swa_score_pairs"]

    def test_weight_file_round_trip_matches_random_init(self, capsys, toy_config_file, tmp_path):
        weight_path = tmp_path / "weights.bin"
        rw.save_weights(rw.init_random(rw.PRESET_TOY, 42), weight_path)
        _, from_init, _ = run_cli(capsys, *GENERATE, "--config", toy_config_file)
        _, from_file, _ = run_cli(
            capsys, "generate", "--weights", str(weight_path), "--seed", "42",
            "--prompt-ids", "1 2 3", "--max-tokens", "8", "--greedy",
        )
        assert from_init == from_file

    def test_top_k_sampling_runs_seeded(self, capsys, toy_config_file):
        argv = (
            "generate", "--random-init", "--seed", "9", "--config", toy_config_file,
            "--prompt-ids", "4", "--max-tokens", "6", "--top-k", "12", "--temperature", "0.8",
        )
        _, out_a, _ = run_cli(capsys, *argv)
        _, out_b, _ = run_cli(capsys, *argv)
        assert out_a == out_b
        assert len(out_a.split()) == 6

    def test_tiny_temperature_draws_the_argmax_without_a_warning(self, capsys, toy_config_file):
        # Scaling the logits before subtracting the top one overflowed to
        # inf - inf at this temperature, and the draw failed on NaN probabilities.
        base = ("generate", "--random-init", "--config", toy_config_file, "--prompt-ids", "1 2", "--max-tokens", "3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, *base, "--top-k", "5", "--temperature", "5e-324")
        assert (code, out) == (cli.EXIT_OK, "252 148 33\n")
        assert run_cli(capsys, *base, "--greedy")[:2] == (cli.EXIT_OK, out)

    def test_oracle_modes_agree_with_engine(self, capsys, toy_config_file):
        # Seven positions fit in the toy window of 8, so even the plain
        # causal oracle sees the same keys as the windowed engine.
        base = (
            "generate", "--random-init", "--seed", "3", "--config", toy_config_file,
            "--prompt-ids", "7 8 9", "--max-tokens", "5",
        )
        for sampler in (("--greedy",), ("--top-k", "7", "--temperature", "0.7")):
            runs = [run_cli(capsys, *base, *sampler, "--mode", mode) for mode in MODES]
            assert len(runs[0][1].split()) == 5
            assert len({(code, out, json.dumps(untimed(err))) for code, out, err in runs}) == 1

    def test_oracle_causal_mode_runs(self, capsys, toy_config_file):
        code, out, _ = run_cli(
            capsys, "generate", "--random-init", "--seed", "3", "--config", toy_config_file,
            "--prompt-ids", "7 8 9", "--max-tokens", "3", "--mode", "oracle-causal",
        )
        assert code == cli.EXIT_OK
        assert len(out.split()) == 3

    @pytest.mark.parametrize("forward", [rw.oracle_forward_swa, rw.oracle_forward_causal],
                             ids=["oracle-swa", "oracle-causal"])
    @pytest.mark.parametrize("bad", [[999], [2.5], [], [1] * 127],
                             ids=["out-of-vocab", "float", "empty", "past-context"])
    def test_oracle_session_rejects_a_chunk_without_taking_it(self, toy_weights, forward, bad):
        session = cli._OracleSession(toy_weights, forward)
        session.forward_chunk([1, 2])
        with pytest.raises(ValueError):
            session.forward_chunk(bad)
        assert (session.next_position, session.history) == (2, [1, 2])
        logits = session.forward_chunk([3, 4])
        assert np.array_equal(logits, forward(toy_weights, toy_weights.config, [1, 2, 3, 4])[-1])

    @pytest.mark.parametrize("mode", ["oracle-swa", "oracle-causal"])
    @pytest.mark.parametrize("prompt_len, refused", [(3070, True), (3068, False)])
    def test_oracle_mode_guards_its_longest_run_before_the_first_step(
        self, capsys, monkeypatch, tmp_path, mode, prompt_len, refused
    ):
        # With --max-tokens 5 the last step runs the oracle on the prompt
        # plus 4 fed-back tokens: 3,074 is over MAX_ORACLE_TOKENS and must be
        # refused before any oracle call; 3,072 fits and runs every step.
        assert rw.oracle.MAX_ORACLE_TOKENS == 3072
        path = tmp_path / "long.json"
        path.write_text(rw.config_to_json(replace(rw.PRESET_TOY, context_len=4096)))
        lengths = []

        def counting_stub(weights, config, tokens):
            lengths.append(len(tokens))
            return np.zeros((len(tokens), config.vocab_size), np.float32)

        monkeypatch.setattr(cli, "oracle_forward_swa", counting_stub)
        monkeypatch.setattr(cli, "oracle_forward_causal", counting_stub)
        code, out, err = run_cli(
            capsys, "generate", "--random-init", "--config", str(path),
            "--prompt-ids", " ".join(["1"] * prompt_len), "--max-tokens", "5", "--mode", mode,
        )
        if refused:
            assert (code, out, lengths) == (cli.EXIT_USAGE, "", [])
            assert err.startswith("error: refusing oracle run")
        else:
            assert code == cli.EXIT_OK
            assert lengths == [3068, 3069, 3070, 3071, 3072]


class TestTopOneIsGreedy:
    """`--top-k 1` is greedy: same tokens, exit code and untimed report."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "tight, max_tokens, code", [(False, "8", cli.EXIT_OK), (True, "20", cli.EXIT_TRUNCATED)],
        ids=["toy", "truncated"],
    )
    def test_top_k_one_run_equals_greedy_run(self, capsys, tmp_path, mode, tight, max_tokens, code):
        config = replace(rw.PRESET_TOY, context_len=12, window_size=4) if tight else rw.PRESET_TOY
        path = tmp_path / "config.json"
        path.write_text(rw.config_to_json(config))
        base = (
            "generate", "--random-init", "--seed", "11", "--config", str(path),
            "--prompt-ids", "1 2 3", "--max-tokens", max_tokens, "--mode", mode,
        )
        greedy = run_cli(capsys, *base, "--greedy")
        top1 = run_cli(capsys, *base, "--top-k", "1", "--temperature", "0.5")
        assert greedy[0] == top1[0] == code
        assert greedy[1] == top1[1] != ""
        assert untimed(greedy[2]) == untimed(top1[2])
        seq_len = 12 if tight else 10  # the context stops the truncated run
        assert untimed(top1[2])["full_score_pairs"] == rw.full_pair_count(seq_len)

    def test_zero_temperature_refused_at_k_one(self, capsys, toy_config_file):
        code, out, err = run_cli(
            capsys, "generate", "--random-init", "--config", toy_config_file,
            "--prompt-ids", "1", "--max-tokens", "1", "--top-k", "1", "--temperature", "0",
        )
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert "temperature" in err


class TestExitCodes:
    def test_unknown_flag_is_usage(self, capsys, toy_config_file):
        code, _, err = run_cli(capsys, *GENERATE, "--config", toy_config_file, "--frobnicate")
        assert code == cli.EXIT_USAGE
        assert "error:" in err

    def test_random_init_needs_config(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--random-init", "--prompt-ids", "1", "--max-tokens", "1"
        )
        assert code == cli.EXIT_USAGE
        assert "--config" in err

    def test_bad_prompt_ids(self, capsys, toy_config_file):
        code, _, err = run_cli(
            capsys, "generate", "--random-init", "--config", toy_config_file,
            "--prompt-ids", "1 two 3", "--max-tokens", "1",
        )
        assert code == cli.EXIT_USAGE
        assert "two" in err

    def test_prompt_id_outside_vocabulary(self, capsys, toy_config_file):
        code, _, err = run_cli(
            capsys, "generate", "--random-init", "--config", toy_config_file,
            "--prompt-ids", "1 999", "--max-tokens", "1",
        )
        assert code == cli.EXIT_USAGE
        assert "999" in err

    def test_top_k_out_of_range(self, capsys, toy_config_file):
        code, _, _ = run_cli(
            capsys, "generate", "--random-init", "--config", toy_config_file,
            "--prompt-ids", "1", "--max-tokens", "1", "--top-k", "0",
        )
        assert code == cli.EXIT_USAGE

    def test_unreadable_weight_file(self, capsys, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        code, _, err = run_cli(
            capsys, "generate", "--weights", str(path), "--prompt-ids", "1", "--max-tokens", "1"
        )
        assert code == cli.EXIT_WEIGHTS
        assert "magic" in err

    def test_missing_weight_file(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "generate", "--weights", str(tmp_path / "nope.bin"),
            "--prompt-ids", "1", "--max-tokens", "1",
        )
        assert code == cli.EXIT_WEIGHTS

    def test_context_overflow_exits_truncated(self, capsys, tmp_path):
        tight = replace(rw.PRESET_TOY, context_len=6, window_size=4)
        cfg_path = tmp_path / "tight.json"
        cfg_path.write_text(rw.config_to_json(tight))
        # Every mode shares the loop's truncation rule; at seed 1 the causal
        # oracle's argmax also matches the windowed one at positions 4 and 5.
        runs = [
            run_cli(
                capsys, "generate", "--random-init", "--seed", "1", "--config", str(cfg_path),
                "--prompt-ids", "1 2 3 4", "--max-tokens", "10", "--mode", mode,
            )
            for mode in MODES
        ]
        for code, out, err in runs:
            assert code == cli.EXIT_TRUNCATED
            assert out == runs[0][1]
            assert len(out.split()) == 3
            assert untimed(err) == untimed(runs[0][2])
            assert last_report(err)["truncated"] is True


def _saved_weights(tmp_path):
    path = tmp_path / "saved.bin"
    rw.save_weights(rw.init_random(rw.PRESET_TOY, 1), path)
    return path.read_bytes()


def _file(tmp_path, data: bytes) -> str:
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    return str(path)


def _embedded_doc(saved: bytes, text: str) -> bytes:
    """A saved weight file's tensors behind another embedded config document."""
    (doc_len,) = struct.unpack_from("<I", saved, 8)
    doc = text.encode()
    return saved[:8] + struct.pack("<I", len(doc)) + doc + saved[12 + doc_len:]


def _embedded_config(saved: bytes, config) -> bytes:
    return _embedded_doc(saved, rw.config_to_json(config))


def _overflowing_weights(tmp_path) -> str:
    """Toy weights, all finite, whose feed-forward products overflow float32."""
    weights = rw.init_random(rw.PRESET_TOY, 1)
    for layer in weights.layers:
        layer.W1[...] *= np.float32(1e18)
        layer.W3[...] *= np.float32(1e18)
    path = tmp_path / "overflow.bin"
    rw.save_weights(weights, path)
    return str(path)


GENERATE_FROM = ("--prompt-ids", "1 2", "--max-tokens", "1")

#: Toy weights with 119 GiB of rolling caches.
HUGE_WINDOW_TOY = replace(rw.PRESET_TOY, window_size=10**9, context_len=10**9)

#: 512 MiB of caches from a model with 1,674 parameters. Its oracle runs
#: are too long as well, but verify checks parameters, then caches, then
#: the oracle size, so this reaches the cache cap.
HUGE_CACHE_TINY = rw.ModelConfig(
    dim=2, n_layers=64, head_dim=2, hidden_dim=1, n_heads=1, n_kv_heads=1,
    window_size=2**19, context_len=2**19, vocab_size=2,
)

#: Parameters and caches fit, and so would the oracle's 512 tokens x dim
#: 64, but the reach probe needs a stepped stream of 260 * 63 + 6 = 16,386.
DEEP_REACH_PROBE = rw.ModelConfig(
    dim=64, n_layers=260, head_dim=16, hidden_dim=128, n_heads=4, n_kv_heads=2,
    window_size=64, context_len=16400, vocab_size=256,
)

#: A 16,384-token verify stream at toy dims: 2**20 history elements, within
#: the element bound, but its n x n score blocks would need gigabytes.
LONG_STREAM_TOY = replace(rw.PRESET_TOY, window_size=2048, context_len=16384)

#: Documents that `json.loads` itself fails on with an error other than JSONDecodeError.
UNLOADABLE_JSON = {
    "deep-nesting": "[" * 100_000,  # RecursionError
    "long-integer": '{"dim": ' + "1" * 5_001 + "}",  # ValueError: over the int string conversion limit
}

#: Hostile inputs, each as (argv builder, documented exit code).
HOSTILE_INPUTS = {
    "non-utf8-config": (
        lambda tmp: ["verify", "--config", _file(tmp, b"\xff\xfe" + rw.config_to_json(rw.PRESET_TOY).encode())],
        cli.EXIT_USAGE,
    ),
    "directory-as-config": (lambda tmp: ["verify", "--config", str(tmp)], cli.EXIT_USAGE),
    "truncated-weights": (
        lambda tmp: ["generate", "--weights", _file(tmp, _saved_weights(tmp)[:-100]), *GENERATE_FROM],
        cli.EXIT_WEIGHTS,
    ),
    "bad-magic": (
        lambda tmp: ["generate", "--weights", _file(tmp, b"JUNK" + _saved_weights(tmp)[4:]), *GENERATE_FROM],
        cli.EXIT_WEIGHTS,
    ),
    "non-utf8-embedded-config": (
        lambda tmp: ["generate", "--weights", _file(tmp, _saved_weights(tmp)[:8] + struct.pack("<I", 2) + b"\xff\xfe"),
                     *GENERATE_FROM],
        cli.EXIT_WEIGHTS,
    ),
    "window-zero": (lambda tmp: ["verify", "--window", "0"], cli.EXIT_USAGE),
    **{f"{name}-config": (lambda tmp, text=text: ["verify", "--config", _file(tmp, text.encode())], cli.EXIT_USAGE)
       for name, text in UNLOADABLE_JSON.items()},
    **{f"{name}-embedded-config": (
        lambda tmp, text=text: ["generate", "--weights", _file(tmp, _embedded_doc(_saved_weights(tmp), text)),
                                *GENERATE_FROM],
        cli.EXIT_WEIGHTS,
    ) for name, text in UNLOADABLE_JSON.items()},
    # The length check must not build a per-layer list for 10**12 layers.
    "huge-n-layers-embedded-config": (
        lambda tmp: ["generate", "--weights",
                     _file(tmp, _embedded_config(_saved_weights(tmp), replace(rw.PRESET_TOY, n_layers=10**12))),
                     *GENERATE_FROM],
        cli.EXIT_WEIGHTS,
    ),
    # The parameter cap must be checked before init_random builds 10**12 layers.
    "huge-n-layers-verify": (lambda tmp: ["verify", "--layers", str(10**12)], cli.EXIT_USAGE),
    "huge-n-layers-random-init": (
        lambda tmp: ["generate", "--random-init", "--prompt-ids", "1 2", "--config",
                     _file(tmp, rw.config_to_json(replace(rw.PRESET_TOY, n_layers=10**12)).encode())],
        cli.EXIT_USAGE,
    ),
    # The cache cap must be checked before a session allocates its caches;
    # these configs pass the parameter cap (and, for verify, the oracle guard).
    "huge-window-embedded-config": (
        lambda tmp: ["generate", "--weights",
                     _file(tmp, _embedded_config(_saved_weights(tmp), HUGE_WINDOW_TOY)), *GENERATE_FROM],
        cli.EXIT_WEIGHTS,
    ),
    "huge-window-random-init": (
        lambda tmp: ["generate", "--random-init", "--prompt-ids", "1 2", "--config",
                     _file(tmp, rw.config_to_json(HUGE_WINDOW_TOY).encode())],
        cli.EXIT_USAGE,
    ),
    "huge-cache-verify": (
        lambda tmp: ["verify", "--config", _file(tmp, rw.config_to_json(HUGE_CACHE_TINY).encode())],
        cli.EXIT_USAGE,
    ),
    # numpy's default_rng rejects a negative seed; argparse must catch it first.
    "negative-seed-generate": (
        lambda tmp: ["generate", "--random-init", "--seed", "-1", "--config",
                     _file(tmp, rw.config_to_json(rw.PRESET_TOY).encode()), *GENERATE_FROM],
        cli.EXIT_USAGE,
    ),
    "deep-reach-probe-verify": (
        lambda tmp: ["verify", "--config", _file(tmp, rw.config_to_json(DEEP_REACH_PROBE).encode())],
        cli.EXIT_USAGE,
    ),
    "long-stream-verify": (
        lambda tmp: ["verify", "--config", _file(tmp, rw.config_to_json(LONG_STREAM_TOY).encode())],
        cli.EXIT_USAGE,
    ),
    "long-oracle-bench": (lambda tmp: ["bench", "--bench", "16384:4096", "--execute"], cli.EXIT_USAGE),
    "negative-seed-verify": (lambda tmp: ["verify", "--seed", "-1"], cli.EXIT_USAGE),
    "negative-seed-bench": (lambda tmp: ["bench", "--bench", "16:4", "--execute", "--seed", "-1"], cli.EXIT_USAGE),
    "non-integer-seed": (lambda tmp: ["verify", "--seed", "1.5"], cli.EXIT_USAGE),
    "doc-len-max": (
        lambda tmp: ["generate", "--weights", _file(tmp, _saved_weights(tmp)[:8] + struct.pack("<I", 2**32 - 1)
                                                     + _saved_weights(tmp)[12:]), *GENERATE_FROM],
        cli.EXIT_WEIGHTS,
    ),
    "payload-one-float-short": (
        lambda tmp: ["generate", "--weights", _file(tmp, _saved_weights(tmp)[:-4]), *GENERATE_FROM],
        cli.EXIT_WEIGHTS,
    ),
    "overflowing-weights": (
        lambda tmp: ["generate", "--weights", _overflowing_weights(tmp), "--prompt-ids", "1 2 3", "--max-tokens", "4"],
        cli.EXIT_WEIGHTS,
    ),
    "payload-one-float-long": (
        lambda tmp: ["generate", "--weights", _file(tmp, _saved_weights(tmp) + struct.pack("<f", 1.0)),
                     *GENERATE_FROM],
        cli.EXIT_WEIGHTS,
    ),
}

#: Sampler flags that only the generation loop rejects, tried in every mode.
BAD_SAMPLER_FLAGS = {
    "top-k-above-vocab": ["--top-k", "257"],
    "temperature-zero": ["--top-k", "3", "--temperature", "0"],
    "temperature-nan": ["--top-k", "3", "--temperature", "nan"],
    "temperature-inf": ["--top-k", "3", "--temperature", "inf"],
    "max-tokens-negative": ["--max-tokens", "-1"],
}
HOSTILE_INPUTS.update(
    {
        f"{name}-{mode}": (
            lambda tmp, flags=flags, mode=mode: [
                "generate", "--random-init", "--config", _file(tmp, rw.config_to_json(rw.PRESET_TOY).encode()),
                "--prompt-ids", "1 2", "--max-tokens", "2", *flags, "--mode", mode,
            ],
            cli.EXIT_USAGE,
        )
        for name, flags in BAD_SAMPLER_FLAGS.items()
        for mode in MODES
    }
)


def _cap_address_space():
    # A hostile input that slips past its check fails with a MemoryError
    # (and so a traceback) instead of taking the machine's memory.
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


@pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
def test_hostile_input_exits_with_its_code_and_no_traceback(case, tmp_path):
    build, expected = HOSTILE_INPUTS[case]
    proc = subprocess.run(
        [sys.executable, "-m", "rollwin", *build(tmp_path)],
        capture_output=True, text=True, env=subprocess_env(), timeout=120, preexec_fn=_cap_address_space,
    )
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


#: One config document per rule `ModelConfig` states, each breaking only that rule.
RULE_BREAKING_DOCS = {
    "vocab_size > 0": {"vocab_size": 0},
    "dim == n_heads*head_dim": {"dim": 63},
    "head_dim % 2 == 0": {"dim": 60, "head_dim": 15},
    "n_heads % n_kv_heads == 0": {"n_kv_heads": 3},
    "1 <= window_size <= context_len": {"window_size": 129},
}


@pytest.mark.parametrize("rule", RULE_BREAKING_DOCS)
def test_every_config_rule_is_refused_at_every_entry_point(rule, tmp_path, capsys):
    text = json.dumps({**asdict(rw.PRESET_TOY), **RULE_BREAKING_DOCS[rule]})
    path = tmp_path / "config.json"
    path.write_text(text)
    for argv in (
        ["verify", "--config", str(path)],
        ["generate", "--random-init", "--config", str(path), *GENERATE_FROM],
        ["bench", "--config", str(path), "--bench", "16:4"],
    ):
        assert run_cli(capsys, *argv) == (cli.EXIT_USAGE, "", f"error: config {path}: invalid config: {rule}\n")
    weights = _file(tmp_path, _embedded_doc(_saved_weights(tmp_path), text))
    assert run_cli(capsys, "generate", "--weights", weights, *GENERATE_FROM) == (
        cli.EXIT_WEIGHTS, "", f"error: weight file: embedded config rejected: invalid config: {rule}\n"
    )


@pytest.mark.parametrize("name", UNLOADABLE_JSON)
def test_a_document_json_cannot_load_is_refused_at_every_entry_point(name, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(UNLOADABLE_JSON[name])
    for argv in (
        ["verify", "--config", str(path)],
        ["generate", "--random-init", "--config", str(path), *GENERATE_FROM],
        ["bench", "--config", str(path), "--bench", "16:4"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (cli.EXIT_USAGE, "") and err.startswith(f"error: config {path}: not valid JSON: "), argv
    weights = _file(tmp_path, _embedded_doc(_saved_weights(tmp_path), UNLOADABLE_JSON[name]))
    code, out, err = run_cli(capsys, "generate", "--weights", weights, *GENERATE_FROM)
    assert (code, out) == (cli.EXIT_WEIGHTS, "")
    assert err.startswith("error: weight file: embedded config rejected: not valid JSON: ")


@pytest.mark.parametrize("flags", [["--greedy"], ["--top-k", "5"], ["--mode", "oracle-swa"]])
def test_weights_that_overflow_the_activations_exit_with_weights_code(flags, tmp_path, capsys):
    # Unchecked, rms_norm's square overflows to inf, every row normalizes to
    # zero and the run prints finite logits' argmax tokens with exit 0.
    argv = ["generate", "--weights", _overflowing_weights(tmp_path), "--prompt-ids", "1 2 3", "--max-tokens", "4"]
    assert run_cli(capsys, *argv, *flags) == (
        cli.EXIT_WEIGHTS, "", "error: weights: overflow encountered in multiply\n"
    )


def test_weight_file_truncated_anywhere_in_its_header_exits_with_weights_code(tmp_path, capsys):
    saved = _saved_weights(tmp_path)
    (doc_len,) = struct.unpack_from("<I", saved, 8)
    for end in range(12 + doc_len + 1):
        code, out, err = run_cli(capsys, "generate", "--weights", _file(tmp_path, saved[:end]), *GENERATE_FROM)
        assert (code, out) == (cli.EXIT_WEIGHTS, ""), end
        assert err.startswith("error: weight file:"), end


def _next_ulp(values):
    return np.nextafter(values, np.float32(np.inf))


#: Faults far inside any tolerance (one ulp, or one skipped token whose
#: influence is tiny), each as (owner, attribute, wrapper of the original,
#: the one verify check that must fail).
ONE_ULP_FAULTS = {
    "engine-logits": (
        rw.GenerationSession, "forward_chunk",
        lambda real: lambda self, tokens: _next_ulp(real(self, tokens)),
        "oracle-equivalence",
    ),
    "multi-row-cache-keys": (
        rw.RollingKvCache, "prefill_bulk",
        lambda real: lambda self, start, k, v: real(self, start, _next_ulp(k) if k.shape[1] > 1 else k, v),
        "prefill-decode",
    ),
    # The receptive-field skip drops one token too many; only chunks longer
    # than exact_reach - 1 tokens run differently.
    "exact-reach-minus-one": (
        rw.model, "exact_reach",
        lambda real: lambda config: real(config) - 1,
        "prefill-decode",
    ),
}


#: The paper's shape (Table 1): 32 layers, and 4 query heads per kv head (32
#: and 8), at head_dim 2 and W 8 so that a run takes about 1.5 s.
PAPER_SHAPE = ("--config", str(Path(__file__).resolve().parent / "paper_shape.json"))


def flags_id(flags):
    return "paper-shape" if flags == PAPER_SHAPE else " ".join(flags) or "toy"


#: `rollwin verify --seed 0` stderr, by flags.
GOLDEN_VERIFY = {
    (): (
        "oracle-equivalence: max |dlogit| 0.00e+00 over 64 steps: pass\n"
        "prefill-decode: max |dlogit| 0.00e+00 over lengths [1, 7, 8, 9, 24, 26, 29, 12+17, 30, 8+30], "
        "caches identical: pass\n"
        "reach: affected <= 28, boundary exact: pass\n"
        "cache-bound: 8192 bytes after 64 tokens == 8192 after 8; 8 entries/layer: pass\n"
    ),
    ("--window", "4", "--layers", "2"): (
        "oracle-equivalence: max |dlogit| 0.00e+00 over 32 steps: pass\n"
        "prefill-decode: max |dlogit| 0.00e+00 over lengths [1, 3, 4, 5, 7, 8, 12, 4+8, 14], "
        "caches identical: pass\n"
        "reach: affected <= 6, boundary exact: pass\n"
        "cache-bound: 2048 bytes after 32 tokens == 2048 after 4; 4 entries/layer: pass\n"
    ),
    ("--window", "16"): (
        "oracle-equivalence: max |dlogit| 0.00e+00 over 128 steps: pass\n"
        "prefill-decode: max |dlogit| 0.00e+00 over lengths [1, 15, 16, 17, 48, 50, 24+33, 61, 62, 16+62], "
        "caches identical: pass\n"
        "reach: affected <= 60, boundary exact: pass\n"
        "cache-bound: 16384 bytes after 128 tokens == 16384 after 16; 16 entries/layer: pass\n"
    ),
    ("--window", "3", "--layers", "12"): (
        "oracle-equivalence: max |dlogit| 0.00e+00 over 24 steps: pass\n"
        "prefill-decode: max |dlogit| 0.00e+00 over lengths [1, 2, 3, 4, 9, 11, 4+7], caches identical: pass\n"
        "reach: affected <= 24, boundary exact: pass\n"
        "cache-bound: 9216 bytes after 24 tokens == 9216 after 3; 3 entries/layer: pass\n"
    ),
    # exact_reach is 225, past the 64-token stream, so no prefill length skips a row.
    PAPER_SHAPE: (
        "oracle-equivalence: max |dlogit| 0.00e+00 over 64 steps: pass\n"
        "prefill-decode: max |dlogit| 0.00e+00 over lengths [1, 7, 8, 9, 24, 26, 12+17], caches identical: pass\n"
        "reach: affected <= 224, boundary exact: pass\n"
        "cache-bound: 32768 bytes after 64 tokens == 32768 after 8; 8 entries/layer: pass\n"
    ),
}


def _one_key_too_many(real):
    """window_attend scoring W + 1 keys wherever the keys reach that far."""
    def wider(q, keys, values, window):
        if keys.shape[1] >= q.shape[1] + window:
            window += 1
        return real(q, keys, values, window)
    return wider


def _restart_before_long_runs(real):
    """forward_chunk restarting every cache before a one-stream run longer than W."""
    def restarting(self, tokens):
        if self.streams == 1 and len(tokens) > self.config.window_size:
            for cache in self.caches:
                cache.first_position = cache.next_position = self.next_position
        return real(self, tokens)
    return restarting


def test_console_script_runs_cli_entry(monkeypatch, capsys):
    # The installed `rollwin` command runs the target pyproject.toml names.
    pyproject = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
    module, _, name = pyproject["project"]["scripts"]["rollwin"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is cli.entry
    monkeypatch.setattr(sys, "argv", ["rollwin", "bench", "--bench", "8:4"])
    with pytest.raises(SystemExit) as exited:
        entry()
    assert exited.value.code == cli.EXIT_OK == 0
    assert json.loads(capsys.readouterr().err)["swa_score_pairs"] == rw.score_pair_count(8, 4)


class TestVerify:
    def test_default_toy_config_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == cli.EXIT_OK
        assert out == ""
        lines = [line for line in err.strip().splitlines() if line]
        assert len(lines) == 4
        assert all(line.endswith(": pass") for line in lines)
        # Prefill lengths reach past exact_reach (29), a continuation chunk
        # of 30 tokens after 8 skips at a non-zero position, and one of 17
        # after 12 starts mid-window and reads the wrapped cache.
        assert "over lengths [1, 7, 8, 9, 24, 26, 29, 12+17, 30, 8+30]," in lines[1]

    def test_one_stepped_session_serves_every_check(self, monkeypatch):
        # The reach probe's one session steps the stream and its tainted copy
        # max(length, probe_length) times: two streams until the copy's last
        # NaN cache row is evicted after position boundary + 1, then the
        # stream alone. oracle-equivalence and prefill-decode read their
        # stepped reference off stream 0 rather than decoding each length
        # again. No other session is stepped. At W3/L12 the probe needs 30
        # steps, and the oracle reads the first 24.
        for config, steps in ((rw.PRESET_TOY, 64), (replace(rw.PRESET_TOY, window_size=3, n_layers=12), 30)):
            sessions = []
            real = rw.GenerationSession.forward_decode

            def counted(self, token_id):
                sessions.append((id(self), self.streams))
                return real(self, token_id)

            monkeypatch.setattr(rw.GenerationSession, "forward_decode", counted)
            checks = cli.run_verification(config, 0)
            monkeypatch.undo()
            assert all(check.passed for check in checks)
            length = min(8 * config.window_size, config.context_len)
            probe_length = config.n_layers * (config.window_size - 1) + 6
            assert steps == max(length, probe_length)
            boundary = config.n_layers * (config.window_size - 1)
            counts = collections.Counter(sessions)
            assert len({session for session, _ in counts}) == 1
            assert [(streams, count) for (_, streams), count in counts.items()] == [
                (2, boundary + 2), (1, steps - boundary - 2)
            ]

    @pytest.mark.parametrize("vocab_size", [32, 1])
    def test_faint_boundary_config_passes_at_every_seed(self, vocab_size):
        # A float nudge's influence rounds away near the boundary here:
        # reach failed at seed 5 (vocab 32) and seeds 1 and 3-7 (vocab 1).
        config = replace(FAINT_BOUNDARY, vocab_size=vocab_size)
        for seed in range(10):
            failed = [check.name for check in cli.run_verification(config, seed) if not check.passed]
            assert failed == [], seed

    def test_verify_raises_no_numpy_warning(self):
        # The reach probe's NaN must pass every kernel without tripping a
        # floating-point warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(check.passed for check in cli.run_verification(rw.PRESET_TOY, 0))

    def test_one_key_too_many_fails_reach(self, capsys, monkeypatch):
        # Negative control for the reach check: one key past the window
        # moves the toy's last tainted output from 28 to 32. The fault
        # breaks other checks too, so it is not a ONE_ULP_FAULTS entry.
        monkeypatch.setattr(attention_module, "window_attend", _one_key_too_many(attention_module.window_attend))
        assert rw.reach_probe(rw.init_random(rw.PRESET_TOY, 0), [0] * 34, 0) == list(range(33))
        code, _, err = run_cli(capsys, "verify")
        assert code == cli.EXIT_VERIFY
        assert "reach" in [line.split(":")[0] for line in err.splitlines() if line.endswith(": fail")]

    @pytest.mark.parametrize("flags", [(), ("--window", "16"), ("--window", "3", "--layers", "12")],
                             ids=lambda flags: " ".join(flags) or "toy")
    def test_restarting_caches_before_a_long_run_fails_prefill_decode(self, capsys, monkeypatch, flags):
        # Negative control for a continuation that reads the cache: only the
        # mid-window split (12+17 on toy) runs more than W tokens after a
        # prefix that the cache must still hold. At W4/L2 that split does
        # not fit (its continuation would be 3 <= W rows), so no check sees it.
        monkeypatch.setattr(rw.GenerationSession, "forward_chunk",
                            _restart_before_long_runs(rw.GenerationSession.forward_chunk))
        code, _, err = run_cli(capsys, "verify", *flags)
        assert code == cli.EXIT_VERIFY
        assert [line.split(":")[0] for line in err.splitlines() if line.endswith(": fail")] == ["prefill-decode"]

    def test_stream_that_cannot_pass_the_reach_boundary_is_refused(self, capsys, monkeypatch):
        # At W33 the toy's boundary is position 128, past its last position
        # (127), so the tainted copy would never be dropped. The refusal comes
        # before any weights are drawn. At W32 the boundary is 124.
        monkeypatch.setattr(cli, "init_random", lambda *args: pytest.fail("weights drawn"))
        code, out, err = run_cli(capsys, "verify", "--window", "33")
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == ("error: verify needs context_len >= 130 to step past the reach boundary "
                       "at position 128, got 128\n")
        monkeypatch.undo()
        code, _, err = run_cli(capsys, "verify", "--window", "32")
        assert code == cli.EXIT_OK
        assert "reach: affected <= 124, boundary exact: pass\n" in err

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("flags", sorted(GOLDEN_VERIFY), ids=flags_id)
    def test_exact_at_every_seed(self, capsys, flags, seed):
        # Engine and oracle, and chunked and stepped runs, agree bit for bit
        # at seeds 0-9 on every pinned config, not only at the golden seed.
        code, out, err = run_cli(capsys, "verify", *flags, "--seed", str(seed))
        assert (code, out) == (cli.EXIT_OK, "")
        lines = err.splitlines()
        assert lines[0].startswith("oracle-equivalence: max |dlogit| 0.00e+00 over ")
        assert lines[1].startswith("prefill-decode: max |dlogit| 0.00e+00 over ")

    @pytest.mark.parametrize("flags", sorted(GOLDEN_VERIFY), ids=flags_id)
    def test_verify_text_is_pinned(self, capsys, flags):
        # The whole stderr text and exit code at seed 0. At W3/L12 the stepped
        # stream (30 tokens) is longer than the oracle-equivalence check (24).
        code, out, err = run_cli(capsys, "verify", *flags, "--seed", "0")
        assert (code, out, err) == (cli.EXIT_OK, "", GOLDEN_VERIFY[flags])

    def test_verify_holds_at_numpys_baseline_dispatch(self):
        # With every SIMD target numpy dispatches to disabled, float32 exp and
        # the logits take other bits, but the engine and the oracle still agree
        # bit for bit: the pinned text is the same. Warnings numpy prints
        # about targets the host lacks come first.
        umath = importlib.import_module("numpy._core._multiarray_umath")
        env = dict(subprocess_env(), NPY_DISABLE_CPU_FEATURES=" ".join(umath.__cpu_dispatch__))
        proc = subprocess.run(
            [sys.executable, "-m", "rollwin", "verify"], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout) == (cli.EXIT_OK, "")
        assert proc.stderr.endswith(GOLDEN_VERIFY[()])

    def test_reach_override_line(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--window", "4", "--layers", "2")
        assert code == cli.EXIT_OK
        assert "reach: affected <= 6, boundary exact: pass" in err

    def test_corrupted_mask_fails_verification(self, capsys, monkeypatch):
        # Negative control: widen the window predicate by one key and the
        # oracle no longer matches the rolling engine.
        real = attention_module.build_swa_mask

        def off_by_one(query_positions, key_positions, window):
            return real(query_positions, key_positions, window + 1)

        monkeypatch.setattr(attention_module, "build_swa_mask", off_by_one)
        code, _, err = run_cli(capsys, "verify")
        assert code == cli.EXIT_VERIFY
        assert ": fail" in err

    @pytest.mark.parametrize("fault", sorted(ONE_ULP_FAULTS))
    def test_one_ulp_fault_fails_its_check(self, capsys, monkeypatch, fault):
        # Negative controls for the bitwise contract: a single-ulp change
        # is far inside any tolerance, yet exactly its check must fail.
        owner, name, wrap, check = ONE_ULP_FAULTS[fault]
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
        code, _, err = run_cli(capsys, "verify")
        assert code == cli.EXIT_VERIFY
        failed = [line.split(":")[0] for line in err.splitlines() if line.endswith(": fail")]
        assert failed == [check]

    @pytest.mark.parametrize("fault", sorted(ONE_ULP_FAULTS))
    def test_one_ulp_fault_fails_its_check_at_the_papers_shape(self, capsys, monkeypatch, fault):
        # At 32 layers a one-ulp error passes through eight times as many
        # layers as on toy, and still exactly its check fails.
        owner, name, wrap, check = ONE_ULP_FAULTS[fault]
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
        code, _, err = run_cli(capsys, "verify", *PAPER_SHAPE)
        assert code == cli.EXIT_VERIFY
        assert [line.split(":")[0] for line in err.splitlines() if line.endswith(": fail")] == [check]

    def test_oversized_config_refused(self, capsys, tmp_path):
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(rw.config_to_json(rw.PRESET_7B))
        code, _, err = run_cli(capsys, "verify", "--config", str(cfg_path))
        assert code == cli.EXIT_USAGE
        assert "too large" in err

    def test_invalid_override_refused(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--window", "0")
        assert code == cli.EXIT_USAGE
        assert "window_size" in err


class TestBench:
    def test_production_scale_scenarios(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--bench", "16384:4096,32768:4096")
        assert code == cli.EXIT_OK
        assert out == ""
        rows = [json.loads(line) for line in err.strip().splitlines()]
        first, second = rows
        assert first["full_score_pairs"] == 134_225_920
        assert first["swa_score_pairs"] == 58_722_304
        assert first["pair_ratio"] >= 2.0
        assert second["cache_byte_ratio"] == 8.0

    def test_window_equal_to_length_gives_unit_ratios(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--bench", "4096:4096")
        row = json.loads(err.strip().splitlines()[-1])
        assert code == cli.EXIT_OK
        assert row["pair_ratio"] == 1.0
        assert row["cache_byte_ratio"] == 1.0

    def test_rows_match_closed_forms_exactly(self, capsys):
        scenarios = [(5, 2), (64, 8), (1000, 100)]
        spec = ",".join(f"{l}:{w}" for l, w in scenarios)
        _, _, err = run_cli(capsys, "bench", "--bench", spec)
        for (length, window), line in zip(scenarios, err.strip().splitlines()):
            row = json.loads(line)
            assert row["swa_score_pairs"] == rw.score_pair_count(length, window)
            assert row["full_score_pairs"] == rw.full_pair_count(length)

    def test_malformed_scenario_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--bench", "16384x4096")
        assert code == cli.EXIT_USAGE
        assert "malformed scenario" in err

    def test_execute_adds_timings(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--bench", "24:8", "--execute")
        assert code == cli.EXIT_OK
        row = json.loads(err.strip().splitlines()[-1])
        assert row["engine_seconds"] > 0
        assert row["oracle_swa_seconds"] > 0
