"""The benchmark's `--trace 1` run patches engine names from outside.

Renaming or deleting one of them, or changing the arguments its wrappers
read, would crash only the benchmark's traced run, so this checks, with
`perfbench/tracer.py` loaded as it is, that every name it patches still
exists, gets wrapped, and is restored, and that a traced generate and
verify run to exit 0 with every engine span counted.
"""

from conftest import ENGINE_MODULES as MODULES
from conftest import load_perfbench
from rollwin import PRESET_TOY, attention, cache, cli, config_to_json, model, tensor, weights

TRACER = load_perfbench("tracer")

#: Everything the tracer may patch: the modules it is given and the classes
#: whose methods it wraps.
OWNERS = (tensor, attention, cache, model, cli, weights, cache.RollingKvCache, model.GenerationSession)


def test_install_wraps_every_patch_point_and_uninstall_restores_it():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = None
    try:
        tracer = TRACER.install(MODULES)
        patched = list(tracer._patched)
        assert patched
        for owner, name, original in patched:
            assert owner in OWNERS, (owner, name)
            assert getattr(owner, name) is not original, name
            assert getattr(owner, name).__wrapped__ is original, name
    finally:
        if tracer is not None:
            tracer.uninstall()
        # Put back by hand whatever a failed install left patched.
        left = [
            (owner, name, value)
            for owner, saved in zip(OWNERS, before)
            for name, value in saved.items()
            if vars(owner).get(name) is not value
        ]
        for owner, name, value in left:
            setattr(owner, name, value)
    assert left == []


def test_traced_generate_and_verify_run_and_count(tmp_path):
    # The wrappers see the engine's real arguments: a traced toy generate
    # and a traced verify must still succeed, and every span they pass
    # through must be counted.
    config_path = tmp_path / "toy.json"
    config_path.write_text(config_to_json(PRESET_TOY))
    tracer = TRACER.install(MODULES)
    try:
        generated = cli.main(["generate", "--random-init", "--config", str(config_path),
                              "--prompt-ids", "1 2 3", "--max-tokens", "4"])
        verified = cli.main(["verify", "--window", "4", "--layers", "2"])
    finally:
        tracer.uninstall()
    assert (generated, verified) == (0, 0)
    spans = ("tensor.matmul", "cache.prefill_bulk", "model.prefill", "model.forward_decode",
             "model.sample_token", "attention.mask_build", "oracle.forward_swa",
             "oracle.reach_probe", "cli.run_verification")
    assert {span: tracer.calls[span] > 0 for span in spans} == dict.fromkeys(spans, True)
