"""The benchmark's `--trace 1` run patches engine names from outside.

Renaming or deleting one of them would crash only the benchmark's traced
run, so this checks, with `perfbench/tracer.py` loaded as it is, that every
name it patches still exists, gets wrapped, and is restored.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from rollwin import attention, cache, cli, model, tensor, weights

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

#: Everything the tracer may patch: the modules it is given and the classes
#: whose methods it wraps.
OWNERS = (tensor, attention, cache, model, cli, weights, cache.RollingKvCache, model.GenerationSession)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_patch_point_and_uninstall_restores_it():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = None
    try:
        tracer = _load_tracer().install(
            SimpleNamespace(tensor=tensor, attention=attention, cache=cache, model=model, cli=cli, weights=weights)
        )
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
