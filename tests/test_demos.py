"""Smoke test: every narrative demo runs to completion.

The demos call the public names a refactor must keep (prefill_bulk, gather,
build_swa_mask, prefill, forward_decode), so running them
catches a broken public surface that the unit tests do not exercise.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0[1-5]_*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
