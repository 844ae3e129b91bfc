"""Every demo runs to its end, in process."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_the_five_demos_are_found():
    assert [demo.name for demo in DEMOS] == [
        "classify_length2.py",
        "duality.py",
        "isotropic_counts.py",
        "predicates.py",
        "ring_tables.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if demo.name == "classify_length2.py":
        assert "exhaustive verification: ok\n" in out
