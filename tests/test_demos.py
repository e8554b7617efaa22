"""The fast demos run end to end and print what they promise.

`demos/continual_alignment.py` is left out: it pretrains and trains a
model, about 10 s, and the acceptance experiment covers that path.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo, expected", [
    ("construct_negatives.py", "constructed conversation"),
    ("theory_identities.py", "update-rate ratio"),
])
def test_demo_runs(demo, expected, capsys):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert expected in capsys.readouterr().out
