"""The demos run end to end and print what they promise.

`demos/continual_alignment.py` pretrains and trains a model for about
10 s at its own sizes, so it runs here at a toy `ExperimentSpec`: what
it checks is that every report key the demo reads still exists.
"""

import runpy
from pathlib import Path

import pytest

from prefalign import training

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo, expected", [
    ("construct_negatives.py", "constructed conversation"),
    ("theory_identities.py", "update-rate ratio"),
])
def test_demo_runs(demo, expected, capsys):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert expected in capsys.readouterr().out


def test_continual_alignment_demo_prints_the_method_table(monkeypatch, capsys):
    toy = training.ExperimentSpec(train_n=20, steps=5, dim=16, eval_n=20,
                                  pretrain_n=200, pretrain_steps=300)
    monkeypatch.setattr(training, "ExperimentSpec", lambda **_: toy)
    runpy.run_path(str(DEMOS / "continual_alignment.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    header = lines.index(next(line for line in lines if line.startswith("method")))
    assert lines[header].split() == ["method", "chair_i", "recall", "kl_drift", "d_chosen",
                                     "d_rejected"]
    run = [name for name, method in training.METHODS.items() if method.recipe is not None]
    rows = lines[header + 1:header + 1 + len(run)]
    assert [row.split()[0] for row in rows] == run
    assert any(line.startswith("gt_dpo update-rate ratio below 1 on") for line in lines)
