"""CHAIR hallucination metrics and object recall."""

import csv
import random

import pytest

from prefalign.metrics import (
    CaptionEval,
    chair,
    object_recall,
    read_caption_evals_jsonl,
    write_chair_csv,
)


def test_chair_no_hallucinations():
    result = chair([CaptionEval([{1, 2}], {1, 2, 3})])
    assert (result.chair_i, result.chair_s, result.chair_avg) == (0.0, 0.0, 0.0)


def test_chair_dog_frisbee_car_case():
    result = chair([CaptionEval([{1, 2, 3}], {1, 2})])  # dog, frisbee, car vs dog, frisbee
    assert result.chair_i == pytest.approx(1.0 / 3.0)
    assert result.chair_s == 1.0
    assert result.chair_avg == pytest.approx(2.0 / 3.0)


def test_chair_all_hallucinated():
    result = chair([CaptionEval([{5}, {6, 7}], set())])
    assert (result.chair_i, result.chair_s, result.chair_avg) == (1.0, 1.0, 1.0)


def test_object_recall_counts_named_ground_truth_objects():
    evals = [CaptionEval([{1, 9}, {2}], {1, 2, 3}), CaptionEval([set()], {4})]
    assert object_recall(evals) == 2 / 4  # objects 1 and 2 named, 3 and 4 missed
    assert object_recall([CaptionEval([set()], {1, 2})]) == 0.0
    assert object_recall([CaptionEval([{1}], set())]) is None


def test_chair_zero_mentions_reports_absent_i():
    result = chair([CaptionEval([set(), set()], {1})])
    assert result.chair_i is None and result.chair_avg is None
    assert result.chair_s == 0.0


def test_chair_requires_a_sentence():
    with pytest.raises(ValueError):
        chair([CaptionEval([], {1})])


def test_chair_monotone_in_hallucinated_mentions():
    base = chair([CaptionEval([{1, 2}], {1, 2})])
    worse = chair([CaptionEval([{1, 2, 9}], {1, 2})])
    assert worse.chair_i > base.chair_i


def test_chair_bounds_over_random_inputs():
    rng = random.Random(0)
    for _ in range(100):
        evals = [CaptionEval([set(rng.sample(range(10), rng.randint(0, 5)))
                              for _ in range(rng.randint(1, 3))],
                             set(rng.sample(range(10), 4)))
                 for _ in range(3)]
        r = chair(evals)
        assert 0.0 <= r.chair_s <= 1.0
        if r.chair_i is not None:
            assert 0.0 <= r.chair_i <= 1.0


def test_jsonl_and_csv_io(tmp_path):
    evals_path = tmp_path / "evals.jsonl"
    evals_path.write_text('\n{"mentioned": [[1, 2, 3]], "ground_truth": [1, 2]}\n\n')
    result = chair(read_caption_evals_jsonl(evals_path))
    out = tmp_path / "chair.csv"
    write_chair_csv(result, out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["chair_i", "chair_s", "chair_avg"]
    assert float(rows[1][0]) == pytest.approx(1.0 / 3.0)

    empty_path = tmp_path / "empty.jsonl"
    empty_path.write_text('{"mentioned": [[]], "ground_truth": [1, 2]}\n')
    write_chair_csv(chair(read_caption_evals_jsonl(empty_path)), out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["", "0.0", ""]
