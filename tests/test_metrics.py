"""CHAIR hallucination metrics and object recall."""

import random

import pytest

from prefalign.metrics import (
    CaptionEval,
    chair,
    object_recall,
)


def test_chair_no_hallucinations():
    result = chair([CaptionEval({1, 2}, {1, 2, 3})])
    assert (result.chair_i, result.chair_s) == (0.0, 0.0)


def test_chair_dog_frisbee_car_case():
    result = chair([CaptionEval({1, 2, 3}, {1, 2})])  # dog, frisbee, car vs dog, frisbee
    assert result.chair_i == pytest.approx(1.0 / 3.0)
    assert result.chair_s == 1.0


def test_chair_all_hallucinated():
    result = chair([CaptionEval({5, 6, 7}, set())])
    assert (result.chair_i, result.chair_s) == (1.0, 1.0)


def test_chair_s_counts_captions():
    result = chair([CaptionEval({1, 9}, {1}), CaptionEval({2}, {2})])
    assert (result.chair_i, result.chair_s) == (1 / 3, 0.5)


def test_object_recall_counts_named_ground_truth_objects():
    evals = [CaptionEval({1, 9, 2}, {1, 2, 3}), CaptionEval(set(), {4})]
    assert object_recall(evals) == 2 / 4  # objects 1 and 2 named, 3 and 4 missed
    assert object_recall([CaptionEval(set(), {1, 2})]) == 0.0
    assert object_recall([CaptionEval({1}, set())]) is None


def test_chair_zero_mentions_reports_absent_i():
    result = chair([CaptionEval(set(), {1})])
    assert result.chair_i is None
    assert result.chair_s == 0.0


def test_chair_requires_a_sentence():  # a caption is one sentence
    with pytest.raises(ValueError):
        chair([])


def test_chair_monotone_in_hallucinated_mentions():
    base = chair([CaptionEval({1, 2}, {1, 2})])
    worse = chair([CaptionEval({1, 2, 9}, {1, 2})])
    assert worse.chair_i > base.chair_i


def test_chair_bounds_over_random_inputs():
    rng = random.Random(0)
    for _ in range(100):
        evals = [CaptionEval(rng.sample(range(10), rng.randint(0, 5)),
                             rng.sample(range(10), 4))
                 for _ in range(rng.randint(1, 3))]
        r = chair(evals)
        assert 0.0 <= r.chair_s <= 1.0
        if r.chair_i is not None:
            assert 0.0 <= r.chair_i <= 1.0

