"""CHAIR hallucination metrics and judge-score aggregation."""

import csv
import random

import pytest

from prefalign.metrics import (
    CaptionEval,
    ScoreSheet,
    aggregate_scores,
    chair,
    read_caption_evals_jsonl,
    read_score_sheet_jsonl,
    write_aggregate_csv,
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


def test_aggregate_all_equal():
    sheet = ScoreSheet([(4.0, 4.0)] * 12)
    agg = aggregate_scores(sheet)
    assert agg == {"mean_if": 4.0, "mean_acc": 4.0, "acc_b10": 4.0, "acc_w10": 4.0}


def test_aggregate_arithmetic_series():
    # accuracy scores 1..20 scaled into range: use 0.5 * i to stay within 0-10
    sheet = ScoreSheet([(5.0, 0.5 * i) for i in range(1, 21)])
    agg = aggregate_scores(sheet)
    assert agg["acc_b10"] == pytest.approx(0.5 * 15.5)
    assert agg["acc_w10"] == pytest.approx(0.5 * 5.5)
    assert agg["acc_w10"] <= agg["mean_acc"] <= agg["acc_b10"]


def test_aggregate_order_invariant():
    rng = random.Random(1)
    items = [(float(rng.randint(0, 10)), float(rng.randint(0, 10))) for _ in range(15)]
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert aggregate_scores(ScoreSheet(items)) == aggregate_scores(ScoreSheet(shuffled))


def test_aggregate_small_sheet_omits_b10_w10():
    agg = aggregate_scores(ScoreSheet([(1.0, 2.0)] * 5))
    assert agg["acc_b10"] is None and agg["acc_w10"] is None


def test_score_sheet_validates_range():
    with pytest.raises(ValueError):
        ScoreSheet([(11.0, 0.0)])
    with pytest.raises(ValueError):
        aggregate_scores(ScoreSheet([]))


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

    scores_path = tmp_path / "scores.jsonl"
    scores_path.write_text("".join(
        f'{{"if_score": 5, "accuracy": {i}}}\n' for i in range(10)))
    agg = aggregate_scores(read_score_sheet_jsonl(scores_path))
    agg_out = tmp_path / "agg.csv"
    write_aggregate_csv(agg, agg_out)
    with open(agg_out) as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][1]) == pytest.approx(4.5)
