"""Hallucination metrics and judge-score aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field

from .data import read_jsonl, write_csv

__all__ = [
    "CaptionEval",
    "ChairResult",
    "chair",
    "ScoreSheet",
    "aggregate_scores",
    "read_caption_evals_jsonl",
    "read_score_sheet_jsonl",
    "write_chair_csv",
    "write_aggregate_csv",
]


@dataclass
class CaptionEval:
    """Objects mentioned per sentence versus the ground-truth object set."""

    mentioned: list  # list of per-sentence sets of object ids
    ground_truth: set

    def __post_init__(self):
        self.mentioned = [set(s) for s in self.mentioned]
        self.ground_truth = set(self.ground_truth)


@dataclass
class ChairResult:
    chair_i: float | None  # None when no objects were mentioned at all
    chair_s: float
    chair_avg: float | None


def chair(evals):
    """CHAIR over a caption collection.

    chair_i = hallucinated mentions / all mentions, chair_s = sentences
    with at least one hallucinated object / all sentences, and their
    average. With zero mentions chair_i (and the average) are reported
    as absent while chair_s is still computed.
    """
    n_sentences = sum(len(e.mentioned) for e in evals)
    if n_sentences == 0:
        raise ValueError("chair_s needs at least one sentence")
    mentions = 0
    hallucinated = 0
    bad_sentences = 0
    for e in evals:
        for sent in e.mentioned:
            mentions += len(sent)
            halluc = sent - e.ground_truth
            hallucinated += len(halluc)
            if halluc:
                bad_sentences += 1
    chair_s = bad_sentences / n_sentences
    if mentions == 0:
        return ChairResult(None, chair_s, None)
    chair_i = hallucinated / mentions
    return ChairResult(chair_i, chair_s, (chair_i + chair_s) / 2.0)


@dataclass
class ScoreSheet:
    """Per-item judge scores: instruction-following and accuracy, 0-10."""

    items: list = field(default_factory=list)  # (if_score, accuracy) pairs

    def __post_init__(self):
        for f, a in self.items:
            if not (0 <= f <= 10 and 0 <= a <= 10):
                raise ValueError("scores must lie in [0, 10]")


def aggregate_scores(sheet: ScoreSheet):
    """Means plus best-10/worst-10 accuracy averages (ties by item order).

    b10/w10 are None with fewer than 10 items.
    """
    if not sheet.items:
        raise ValueError("empty score sheet")
    n = len(sheet.items)
    mean_if = sum(f for f, _ in sheet.items) / n
    mean_acc = sum(a for _, a in sheet.items) / n
    if n < 10:
        return {"mean_if": mean_if, "mean_acc": mean_acc, "acc_b10": None, "acc_w10": None}
    accs = [a for _, a in sheet.items]
    # stable sorts keep item order among ties
    best = sorted(accs, key=lambda a: -a)[:10]
    worst = sorted(accs)[:10]
    return {
        "mean_if": mean_if,
        "mean_acc": mean_acc,
        "acc_b10": sum(best) / 10.0,
        "acc_w10": sum(worst) / 10.0,
    }


def read_caption_evals_jsonl(path):
    return [CaptionEval(mentioned=d["mentioned"], ground_truth=d["ground_truth"])
            for d in read_jsonl(path)]


def read_score_sheet_jsonl(path):
    return ScoreSheet([(float(d["if_score"]), float(d["accuracy"])) for d in read_jsonl(path)])


def write_chair_csv(result: ChairResult, path):
    write_csv(["chair_i", "chair_s", "chair_avg"],
              [[result.chair_i, result.chair_s, result.chair_avg]], path)


def write_aggregate_csv(agg, path):
    cols = ["mean_if", "mean_acc", "acc_b10", "acc_w10"]
    write_csv(cols, [[agg[c] for c in cols]], path)
