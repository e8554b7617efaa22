"""Hallucination metrics: CHAIR and object recall."""

from __future__ import annotations

from dataclasses import dataclass

from .data import read_jsonl, write_csv

__all__ = [
    "CaptionEval",
    "ChairResult",
    "chair",
    "object_recall",
    "read_caption_evals_jsonl",
    "write_chair_csv",
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


def object_recall(evals):
    """Ground-truth objects named over ground-truth objects, pooled over
    captions; None when there is no ground-truth object. CHAIR rewards
    saying less, so recall is read beside it."""
    total = sum(len(e.ground_truth) for e in evals)
    if total == 0:
        return None
    return sum(len(e.ground_truth.intersection(set().union(*e.mentioned))) for e in evals) / total


def read_caption_evals_jsonl(path):
    return [CaptionEval(mentioned=d["mentioned"], ground_truth=d["ground_truth"])
            for d in read_jsonl(path)]


def write_chair_csv(result: ChairResult, path):
    write_csv(["chair_i", "chair_s", "chair_avg"],
              [[result.chair_i, result.chair_s, result.chair_avg]], path)
