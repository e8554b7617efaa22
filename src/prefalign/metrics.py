"""Hallucination metrics: CHAIR and object recall."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CaptionEval",
    "ChairResult",
    "chair",
    "object_recall",
]


@dataclass
class CaptionEval:
    """Objects one caption mentions versus the ground-truth object set."""

    mentioned: set
    ground_truth: set

    def __post_init__(self):
        self.mentioned = set(self.mentioned)
        self.ground_truth = set(self.ground_truth)


@dataclass
class ChairResult:
    chair_i: float | None  # None when no objects were mentioned at all
    chair_s: float


def chair(evals):
    """CHAIR over a caption collection.

    chair_i = hallucinated mentions / all mentions and chair_s = captions
    with at least one hallucinated object / all captions. With zero
    mentions chair_i is reported as absent while chair_s is still computed.
    """
    if not evals:
        raise ValueError("chair needs at least one caption")
    mentions = sum(len(e.mentioned) for e in evals)
    hallucinated = [len(e.mentioned - e.ground_truth) for e in evals]
    chair_s = sum(h > 0 for h in hallucinated) / len(evals)
    if mentions == 0:
        return ChairResult(None, chair_s)
    return ChairResult(sum(hallucinated) / mentions, chair_s)


def object_recall(evals):
    """Ground-truth objects named over ground-truth objects, pooled over
    captions; None when there is no ground-truth object. CHAIR rewards
    saying less, so recall is read beside it."""
    total = sum(len(e.ground_truth) for e in evals)
    if total == 0:
        return None
    return sum(len(e.ground_truth & e.mentioned) for e in evals) / total
