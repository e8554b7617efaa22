"""Shared data types (contexts, preference samples, conversations, logs)
and the one artifact format: compact sorted JSON, one such object per
JSONL line, and CSV with floats as repr and None as an empty cell."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputContext",
    "PreferenceSample",
    "Turn",
    "Conversation",
    "flatten_pairs",
    "StepRecord",
    "write_json",
    "write_jsonl",
    "write_csv",
]


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(obj, path):
    with open(path, "w") as fh:
        fh.write(_dumps(obj))


def write_jsonl(objs, path):
    with open(path, "w") as fh:
        fh.writelines(_dumps(obj) + "\n" for obj in objs)


def write_csv(header, rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["" if v is None else v if isinstance(v, str) else repr(v) for v in row]
                         for row in rows)


@dataclass
class InputContext:
    """Model input: one image latent vector plus question token ids."""

    image_latent: np.ndarray
    question: list[int]

    def __post_init__(self):
        self.image_latent = np.asarray(self.image_latent, dtype=np.float64)
        if len(self.question) == 0:
            raise ValueError("question must be non-empty")
        if not np.all(np.isfinite(self.image_latent)):
            raise ValueError("image latent must be finite")

    def caption_conversation(self, caption):
        """One GT turn: this context's question answered by `caption`. Its
        `flatten()` is the caption's model-input row."""
        return Conversation(self.image_latent, [Turn(list(self.question), list(caption))])


@dataclass
class PreferenceSample:
    """(x, y_c, y_r): context with chosen and rejected token sequences."""

    context: InputContext
    chosen: list[int]
    rejected: list[int]

    def __post_init__(self):
        if not self.chosen or not self.rejected:
            raise ValueError("chosen and rejected must be non-empty")


@dataclass
class Turn:
    question: list[int]
    answer: list[int]


@dataclass
class Conversation:
    """Ordered Q/A turns over one image; the SFT/nSFT training unit."""

    image_latent: np.ndarray
    turns: list[Turn]

    def __post_init__(self):
        self.image_latent = np.asarray(self.image_latent, dtype=np.float64)

    def flatten(self):
        """This conversation's model-input row; see `flatten_pairs`."""
        return flatten_pairs(self.image_latent, ((t.question, t.answer) for t in self.turns))


def flatten_pairs(image_latent, pairs):
    """Collapse (question, answer) token pairs over one image into one row,
    (image_latent, question0, y, mask), the model's one input: `model.pack`
    takes a list of them. The token lists are copied, never aliased.

    y concatenates answer/question/answer/... after the first
    question; only answer tokens are loss-masked.
    """
    pairs = iter(pairs)
    first = next(pairs, None)
    if first is None:
        raise ValueError("conversation has no turns")
    question, answer = first
    y, mask = list(answer), [True] * len(answer)
    for q, a in pairs:
        y += [*q, *a]
        mask += [False] * len(q) + [True] * len(a)
    return image_latent, list(question), y, mask


@dataclass
class StepRecord:
    step: int
    loss: float
    lr: float
    mean_chosen_logprob: float
    mean_rejected_logprob: float | None = None
    t1: float | None = None
    t2: float | None = None
    p_dpo: float | None = None
    kl_to_reference: float | None = None

