"""Shared data types (contexts, preference samples, conversations, logs)
and the one artifact format: compact sorted JSON, JSONL with blank lines
skipped, and CSV with floats as repr and None as an empty cell."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InputContext",
    "PreferenceSample",
    "Turn",
    "Conversation",
    "StepRecord",
    "TrajectoryLog",
    "write_json",
    "write_jsonl",
    "read_jsonl",
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


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


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


@dataclass
class PreferenceSample:
    """(x, y_c, y_r): context with chosen and rejected token sequences."""

    context: InputContext
    chosen: list[int]
    rejected: list[int]

    def __post_init__(self):
        if not self.chosen or not self.rejected:
            raise ValueError("chosen and rejected must be non-empty")

    def caption_conversation(self, caption):
        """One GT turn: this sample's question answered by `caption`."""
        ctx = self.context
        return Conversation(ctx.image_latent, [Turn(list(ctx.question), list(caption))])


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
        """Collapse turns into (question0, y, mask) for a single SFT pass.

        y concatenates answer/question/answer/... after the first
        question; only answer tokens are loss-masked.
        """
        if not self.turns:
            raise ValueError("conversation has no turns")
        first, *rest = self.turns
        y, mask = list(first.answer), [True] * len(first.answer)
        for turn in rest:
            y += [*turn.question, *turn.answer]
            mask += [False] * len(turn.question) + [True] * len(turn.answer)
        return list(first.question), y, mask


@dataclass
class StepRecord:
    step: int
    loss: float
    lr: float
    mean_chosen_logprob: float
    mean_rejected_logprob: float
    t1: float | None = None
    t2: float | None = None
    p_dpo: float | None = None
    kl_to_reference: float | None = None


@dataclass
class TrajectoryLog:
    """Per-step training record consumed by the bias-trajectory report."""

    records: list[StepRecord] = field(default_factory=list)

    def append(self, record: StepRecord):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
