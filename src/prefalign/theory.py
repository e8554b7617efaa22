"""Closed-form probes of the chosen/rejected update-rate analysis.

Works in the (t1, t2) parameterization, where t1 and t2 are the policy
to reference probability ratios of the chosen and rejected sequences.
The loss -log(t1^b / (t1^b + t2^b)) has partial derivatives whose
magnitude ratio collapses to t2/t1 for every beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RatioPoint",
    "dpo_loss_t",
    "dpo_partials",
    "update_rate_ratio",
    "bias_trajectory_report",
]

# Share of a DPO trajectory's first steps that the update-rate summary skips.
_WARMUP_FRAC = 0.1


@dataclass(frozen=True)
class RatioPoint:
    """One (t1, t2, beta) point, or many: each field may be a float or a
    numpy array, and the functions below broadcast over arrays, so a sweep
    is one expression per formula."""

    t1: float
    t2: float
    beta: float

    def __post_init__(self):
        if not all(np.all(np.isfinite(v) & (v > 0)) for v in (self.t1, self.t2, self.beta)):
            raise ValueError("t1, t2 and beta must be finite and strictly positive")


def dpo_loss_t(point: RatioPoint):
    """-log(t1^b / (t1^b + t2^b)), computed in log space for stability."""
    a = point.beta * np.log(point.t1)
    b = point.beta * np.log(point.t2)
    m = np.maximum(a, b)
    return -(a - (m + np.log(np.exp(a - m) + np.exp(b - m))))


def dpo_partials(point: RatioPoint):
    """(dL/dt1, dL/dt2); dL/dt1 < 0 and dL/dt2 > 0 on the whole domain."""
    t1, t2, b = point.t1, point.t2, point.beta
    denom = t1 ** b + t2 ** b
    d1 = -b * t2 ** b / (t1 * denom)
    d2 = b * t2 ** (b - 1.0) / denom
    return d1, d2


def update_rate_ratio(point: RatioPoint):
    """|dL/dt1 / dL/dt2|; algebraically equal to t2/t1."""
    d1, d2 = dpo_partials(point)
    return np.abs(d1 / d2)


def bias_trajectory_report(log):
    """Per-step (t1, t2, ratio) plus the fraction of post-warmup steps
    (all but the first `_WARMUP_FRAC` of them) with t2/t1 < 1.

    Steps lacking ratio statistics (non-DPO methods) are skipped; the
    log must contain at least one usable step.
    """
    rows = [(r.step, r.t1, r.t2) for r in log if r.t1 is not None and r.t2 is not None]
    if not rows:
        raise ValueError("trajectory log has no t1/t2 records")
    per_step = [
        {"step": s, "t1": t1, "t2": t2, "ratio": t2 / t1}
        for s, t1, t2 in rows
    ]
    warmup = int(math.floor(_WARMUP_FRAC * len(per_step)))
    tail = per_step[warmup:]
    frac = sum(1 for r in tail if r["ratio"] < 1.0) / len(tail) if tail else 0.0
    return {
        "per_step": per_step,
        "summary": {
            "n_steps": len(per_step),
            "warmup_steps": warmup,
            "fraction_ratio_below_1": frac,
        },
    }
