"""Alignment losses.

Sequence log-probabilities are plain sums over positions; nothing is
length-normalized, so the reference-free DPO logit is exactly the
negated difference of the two SFT losses. Every sequence log-prob and
KL comes from `packed_logprobs`, one forward of many rows packed by
`model.pack`; the single-sample forms pack a context's caption rows. A
function that reads a reference model takes it last, and runs it
through `frozen()`, so it contributes constants only.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .data import Conversation, InputContext, PreferenceSample
from .model import Batch, batch_logprob_matrix, pack

__all__ = [
    "packed_logprobs",
    "sequence_logprob",
    "sft_loss",
    "batch_sft_loss",
    "dpo_logit",
    "dpo_margin",
    "dpo_margin_loss",
    "dpo_loss",
    "conversation_sft_loss",
    "per_token_kl",
]


def _caption_batch(params, context, ys):
    """One packed `Batch` of `context`'s caption rows, one per answer in `ys`."""
    return pack(params, [context.caption_conversation(y).flatten() for y in ys])


def packed_logprobs(params, batch, n, reference=None):
    """One forward of a packed `Batch` whose first n samples are the chosen
    captions: the (N,) position log-probs log pi(y_i | y_<i, x), the (n,)
    sequence log-probs of samples [0, n) and those of samples [n, B), and,
    with `reference`, each of the first n samples' mean over its positions of
    KL(pi(.|prefix) || pi_ref(.|prefix)) as an (n,) tensor (else None). The
    frozen reference runs on those n samples' rows only."""
    lp = batch_logprob_matrix(params, batch)
    position_lp = ad.take_along_rows(lp, batch.targets)
    seg = batch.segment_matrix()
    kls = None
    if reference is not None:
        m = batch.offsets[n]  # the first n samples' rows, as views
        head = Batch(batch.w_tok[:m], batch.w_img[:m], batch.targets[:m], batch.offsets[:n + 1])
        head_lp = lp if n == len(seg) else ad.gather_rows(lp, np.arange(m))
        terms = ad.mul(ad.texp(head_lp), head_lp - batch_logprob_matrix(reference.frozen(), head))
        rows = ad.matmul(terms, np.ones(terms.shape[1]))
        kls = ad.matmul(seg[:n, :m] / np.diff(head.offsets)[:, None], rows)
    return position_lp, ad.matmul(seg[:n], position_lp), ad.matmul(seg[n:], position_lp), kls


def sequence_logprob(params, context: InputContext, y):
    """log pi(y | x) as a scalar tensor (sum of per-token log-probs)."""
    return ad.tsum(packed_logprobs(params, _caption_batch(params, context, [y]), 1)[0])


def sft_loss(params, context: InputContext, y, mask=None):
    """Cross-entropy over masked answer positions: -sum log pi(y_i|y_<i,x)."""
    row = context.caption_conversation(y).flatten()
    if mask is not None:
        row = (*row[:3], list(mask))
    return batch_sft_loss(params, pack(params, [row]))


def batch_sft_loss(params, batch):
    """Cross-entropy summed over every position of a packed `Batch`. It
    skips `packed_logprobs`' per-sample sums, about 2% of a pretraining step."""
    return -ad.tsum(ad.take_along_rows(batch_logprob_matrix(params, batch), batch.targets))


def dpo_margin(lp_c, lp_r, ref_c, ref_r):
    """(lp_c - ref_c) - (lp_r - ref_r): the reference-adjusted log-ratio margin."""
    return (lp_c - ref_c) - (lp_r - ref_r)


def dpo_margin_loss(p, beta):
    """-log sigma(beta * p); ValueError unless beta > 0."""
    if not beta > 0:  # NaN fails too
        raise ValueError("beta must be positive")
    return -ad.log_sigmoid(beta * p)


def dpo_logit(policy, sample: PreferenceSample, reference=None):
    """log-ratio margin between chosen and rejected, minus `reference`'s;
    without one, the negated difference of the two SFT losses."""
    batch = _caption_batch(policy, sample.context, [sample.chosen, sample.rejected])
    lp_c, lp_r = packed_logprobs(policy, batch, 1)[1:3]
    if reference is None:
        return ad.tsum(lp_c - lp_r)
    ref_c, ref_r = packed_logprobs(reference.frozen(), batch, 1)[1:3]
    return ad.tsum(dpo_margin(lp_c, lp_r, ref_c, ref_r))


def dpo_loss(policy, sample: PreferenceSample, beta, reference):
    """-log sigma(beta * p_dpo)."""
    return dpo_margin_loss(dpo_logit(policy, sample, reference), beta)


def conversation_sft_loss(params, conversation: Conversation):
    """Masked SFT loss over a flattened multi-turn conversation: its one
    packed row, whose positions are the loss-carrying answer tokens."""
    return batch_sft_loss(params, pack(params, [conversation.flatten()]))


def per_token_kl(policy, context: InputContext, y, reference):
    """Mean over positions of KL(pi_policy(.|prefix) || pi_ref(.|prefix))."""
    return ad.tsum(packed_logprobs(policy, _caption_batch(policy, context, [y]), 1, reference)[3])
