"""Alignment losses and reward quantities.

Sequence log-probabilities are plain sums over positions; nothing is
length-normalized, so the reference-free DPO logit is exactly the
negated difference of the two SFT losses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Conversation, InputContext, PreferenceSample
from .model import ModelParams, encode_context, token_logprob_matrix, token_logprobs

__all__ = [
    "DpoConfig",
    "sequence_logprob",
    "sft_loss",
    "dpo_logit",
    "dpo_logit_noref",
    "dpo_margin",
    "dpo_margin_loss",
    "dpo_loss",
    "bt_probability",
    "implicit_reward",
    "conversation_sft_loss",
    "nsft_loss",
    "per_token_kl",
]


@dataclass
class DpoConfig:
    beta: float
    reference: ModelParams

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")


def sequence_logprob(params, context: InputContext, y):
    """log pi(y | x) as a scalar tensor (sum of per-token log-probs)."""
    x = encode_context(params, context.image_latent, context.question)
    return ad.tsum(token_logprobs(params, x, y))


def sft_loss(params, context: InputContext, y, mask=None):
    """Cross-entropy over masked answer positions: -sum log pi(y_i|y_<i,x)."""
    if mask is None:
        mask = [True] * len(y)
    if len(mask) != len(y):
        raise ValueError("mask length must equal |y|")
    if not any(mask):
        raise ValueError("mask selects no tokens")
    x = encode_context(params, context.image_latent, context.question)
    lp = token_logprobs(params, x, y)
    m = Tensor(np.asarray(mask, dtype=np.float64))
    return -ad.tsum(ad.mul(lp, m))


def _frozen(reference):
    """The reference detached: itself if grad-free, else a grad-free clone."""
    if any(t.requires_grad for t in reference.tensors()):
        return reference.clone(requires_grad=False)
    return reference


def _reference_logprob(reference, context, y):
    return sequence_logprob(_frozen(reference), context, y).item()


def dpo_margin(lp_c, lp_r, ref_c, ref_r):
    """(lp_c - ref_c) - (lp_r - ref_r): the reference-adjusted log-ratio margin."""
    return (lp_c - ref_c) - (lp_r - ref_r)


def dpo_margin_loss(p, beta):
    """-log sigma(beta * p)."""
    return -ad.log_sigmoid(beta * p)


def dpo_logit(policy, cfg: DpoConfig, sample: PreferenceSample):
    """log-ratio margin between chosen and rejected (reference included)."""
    ref_c = _reference_logprob(cfg.reference, sample.context, sample.chosen)
    ref_r = _reference_logprob(cfg.reference, sample.context, sample.rejected)
    lp_c = sequence_logprob(policy, sample.context, sample.chosen)
    lp_r = sequence_logprob(policy, sample.context, sample.rejected)
    return dpo_margin(lp_c, lp_r, ref_c, ref_r)


def dpo_logit_noref(policy, sample: PreferenceSample):
    """Reference-free margin: the negated difference of two SFT losses."""
    lp_c = sequence_logprob(policy, sample.context, sample.chosen)
    lp_r = sequence_logprob(policy, sample.context, sample.rejected)
    return lp_c - lp_r


def dpo_loss(policy, cfg: DpoConfig, sample: PreferenceSample):
    """-log sigma(beta * p_dpo)."""
    return dpo_margin_loss(dpo_logit(policy, cfg, sample), cfg.beta)


def bt_probability(reward_c, reward_r):
    """Bradley-Terry win probability, max-shifted against overflow."""
    rc, rr = float(reward_c), float(reward_r)
    m = max(rc, rr)
    ec, er = np.exp(rc - m), np.exp(rr - m)
    return float(ec / (ec + er))


def implicit_reward(policy, cfg: DpoConfig, context, y):
    """beta * log(pi_policy(y|x) / pi_ref(y|x)); the additive constant is dropped."""
    ref = _reference_logprob(cfg.reference, context, y)
    return cfg.beta * (sequence_logprob(policy, context, y) - ref)


def conversation_sft_loss(params, conversation: Conversation):
    """Masked SFT loss over a flattened multi-turn conversation."""
    first_q, y, mask = conversation.flatten()
    ctx = InputContext(conversation.image_latent, first_q)
    return sft_loss(params, ctx, y, mask)


def nsft_loss(params, gt_conversation: Conversation, constructed: Conversation | None):
    """SFT on the GT conversation plus SFT on the constructed one.

    An empty constructed conversation falls back to the GT term alone
    (with a warning) rather than failing.
    """
    loss = conversation_sft_loss(params, gt_conversation)
    if constructed is None or not constructed.turns:
        warnings.warn("constructed conversation empty; using GT term only", stacklevel=2)
        return loss
    return ad.add(loss, conversation_sft_loss(params, constructed))


def per_token_kl(policy, reference, context: InputContext, y):
    """Mean over positions of KL(pi_policy(.|prefix) || pi_ref(.|prefix))."""
    x_p = encode_context(policy, context.image_latent, context.question)
    lp_p = token_logprob_matrix(policy, x_p, y)
    ref = _frozen(reference)
    x_r = encode_context(ref, context.image_latent, context.question)
    lp_r = token_logprob_matrix(ref, x_r, y).values
    diff = lp_p - Tensor(lp_r)
    kl_terms = ad.mul(ad.texp(lp_p), diff)
    return ad.tsum(kl_terms) / len(y)
