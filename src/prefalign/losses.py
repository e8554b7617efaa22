"""Alignment losses and reward quantities.

Sequence log-probabilities are plain sums over positions; nothing is
length-normalized, so the reference-free DPO logit is exactly the
negated difference of the two SFT losses. The batch forms pack many
sequences into one forward pass (`model.pack`); the single-sample forms
are batches of one. A reference model enters through `frozen()`, so it
contributes constants only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Conversation, InputContext, PreferenceSample
from .model import ModelParams, batch_logprob_matrix, pack

__all__ = [
    "DpoConfig",
    "sequence_logprobs",
    "pair_logprobs",
    "sequence_logprob",
    "sft_loss",
    "batch_sft_loss",
    "pack_conversations",
    "conversations_sft_loss",
    "dpo_logit",
    "dpo_logit_noref",
    "dpo_margin",
    "dpo_margin_loss",
    "dpo_loss",
    "bt_probability",
    "implicit_reward",
    "conversation_sft_loss",
    "nsft_conversations",
    "nsft_loss",
    "sample_kls",
    "per_token_kls",
    "per_token_kl",
]


@dataclass
class DpoConfig:
    beta: float
    reference: ModelParams

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")


def _pack_contexts(params, contexts, ys, masks=None):
    return pack(params, [c.image_latent for c in contexts], [c.question for c in contexts], ys,
                masks)


def _position_logprobs(params, batch):
    """log pi(y_i | y_<i, x) at every packed position, an (N,) tensor."""
    return ad.take_along_rows(batch_logprob_matrix(params, batch), batch.targets)


def sequence_logprobs(params, contexts, ys):
    """log pi(y_b | x_b) for every sample: a (B,) tensor from one packed forward."""
    batch = _pack_contexts(params, contexts, ys)
    return ad.matmul(batch.segment_matrix(), _position_logprobs(params, batch))


def pair_logprobs(params, contexts, chosen, rejected):
    """(log pi(y_c | x), log pi(y_r | x)) for every sample: two (B,)
    tensors from one packed forward."""
    batch = _pack_contexts(params, list(contexts) * 2, list(chosen) + list(rejected))
    lp = _position_logprobs(params, batch)
    seg = batch.segment_matrix()
    n = len(seg) // 2
    return ad.matmul(seg[:n], lp), ad.matmul(seg[n:], lp)


def sequence_logprob(params, context: InputContext, y):
    """log pi(y | x) as a scalar tensor (sum of per-token log-probs)."""
    return ad.tsum(_position_logprobs(params, _pack_contexts(params, [context], [y])))


def sft_loss(params, context: InputContext, y, mask=None):
    """Cross-entropy over masked answer positions: -sum log pi(y_i|y_<i,x)."""
    if mask is None:
        mask = [True] * len(y)
    if not any(mask):
        raise ValueError("mask selects no tokens")
    return batch_sft_loss(params, _pack_contexts(params, [context], [y], [mask]))


def batch_sft_loss(params, batch):
    """Cross-entropy summed over every position of a packed `Batch`."""
    return -ad.tsum(_position_logprobs(params, batch))


def pack_conversations(params, conversations):
    """One `Batch` of flattened conversations whose positions are their
    loss-carrying answer tokens."""
    questions, ys, masks = zip(*(c.flatten() for c in conversations))
    return pack(params, [c.image_latent for c in conversations], questions, ys, masks)


def conversations_sft_loss(params, conversations):
    """Sum of the masked SFT losses of many conversations, one packed forward."""
    return batch_sft_loss(params, pack_conversations(params, conversations))


def dpo_margin(lp_c, lp_r, ref_c, ref_r):
    """(lp_c - ref_c) - (lp_r - ref_r): the reference-adjusted log-ratio margin."""
    return (lp_c - ref_c) - (lp_r - ref_r)


def dpo_margin_loss(p, beta):
    """-log sigma(beta * p)."""
    return -ad.log_sigmoid(beta * p)


def _sample_pair(sample):
    return [sample.context], [sample.chosen], [sample.rejected]


def dpo_logit(policy, cfg: DpoConfig, sample: PreferenceSample):
    """log-ratio margin between chosen and rejected (reference included)."""
    ref_c, ref_r = pair_logprobs(cfg.reference.frozen(), *_sample_pair(sample))
    lp_c, lp_r = pair_logprobs(policy, *_sample_pair(sample))
    return ad.tsum(dpo_margin(lp_c, lp_r, ref_c, ref_r))


def dpo_logit_noref(policy, sample: PreferenceSample):
    """Reference-free margin: the negated difference of two SFT losses."""
    lp_c, lp_r = pair_logprobs(policy, *_sample_pair(sample))
    return ad.tsum(lp_c - lp_r)


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
    ref = sequence_logprob(cfg.reference.frozen(), context, y).item()
    return cfg.beta * (sequence_logprob(policy, context, y) - ref)


def conversation_sft_loss(params, conversation: Conversation):
    """Masked SFT loss over a flattened multi-turn conversation."""
    return conversations_sft_loss(params, [conversation])


def nsft_conversations(gt_conversation: Conversation, constructed: Conversation | None):
    """The conversations nSFT trains on: the GT one, then the constructed
    one. An empty constructed conversation is left out (with a warning)
    rather than failing."""
    if constructed is None or not constructed.turns:
        warnings.warn("constructed conversation empty; using GT term only", stacklevel=3)
        return [gt_conversation]
    return [gt_conversation, constructed]


def nsft_loss(params, gt_conversation: Conversation, constructed: Conversation | None):
    """SFT on the GT conversation plus SFT on the constructed one."""
    return conversations_sft_loss(params, nsft_conversations(gt_conversation, constructed))


def sample_kls(batch, lp_policy, lp_reference):
    """Per sample, the mean over its positions of KL(pi_policy(.|prefix) ||
    pi_ref(.|prefix)), from packed (N, V) log-prob rows: a (B,) tensor."""
    terms = ad.mul(ad.texp(lp_policy), lp_policy - lp_reference)
    rows = ad.matmul(terms, np.ones(terms.shape[1]))
    return ad.matmul(batch.segment_matrix() / np.diff(batch.offsets)[:, None], rows)


def per_token_kls(policy, reference, contexts, ys):
    """`per_token_kl` of every sample, one packed forward per model: (B,)."""
    batch = _pack_contexts(policy, contexts, ys)
    lp_r = batch_logprob_matrix(reference.frozen(), batch)
    return sample_kls(batch, batch_logprob_matrix(policy, batch), lp_r)


def per_token_kl(policy, reference, context: InputContext, y):
    """Mean over positions of KL(pi_policy(.|prefix) || pi_ref(.|prefix))."""
    return ad.tsum(per_token_kls(policy, reference, [context], [y]))
