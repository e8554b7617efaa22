"""Alignment losses: closed forms, identities, and brute-force oracles."""

import math

import numpy as np
import pytest

import prefalign.autodiff as ad
from prefalign.autodiff import Tensor, backward
from prefalign.checks import tiny_instance
from prefalign.data import Conversation, InputContext, Turn
from prefalign.losses import (
    conversation_sft_loss,
    dpo_logit,
    dpo_loss,
    per_token_kl,
    sequence_logprob,
    sft_loss,
)
from prefalign.model import encode_context, init_params, token_logprob_matrix

V, D, K = 16, 8, 4


def _zero_params():
    params = init_params(V, D, K, n_blocks=1, seed=0, scale=0.0)
    for t in params.tensors():
        t.values[...] = 0.0
    return params


def test_sft_loss_uniform_model_is_L_ln_V():
    params = _zero_params()
    ctx = InputContext(np.zeros(K), [1, 2])
    for L in (1, 3, 5):
        loss = sft_loss(params, ctx, list(range(L))).item()
        assert abs(loss - L * math.log(V)) <= 1e-10


def test_sft_loss_near_zero_for_saturated_model():
    # all-ones embeddings and a huge logit column make token 6 effectively
    # certain at every position
    params = _zero_params()
    params.embed.values[...] = 1.0
    params.out.values[:, 6] = 200.0
    ctx = InputContext(np.zeros(K), [1, 2])
    assert sft_loss(params, ctx, [6, 6]).item() <= 1e-10


def test_sft_loss_matches_hand_chained_log_softmax():
    params = init_params(V, D, K, n_blocks=1, seed=5, scale=0.3)
    ctx = InputContext(np.ones(K), [3])
    y = [2, 9]
    x = encode_context(params, ctx.image_latent, ctx.question)
    mat = token_logprob_matrix(params, x, y).values
    want = -(mat[0, y[0]] + mat[1, y[1]])
    assert abs(sft_loss(params, ctx, y).item() - want) <= 1e-12


def test_sft_loss_mask_contract():
    params = _zero_params()
    ctx = InputContext(np.zeros(K), [1])
    with pytest.raises(ValueError):
        sft_loss(params, ctx, [1, 2], mask=[True])
    with pytest.raises(ValueError):
        sft_loss(params, ctx, [1, 2], mask=[False, False])


def test_dpo_logit_zero_when_policy_equals_reference():
    policy, _, sample = tiny_instance(0)
    assert abs(dpo_logit(policy, sample, policy.frozen()).item()) <= 1e-12


def test_dpo_logit_zero_when_chosen_equals_rejected():
    policy, reference, sample = tiny_instance(1)
    sample.rejected = list(sample.chosen)
    assert abs(dpo_logit(policy, sample, reference).item()) <= 1e-12


def test_dpo_logit_matches_per_token_recomputation():
    policy, reference, sample = tiny_instance(2)

    def seq_lp(model, y):
        x = encode_context(model, sample.context.image_latent, sample.context.question)
        mat = token_logprob_matrix(model, x, y).values
        return sum(mat[i, t] for i, t in enumerate(y))

    want = (seq_lp(policy, sample.chosen) - seq_lp(reference, sample.chosen)) - (
        seq_lp(policy, sample.rejected) - seq_lp(reference, sample.rejected))
    assert abs(dpo_logit(policy, sample, reference).item() - want) <= 1e-10


def test_dpo_loss_ln2_at_reference():
    policy, _, sample = tiny_instance(3)
    frozen = policy.frozen()
    assert abs(dpo_loss(policy, sample, 0.1, frozen).item() - math.log(2.0)) <= 1e-12


def test_dpo_loss_strictly_decreasing_in_logit():
    values = [-ad.log_sigmoid(Tensor(0.1 * p)).item() for p in np.linspace(-50, 50, 41)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-2  # loss heads to 0 as the margin grows


def test_dpo_loss_matches_composition():
    policy, reference, sample = tiny_instance(4)
    p = dpo_logit(policy, sample, reference).item()
    want = -math.log(1.0 / (1.0 + math.exp(-0.1 * p)))
    assert abs(dpo_loss(policy, sample, 0.1, reference).item() - want) <= 1e-12


def test_dpo_logit_noref_zero_for_identical_sequences():
    policy, _, sample = tiny_instance(5)
    sample.rejected = list(sample.chosen)
    assert abs(dpo_logit(policy, sample).item()) <= 1e-12


def test_dpo_logit_noref_is_negated_sft_difference():
    for s in range(20):
        policy, _, sample = tiny_instance(s)
        p = dpo_logit(policy, sample).item()
        l_c = sft_loss(policy, sample.context, sample.chosen).item()
        l_r = sft_loss(policy, sample.context, sample.rejected).item()
        assert abs(p + (l_c - l_r)) <= 1e-10


def test_dpo_logit_with_uniform_reference_differs_by_length_constant():
    policy, _, sample = tiny_instance(6)
    sample.rejected = sample.rejected + [1]  # make lengths differ
    with_ref = dpo_logit(policy, sample, _zero_params()).item()
    noref = dpo_logit(policy, sample).item()
    constant = (len(sample.chosen) - len(sample.rejected)) * math.log(V)
    assert abs(with_ref - (noref + constant)) <= 1e-10


def _conversation(seed, n_turns=2):
    rng = np.random.default_rng(seed)
    turns = [Turn(list(rng.integers(0, V, size=2)), list(rng.integers(0, V, size=3)))
             for _ in range(n_turns)]
    return Conversation(rng.normal(size=K), turns)


def test_conversation_sft_loss_decomposes_across_turn_masks():
    params = init_params(V, D, K, n_blocks=1, seed=12, scale=0.3)
    conv = _conversation(2, n_turns=2)
    latent, first_q, y, mask = conv.flatten()
    ctx = InputContext(latent, first_q)
    total = sft_loss(params, ctx, y, mask).item()
    assert conversation_sft_loss(params, conv).item() == total
    n1 = len(conv.turns[0].answer)
    mask1 = [m if i < n1 else False for i, m in enumerate(mask)]
    mask2 = [m if i >= n1 else False for i, m in enumerate(mask)]
    parts = sft_loss(params, ctx, y, mask1).item() + sft_loss(params, ctx, y, mask2).item()
    assert abs(total - parts) <= 1e-12


def test_conversation_sft_loss_rejects_conversation_without_answer_tokens():
    # flattens to y = [3] with mask [False]: no position carries loss
    conv = Conversation(np.zeros(K), [Turn([1, 2], []), Turn([3], [])])
    with pytest.raises(ValueError, match="sample 0's mask selects no position"):
        conversation_sft_loss(init_params(V, D, K, n_blocks=1, seed=0), conv)


def test_per_token_kl_zero_at_identical_models():
    policy, _, sample = tiny_instance(13)
    frozen = policy.frozen()
    assert per_token_kl(policy, sample.context, sample.chosen, frozen).item() == 0.0


def test_per_token_kl_nonnegative_over_random_pairs():
    for s in range(20):
        policy, reference, sample = tiny_instance(s)
        assert per_token_kl(policy, sample.context, sample.chosen, reference).item() >= 0.0


def test_per_token_kl_matches_brute_force():
    policy, reference, sample = tiny_instance(14)
    y = sample.chosen[:2]
    x_p = encode_context(policy, sample.context.image_latent, sample.context.question)
    x_r = encode_context(reference, sample.context.image_latent, sample.context.question)
    lp_p = token_logprob_matrix(policy, x_p, y).values
    lp_r = token_logprob_matrix(reference, x_r, y).values
    want = float(np.sum(np.exp(lp_p) * (lp_p - lp_r))) / len(y)
    got = per_token_kl(policy, sample.context, y, reference).item()
    assert abs(got - want) <= 1e-12


def test_kl_penalty_never_decreases_total_loss():
    policy, reference, sample = tiny_instance(15)
    base = sft_loss(policy, sample.context, sample.chosen).item()
    kl = per_token_kl(policy, sample.context, sample.chosen, reference).item()
    assert kl > 0.0
    for lam in (0.0, 0.1, 1.0):
        assert base + lam * kl >= base


def test_log_sigmoid_stable_at_extremes():
    assert ad.log_sigmoid(Tensor(800.0)).item() == pytest.approx(0.0, abs=1e-12)
    assert ad.log_sigmoid(Tensor(-800.0)).item() == pytest.approx(-800.0, rel=1e-12)
    t = Tensor(-800.0, requires_grad=True)
    out = ad.log_sigmoid(t)
    assert np.isfinite(out.values)
    g = backward(out, [t])[t]
    assert np.isfinite(g) and g == pytest.approx(1.0, abs=1e-9)


def test_sequence_logprob_is_sum_of_token_logprobs():
    policy, _, sample = tiny_instance(16)
    x = encode_context(policy, sample.context.image_latent, sample.context.question)
    mat = token_logprob_matrix(policy, x, sample.chosen).values
    want = sum(mat[i, t] for i, t in enumerate(sample.chosen))
    assert abs(sequence_logprob(policy, sample.context, sample.chosen).item() - want) <= 1e-12


@pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
def test_beta_must_be_positive(beta):
    policy, reference, sample = tiny_instance(17)
    with pytest.raises(ValueError, match="beta must be positive"):
        dpo_loss(policy, sample, beta, reference)
