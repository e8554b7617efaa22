"""Alignment losses: closed forms, identities, and brute-force oracles."""

import math

import numpy as np
import pytest

import prefalign.autodiff as ad
from prefalign.autodiff import Tensor, backward
from prefalign.checks import tiny_instance
from prefalign.data import Conversation, InputContext, Turn
from prefalign.losses import (
    DpoConfig,
    bt_probability,
    conversation_sft_loss,
    dpo_logit,
    dpo_logit_noref,
    dpo_loss,
    implicit_reward,
    nsft_loss,
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
    cfg = DpoConfig(beta=0.1, reference=policy.clone(requires_grad=False))
    assert abs(dpo_logit(policy, cfg, sample).item()) <= 1e-12


def test_dpo_logit_zero_when_chosen_equals_rejected():
    policy, reference, sample = tiny_instance(1)
    sample.rejected = list(sample.chosen)
    cfg = DpoConfig(beta=0.1, reference=reference)
    assert abs(dpo_logit(policy, cfg, sample).item()) <= 1e-12


def test_dpo_logit_matches_per_token_recomputation():
    policy, reference, sample = tiny_instance(2)
    cfg = DpoConfig(beta=0.1, reference=reference)

    def seq_lp(model, y):
        x = encode_context(model, sample.context.image_latent, sample.context.question)
        mat = token_logprob_matrix(model, x, y).values
        return sum(mat[i, t] for i, t in enumerate(y))

    want = (seq_lp(policy, sample.chosen) - seq_lp(reference, sample.chosen)) - (
        seq_lp(policy, sample.rejected) - seq_lp(reference, sample.rejected))
    assert abs(dpo_logit(policy, cfg, sample).item() - want) <= 1e-10


def test_dpo_loss_ln2_at_reference():
    policy, _, sample = tiny_instance(3)
    cfg = DpoConfig(beta=0.1, reference=policy.clone(requires_grad=False))
    assert abs(dpo_loss(policy, cfg, sample).item() - math.log(2.0)) <= 1e-12


def test_dpo_loss_strictly_decreasing_in_logit():
    values = [-ad.log_sigmoid(Tensor(0.1 * p)).item() for p in np.linspace(-50, 50, 41)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-2  # loss heads to 0 as the margin grows


def test_dpo_loss_matches_composition():
    policy, reference, sample = tiny_instance(4)
    cfg = DpoConfig(beta=0.1, reference=reference)
    p = dpo_logit(policy, cfg, sample).item()
    want = -math.log(1.0 / (1.0 + math.exp(-0.1 * p)))
    assert abs(dpo_loss(policy, cfg, sample).item() - want) <= 1e-12


def test_dpo_logit_noref_zero_for_identical_sequences():
    policy, _, sample = tiny_instance(5)
    sample.rejected = list(sample.chosen)
    assert abs(dpo_logit_noref(policy, sample).item()) <= 1e-12


def test_dpo_logit_noref_is_negated_sft_difference():
    for s in range(20):
        policy, _, sample = tiny_instance(s)
        p = dpo_logit_noref(policy, sample).item()
        l_c = sft_loss(policy, sample.context, sample.chosen).item()
        l_r = sft_loss(policy, sample.context, sample.rejected).item()
        assert abs(p + (l_c - l_r)) <= 1e-10


def test_dpo_logit_with_uniform_reference_differs_by_length_constant():
    policy, _, sample = tiny_instance(6, seq_len=3)
    sample.rejected = sample.rejected + [1]  # make lengths differ
    cfg = DpoConfig(beta=0.1, reference=_zero_params())
    with_ref = dpo_logit(policy, cfg, sample).item()
    noref = dpo_logit_noref(policy, sample).item()
    constant = (len(sample.chosen) - len(sample.rejected)) * math.log(V)
    assert abs(with_ref - (noref + constant)) <= 1e-10


def test_bt_probability_values():
    assert bt_probability(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert bt_probability(math.log(3.0), 0.0) == pytest.approx(0.75, abs=1e-12)
    assert bt_probability(1000.0, 998.0) == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)


def test_implicit_reward_zero_at_reference_and_linear_in_beta():
    policy, _, sample = tiny_instance(7)
    frozen = policy.clone(requires_grad=False)
    cfg1 = DpoConfig(beta=0.3, reference=frozen)
    assert abs(implicit_reward(policy, cfg1, sample.context, sample.chosen).item()) <= 1e-12
    _, reference, _ = tiny_instance(8)
    cfg_a = DpoConfig(beta=0.3, reference=reference)
    cfg_b = DpoConfig(beta=0.6, reference=reference)
    r_a = implicit_reward(policy, cfg_a, sample.context, sample.chosen).item()
    r_b = implicit_reward(policy, cfg_b, sample.context, sample.chosen).item()
    assert abs(r_b - 2.0 * r_a) <= 1e-10


def test_bt_of_implicit_rewards_equals_sigma_beta_logit():
    policy, reference, sample = tiny_instance(9)
    cfg = DpoConfig(beta=0.3, reference=reference)
    r_c = implicit_reward(policy, cfg, sample.context, sample.chosen).item()
    r_r = implicit_reward(policy, cfg, sample.context, sample.rejected).item()
    p = dpo_logit(policy, cfg, sample).item()
    sigma = 1.0 / (1.0 + math.exp(-cfg.beta * p))
    assert abs(bt_probability(r_c, r_r) - sigma) <= 1e-10


def _conversation(seed, n_turns=2):
    rng = np.random.default_rng(seed)
    turns = [Turn(list(rng.integers(0, V, size=2)), list(rng.integers(0, V, size=3)))
             for _ in range(n_turns)]
    return Conversation(rng.normal(size=K), turns)


def test_nsft_loss_doubles_when_constructed_equals_gt():
    params = init_params(V, D, K, n_blocks=1, seed=11, scale=0.3)
    conv = _conversation(0)
    want = 2.0 * conversation_sft_loss(params, conv).item()
    assert abs(nsft_loss(params, conv, conv).item() - want) <= 1e-12


def test_nsft_loss_empty_constructed_falls_back_with_warning():
    params = init_params(V, D, K, n_blocks=1, seed=11, scale=0.3)
    conv = _conversation(1)
    empty = Conversation(conv.image_latent, [])
    gt_only = conversation_sft_loss(params, conv).item()
    for constructed in (None, empty):
        with pytest.warns(UserWarning):
            value = nsft_loss(params, conv, constructed).item()
        assert abs(value - gt_only) <= 1e-15


def test_conversation_sft_loss_decomposes_across_turn_masks():
    params = init_params(V, D, K, n_blocks=1, seed=12, scale=0.3)
    conv = _conversation(2, n_turns=2)
    first_q, y, mask = conv.flatten()
    ctx = InputContext(conv.image_latent, first_q)
    total = sft_loss(params, ctx, y, mask).item()
    n1 = len(conv.turns[0].answer)
    mask1 = [m if i < n1 else False for i, m in enumerate(mask)]
    mask2 = [m if i >= n1 else False for i, m in enumerate(mask)]
    parts = sft_loss(params, ctx, y, mask1).item() + sft_loss(params, ctx, y, mask2).item()
    assert abs(total - parts) <= 1e-12


def test_per_token_kl_zero_at_identical_models():
    policy, _, sample = tiny_instance(13)
    frozen = policy.clone(requires_grad=False)
    assert per_token_kl(policy, frozen, sample.context, sample.chosen).item() == 0.0


def test_per_token_kl_nonnegative_over_random_pairs():
    for s in range(20):
        policy, reference, sample = tiny_instance(s)
        assert per_token_kl(policy, reference, sample.context, sample.chosen).item() >= 0.0


def test_per_token_kl_matches_brute_force():
    policy, reference, sample = tiny_instance(14)
    y = sample.chosen[:2]
    x_p = encode_context(policy, sample.context.image_latent, sample.context.question)
    x_r = encode_context(reference, sample.context.image_latent, sample.context.question)
    lp_p = token_logprob_matrix(policy, x_p, y).values
    lp_r = token_logprob_matrix(reference, x_r, y).values
    want = float(np.sum(np.exp(lp_p) * (lp_p - lp_r))) / len(y)
    got = per_token_kl(policy, reference, sample.context, y).item()
    assert abs(got - want) <= 1e-12


def test_kl_penalty_never_decreases_total_loss():
    policy, reference, sample = tiny_instance(15)
    base = sft_loss(policy, sample.context, sample.chosen).item()
    kl = per_token_kl(policy, reference, sample.context, sample.chosen).item()
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


def test_dpo_config_rejects_nonpositive_beta():
    policy, _, _ = tiny_instance(17)
    with pytest.raises(ValueError):
        DpoConfig(beta=0.0, reference=policy)
