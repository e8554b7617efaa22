"""Update-rate-ratio analysis: closed forms, finite differences, and the
trajectory report; the stacked finite-difference oracle of the loss checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefalign.autodiff import finite_diff
from prefalign import checks, training
from prefalign.checks import stacked_finite_diff, stacked_losses, tiny_instance
from prefalign.data import StepRecord
from prefalign.losses import dpo_loss, per_token_kl, sft_loss
from prefalign.model import ModelParams
from prefalign.theory import (
    RatioPoint,
    bias_trajectory_report,
    dpo_loss_t,
    dpo_partials,
    update_rate_ratio,
)


def test_loss_ln2_at_equal_ratios():
    for beta in (0.1, 1.0, 3.0):
        assert abs(dpo_loss_t(RatioPoint(0.7, 0.7, beta)) - math.log(2.0)) <= 1e-12


def test_loss_vanishes_as_t2_goes_to_zero():
    assert abs(dpo_loss_t(RatioPoint(1.0, 1e-12, 1.0))) <= 1e-9


def test_loss_direct_value():
    # -log(2 / 2.5) at t1=2, t2=0.5, beta=1
    assert dpo_loss_t(RatioPoint(2.0, 0.5, 1.0)) == pytest.approx(-math.log(0.8), abs=1e-12)


def test_partials_at_symmetric_point():
    d1, d2 = dpo_partials(RatioPoint(1.0, 1.0, 1.0))
    assert d1 == pytest.approx(-0.5, abs=1e-15)
    assert d2 == pytest.approx(0.5, abs=1e-15)


def test_partials_signs_everywhere():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pt = RatioPoint(float(rng.uniform(0.05, 10)), float(rng.uniform(0.05, 10)),
                        float(rng.uniform(0.1, 3)))
        d1, d2 = dpo_partials(pt)
        assert d1 < 0.0 and d2 > 0.0


def test_partials_match_central_differences():
    h = 1e-6
    for t1, t2, beta in [(2.0, 0.5, 2.0), (0.3, 1.7, 0.5), (1.1, 1.1, 1.0)]:
        d1, d2 = dpo_partials(RatioPoint(t1, t2, beta))
        fd1 = (dpo_loss_t(RatioPoint(t1 + h, t2, beta)) - dpo_loss_t(RatioPoint(t1 - h, t2, beta))) / (2 * h)
        fd2 = (dpo_loss_t(RatioPoint(t1, t2 + h, beta)) - dpo_loss_t(RatioPoint(t1, t2 - h, beta))) / (2 * h)
        assert d1 == pytest.approx(fd1, rel=1e-7)
        assert d2 == pytest.approx(fd2, rel=1e-7)


def test_update_rate_ratio_examples():
    assert update_rate_ratio(RatioPoint(0.4, 0.4, 1.3)) == pytest.approx(1.0, abs=1e-12)
    assert update_rate_ratio(RatioPoint(4.0, 1.0, 1.0)) == pytest.approx(0.25, abs=1e-12)


def test_update_rate_ratio_sweep_identity():
    rng = np.random.default_rng(1)
    betas = [0.1, 0.5, 1.0, 2.0]
    for i in range(1000):
        pt = RatioPoint(float(rng.uniform(0.05, 20)), float(rng.uniform(0.05, 20)),
                        betas[i % 4])
        assert abs(update_rate_ratio(pt) - pt.t2 / pt.t1) <= 1e-10


def test_ratio_point_validation():
    with pytest.raises(ValueError):
        RatioPoint(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RatioPoint(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        RatioPoint(1.0, 1.0, 0.0)
    for bad in (math.nan, math.inf):
        for args in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                RatioPoint(*args)


@settings(max_examples=40, deadline=None)
@given(points=st.integers(1, 50), lo=st.sampled_from([1e-3, 0.05, 0.2]),
       hi=st.sampled_from([1.0, 5.0, 20.0, 1e3]), seed=st.integers(0, 2**32 - 1))
def test_array_points_agree_with_per_point_scalar_calls(points, lo, hi, seed):
    rng = np.random.default_rng(seed)
    t = rng.uniform(lo, hi, size=(points, 2))
    beta = rng.choice([0.1, 0.5, 1.0, 2.0, 3.7], size=points)
    pt = RatioPoint(t[:, 0], t[:, 1], beta)
    scalars = [RatioPoint(float(a), float(b), float(c)) for (a, b), c in zip(t, beta)]
    got = [dpo_loss_t(pt), *dpo_partials(pt), update_rate_ratio(pt)]
    want = np.array([[dpo_loss_t(p), *dpo_partials(p), update_rate_ratio(p)] for p in scalars]).T
    for g, w in zip(got, want):
        assert g.shape == (points,)
        assert np.all(np.abs(g - w) <= 1e-15 * np.abs(w))


def test_array_ratio_point_validation():
    RatioPoint(np.array([0.5, 1.0]), np.array([2.0, 3.0]), 0.1)
    for bad in (dict(t1=np.array([1.0, 0.0])), dict(t2=np.array([-1.0, 1.0])),
                dict(beta=np.array([0.1, 0.0])), dict(t1=np.array([1.0, np.nan])),
                dict(t2=np.array([np.inf, 1.0])), dict(beta=np.array([0.1, np.nan]))):
        with pytest.raises(ValueError):
            RatioPoint(**{"t1": np.ones(2), "t2": np.ones(2), "beta": 1.0, **bad})


def _log_from_ratios(pairs):
    log = []
    for i, (t1, t2) in enumerate(pairs):
        log.append(StepRecord(step=i, loss=0.0, lr=0.0, mean_chosen_logprob=0.0,
                              mean_rejected_logprob=0.0, t1=t1, t2=t2, p_dpo=0.0))
    return log


def test_trajectory_report_rising_t1_falling_t2():
    log = _log_from_ratios([(1.0 + 0.1 * i, 1.0 / (1.0 + 0.1 * i)) for i in range(1, 21)])
    report = bias_trajectory_report(log)
    assert report["summary"]["fraction_ratio_below_1"] == 1.0
    assert report["summary"]["n_steps"] == 20
    assert report["summary"]["warmup_steps"] == 2  # 10% default warmup


def test_trajectory_report_constant_equal_ratios():
    log = _log_from_ratios([(1.0, 1.0)] * 10)
    report = bias_trajectory_report(log)
    assert report["summary"]["fraction_ratio_below_1"] == 0.0  # ratio 1 is not < 1


def test_trajectory_report_skips_non_dpo_steps_and_rejects_empty():
    log = []
    log.append(StepRecord(step=0, loss=1.0, lr=0.1, mean_chosen_logprob=-1.0,
                          mean_rejected_logprob=-2.0))
    with pytest.raises(ValueError):
        bias_trajectory_report(log)
    log.append(StepRecord(step=1, loss=1.0, lr=0.1, mean_chosen_logprob=-1.0,
                          mean_rejected_logprob=-2.0, t1=2.0, t2=1.0))
    report = bias_trajectory_report(log)
    assert len(report["per_step"]) == 1
    assert report["per_step"][0]["ratio"] == pytest.approx(0.5)


def _loss_fns(policy, reference, sample, beta):
    """sft, dpo and kl of `sample` as zero-argument float callables."""
    return (lambda: sft_loss(policy, sample.context, sample.chosen).item(),
            lambda: dpo_loss(policy, sample, beta, reference).item(),
            lambda: per_token_kl(policy, sample.context, sample.chosen, reference).item())


def _single_losses(policy, reference, sample, beta):
    return [f() for f in _loss_fns(policy, reference, sample, beta)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_losses_rows_equal_single_sample_losses(seed):
    policy, reference, sample = tiny_instance(seed)
    other, _, _ = tiny_instance(seed + 50)
    stacked = policy.frozen()
    for t, a, b in zip(stacked.tensors(), policy.tensors(), other.tensors()):
        t.values = np.stack([a.values, b.values])
    losses = stacked_losses(reference, sample, 0.2)
    rows, unstacked = losses(stacked), losses(policy.frozen())
    for r, params in enumerate((policy, other)):
        for got, want in zip(rows, _single_losses(params, reference, sample, 0.2)):
            assert abs(got[r] - want) <= 1e-12 * abs(want)
    for got, want in zip(unstacked, _single_losses(policy, reference, sample, 0.2)):
        assert np.shape(got) == () and abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_finite_diff_equals_coordinatewise_oracle(seed):
    policy, reference, sample = tiny_instance(seed)
    before = [t.values.copy() for t in policy.tensors() + reference.tensors()]
    stacked = stacked_finite_diff(policy, reference, sample, 0.2)
    for f, grads in zip(_loss_fns(policy, reference, sample, 0.2), stacked):
        g_fd = finite_diff(f, policy.tensors(), eps=1e-4)
        for t in policy.tensors():
            assert grads[t].shape == t.shape
            assert np.max(np.abs(grads[t] - g_fd[t])) <= 1e-10
    after = [t.values for t in policy.tensors() + reference.tensors()]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


@pytest.mark.parametrize("check", [
    checks.check_frozen_reference_gradients,
    checks.check_gradient_decomposition,
    checks.check_losses_vs_finite_diff,
    checks.check_softmax_row_gradient,
])
def test_gradient_checks_fail_on_nan_gradients(monkeypatch, check):
    def nan_backward(loss, tensors):
        return {t: np.full(t.shape, np.nan) for t in tensors}

    monkeypatch.setattr(checks, "backward", nan_backward)
    ok, detail = check(seeds=2)
    assert not ok and "nan" in detail


def test_closed_form_anchors_read_the_training_margin(monkeypatch):
    # a swap of `ref_scores`' columns inside `batch_loss` moves gt_dpo off ln 2
    def swapped(lp_c, lp_r, ref_c, ref_r):
        return (lp_c - ref_r) - (lp_r - ref_c)

    assert checks.check_closed_form_anchors()[0]
    monkeypatch.setattr(training, "dpo_margin", swapped)
    ok, detail = checks.check_closed_form_anchors()
    assert not ok and not detail.startswith("|dpo-ln2|=0.000e+00")


def test_frozen_reference_check_catches_a_trainable_reference(monkeypatch):
    # a reference whose `frozen()` is itself would take gradient inside sft_kl's KL term
    assert checks.check_frozen_reference_gradients(seeds=2)[0]
    monkeypatch.setattr(ModelParams, "frozen", lambda self: self)
    assert not checks.check_frozen_reference_gradients(seeds=2)[0]
