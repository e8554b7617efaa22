"""Numerical identity checks tying the losses to their closed forms.

Each check returns (name, passed, detail). The CLI's check-theory
subcommand and the acceptance tests both run these, so a tolerance
lives in exactly one place. A running worst error is taken with
numpy's maximum, which keeps a NaN where the builtin `max` drops it, so
a NaN error fails its check.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import backward, relative_error
from .data import InputContext, PreferenceSample
from .losses import (
    DpoConfig,
    bt_probability,
    dpo_logit,
    dpo_logit_noref,
    dpo_loss,
    dpo_margin,
    dpo_margin_loss,
    implicit_reward,
    per_token_kl,
    sft_loss,
)
from .model import batch_logprob_matrix, init_params, pack
from .theory import RatioPoint, dpo_loss_t, dpo_partials, update_rate_ratio

__all__ = ["tiny_instance", "stacked_losses", "stacked_finite_diff", "run_all_checks", "CHECKS"]

# tiny-instance geometry: smallest shapes the model contract allows
_V, _D, _K = 16, 8, 4


def tiny_instance(seed, seq_len=3):
    """Random policy/reference pair with one preference sample."""
    rng = np.random.default_rng(seed)
    policy = init_params(_V, _D, _K, n_blocks=1, seed=seed, scale=0.5)
    reference = init_params(_V, _D, _K, n_blocks=1, seed=seed + 10_000, scale=0.5, requires_grad=False)
    context = InputContext(rng.normal(size=_K), list(rng.integers(0, _V, size=2)))
    chosen = [int(t) for t in rng.integers(0, _V, size=seq_len)]
    rejected = [int(t) for t in rng.integers(0, _V, size=seq_len)]
    if rejected == chosen:
        rejected[0] = (rejected[0] + 1) % _V
    sample = PreferenceSample(context, chosen, rejected)
    return policy, reference, sample


def check_logit_sft_identity(seeds=200, tol=1e-10):
    """p'_dpo + (L_sft(y_c) - L_sft(y_r)) == 0 with full masks."""
    worst = 0.0
    for s in range(seeds):
        policy, _, sample = tiny_instance(s)
        p = dpo_logit_noref(policy, sample).item()
        l_c = sft_loss(policy, sample.context, sample.chosen).item()
        l_r = sft_loss(policy, sample.context, sample.rejected).item()
        worst = np.maximum(worst, abs(p + (l_c - l_r)))
    return worst <= tol, f"max |p'_dpo + dL_sft| = {worst:.3e} (tol {tol:g})"


def check_frozen_reference_gradients(seeds=100, tol=1e-10):
    """grad of dpo_logit equals grad of dpo_logit_noref: the reference
    contributes constants only."""
    worst = 0.0
    for s in range(seeds):
        policy, reference, sample = tiny_instance(s)
        cfg = DpoConfig(beta=0.1, reference=reference)
        g_ref = backward(dpo_logit(policy, cfg, sample), policy.tensors())
        g_noref = backward(dpo_logit_noref(policy, sample), policy.tensors())
        for t in policy.tensors():
            worst = np.maximum(worst, np.max(np.abs(g_ref[t] - g_noref[t])))
    return worst <= tol, f"max |grad diff| = {worst:.3e} (tol {tol:g})"


def check_gradient_decomposition(seeds=100, tol=1e-6):
    """grad dpo_loss == beta * sigma(-beta p_dpo) * (grad sft_c - grad sft_r)."""
    worst = 0.0
    for s in range(seeds):
        policy, reference, sample = tiny_instance(s)
        beta = 0.1 + 0.4 * (s % 5) / 5.0
        cfg = DpoConfig(beta=beta, reference=reference)
        p = dpo_logit(policy, cfg, sample).item()
        scale = beta / (1.0 + math.exp(beta * p))  # beta * sigma(-beta p)
        g_dpo = backward(dpo_loss(policy, cfg, sample), policy.tensors())
        g_c = backward(sft_loss(policy, sample.context, sample.chosen), policy.tensors())
        g_r = backward(sft_loss(policy, sample.context, sample.rejected), policy.tensors())
        for t in policy.tensors():
            worst = np.maximum(worst, relative_error(g_dpo[t], scale * (g_c[t] - g_r[t])))
    return worst <= tol, f"max componentwise rel err = {worst:.3e} (tol {tol:g})"


# At most this many coordinates (twice as many rows) per stacked forward.
# At 32, `check-theory --seeds 2` peaks at 36.7 MB RSS, no more than with
# one forward per coordinate (36.8-36.9 MB); 64 raised that to 37.0 MB and
# a whole 128-coordinate tensor to 37.4 MB. At 32 the 100-seed check
# already takes 0.5-0.6 s, against about 55 s for one forward per coordinate.
_FD_CHUNK = 32


def stacked_losses(reference, sample, beta):
    """A function mapping a grad-free `ModelParams` to the sft, dpo and kl
    of `sample` for each of its rows.

    Any tensor of those params may carry a leading stack axis of R rows,
    since the packed forward broadcasts over it; the function then returns
    three arrays of shape (R,), or scalars when nothing is stacked. The
    pair batch and the unstacked reference's log-probabilities are built
    once, here.
    """
    batch = pack(reference, [sample.context.image_latent] * 2, [sample.context.question] * 2,
                 [sample.chosen, sample.rejected])
    rows, n = np.arange(len(batch.targets)), batch.offsets[1]
    lp_ref = batch_logprob_matrix(reference.frozen(), batch).values
    pos_ref = lp_ref[rows, batch.targets]
    ref_c, ref_r = pos_ref[:n].sum(), pos_ref[n:].sum()

    def losses(params):
        lp = batch_logprob_matrix(params, batch).values
        pos = lp[..., rows, batch.targets]
        sft = -pos[..., :n].sum(-1)
        margin = dpo_margin(pos[..., :n].sum(-1), pos[..., n:].sum(-1), ref_c, ref_r)
        dpo = dpo_margin_loss(ad.Tensor(margin), beta).values
        kl = (np.exp(lp[..., :n, :]) * (lp[..., :n, :] - lp_ref[:n])).sum(-1).mean(-1)
        return sft, dpo, kl

    return losses


def stacked_finite_diff(policy, reference, sample, beta, eps=1e-4):
    """Central differences of (sft, dpo, kl) with respect to every policy
    coordinate: three dicts mapping each policy tensor to its gradient.

    Each forward stacks up to `_FD_CHUNK` coordinates of one tensor: rows
    0..m-1 hold +eps on one coordinate each, rows m..2m-1 -eps on the same
    coordinates, and the other tensors stay unstacked. The reference is
    never perturbed.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    losses = stacked_losses(reference, sample, beta)
    frozen = policy.frozen()
    grads = ({}, {}, {})
    for t, leaf in zip(frozen.tensors(), policy.tensors()):
        base = leaf.values
        fd = np.zeros((3, base.size))
        for lo in range(0, base.size, _FD_CHUNK):
            idx = np.arange(lo, min(lo + _FD_CHUNK, base.size))
            m = len(idx)
            stack = np.repeat(base.reshape(1, -1), 2 * m, axis=0)
            stack[np.arange(2 * m), np.tile(idx, 2)] += np.repeat([eps, -eps], m)
            t.values = stack.reshape((2 * m,) + base.shape)
            f = np.stack(losses(frozen))
            fd[:, idx] = (f[:, :m] - f[:, m:]) / (2.0 * eps)
        t.values = base
        for g, row in zip(grads, fd):
            g[leaf] = row.reshape(base.shape)
    return grads


def check_losses_vs_finite_diff(seeds=100, tol=1e-5, eps=1e-4):
    """backward matches the central-difference oracle for every loss.

    The oracle is `stacked_finite_diff`: every +-eps copy of the policy
    runs through one batched forward per chunk of coordinates, and all
    three losses are read from the same rows.
    """
    worst = 0.0
    for s in range(seeds):
        policy, reference, sample = tiny_instance(s)
        cfg = DpoConfig(beta=0.2, reference=reference)
        tensors = policy.tensors()
        losses = (sft_loss(policy, sample.context, sample.chosen),
                  dpo_loss(policy, cfg, sample),
                  per_token_kl(policy, reference, sample.context, sample.chosen))
        for loss, g_fd in zip(losses, stacked_finite_diff(policy, reference, sample, cfg.beta,
                                                          eps=eps)):
            g_b = backward(loss, tensors)
            for t in tensors:
                # floor=1e-6: below that the FD oracle's roundoff dominates
                worst = np.maximum(worst, relative_error(g_b[t], g_fd[t], floor=1e-6))
    return worst <= tol, f"max rel err vs finite differences = {worst:.3e} (tol {tol:g})"


def _ratio_sweep(rng, points, lo, hi):
    """`points` RatioPoints as one array point: (t1, t2) drawn in that order
    per point from uniform(lo, hi), beta cycling through 0.1, 0.5, 1, 2."""
    t = rng.uniform(lo, hi, size=(points, 2))
    return RatioPoint(t[:, 0], t[:, 1], np.resize([0.1, 0.5, 1.0, 2.0], points))


def check_update_rate_ratio(points=1000, tol=1e-10, seed=0):
    """|dL/dt1 / dL/dt2| == t2/t1 over a random sweep of (t1, t2, beta)."""
    pt = _ratio_sweep(np.random.default_rng(seed), points, 0.05, 20.0)
    worst = np.max(np.abs(update_rate_ratio(pt) - pt.t2 / pt.t1))
    return worst <= tol, f"max |ratio - t2/t1| = {worst:.3e} (tol {tol:g})"


def check_partials_vs_finite_diff(points=200, tol=1e-7, seed=1):
    pt = _ratio_sweep(np.random.default_rng(seed), points, 0.2, 5.0)
    h = 1e-6
    d1, d2 = dpo_partials(pt)
    fd1 = (dpo_loss_t(RatioPoint(pt.t1 + h, pt.t2, pt.beta))
           - dpo_loss_t(RatioPoint(pt.t1 - h, pt.t2, pt.beta))) / (2 * h)
    fd2 = (dpo_loss_t(RatioPoint(pt.t1, pt.t2 + h, pt.beta))
           - dpo_loss_t(RatioPoint(pt.t1, pt.t2 - h, pt.beta))) / (2 * h)
    worst = np.maximum(relative_error(d1, fd1), relative_error(d2, fd2))
    return worst <= tol, f"max rel err of partials = {worst:.3e} (tol {tol:g})"


def check_closed_form_anchors():
    """ln 2 at policy==reference; L ln V for a uniform model; KL(pi,pi)=0."""
    policy, _, sample = tiny_instance(7)
    frozen = policy.clone(requires_grad=False)
    cfg = DpoConfig(beta=0.1, reference=frozen)
    e1 = abs(dpo_loss(policy, cfg, sample).item() - math.log(2.0))

    uniform = init_params(_V, _D, _K, n_blocks=1, seed=0, scale=0.0)
    for t in uniform.tensors():
        t.values[...] = 0.0
    L = len(sample.chosen)
    e2 = abs(sft_loss(uniform, sample.context, sample.chosen).item() - L * math.log(_V))

    e3 = abs(per_token_kl(policy, frozen, sample.context, sample.chosen).item())
    ok = e1 <= 1e-12 and e2 <= 1e-10 and e3 == 0.0
    return ok, f"|dpo-ln2|={e1:.3e} (tol 1e-12), |sft-LlnV|={e2:.3e} (tol 1e-10), kl={e3:.3e} (exact 0)"


def check_softmax_row_gradient(seeds=50, tol=1e-12):
    """Cross-entropy gradients through a softmax row sum to zero."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(seeds):
        logits = ad.Tensor(rng.normal(size=(4, _V)), requires_grad=True)
        targets = [int(t) for t in rng.integers(0, _V, size=4)]
        loss = -ad.tsum(ad.take_along_rows(ad.log_softmax(logits), targets))
        g = backward(loss, [logits])[logits]
        worst = np.maximum(worst, np.max(np.abs(g.sum(axis=1))))
    return worst <= tol, f"max |row grad sum| = {worst:.3e} (tol {tol:g})"


def check_implicit_reward_identity(seeds=100, tol=1e-10):
    """BT probability of the two implicit rewards equals sigma(beta p_dpo)."""
    worst = 0.0
    for s in range(seeds):
        policy, reference, sample = tiny_instance(s)
        cfg = DpoConfig(beta=0.3, reference=reference)
        r_c = implicit_reward(policy, cfg, sample.context, sample.chosen).item()
        r_r = implicit_reward(policy, cfg, sample.context, sample.rejected).item()
        p = dpo_logit(policy, cfg, sample).item()
        sigma = 1.0 / (1.0 + math.exp(-cfg.beta * p))
        worst = np.maximum(worst, abs(bt_probability(r_c, r_r) - sigma))
    return worst <= tol, f"max |BT - sigma(beta p)| = {worst:.3e} (tol {tol:g})"


CHECKS = [
    ("logit-sft-identity", check_logit_sft_identity),
    ("frozen-reference-gradients", check_frozen_reference_gradients),
    ("gradient-decomposition", check_gradient_decomposition),
    ("losses-vs-finite-diff", check_losses_vs_finite_diff),
    ("update-rate-ratio", check_update_rate_ratio),
    ("partials-vs-finite-diff", check_partials_vs_finite_diff),
    ("closed-form-anchors", check_closed_form_anchors),
    ("softmax-row-gradient", check_softmax_row_gradient),
    ("implicit-reward-identity", check_implicit_reward_identity),
]


def run_all_checks(seeds=None):
    """Run every identity check; `seeds` overrides the per-check default
    instance count where applicable. Raises ValueError on `seeds` < 1,
    under which every check would pass without checking anything."""
    if seeds is not None and seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    results = []
    for name, fn in CHECKS:
        if seeds is not None and "seeds" in fn.__code__.co_varnames[:fn.__code__.co_argcount]:
            ok, detail = fn(seeds=seeds)
        else:
            ok, detail = fn()
        results.append((name, ok, detail))
    return results
