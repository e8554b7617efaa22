"""Numerical identity checks tying the training loss to its closed forms.

Every loss a check reads is `training.batch_loss` of a one-view batch.
Each check returns (name, passed, detail); check-theory and the acceptance
tests both run these, so a tolerance lives in exactly one place. A running
worst error is numpy's maximum, which keeps a NaN that the builtin `max`
drops, so a NaN error fails its check.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import autodiff as ad
from .autodiff import backward, relative_error
from .data import InputContext, PreferenceSample
from .losses import dpo_margin, dpo_margin_loss, packed_logprobs
from .model import batch_logprob_matrix, init_params, pack
from .theory import RatioPoint, dpo_loss_t, dpo_partials, update_rate_ratio
from .training import METHODS, TrainConfig, batch_loss

__all__ = ["tiny_instance", "stacked_losses", "stacked_finite_diff", "run_all_checks", "CHECKS"]

# tiny-instance geometry: smallest shapes the model contract allows, and
# the length of each answer
_V, _D, _K, _SEQ_LEN = 16, 8, 4, 3
# central-difference step of the finite-difference oracle
_FD_EPS = 1e-4
# seeds of the update-rate ratio and partials sweeps
_RATIO_SEED, _PARTIALS_SEED = 0, 1


def tiny_instance(seed):
    """Random policy/reference pair with one preference sample."""
    rng = np.random.default_rng(seed)
    policy = init_params(_V, _D, _K, n_blocks=1, seed=seed, scale=0.5)
    reference = init_params(_V, _D, _K, n_blocks=1, seed=seed + 10_000, scale=0.5).frozen()
    context = InputContext(rng.normal(size=_K), list(rng.integers(0, _V, size=2)))
    chosen = [int(t) for t in rng.integers(0, _V, size=_SEQ_LEN)]
    rejected = [int(t) for t in rng.integers(0, _V, size=_SEQ_LEN)]
    if rejected == chosen:
        rejected[0] = (rejected[0] + 1) % _V
    return policy, reference, PreferenceSample(context, chosen, rejected)


@functools.cache
def _config(row, kl, beta=0.1):
    """The `TrainConfig` of the `METHODS` entry with this row and KL flag, KL weight 1."""
    name = next(k for k, m in METHODS.items() if (m.row, m.kl) == (row, kl))
    return TrainConfig(method=name, beta=beta, kl_weight=1.0)


def _views(sample):
    """One-view batches of `sample`'s caption rows: (chosen, rejected) and the swap."""
    c, r = (sample.context.caption_conversation(y).flatten()
            for y in (sample.chosen, sample.rejected))
    return [(c, r)], [(r, c)]


def _sft(params, views, reference=None):
    """The SFT family's `batch_loss` of one view: with `reference`, sft_kl's."""
    return batch_loss(params, reference, views, _config(None, reference is not None))[0]


def _dpo(params, views, beta, reference=None):
    """gt_dpo's `batch_loss` of one view over `reference`'s sequence log-probs, else zeros."""
    scores = [0.0, 0.0] if reference is None else [lp.item() for lp in packed_logprobs(
        reference.frozen(), pack(reference, views[0][:2]), 1)[1:3]]
    return batch_loss(params, None, views, _config("rejected", False, beta), np.array([scores]))


def check_logit_sft_identity(seeds=200, tol=1e-10):
    """p'_dpo + (L_sft(y_c) - L_sft(y_r)) == 0 with full masks."""
    worst = 0.0
    for s in range(seeds):
        policy, _, sample = tiny_instance(s)
        frozen, (views, swapped) = policy.frozen(), _views(sample)
        p = _dpo(frozen, views, 0.1)[1]["p_dpo"][0]
        l_c, l_r = _sft(frozen, views).item(), _sft(frozen, swapped).item()
        worst = np.maximum(worst, abs(p + (l_c - l_r)))
    return worst <= tol, f"max |p'_dpo + dL_sft| = {worst:.3e} (tol {tol:g})"


def check_frozen_reference_gradients(seeds=100, tol=1e-10):
    """sft_kl's loss with a trainable clone of the reference: the clone gets zero
    gradient and the policy the frozen view's, so the reference is constants only."""
    worst = 0.0
    for s in range(seeds):
        policy, reference, sample = tiny_instance(s)
        views, clone = _views(sample)[0], reference.clone()
        tensors = policy.tensors() + clone.tensors()  # the clone's are zero in g_frozen
        g_frozen = backward(_sft(policy, views, reference), tensors)
        g_clone = backward(_sft(policy, views, clone), tensors)
        for t in tensors:
            worst = np.maximum(worst, np.max(np.abs(g_frozen[t] - g_clone[t])))
    return worst <= tol, f"max |grad diff| = {worst:.3e} (tol {tol:g})"


def check_gradient_decomposition(seeds=100, tol=1e-6):
    """grad dpo_loss == beta * sigma(-beta p_dpo) * (grad sft_c - grad sft_r)."""
    worst = 0.0
    for s in range(seeds):
        policy, reference, sample = tiny_instance(s)
        views, swapped = _views(sample)
        beta = 0.1 + 0.4 * (s % 5) / 5.0
        loss, stats = _dpo(policy, views, beta, reference)
        scale = beta / (1.0 + math.exp(beta * stats["p_dpo"][0]))  # beta * sigma(-beta p)
        g_dpo, g_c, g_r = (backward(f, policy.tensors())
                           for f in (loss, _sft(policy, views), _sft(policy, swapped)))
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
    batch = pack(reference, [sample.context.caption_conversation(y).flatten()
                             for y in (sample.chosen, sample.rejected)])
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


def stacked_finite_diff(policy, reference, sample, beta):
    """Central differences of (sft, dpo, kl) with respect to every policy
    coordinate: three dicts mapping each policy tensor to its gradient.

    Each forward stacks up to `_FD_CHUNK` coordinates of one tensor: rows
    0..m-1 hold +`_FD_EPS` on one coordinate each, rows m..2m-1 -`_FD_EPS`
    on the same coordinates, and the other tensors stay unstacked. The
    reference is never perturbed.
    """
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
            stack[np.arange(2 * m), np.tile(idx, 2)] += np.repeat([_FD_EPS, -_FD_EPS], m)
            t.values = stack.reshape((2 * m,) + base.shape)
            f = np.stack(losses(frozen))
            fd[:, idx] = (f[:, :m] - f[:, m:]) / (2.0 * _FD_EPS)
        t.values = base
        for g, row in zip(grads, fd):
            g[leaf] = row.reshape(base.shape)
    return grads


def check_losses_vs_finite_diff(seeds=100, tol=1e-5):
    """backward matches the central-difference oracle for every loss: the SFT
    family's, gt_dpo's and the KL term, sft_kl's loss less the SFT family's.

    The oracle is `stacked_finite_diff`: every +-`_FD_EPS` copy of the policy
    runs through one batched forward per chunk of coordinates, and all
    three losses are read from the same rows.
    """
    worst, beta = 0.0, 0.2
    for s in range(seeds):
        policy, reference, sample = tiny_instance(s)
        tensors, views = policy.tensors(), _views(sample)[0]
        g_sft, g_dpo, g_sft_kl = (backward(f, tensors) for f in (
            _sft(policy, views), _dpo(policy, views, beta, reference)[0],
            _sft(policy, views, reference)))
        g_kl = {t: g_sft_kl[t] - g_sft[t] for t in tensors}
        for g_b, g_fd in zip((g_sft, g_dpo, g_kl),
                             stacked_finite_diff(policy, reference, sample, beta)):
            for t in tensors:
                # floor=1e-6: below that the FD oracle's roundoff dominates
                worst = np.maximum(worst, relative_error(g_b[t], g_fd[t], floor=1e-6))
    return worst <= tol, f"max rel err vs finite differences = {worst:.3e} (tol {tol:g})"


def _ratio_sweep(rng, points, lo, hi):
    """`points` RatioPoints as one array point: (t1, t2) drawn in that order
    per point from uniform(lo, hi), beta cycling through 0.1, 0.5, 1, 2."""
    t = rng.uniform(lo, hi, size=(points, 2))
    return RatioPoint(t[:, 0], t[:, 1], np.resize([0.1, 0.5, 1.0, 2.0], points))


def check_update_rate_ratio(points=1000, tol=1e-10):
    """|dL/dt1 / dL/dt2| == t2/t1 over a random sweep of (t1, t2, beta)."""
    pt = _ratio_sweep(np.random.default_rng(_RATIO_SEED), points, 0.05, 20.0)
    worst = np.max(np.abs(update_rate_ratio(pt) - pt.t2 / pt.t1))
    return worst <= tol, f"max |ratio - t2/t1| = {worst:.3e} (tol {tol:g})"


def check_partials_vs_finite_diff(points=200, tol=1e-7):
    pt = _ratio_sweep(np.random.default_rng(_PARTIALS_SEED), points, 0.2, 5.0)
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
    frozen, views = policy.frozen(), _views(sample)[0]
    e1 = abs(_dpo(frozen, views, 0.1, frozen)[0].item() - math.log(2.0))

    uniform = init_params(_V, _D, _K, n_blocks=1, seed=0, scale=0.0)
    for t in uniform.tensors():
        t.values[...] = 0.0
    e2 = abs(_sft(uniform, views).item() - len(sample.chosen) * math.log(_V))

    e3 = abs(_sft(frozen, views, frozen).item() - _sft(frozen, views).item())
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


def check_bradley_terry_identity(seeds=100, tol=1e-10):
    """BT probability of the two implicit rewards beta log t1 and beta log t2
    equals sigma(beta p_dpo)."""
    worst, beta = 0.0, 0.3
    for s in range(seeds):
        policy, reference, sample = tiny_instance(s)
        views = _views(sample)[0]
        stats = _dpo(policy.frozen(), views, beta, reference)[1]
        r_c, r_r = beta * np.log(stats["t1"][0]), beta * np.log(stats["t2"][0])
        m = max(r_c, r_r)  # max-shifted against overflow
        bt = math.exp(r_c - m) / (math.exp(r_c - m) + math.exp(r_r - m))
        sigma = 1.0 / (1.0 + math.exp(-beta * stats["p_dpo"][0]))
        worst = np.maximum(worst, abs(bt - sigma))
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
    ("implicit-reward-identity", check_bradley_terry_identity),
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
