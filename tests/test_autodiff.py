"""Reverse-mode engine: op adjoints, the finite-difference oracle, and
their mutual agreement."""

import numpy as np
import pytest

import prefalign.autodiff as ad
from prefalign.autodiff import Tensor, backward, finite_diff, relative_error
from prefalign.checks import tiny_instance
from prefalign.losses import DpoConfig, dpo_loss


def test_backward_sum_is_ones():
    w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    g = backward(ad.tsum(w), [w])[w]
    assert np.array_equal(g, np.ones(3))


def test_backward_dot_square():
    w = Tensor([2.0, -1.0], requires_grad=True)
    loss = ad.tsum(ad.mul(w, w))
    g = backward(loss, [w])[w]
    assert np.array_equal(g, np.array([4.0, -2.0]))


def _two_layer_loss(w1, w2, x, targets):
    h = ad.sigmoid(ad.matmul(Tensor(x), w1))
    logits = ad.matmul(h, w2)
    return -ad.tsum(ad.take_along_rows(ad.log_softmax(logits), targets))


def test_backward_matches_finite_diff_two_layer():
    rng = np.random.default_rng(0)
    w1 = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(6, 7)), requires_grad=True)
    x = rng.normal(size=(3, 5))
    targets = [0, 3, 6]
    g = backward(_two_layer_loss(w1, w2, x, targets), [w1, w2])
    g_fd = finite_diff(lambda: _two_layer_loss(w1, w2, x, targets).item(), [w1, w2])
    for t in (w1, w2):
        assert relative_error(g[t], g_fd[t], floor=1e-6) <= 1e-5


def test_finite_diff_square():
    w = Tensor(3.0, requires_grad=True)
    g = finite_diff(lambda: float(w.values) ** 2, [w], eps=1e-4)
    assert abs(g[w] - 6.0) <= 1e-6


def test_finite_diff_constant_is_zero():
    w = Tensor([1.0, -2.0], requires_grad=True)
    g = finite_diff(lambda: 5.0, [w])
    assert np.array_equal(g[w], np.zeros(2))


def test_finite_diff_agrees_with_backward_on_dpo_loss():
    policy, reference, sample = tiny_instance(3)
    cfg = DpoConfig(beta=0.2, reference=reference)
    tensors = policy.tensors()
    g = backward(dpo_loss(policy, cfg, sample), tensors)
    g_fd = finite_diff(lambda: dpo_loss(policy, cfg, sample).item(), tensors, eps=1e-4)
    for t in tensors:
        assert relative_error(g[t], g_fd[t], floor=1e-6) <= 1e-5


def test_softmax_cross_entropy_row_gradients_sum_to_zero():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(4, 9)), requires_grad=True)
    loss = -ad.tsum(ad.take_along_rows(ad.log_softmax(logits), [0, 2, 5, 8]))
    g = backward(loss, [logits])[logits]
    assert np.max(np.abs(g.sum(axis=1))) <= 1e-12


def test_disconnected_parameter_gets_zero_gradient():
    w = Tensor([1.0, 1.0], requires_grad=True)
    unused = Tensor([5.0], requires_grad=True)
    g = backward(ad.tsum(w), [w, unused])
    assert np.array_equal(g[unused], np.zeros(1))


def test_backward_rejects_non_scalar_loss():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        backward(ad.mul(w, w), [w])


def test_repeated_backward_identical():
    w = Tensor([0.3, -0.7], requires_grad=True)
    loss = ad.tsum(ad.sigmoid(ad.mul(w, w)))
    g1 = backward(loss, [w])[w]
    g2 = backward(loss, [w])[w]
    assert np.array_equal(g1, g2)


def test_finite_diff_rejects_bad_eps():
    w = Tensor(1.0, requires_grad=True)
    with pytest.raises(ValueError):
        finite_diff(lambda: 0.0, [w], eps=0.0)


def test_relative_error_floor():
    assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
    assert relative_error(1.0, 2.0) == pytest.approx(0.5)


def test_exp_and_log_adjoints():
    w = Tensor([0.5, 1.5], requires_grad=True)
    g_exp = backward(ad.tsum(ad.texp(w)), [w])[w]
    assert np.allclose(g_exp, np.exp(w.values), rtol=0, atol=1e-15)
    g_log = backward(ad.tsum(ad.tlog(w)), [w])[w]
    assert np.allclose(g_log, 1.0 / w.values, rtol=0, atol=1e-15)


def test_concat_rows_routes_gradients():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((1, 3)), requires_grad=True)
    out = ad.concat_rows([a, b])
    scale = Tensor(np.arange(9.0).reshape(3, 3))
    g = backward(ad.tsum(ad.mul(out, scale)), [a, b])
    assert np.array_equal(g[a], np.arange(6.0).reshape(2, 3))
    assert np.array_equal(g[b], np.arange(6.0, 9.0).reshape(1, 3))


def test_constant_parents_get_no_adjoint():
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    const = Tensor(np.ones((4, 3)))
    g = np.ones((4, 2))
    inner = ad.matmul(const, w)
    ones = Tensor(np.ones((4, 2)))
    for out in (inner, ad.add(ones, inner), ad.mul(ones, inner), ad.concat_rows([Tensor(np.ones((1, 2))), w])):
        grads = out._backward_fn(g)
        assert [pg is None for pg in grads] == [not p.requires_grad for p in out._parents]


def test_sigmoid_and_log_sigmoid_values_unchanged_bitwise():
    v = np.concatenate([np.linspace(-40, 40, 801), [-800.0, -1e-300, 0.0, 1e-300, 800.0]])
    e = np.exp(-np.abs(v))
    three_exp = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                         np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
    assert np.array_equal(ad.sigmoid(Tensor(v)).values, three_exp)
    assert np.array_equal(ad.log_sigmoid(Tensor(v)).values, np.minimum(v, 0.0) - np.log1p(e))
    t = Tensor(v, requires_grad=True)
    assert np.array_equal(backward(ad.tsum(ad.log_sigmoid(t)), [t])[t], 1.0 - three_exp)
