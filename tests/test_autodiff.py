"""Reverse-mode engine: op adjoints, the finite-difference oracle, and
their mutual agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prefalign.autodiff as ad
from prefalign.autodiff import Tensor, backward, finite_diff, relative_error
from prefalign.checks import tiny_instance
from prefalign.losses import dpo_loss


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
    tensors = policy.tensors()
    g = backward(dpo_loss(policy, sample, 0.2, reference), tensors)
    g_fd = finite_diff(lambda: dpo_loss(policy, sample, 0.2, reference).item(), tensors, eps=1e-4)
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


# operand shapes (from n, d) at the broadcasting and 1-D edges of each op
_ELEMENTWISE_SHAPES = [
    lambda n, d: ((), ()),
    lambda n, d: ((), (n, d)),
    lambda n, d: ((n, d), ()),
    lambda n, d: ((1, d), (n, d)),
    lambda n, d: ((n, d), (1, d)),
    lambda n, d: ((d,), (n, d)),
    lambda n, d: ((n, d), (d,)),
]
_MATMUL_SHAPES = [
    lambda n, d: ((d,), (d,)),
    lambda n, d: ((d,), (d, n)),
    lambda n, d: ((n, d), (d,)),
    lambda n, d: ((n, d), (d, n + 1)),
]


def _assert_adjoint_matches_finite_diff(op, shapes, seed):
    rng = np.random.default_rng(seed)
    a, b = (Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes)
    weights = Tensor(rng.normal(size=op(a, b).shape))

    def loss():
        return ad.tsum(ad.mul(op(a, b), weights))

    g = backward(loss(), [a, b])
    g_fd = finite_diff(lambda: loss().item(), [a, b])
    for t in (a, b):
        assert np.shape(g[t]) == t.shape
        # each op is linear in every single coordinate, so the central
        # difference is exact up to roundoff
        assert np.allclose(g[t], g_fd[t], rtol=1e-7, atol=1e-8)


@settings(max_examples=60, deadline=None)
@given(op=st.sampled_from([ad.add, ad.mul]), shapes=st.sampled_from(_ELEMENTWISE_SHAPES),
       n=st.integers(1, 4), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_elementwise_adjoints_match_finite_diff(op, shapes, n, d, seed):
    _assert_adjoint_matches_finite_diff(op, shapes(n, d), seed)


@settings(max_examples=40, deadline=None)
@given(shapes=st.sampled_from(_MATMUL_SHAPES), n=st.integers(1, 4), d=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_matmul_adjoint_matches_finite_diff(shapes, n, d, seed):
    _assert_adjoint_matches_finite_diff(ad.matmul, shapes(n, d), seed)


def _fused_block(leaves):
    return ad.mlp_block(*leaves)


def _composed_block(leaves):
    h, w1, w2 = leaves
    return ad.add(h, ad.matmul(ad.sigmoid(ad.matmul(h, w1)), w2))


def _composed_matmul_sum(wa, a, wb, b):
    return ad.add(ad.matmul(wa, a), ad.matmul(wb, b))


def _assert_node_equals_composition(fused, composed, leaves, seed):
    """Values with ==; then, for leaves of the given requires_grad, the
    gradients of sum(out * weights) with ==, None where the composition
    computes none."""
    out = fused(leaves)
    want = composed(leaves)
    assert out.shape == want.shape and np.array_equal(out.values, want.values)
    if not any(t.requires_grad for t in leaves):
        return
    weights = Tensor(np.random.default_rng(seed).normal(size=out.shape))
    g = backward(ad.tsum(ad.mul(fused(leaves), weights)), leaves)
    g_want = backward(ad.tsum(ad.mul(composed(leaves), weights)), leaves)
    for t in leaves:
        assert np.array_equal(g[t], g_want[t])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 5), d=st.integers(1, 5), grads=st.tuples(*[st.booleans()] * 3),
       stacked=st.sets(st.sampled_from([0, 1, 2])), rows=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_mlp_block_node_equals_composition(n, d, grads, stacked, rows, seed):
    rng = np.random.default_rng(seed)
    shapes = [(n, d), (d, d), (d, d)]
    leaves = [Tensor(rng.normal(size=s), requires_grad=r) for s, r in zip(shapes, grads)]
    _assert_node_equals_composition(_fused_block, _composed_block, leaves, seed)
    # the forward with a leading stack axis on some operands, as the
    # stacked finite-difference oracle runs it on grad-free params
    leaves = [Tensor(rng.normal(size=((rows,) if i in stacked else ()) + s))
              for i, s in enumerate(shapes)]
    _assert_node_equals_composition(_fused_block, _composed_block, leaves, seed)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 5), v=st.integers(1, 5), k=st.integers(1, 5), d=st.integers(1, 5),
       grads=st.tuples(st.booleans(), st.booleans()), stacked=st.sets(st.sampled_from([0, 1])),
       rows=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_const_matmul_sum_node_equals_composition(n, v, k, d, grads, stacked, rows, seed):
    rng = np.random.default_rng(seed)
    weights = [rng.normal(size=(n, v)), rng.normal(size=(n, k))]

    def fused(tensors):
        return ad.const_matmul_sum(weights[0], tensors[0], weights[1], tensors[1])

    def composed(tensors):
        return _composed_matmul_sum(weights[0], tensors[0], weights[1], tensors[1])

    shapes = [(v, d), (k, d)]
    leaves = [Tensor(rng.normal(size=s), requires_grad=r) for s, r in zip(shapes, grads)]
    _assert_node_equals_composition(fused, composed, leaves, seed)
    leaves = [Tensor(rng.normal(size=((rows,) if i in stacked else ()) + s))
              for i, s in enumerate(shapes)]
    _assert_node_equals_composition(fused, composed, leaves, seed)


def test_backward_allocates_zeros_only_for_unreached_params(monkeypatch):
    a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(2), requires_grad=True)
    calls, zeros_like = [], np.zeros_like

    def counting_zeros_like(x, *args, **kwargs):
        calls.append(np.shape(x))
        return zeros_like(x, *args, **kwargs)

    monkeypatch.setattr(np, "zeros_like", counting_zeros_like)
    g = backward(ad.tsum(ad.mul(a, a)), [a, b])
    assert calls == [(2,)]
    assert np.array_equal(g[a], 2.0 * np.ones(3))
    assert np.array_equal(g[b], np.zeros(2))
