"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

The op set is deliberately small: matmul, add, multiply, row gather,
log-softmax, reductions, sigmoid, exp and concat.
That closed set is enough to express every loss in this package while
keeping each op's adjoint a few lines of numpy. An op computes no
adjoint for a constant parent.

Two more nodes fuse compositions of those ops that the model runs on
every forward: `mlp_block`, the residual block h + sigmoid(h @ w1) @ w2
(four nodes), and `const_matmul_sum`, the prefix means w_tok @ embed +
w_img @ img_proj (three). A node costs Python time to build, sort and
back-propagate whatever its size, and the model's arrays are small, so
the fused forms save most of that per-node time. They evaluate the
composition's own expressions in its order, so values and gradients are
bit for bit those of the composition (tests/test_autodiff.py).
"""

from __future__ import annotations

import ctypes

import numpy as np

# glibc gives the top of its heap back to the OS once more than its trim
# threshold is free there. Each SGD step frees its whole graph, so under the
# adaptive default every step trimmed it and the next faulted it back in:
# 2500 dim-64 pretraining steps took 46,842 minor page faults, against 1,016
# with this fixed threshold above a step's working memory (x86-64, glibc
# 2.36). A fixed trim threshold also keeps the mmap threshold at 128 KiB.
# Where libc has no `mallopt`, nothing changes.
_M_TRIM_THRESHOLD = -1
_TRIM_THRESHOLD_BYTES = 64 << 20
try:
    ctypes.CDLL(None).mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
except (AttributeError, OSError, TypeError):
    pass

__all__ = [
    "Tensor",
    "backward",
    "finite_diff",
    "relative_error",
    "add",
    "mul",
    "matmul",
    "const_matmul_sum",
    "gather_rows",
    "take_along_rows",
    "log_softmax",
    "tsum",
    "sigmoid",
    "mlp_block",
    "log_sigmoid",
    "texp",
    "concat_rows",
]


class Tensor:
    """Dense n-d float64 array.

    Leaf tensors carry ``requires_grad``; intermediate tensors remember
    their parents and a closure computing parent adjoints. Tensors are
    value types: nothing here shares mutable state across graphs.
    """

    __slots__ = ("values", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        return float(self.values.reshape(-1)[0])

    # operator sugar; scalars are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __sub__(self, other):
        return add(self, -_wrap(other))

    def __rsub__(self, other):
        return add(_wrap(other), -self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is outside the op set")
        return mul(self, Tensor(1.0 / float(other)))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _node(values, parents, backward_fn):
    """Create an op output; constant subgraphs are folded into leaves."""
    if not any(p.requires_grad for p in parents):
        return Tensor(values)
    out = Tensor(values, requires_grad=True)
    out._parents = tuple(parents)
    out._backward_fn = backward_fn
    return out


# ---------------------------------------------------------------------------
# ops


def add(a, b):
    a, b = _wrap(a), _wrap(b)
    av, bv = a.values, b.values

    def bwd(g):
        return (_sum_to(g, av.shape) if a.requires_grad else None,
                _sum_to(g, bv.shape) if b.requires_grad else None)

    return _node(av + bv, (a, b), bwd)


def _sum_to(g, shape):
    """The adjoint of broadcasting to g's shape from `shape`."""
    if g.shape == shape:
        return g
    return np.sum(g) * np.ones(shape) if not shape else _unbroadcast(g, shape)


def _unbroadcast(g, shape):
    # collapse broadcast axes back to `shape`
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    av, bv = a.values, b.values

    def bwd(g):
        return (_unbroadcast(g * bv, av.shape) if a.requires_grad else None,
                _unbroadcast(g * av, bv.shape) if b.requires_grad else None)

    return _node(av * bv, (a, b), bwd)


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    av, bv = a.values, b.values

    def bwd(g):
        return _matmul_adjoints(av, bv, g, a.requires_grad, b.requires_grad)

    return _node(av @ bv, (a, b), bwd)


def _matmul_adjoints(av, bv, g, need_a, need_b):
    """The adjoints of av @ bv for output adjoint g, None where not needed."""
    # multiply.outer keeps a 1-D operand's shape when g is 0-d ((d,) @ (d,))
    ga = (np.multiply.outer(g, bv) if bv.ndim == 1 else g @ bv.T) if need_a else None
    gb = (np.multiply.outer(av, g) if av.ndim == 1 else av.T @ g) if need_b else None
    return ga, gb


def const_matmul_sum(wa, a, wb, b):
    """wa @ a + wb @ b for constant numpy arrays wa and wb, as one node.
    Values and adjoints are those of `add` of the two `matmul`s."""
    a, b = _wrap(a), _wrap(b)
    wa, wb = np.asarray(wa, dtype=np.float64), np.asarray(wb, dtype=np.float64)
    ma, mb = wa @ a.values, wb @ b.values

    def bwd(g):
        return (_matmul_adjoints(wa, a.values, _sum_to(g, ma.shape), False, a.requires_grad)[1],
                _matmul_adjoints(wb, b.values, _sum_to(g, mb.shape), False, b.requires_grad)[1])

    return _node(ma + mb, (a, b), bwd)


def gather_rows(mat, indices):
    """Row lookup mat[indices] (embedding gather)."""
    mat = _wrap(mat)
    idx = np.asarray(indices, dtype=np.intp)
    mv = mat.values

    def bwd(g):
        # scatter-add as a one-hot matmul: several times faster than np.add.at
        onehot = np.zeros((mv.shape[0], idx.size))
        onehot[idx, np.arange(idx.size)] = 1.0
        return (onehot @ g,)

    return _node(mv[idx], (mat,), bwd)


def take_along_rows(mat, indices):
    """out[i] = mat[i, indices[i]] for a 2-d mat."""
    mat = _wrap(mat)
    idx = np.asarray(indices, dtype=np.intp)
    mv = mat.values
    rows = np.arange(mv.shape[0])

    def bwd(g):
        gm = np.zeros_like(mv)
        gm[rows, idx] = g
        return (gm,)

    return _node(mv[rows, idx], (mat,), bwd)


def log_softmax(t):
    """Row-wise log-softmax of a 2-d tensor, max-shifted for stability."""
    t = _wrap(t)
    v = t.values
    shifted = v - v.max(axis=-1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    out = shifted - lse

    def bwd(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _node(out, (t,), bwd)


def tsum(t):
    t = _wrap(t)
    v = t.values

    def bwd(g):
        return (np.full_like(v, float(g)),)

    return _node(np.sum(v), (t,), bwd)


def _sigmoid_parts(v):
    """(sigma(v), exp(-|v|)) from one exp, stable at both tails."""
    e = np.exp(-np.abs(v))
    return ((v < 0) * e + (v >= 0)) / (1.0 + e), e


def sigmoid(t):
    t = _wrap(t)
    out, _ = _sigmoid_parts(t.values)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _node(out, (t,), bwd)


def mlp_block(h, w1, w2):
    """The residual MLP block h + sigmoid(h @ w1) @ w2 as one node. Values
    and adjoints are those of the same `matmul`, `sigmoid`, `matmul` and
    `add` composed, expression for expression."""
    h, w1, w2 = _wrap(h), _wrap(w1), _wrap(w2)
    hv, w1v, w2v = h.values, w1.values, w2.values
    s, _ = _sigmoid_parts(hv @ w1v)
    m = s @ w2v
    inner = h.requires_grad or w1.requires_grad  # do they need sigmoid's adjoint?

    def bwd(g):
        gs, gw2 = _matmul_adjoints(s, w2v, _sum_to(g, m.shape), inner, w2.requires_grad)
        if not inner:
            return None, None, gw2
        gh, gw1 = _matmul_adjoints(hv, w1v, gs * s * (1.0 - s), h.requires_grad, w1.requires_grad)
        # h's adjoint arrives from the residual add first, then from h @ w1
        return (None if gh is None else _sum_to(g, hv.shape) + gh), gw1, gw2

    return _node(hv + m, (h, w1, w2), bwd)


def log_sigmoid(t):
    t = _wrap(t)
    v = t.values
    sig, e = _sigmoid_parts(v)
    out = np.minimum(v, 0.0) - np.log1p(e)

    def bwd(g):
        return (g * (1.0 - sig),)

    return _node(out, (t,), bwd)


def texp(t):
    t = _wrap(t)
    out = np.exp(t.values)

    def bwd(g):
        return (g * out,)

    return _node(out, (t,), bwd)


def concat_rows(tensors):
    """Stack 2-d tensors along axis 0."""
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.values.shape[0] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        return tuple(g[offsets[i]:offsets[i + 1]] if t.requires_grad else None
                     for i, t in enumerate(tensors))

    return _node(np.concatenate([t.values for t in tensors], axis=0), tensors, bwd)


# ---------------------------------------------------------------------------
# backward pass and the finite-difference oracle


def _toposort(root):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad:
                stack.append((p, False))
    return order


def backward(loss, params):
    """Reverse-mode gradients of a scalar loss.

    Returns a dict mapping each tensor in `params` to its gradient array.
    Parameters not reachable from the loss get a zero gradient.
    """
    if loss.values.size != 1:
        raise ValueError("backward requires a scalar loss")
    grads = {id(loss): np.ones_like(loss.values)}
    keep = {id(p) for p in params}
    for node in reversed(_toposort(loss)):
        if node._backward_fn is None:
            continue
        # an inner node's adjoint is complete here; drop it once passed on
        g = grads.get(id(node)) if id(node) in keep else grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return {p: grads[id(p)] if id(p) in grads else np.zeros_like(p.values) for p in params}


def finite_diff(f, params, eps=1e-4):
    """Central-difference gradient oracle.

    `f` is a zero-argument callable returning a float and reading the
    current `.values` of the tensors in `params`; values are perturbed
    in place and restored. Independent of the backward pass by design.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    out = {}
    for p in params:
        grad = np.zeros_like(p.values)
        flat = p.values.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fplus = float(f())
            flat[i] = orig - eps
            fminus = float(f())
            flat[i] = orig
            gflat[i] = (fplus - fminus) / (2.0 * eps)
        out[p] = grad
    return out


def relative_error(a, b, floor=1e-8):
    """|a - b| / max(floor, |a|, |b|), elementwise, returned as max scalar.

    The default floor suits exact (backward-vs-backward) comparisons;
    comparisons against the finite-difference oracle need floor=1e-6,
    since central differences carry ~1e-12 absolute roundoff that would
    otherwise dominate at exactly-zero components.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))
