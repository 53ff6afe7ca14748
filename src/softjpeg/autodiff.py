"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The operator set is exactly what the differentiable coding pipeline needs.
Tensors wrap numpy arrays; ops record a backward closure and parent links,
and ``backward`` sweeps nodes in reverse creation order (creation order is
a topological order because operands always exist before their result).

There is no broadcasting except ``scalar_mul``: shape mismatches raise
``ShapeError`` naming the op and both shapes.  A graph is single-threaded
during forward/backward; tensors without graph linkage are immutable and
freely shareable between threads.  Inside ``no_grad()`` ops link no graph.
"""

import contextlib
import contextvars
import itertools

import numpy as np

from .codec.quant import round_half_away

_COUNTER = itertools.count()
# Per thread, unlike a module flag: no_grad in one leaves another's training taped.
_TAPING = contextvars.ContextVar("softjpeg_autodiff_taping", default=True)


class ShapeError(ValueError):
    def __init__(self, op, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


class Tensor:
    """A dense float64 array with an optional gradient slot and graph linkage."""

    __slots__ = ("data", "grad", "requires_grad", "node_id", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, op="leaf", parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_COUNTER)
        self.op = op
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def zeros(shape, requires_grad=False):
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad=False):
    return Tensor(np.ones(shape), requires_grad=requires_grad)


@contextlib.contextmanager
def no_grad():
    """Ops inside the block link no parents, so an inference pass keeps no graph."""
    token = _TAPING.set(False)
    try:
        yield
    finally:
        _TAPING.reset(token)


def _result(data, op, parents, backward_fn):
    if _TAPING.get() and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, op=op, parents=parents, backward=backward_fn)
    return Tensor(data, op=op)


def _accumulate(t, grad):
    if t.grad is None:
        t.grad = np.array(grad, dtype=np.float64, copy=True)
    else:
        t.grad = t.grad + grad


def backward(loss):
    """Populate gradients of everything reachable from a scalar loss."""
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    # Reverse creation order over the reachable subgraph is a valid
    # reverse-topological order, so every node is visited exactly once.
    reachable = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if t.node_id in reachable:
            continue
        reachable[t.node_id] = t
        stack.extend(t._parents)
    loss.grad = np.ones_like(loss.data)
    for t in sorted(reachable.values(), key=lambda t: t.node_id, reverse=True):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


def _same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(op, a.shape, b.shape)


def add(a, b):
    _same_shape("add", a, b)

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _result(a.data + b.data, "add", (a, b), bwd)


def sub(a, b):
    _same_shape("sub", a, b)

    def bwd(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _result(a.data - b.data, "sub", (a, b), bwd)


def hadamard_mul(a, b):
    _same_shape("hadamard_mul", a, b)

    def bwd(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _result(a.data * b.data, "hadamard_mul", (a, b), bwd)


def scalar_mul(a, s):
    s = float(s)

    def bwd(g):
        _accumulate(a, g * s)

    return _result(a.data * s, "scalar_mul", (a,), bwd)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)

    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _result(a.data @ b.data, "matmul", (a, b), bwd)


def reciprocal(a):
    inv = 1.0 / a.data

    def bwd(g):
        _accumulate(a, -g * inv * inv)

    return _result(inv, "reciprocal", (a,), bwd)


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g):
        _accumulate(a, g * y * (1.0 - y))

    return _result(y, "sigmoid", (a,), bwd)


def tanh(a):
    y = np.tanh(a.data)

    def bwd(g):
        _accumulate(a, g * (1.0 - y * y))

    return _result(y, "tanh", (a,), bwd)


def reduce_mean(a):
    n = a.size

    def bwd(g):
        _accumulate(a, np.full(a.shape, float(g) / n))

    return _result(np.mean(a.data), "reduce_mean", (a,), bwd)


def reduce_l1(a):
    def bwd(g):
        _accumulate(a, float(g) * np.sign(a.data))

    return _result(np.sum(np.abs(a.data)), "reduce_l1", (a,), bwd)


def clamp(a, lo, hi):
    lo, hi = float(lo), float(hi)
    if lo > hi:
        raise ValueError(f"clamp: lo {lo} exceeds hi {hi}")
    # Subgradient is 1 on the closed interval [lo, hi], 0 strictly outside.
    inside = (a.data >= lo) & (a.data <= hi)

    def bwd(g):
        _accumulate(a, g * inside)

    return _result(np.clip(a.data, lo, hi), "clamp", (a,), bwd)


def reshape(a, shape):
    old = a.shape

    def bwd(g):
        _accumulate(a, g.reshape(old))

    return _result(a.data.reshape(shape), "reshape", (a,), bwd)


def transpose(a, axes):
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        _accumulate(a, g.transpose(inverse))

    return _result(a.data.transpose(axes), "transpose", (a,), bwd)


def concat(tensors, axis=0):
    tensors = tuple(tensors)
    ref = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(ref) or any(
            i != axis and t.shape[i] != ref[i] for i in range(len(ref))
        ):
            raise ShapeError("concat", ref, t.shape)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, stop)
            _accumulate(t, g[tuple(idx)])

    return _result(np.concatenate([t.data for t in tensors], axis=axis), "concat", tensors, bwd)


def narrow(a, axis, start, length):
    """Slice ``length`` entries from ``start`` along ``axis``."""
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError("narrow", a.shape, (axis, start, length))
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bwd(g):
        full = np.zeros(a.shape)
        full[idx] = g
        _accumulate(a, full)

    return _result(a.data[idx].copy(), "narrow", (a,), bwd)


def soft_round(a, alternate_sign):
    """Differentiable rounding surrogate.

    The verbatim form is r + (r - x)^3 with r = round-half-away(x); the
    backward pass treats r as locally constant, so the derivative is
    -3 (r - x)^2.  With ``alternate_sign`` (the form training uses) the
    correction is (x - r)^3 and the derivative +3 (x - r)^2.
    """
    r = round_half_away(a.data)
    d = r - a.data

    if alternate_sign:
        y = r - d * d * d
        deriv = 3.0 * d * d
    else:
        y = r + d * d * d
        deriv = -3.0 * d * d

    def bwd(g):
        _accumulate(a, g * deriv)

    return _result(y, "soft_round", (a,), bwd)


def kwta(a, k):
    """Keep the k largest-magnitude entries along the last axis, zero the rest.

    Ties between equal magnitudes break toward the lowest index.  Gradients
    pass unchanged through surviving entries and are zero elsewhere.
    """
    if k < 0:
        raise ValueError(f"kwta: k must be nonnegative, got {k}")
    n = a.shape[-1] if a.data.ndim else 1
    if k >= n:
        mask = np.ones_like(a.data)
    elif k == 0:
        mask = np.zeros_like(a.data)
    else:
        flat = a.data.reshape(-1, n)
        # Stable sort on -|v|: equal magnitudes keep ascending index order.
        order = np.argsort(-np.abs(flat), axis=1, kind="stable")
        mask = np.zeros_like(flat)
        np.put_along_axis(mask, order[:, :k], 1.0, axis=1)
        mask = mask.reshape(a.shape)

    def bwd(g):
        _accumulate(a, g * mask)

    return _result(a.data * mask, "kwta", (a,), bwd)


def conv2d(x, w, bias=None, stride=1, padding=0):
    """2D convolution: x (B, C, H, W) with kernels w (O, C, kh, kw)."""
    if x.data.ndim != 4 or w.data.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError("conv2d", x.shape, w.shape)
    if bias is not None and bias.shape != (w.shape[0],):
        raise ShapeError("conv2d bias", bias.shape, (w.shape[0],))
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    s, p = int(stride), int(padding)
    Ho = (H + 2 * p - kh) // s + 1
    Wo = (W + 2 * p - kw) // s + 1
    if Ho <= 0 or Wo <= 0:
        raise ShapeError("conv2d", x.shape, w.shape)

    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    cols = np.empty((B, C, kh, kw, Ho, Wo))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + s * Ho : s, j : j + s * Wo : s]
    cols2 = cols.reshape(B, C * kh * kw, Ho * Wo)
    wf = w.data.reshape(O, C * kh * kw)
    out = np.matmul(wf, cols2).reshape(B, O, Ho, Wo)
    if bias is not None:
        out = out + bias.data[None, :, None, None]

    def bwd(g):
        gf = g.reshape(B, O, Ho * Wo)
        _accumulate(w, np.matmul(gf, cols2.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape))
        if bias is not None:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        dcols = np.matmul(wf.T, gf).reshape(B, C, kh, kw, Ho, Wo)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i : i + s * Ho : s, j : j + s * Wo : s] += dcols[:, :, i, j]
        _accumulate(x, dxp[:, :, p : p + H, p : p + W] if p else dxp)

    parents = (x, w) if bias is None else (x, w, bias)
    return _result(out, "conv2d", parents, bwd)


def grad_check(fn, x, eps=1e-4):
    """Compare analytic gradients of a scalar-valued closure to central differences.

    Returns the max relative error with denominator max(|a|, |b|, 1e-8).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = fn(probe)
    backward(out)
    analytic = probe.grad if probe.grad is not None else np.zeros(probe.shape)

    numeric = np.zeros(probe.shape)
    flat = probe.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(Tensor(probe.data.copy())).item()
        flat[i] = orig - eps
        lo = fn(Tensor(probe.data.copy())).item()
        flat[i] = orig
        nflat[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
