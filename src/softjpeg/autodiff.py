"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The operator set is exactly what the differentiable coding pipeline needs.
Tensors wrap numpy arrays.  An op links its result to each operand that
requires a gradient, with a vector-Jacobian product (VJP) for that operand;
operands that do not are never linked, so no term is computed for them.
``backward`` owns gradient flow: it sweeps nodes in reverse creation order
(creation order is a topological order because operands always exist
before their result), sums each node's terms, hands the sum to its parents
once and frees it.  Only leaves that require a gradient keep ``.grad``.

There is no broadcasting except ``scalar_mul`` and ``scalar_add``: shape
mismatches raise ``ShapeError`` naming the op and both shapes.  A graph is
single-threaded during forward/backward; tensors without graph linkage are
immutable and freely shareable between threads.  Inside ``no_grad()`` ops
link no graph.
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
    """A dense float64 array with graph linkage and a gradient slot.

    ``_parents`` holds one ``(parent, vjp)`` pair per operand that requires
    a gradient.  ``backward`` writes ``grad`` only on leaves (tensors with
    no parents) that require a gradient; interior nodes and constants keep
    ``grad is None``.
    """

    __slots__ = ("data", "grad", "requires_grad", "node_id", "op", "_parents")

    def __init__(self, data, requires_grad=False, op="leaf", parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_COUNTER)
        self.op = op
        self._parents = tuple(parents)

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


def _result(data, op, pairs):
    """Wrap an op's output; ``pairs`` holds one ``(operand, vjp)`` per operand.

    Only operands that require a gradient are linked, so a constant's VJP
    is never called.
    """
    if _TAPING.get():
        pairs = tuple((p, vjp) for p, vjp in pairs if p.requires_grad)
        if pairs:
            return Tensor(data, requires_grad=True, op=op, parents=pairs)
    return Tensor(data, op=op)


def backward(loss):
    """Add d(loss)/d(leaf) to ``.grad`` of every leaf that requires a gradient."""
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    # Reverse creation order over the reachable subgraph is a valid
    # reverse-topological order, so every node is visited exactly once and
    # after all of its consumers have added their terms.
    reachable = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if t.node_id in reachable:
            continue
        reachable[t.node_id] = t
        stack.extend(p for p, _ in t._parents)
    # A leaf's earlier gradient is the first term of its sum, as if the
    # terms were added to it one by one.
    grads = {i: t.grad for i, t in reachable.items() if not t._parents and t.grad is not None}
    grads[loss.node_id] = np.ones_like(loss.data)
    for t in sorted(reachable.values(), key=lambda t: t.node_id, reverse=True):
        g = grads.pop(t.node_id)
        if not t._parents:
            if t.requires_grad:
                # A copy: a VJP may hand the same array to several operands.
                t.grad = np.array(g, dtype=np.float64)
            continue
        for parent, vjp in t._parents:
            term = vjp(g)
            prev = grads.get(parent.node_id)
            grads[parent.node_id] = term if prev is None else prev + term


def _same_shape(op, a, b):
    if a.shape != b.shape:
        raise ShapeError(op, a.shape, b.shape)


def add(a, b):
    _same_shape("add", a, b)
    return _result(a.data + b.data, "add", ((a, lambda g: g), (b, lambda g: g)))


def sub(a, b):
    _same_shape("sub", a, b)
    return _result(a.data - b.data, "sub", ((a, lambda g: g), (b, lambda g: -g)))


def hadamard_mul(a, b):
    _same_shape("hadamard_mul", a, b)
    return _result(a.data * b.data, "hadamard_mul",
                   ((a, lambda g: g * b.data), (b, lambda g: g * a.data)))


def scalar_mul(a, s):
    s = float(s)
    return _result(a.data * s, "scalar_mul", ((a, lambda g: g * s),))


def scalar_add(a, s):
    s = float(s)
    return _result(a.data + s, "scalar_add", ((a, lambda g: g),))


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    return _result(a.data @ b.data, "matmul",
                   ((a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g)))


def reciprocal(a):
    inv = 1.0 / a.data
    return _result(inv, "reciprocal", ((a, lambda g: -g * inv * inv),))


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))
    return _result(y, "sigmoid", ((a, lambda g: g * y * (1.0 - y)),))


def tanh(a):
    y = np.tanh(a.data)
    return _result(y, "tanh", ((a, lambda g: g * (1.0 - y * y)),))


def reduce_mean(a):
    n = a.size
    return _result(np.mean(a.data), "reduce_mean",
                   ((a, lambda g: np.full(a.shape, float(g) / n)),))


def reduce_l1(a):
    return _result(np.sum(np.abs(a.data)), "reduce_l1",
                   ((a, lambda g: float(g) * np.sign(a.data)),))


def clamp(a, lo, hi):
    lo, hi = float(lo), float(hi)
    if lo > hi:
        raise ValueError(f"clamp: lo {lo} exceeds hi {hi}")
    # Subgradient is 1 on the closed interval [lo, hi], 0 strictly outside.
    inside = (a.data >= lo) & (a.data <= hi)
    return _result(np.clip(a.data, lo, hi), "clamp", ((a, lambda g: g * inside),))


def reshape(a, shape):
    old = a.shape
    return _result(a.data.reshape(shape), "reshape", ((a, lambda g: g.reshape(old)),))


def transpose(a, axes):
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _result(a.data.transpose(axes), "transpose", ((a, lambda g: g.transpose(inverse)),))


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

    def piece(start, stop):
        idx = [slice(None)] * len(ref)
        idx[axis] = slice(start, stop)
        idx = tuple(idx)
        return lambda g: g[idx]

    pairs = [(t, piece(start, stop)) for t, start, stop in zip(tensors, offsets[:-1], offsets[1:])]
    return _result(np.concatenate([t.data for t in tensors], axis=axis), "concat", pairs)


def narrow(a, axis, start, length):
    """Slice ``length`` entries from ``start`` along ``axis``."""
    if start < 0 or start + length > a.shape[axis]:
        raise ShapeError("narrow", a.shape, (axis, start, length))
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        full = np.zeros(a.shape)
        full[idx] = g
        return full

    return _result(a.data[idx].copy(), "narrow", ((a, vjp),))


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

    return _result(y, "soft_round", ((a, lambda g: g * deriv),))


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

    return _result(a.data * mask, "kwta", ((a, lambda g: g * mask),))


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

    def vjp_x(g):
        dcols = np.matmul(wf.T, g.reshape(B, O, Ho * Wo)).reshape(B, C, kh, kw, Ho, Wo)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i : i + s * Ho : s, j : j + s * Wo : s] += dcols[:, :, i, j]
        return dxp[:, :, p : p + H, p : p + W] if p else dxp

    def vjp_w(g):
        gf = g.reshape(B, O, Ho * Wo)
        return np.matmul(gf, cols2.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)

    pairs = [(x, vjp_x), (w, vjp_w)]
    if bias is not None:
        pairs.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return _result(out, "conv2d", pairs)
