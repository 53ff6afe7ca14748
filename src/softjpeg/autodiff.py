"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The operator set is exactly what the differentiable coding pipeline needs.
Tensors wrap numpy arrays.  The graph links nodes, not data: an op result
that requires a gradient carries a small node holding its ``node_id`` and
one ``(parent, vjp)`` pair per operand that requires a gradient, where the
parent is the operand's node or, for a leaf, the leaf tensor itself.
Operands that do not require a gradient are never linked, so no term is
computed for them.  Each VJP captures only the arrays it reads, so a
forward value lives only while a VJP reads it or a caller holds its tensor.
Where an array can be rebuilt from one a VJP keeps anyway, it is rebuilt:
``conv2d`` keeps its input, not its im2col columns.  ``conv2d`` also works
one image at a time, and its forward pass builds an image's columns one band
of output rows at a time from a padded copy of one band's input rows, so its
forward temporaries stay one band's columns (``BAND_BYTES``) and rows
whatever the batch or the image size.
``backward`` owns gradient flow: it sweeps nodes in reverse creation order
(creation order is a topological order because operands always exist
before their result), sums each node's terms, hands the sum to its parents
once and frees it.  Only leaves that require a gradient keep ``.grad``.
A graph can be swept more than once.  ``recompute`` keeps a function's
inputs and result instead of its graph, and ``backward`` re-runs it taped
when the sweep reaches the result, with the same gradients bit for bit.

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
# The bytes of im2col columns conv2d's forward pass builds at once: it fills
# and multiplies each image's columns this many bytes' worth of output rows
# at a time, each band from a padded copy of one band's input rows.
BAND_BYTES = 1 << 20


class ShapeError(ValueError):
    def __init__(self, op, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


class _Node:
    """An op result's place in the graph: its tensor's ``node_id`` and one
    ``(parent, vjp)`` pair per linked operand.  A parent is another
    ``_Node`` or a leaf ``Tensor``, so the node keeps no result data alive.
    A ``recompute`` result's node has no VJPs; it holds ``(fn, inputs)``
    in ``rerun`` instead."""

    __slots__ = ("node_id", "parents", "rerun")

    def __init__(self, node_id, parents, rerun=None):
        self.node_id = node_id
        self.parents = parents
        self.rerun = rerun


class Tensor:
    """A dense float64 array with graph linkage and a gradient slot.

    ``_node`` is the graph node of an op result that requires a gradient,
    and ``None`` on leaves and constants.  ``backward`` writes ``grad`` only
    on leaves that require a gradient; interior results and constants keep
    ``grad is None``.
    """

    __slots__ = ("data", "grad", "requires_grad", "node_id", "op", "_node")

    def __init__(self, data, requires_grad=False, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_COUNTER)
        self.op = op
        self._node = None

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


def zeros(shape):
    return Tensor(np.zeros(shape))


def ones(shape):
    return Tensor(np.ones(shape))


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
    is never called.  An interior operand is linked by its node and a leaf
    by its tensor, so the result's node holds no operand's data.
    """
    if _TAPING.get():
        links = tuple((p._node or p, vjp) for p, vjp in pairs if p.requires_grad)
        if links:
            result = Tensor(data, requires_grad=True, op=op)
            result._node = _Node(result.node_id, links)
            return result
    return Tensor(data, op=op)


def recompute(fn, *inputs):
    """``fn(*inputs)``, whose graph is rebuilt in ``backward`` instead of kept.

    While taping, ``fn`` runs under ``no_grad`` and its result links only
    the inputs that require a gradient, so the forward pass keeps the inputs
    and the result and nothing in between.  When ``backward`` reaches the
    result it runs ``fn`` again, taped, and sweeps the nodes that run
    created before any older node.  The gradients are bit for bit those of
    the taped ``fn``: its nodes would have been one unbroken stretch of ids
    between its inputs and its result, so every sum meets its terms in the
    same order.  Outside taping, or when no input requires a gradient, this
    is ``fn(*inputs)``.

    ``fn`` must compute the same values again: it may read tensors that
    require a gradient only through ``inputs`` (``backward`` raises
    ``RuntimeError`` otherwise), and their data must not change between the
    forward pass and ``backward``, so update parameters only after it.
    """
    if not _TAPING.get() or not any(t.requires_grad for t in inputs):
        return fn(*inputs)
    with no_grad():
        data = fn(*inputs).data
    result = Tensor(data, requires_grad=True, op="recompute")
    links = tuple((t._node or t, None) for t in inputs if t.requires_grad)
    result._node = _Node(result.node_id, links, (fn, inputs))
    return result


def backward(loss):
    """Add d(loss)/d(leaf) to ``.grad`` of every leaf that requires a gradient."""
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    _sweep(loss._node or loss, np.ones_like(loss.data), {}, floor=-1, inputs=())


def _add_term(grads, node_id, term):
    prev = grads.get(node_id)
    grads[node_id] = term if prev is None else prev + term


def _sweep(root, root_grad, grads, floor, inputs):
    """Hand ``root_grad`` to ``root`` and sweep the nodes above id ``floor``
    that it reaches, adding their terms to ``grads``.  A node at or below
    ``floor`` belongs to an enclosing sweep, and its id must be in
    ``inputs``."""
    # Reverse creation order over the reachable subgraph is a valid
    # reverse-topological order, so every node is visited exactly once and
    # after all of its consumers have added their terms.  Leaves are the
    # Tensors among them; every other entry is a _Node.
    reachable = {}
    stack = [root]
    while stack:
        n = stack.pop()
        if n.node_id <= floor:
            if n.node_id not in inputs:
                raise RuntimeError("recompute: fn reads a tensor that requires a "
                                   "gradient but is not among its inputs")
            continue
        if n.node_id in reachable:
            continue
        reachable[n.node_id] = n
        if isinstance(n, _Node):
            stack.extend(p for p, _ in n.parents)
    # A leaf's earlier gradient is the first term of its sum, as if the
    # terms were added to it one by one.
    for i, n in reachable.items():
        if isinstance(n, Tensor) and n.grad is not None:
            grads[i] = n.grad
    _add_term(grads, root.node_id, root_grad)
    for n in sorted(reachable.values(), key=lambda n: n.node_id, reverse=True):
        # Only a recompute input its fn did not read can have no term.
        g = grads.pop(n.node_id, None)
        if g is None:
            continue
        if isinstance(n, Tensor):
            if n.requires_grad:
                # A copy: a VJP may hand the same array to several operands.
                n.grad = np.array(g, dtype=np.float64)
        elif n.rerun is not None:
            _rematerialize(n, g, grads)
        else:
            for parent, vjp in n.parents:
                _add_term(grads, parent.node_id, vjp(g))


def _rematerialize(node, g, grads):
    """Re-run a ``recompute`` node's fn taped and sweep what that run created.
    The re-run's graph is freed on return."""
    fn, inputs = node.rerun
    token = _TAPING.set(True)
    try:
        out = fn(*inputs)
    finally:
        _TAPING.reset(token)
    if out.requires_grad:
        _sweep(out._node or out, g, grads, node.node_id, {p.node_id for p, _ in node.parents})


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
    x, y = a.data, b.data
    return _result(x * y, "hadamard_mul", ((a, lambda g: g * y), (b, lambda g: g * x)))


def scalar_mul(a, s):
    s = float(s)
    return _result(a.data * s, "scalar_mul", ((a, lambda g: g * s),))


def scalar_add(a, s):
    s = float(s)
    return _result(a.data + s, "scalar_add", ((a, lambda g: g),))


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    x, y = a.data, b.data
    return _result(x @ y, "matmul", ((a, lambda g: g @ y.T), (b, lambda g: x.T @ g)))


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
    shape, n = a.shape, a.size
    return _result(np.mean(a.data), "reduce_mean",
                   ((a, lambda g: np.full(shape, float(g) / n)),))


def reduce_l1(a):
    x = a.data
    return _result(np.sum(np.abs(x)), "reduce_l1", ((a, lambda g: float(g) * np.sign(x)),))


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
    shape = a.shape
    idx = [slice(None)] * len(shape)
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        full = np.zeros(shape)
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
    # A bool mask: float times bool is float times 0.0 or 1.0, -0.0 included.
    if k >= n:
        mask = np.ones(a.shape, dtype=bool)
    elif k == 0:
        mask = np.zeros(a.shape, dtype=bool)
    else:
        mag = np.abs(a.data.reshape(-1, n))
        # Every magnitude above the row's k-th largest survives; entries equal
        # to it fill the remaining places from the lowest index on.
        kth = np.partition(mag, n - k, axis=1)[:, n - k : n - k + 1]
        above, ties = mag > kth, mag == kth
        room = k - np.count_nonzero(above, axis=1, keepdims=True)
        keep = above | (ties & (np.cumsum(ties, axis=1) <= room))
        mask = keep.reshape(a.shape)

    return _result(a.data * mask, "kwta", ((a, lambda g: g * mask),))


def _padded_rows(xb, top, xp, padding):
    """Fill ``xp`` (C, count, W + 2 * padding) with rows ``top ..
    top+count-1`` of image ``xb`` (C, H, W) in padded coordinates: zero
    outside the image."""
    H, W = xb.shape[1:]
    lo, hi = max(top, padding), min(top + xp.shape[1], H + padding)
    xp.fill(0.0)
    if lo < hi:
        xp[:, lo - top : hi - top, padding : padding + W] = xb[:, lo - padding : hi - padding]


def _image_columns(x, kh, kw, stride, padding, Ho, Wo, band):
    """Yield (image index, output slice, columns) for each image of ``x``
    (B, C, H, W) and each band of ``band`` output rows: the band's
    (C * kh * kw, rows * Wo) im2col columns, C-contiguous in (c, i, j) order
    as the GEMMs need them for the same bits, and the slice of the image's
    flattened output they make.  Each band's taps are plain strided slices
    of a padded copy of one band's input rows; the copy and the columns
    each have one buffer that every band shares."""
    C, _, W = x.shape[1:]
    s, band = stride, min(band, Ho)
    buf = np.empty(C * kh * kw * band * Wo)
    rows_buf = np.empty((C, s * (band - 1) + kh, W + 2 * padding))
    for b, xb in enumerate(x):
        for r0 in range(0, Ho, band):
            rows = min(Ho - r0, band)
            xp = rows_buf[:, : s * (rows - 1) + kh]
            _padded_rows(xb, s * r0, xp, padding)
            cols = buf[: C * kh * kw * rows * Wo].reshape(C, kh, kw, rows, Wo)
            for i in range(kh):
                for j in range(kw):
                    cols[:, i, j] = xp[:, i : i + s * rows : s, j : j + s * Wo : s]
            yield b, slice(r0 * Wo, (r0 + rows) * Wo), cols.reshape(-1, rows * Wo)


def conv2d(x, w, bias, stride=1, padding=0):
    """2D convolution: x (B, C, H, W) with kernels w (O, C, kh, kw) and bias (O,).

    It works one image at a time.  The forward pass builds an image's im2col
    columns one band of output rows at a time, ``BAND_BYTES`` of them at
    most (one row at least), from a padded copy of one band's input rows,
    and writes each band's GEMM into those rows of the output; a 1x1 kernel
    is banded like any other.  The input gradient adds each tap's column
    gradient into one zero-padded image and keeps its interior.  The kernel
    gradient rebuilds one image's columns at a time from ``x``'s array,
    which the VJP keeps instead (often one a VJP upstream already holds,
    such as ``tanh``'s output), and adds the images' terms in batch order.
    Where an image's columns fit one band (every layer at desk scale), every
    GEMM is the one a batched ``np.matmul`` issues per image and every sum
    adds in the same order, so the results are bit for bit those of the
    whole-batch im2col form (but for a kernel of one weight at batch 8 or
    more, whose batch sum numpy would add pairwise).  Across bands, OpenBLAS
    can round a narrower GEMM's outputs differently (its small-matrix and
    edge kernels), so the output may move in the last bits, though not on
    half-Kodak or Kodak-size stems; the gradients never do.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError("conv2d", x.shape, w.shape)
    if bias.shape != (w.shape[0],):
        raise ShapeError("conv2d bias", bias.shape, (w.shape[0],))
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    s, p = int(stride), int(padding)
    Ho = (H + 2 * p - kh) // s + 1
    Wo = (W + 2 * p - kw) // s + 1
    if Ho <= 0 or Wo <= 0:
        raise ShapeError("conv2d", x.shape, w.shape)

    xd, w_shape = x.data, w.shape
    wf = w.data.reshape(O, C * kh * kw)
    out = np.empty((B, O, Ho, Wo))
    flat = out.reshape(B, O, Ho * Wo)
    band = max(1, BAND_BYTES // (wf.shape[1] * Wo * 8))
    for b, span, cols in _image_columns(xd, kh, kw, s, p, Ho, Wo, band):
        np.matmul(wf, cols, out=flat[b, :, span])
    out += bias.data[:, None, None]

    def vjp_x(g):
        dx = np.empty((B, C, H, W))
        dcols = np.empty((C * kh * kw, Ho * Wo))
        dtaps = dcols.reshape(C, kh, kw, Ho, Wo)
        dxp = np.empty((C, H + 2 * p, W + 2 * p))
        for dxb, gb in zip(dx, g.reshape(B, O, Ho * Wo)):
            np.matmul(wf.T, gb, out=dcols)
            dxp.fill(0.0)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i : i + s * Ho : s, j : j + s * Wo : s] += dtaps[:, i, j]
            dxb[...] = dxp[:, p : p + H, p : p + W]
        return dx

    def vjp_w(g):
        dw = np.zeros(wf.shape)
        gf = g.reshape(B, O, Ho * Wo)
        for b, _, cols in _image_columns(xd, kh, kw, s, p, Ho, Wo, Ho):
            dw += gf[b] @ cols.T
        return dw.reshape(w_shape)

    return _result(out, "conv2d",
                   [(x, vjp_x), (w, vjp_w), (bias, lambda g: g.sum(axis=(0, 2, 3)))])
