import functools
import struct
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softjpeg import autodiff as ad
from softjpeg import losses
from softjpeg import pipeline as pl
from softjpeg import training as tr
from softjpeg.autodiff import Tensor
from softjpeg.codec import round_half_away
from tests.conftest import traced_peak
from tests.reference import conv2d_keeping_columns, grad_check, kwta_stable_argsort


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5


def test_hadamard_with_ones_is_identity():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)))
    out = ad.hadamard_mul(a, ad.ones((3, 4)))
    assert np.array_equal(out.data, a.data)


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(1)
    # integer-valued entries keep float sums exact in any association order
    a = rng.integers(-9, 10, (2, 3)).astype(np.float64)
    b = rng.integers(-9, 10, (3, 2)).astype(np.float64)
    expected = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(3):
                expected[i, j] += a[i, k] * b[k, j]
    assert np.array_equal(ad.matmul(Tensor(a), Tensor(b)).data, expected)


def test_mean_backward_is_uniform():
    x = leaf(np.arange(5.0))
    ad.backward(ad.reduce_mean(x))
    assert np.allclose(x.grad, 0.2)


def test_sigmoid_backward_at_zero():
    x = leaf([0.0])
    ad.backward(ad.reduce_mean(ad.sigmoid(x)))
    assert abs(x.grad[0] - 0.25) < 1e-12


def test_fanout_gradients_sum():
    x = leaf([1.0])
    ad.backward(ad.reduce_mean(ad.add(x, x)))
    assert x.grad[0] == 2.0


def test_backward_of_a_leaf_adds_one_to_its_gradient():
    x = leaf([5.0])
    x.grad = np.array([2.0])
    ad.backward(x)
    assert x.grad[0] == 3.0


def test_gradients_reach_only_leaves_that_require_them():
    rng = np.random.default_rng(6)
    const = Tensor(rng.normal(size=(4, 3)))
    image = Tensor(rng.normal(size=(1, 2, 5, 5)))
    x = leaf(rng.normal(size=(2, 4)))
    w = leaf(rng.normal(size=(3, 2, 3, 3)))
    bias = Tensor(rng.normal(size=3))
    h = ad.matmul(x, const)
    y = ad.conv2d(image, w, bias)
    sq = ad.hadamard_mul(x, x)
    loss = ad.add(ad.add(ad.reduce_mean(h), ad.reduce_mean(y)), ad.reduce_mean(sq))
    ad.backward(loss)
    for t in (const, image, bias, h, y, sq, loss):
        assert t.grad is None, t.op
    # sq is x's last consumer, so its terms (a's, then b's) come first.
    g_sq = np.full(x.shape, 1.0 / x.size)
    expected_x = g_sq * x.data + g_sq * x.data + np.full(h.shape, 1.0 / h.size) @ const.data.T
    assert np.array_equal(x.grad, expected_x)
    # d mean(y) / d w[o, c, i, j] is the mean over outputs of the input under that tap.
    patch_sums = np.array([[[image.data[0, c, i : i + 3, j : j + 3].sum() for j in range(3)]
                            for i in range(3)] for c in range(2)])
    assert np.allclose(w.grad, np.broadcast_to(patch_sums / y.size, w.shape), rtol=0, atol=1e-12)


def test_backward_frees_each_gradient_once_passed_on():
    c = Tensor(np.full((128, 1024), 0.01))
    x = leaf(np.zeros((128, 1024)))  # 1 MB
    y = x
    for _ in range(40):
        y = ad.tanh(ad.add(y, c))
    loss = ad.reduce_mean(y)
    tracemalloc.start()
    try:
        ad.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"backward peak {peak / 2**20:.1f} MB"
    assert x.grad.shape == x.shape and np.all(x.grad > 0.0)


def test_an_output_no_vjp_reads_is_freed_with_its_tensor():
    rng = np.random.default_rng(9)
    c = Tensor(rng.normal(size=(4, 5)))
    x = leaf(rng.normal(size=(4, 5)))
    s = ad.add(x, c)  # tanh's VJP reads its own output, not this one
    freed = weakref.ref(s.data)
    loss = ad.reduce_mean(ad.tanh(s))
    del s
    assert freed() is None
    ad.backward(loss)
    y = np.tanh(x.data + c.data)
    expected = np.full(x.shape, 1.0 / x.size) * (1.0 - y * y)
    assert np.array_equal(x.grad, expected)
    # The graph stays usable: a second sweep adds the same terms again.
    ad.backward(loss)
    assert np.array_equal(x.grad, 2.0 * expected)


def _training_loss(patch):
    """The desk-scale training graph at batch 8 of ``patch``-square patches:
    its parameters and total loss."""
    config = tr.TrainConfig(batch_size=8, patch_size=patch, hidden_size=64, kwta_k=32)
    params = pl.init_pipeline(config.pipeline, seed=config.seed)
    batch = np.random.default_rng(10).integers(0, 256, (8, patch, patch, 3)).astype(np.uint8)
    out = pl.forward(batch, params, config.pipeline, rounding="soft")
    terms = losses.loss_terms(Tensor(batch.astype(np.float64)), out.reconstruction,
                              params.tables, out.scores, config.loss)
    return params, terms["total"]


# At 8x64^2, holding every forward value read 72.6 MiB live, keeping conv2d's
# im2col columns 40.0 MiB, running the refiner's first step in full from a
# zero state 31.3 MiB, and keeping the refiner's iterations 27.6 MiB; at
# 8x128^2 keeping the iterations read 102.3 MiB.
@pytest.mark.parametrize("patch, mib", [(64, 20), (128, 75)])
def test_training_graph_keeps_only_what_its_vjps_read(patch, mib):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        params, loss = _training_loss(patch)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert live < mib * 2**20, f"live graph {live / 2**20:.1f} MiB"
    ad.backward(loss)
    assert all(t.grad is not None for t in params.named().values())


# At 8x64^2, keeping conv2d's im2col columns read 52.8 MiB, building them,
# their gradient and a padded input for the whole batch at once 46.5 MiB,
# running the refiner's first step in full from a zero state 38.4 MiB, and
# keeping the refiner's iterations 35.3 MiB; at 8x128^2 keeping the
# iterations read 127.9 MiB.
@pytest.mark.parametrize("patch, mib", [(64, 28), (128, 100)])
def test_training_forward_and_backward_peak_stays_bounded(patch, mib):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, loss = _training_loss(patch)
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20, f"forward and backward peak {peak / 2**20:.1f} MiB"


def test_recompute_refuses_a_fn_that_reads_a_tensor_around_its_inputs():
    x, w = leaf([1.0, 2.0]), leaf([3.0, 4.0])
    with ad.no_grad():
        assert ad.recompute(lambda t: ad.hadamard_mul(t, w), x)._node is None
    y = ad.recompute(lambda t: ad.hadamard_mul(t, w), x)
    with pytest.raises(RuntimeError, match="not among its inputs"):
        ad.backward(ad.reduce_mean(y))


def test_conv2d_temporaries_are_one_image_at_a_time():
    rng = np.random.default_rng(11)
    x, w, bias = (leaf(rng.normal(size=shape)) for shape in ((8, 16, 48, 48), (8, 16, 3, 3), (8,)))
    g = rng.normal(size=(8, 8, 24, 24))
    tracemalloc.start()
    try:
        out = ad.conv2d(x, w, bias, stride=2, padding=1)
        grads = [vjp(g) for _, vjp in out._node.parents]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = out.data.nbytes + sum(grad.nbytes for grad in grads)
    image_columns = 16 * 3 * 3 * 24 * 24 * 8
    # The whole batch's columns alone are eight images' worth.
    assert peak < returned + 2 * image_columns, (
        f"peak {peak / 2**20:.2f} MiB over {returned / 2**20:.2f} MiB returned")


def test_conv2d_forward_temporaries_are_one_band_of_columns():
    # Layer 2 of a half-Kodak stem: one image's columns are 14.2 MB, the
    # output 3.1 MB.
    rng = np.random.default_rng(12)
    x, w, bias = (Tensor(rng.normal(size=shape)) for shape in ((1, 32, 128, 192), (64, 32, 3, 3),
                                                               (64,)))
    peak = traced_peak(lambda: ad.conv2d(x, w, bias, stride=2, padding=1))
    out_bytes = 64 * 64 * 96 * 8
    assert peak < out_bytes + 2 * ad.BAND_BYTES, f"peak {peak / 2**20:.2f} MiB"


def test_backward_rejects_non_scalar():
    x = leaf([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.add(x, x))


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(ad.ShapeError, match=r"add.*\(2,\).*\(3,\)"):
        ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


# --- soft rounding -----------------------------------------------------------


def test_soft_round_fixed_points_and_examples():
    x = Tensor([2.0, 0.25, 1.6, -0.25])
    y = ad.soft_round(x, alternate_sign=False)
    assert np.allclose(y.data, [2.0, -0.015625, 2.064, 0.015625], atol=1e-12)


def test_soft_round_backward_is_minus_three_square():
    x = leaf([0.25])
    ad.backward(ad.reduce_mean(ad.soft_round(x, alternate_sign=False)))
    assert abs(x.grad[0] - (-0.1875)) < 1e-12


def test_soft_round_alternate_sign():
    x = leaf([0.25])
    y = ad.soft_round(x, alternate_sign=True)
    assert abs(y.data[0] - 0.015625) < 1e-15
    ad.backward(ad.reduce_mean(y))
    assert abs(x.grad[0] - 0.1875) < 1e-12


@given(st.floats(-100, 100, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_soft_round_within_eighth_of_hard(value):
    soft = ad.soft_round(Tensor([value]), alternate_sign=False).data[0]
    hard = round_half_away(np.array([value]))[0]
    assert abs(soft - hard) <= 0.125 + 1e-12


# --- clamp subgradient --------------------------------------------------------


def test_clamp_gradient_one_inside_zero_outside():
    x = leaf([-2.0, -1.0, 0.3, 1.0, 4.0])
    ad.backward(ad.reduce_mean(ad.clamp(x, -1.0, 1.0)))
    assert np.allclose(x.grad * 5, [0.0, 1.0, 1.0, 1.0, 0.0])


# --- kwta ---------------------------------------------------------------------


def kwta_support_oracle(v, k):
    """Sort-based top-k-by-magnitude support with lowest-index tie breaking."""
    order = sorted(range(len(v)), key=lambda i: (-abs(v[i]), i))
    return set(order[: min(k, len(v))])


def test_kwta_keeps_two_largest():
    out = ad.kwta(Tensor([[0.1, 0.9, 0.5, 0.3]]), 2)
    assert out.data.tolist() == [[0.0, 0.9, 0.5, 0.0]]


def test_kwta_all_zero_input_stays_zero():
    out = ad.kwta(Tensor(np.zeros((2, 7))), 3)
    assert np.all(out.data == 0.0)


def test_kwta_k_zero_and_k_full():
    v = Tensor([[1.0, -2.0, 3.0]])
    assert np.all(ad.kwta(v, 0).data == 0.0)
    assert np.array_equal(ad.kwta(v, 3).data, v.data)
    assert np.array_equal(ad.kwta(v, 10).data, v.data)


def test_kwta_matches_sort_oracle_with_ties():
    rng = np.random.default_rng(8)
    for _ in range(300):
        v = np.round(rng.normal(0, 1, 64), 1)  # coarse values force ties
        k = int(rng.integers(0, 65))
        out = ad.kwta(Tensor(v), k).data
        support = set(np.nonzero(out)[0].tolist())
        oracle = {i for i in kwta_support_oracle(v.tolist(), k) if v[i] != 0.0}
        assert support == oracle
        kept = [i for i in range(64) if out[i] != 0.0]
        assert all(out[i] == v[i] for i in kept)


def test_kwta_equals_stable_argsort_form_on_ties_for_every_k():
    rng = np.random.default_rng(11)
    values = rng.integers(-3, 4, (40, 64)).astype(np.float64)  # seven magnitudes per 64
    for k in range(1, 64):
        out = ad.kwta(Tensor(values), k).data
        expected = kwta_stable_argsort(values, k)
        # Same values and the same signed zeros, so the same mask.
        assert np.array_equal(out, expected) and np.array_equal(np.signbit(out),
                                                                np.signbit(expected)), k


def test_kwta_backward_masks_suppressed_entries():
    x = leaf([[0.1, 0.9, 0.5, 0.3]])
    ad.backward(ad.reduce_mean(ad.kwta(x, 2)))
    assert np.allclose(x.grad * 4, [[0.0, 1.0, 1.0, 0.0]])


@st.composite
def conv_cases(draw):
    """A conv2d case: x, w and bias arrays plus stride and padding, with odd
    sizes and, now and then, an input that is a non-contiguous view.  With
    padding up to 2 and kernels of 1-3 taps a side, some taps read part of
    the padding and some only padding."""
    b, c, o = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    h, w = (draw(st.integers(max(1, k - 2 * padding), 9)) for k in (kh, kw))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(b, c, h, w))
    if draw(st.booleans()):
        x = np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    return x, rng.normal(size=(o, c, kh, kw)), rng.normal(size=(o,)), stride, padding


def _conv2d_against_the_column_keeping_form(case, band_bytes, band_rows):
    """Run ``conv2d`` under a ``band_bytes`` budget and the reference with its
    forward GEMM split into ``band_rows`` bands; both forward and backward
    must agree bit for bit."""
    x, w, bias, stride, padding = case
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "BAND_BYTES", band_bytes)
        for conv in (ad.conv2d, functools.partial(conv2d_keeping_columns, band_rows=band_rows)):
            xt, wt, bt = leaf(x), leaf(w), leaf(bias)
            out = conv(xt, wt, bt, stride=stride, padding=padding)
            upstream = Tensor(np.cos(np.arange(out.size, dtype=np.float64)).reshape(out.shape))
            ad.backward(ad.reduce_mean(ad.hadamard_mul(out, upstream)))
            results.append((out.data, xt.grad, wt.grad, bt.grad))
    # Bytes, not values: -0.0 and 0.0 differ here.
    for name, new, kept in zip(("out", "x", "w", "bias"), *results):
        assert new.shape == kept.shape and new.tobytes() == kept.tobytes(), name


@given(conv_cases())
@settings(max_examples=200, deadline=None)
def test_conv2d_matches_the_column_keeping_form_bit_for_bit(case):
    # No case's columns reach the default budget, so each image is one band.
    _conv2d_against_the_column_keeping_form(case, ad.BAND_BYTES, None)


@given(conv_cases())
@settings(max_examples=200, deadline=None)
def test_conv2d_in_one_row_bands_matches_the_column_keeping_form_bit_for_bit(case):
    # A one-byte budget makes every band one output row, so every band pads
    # its own input rows, a 1x1 kernel's too; the reference splits its GEMM
    # the same way.
    _conv2d_against_the_column_keeping_form(case, 1, 1)


# --- grad check over every registered op --------------------------------------


def _op_closures(rng):
    """Scalar-valued closures exercising each op, plus safe input domains."""
    w = Tensor(rng.normal(size=(6, 4)))
    w33 = Tensor(rng.normal(size=(3, 3)))
    conv_w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.3)
    conv_b = Tensor(rng.normal(size=(3,)))
    conv_x = Tensor(rng.normal(size=(2, 2, 6, 6)))

    def rounding_safe(x):
        # The surrogate's derivative vanishes at integers and jumps at
        # half-integers; finite differences degenerate near both, so keep a
        # clear margin to those critical points.
        base = np.floor(np.clip(x, -1.94, 1.94))
        frac = rng.uniform(0.06, 0.44, x.shape) + 0.5 * rng.integers(0, 2, x.shape)
        return base + frac

    return {
        "add": ((3, 4), lambda t: ad.reduce_mean(ad.add(t, ad.hadamard_mul(t, t)))),
        "sub": ((3, 4), lambda t: ad.reduce_mean(ad.sub(ad.hadamard_mul(t, t), t))),
        "hadamard_mul": ((3, 4), lambda t: ad.reduce_mean(ad.hadamard_mul(t, t))),
        "scalar_mul": ((3, 4), lambda t: ad.reduce_mean(ad.scalar_mul(t, -1.7))),
        "scalar_add": ((3, 4), lambda t: ad.reduce_mean(
            ad.hadamard_mul(ad.scalar_add(t, -1.7), t))),
        "matmul_lhs": ((3, 6), lambda t: ad.reduce_mean(ad.matmul(t, w))),
        "matmul_rhs": ((4, 3), lambda t: ad.reduce_mean(ad.matmul(w, t))),
        "reciprocal": ((3, 4), lambda t: ad.reduce_mean(
            ad.reciprocal(ad.add(ad.hadamard_mul(t, t), ad.ones((3, 4)))))),
        "sigmoid": ((3, 4), lambda t: ad.reduce_mean(ad.sigmoid(t))),
        "tanh": ((3, 4), lambda t: ad.reduce_mean(ad.tanh(t))),
        "reduce_mean": ((3, 4), lambda t: ad.reduce_mean(t)),
        "reduce_l1": ((3, 4), lambda t: ad.reduce_l1(t)),
        "clamp": ((3, 4), lambda t: ad.reduce_mean(ad.clamp(t, -1.5, 1.5))),
        "reshape": ((3, 4), lambda t: ad.reduce_mean(
            ad.hadamard_mul(ad.reshape(t, (2, 6)), ad.reshape(t, (2, 6))))),
        "transpose": ((3, 4), lambda t: ad.reduce_mean(
            ad.matmul(ad.transpose(t, (1, 0)), w33))),
        "concat": ((3, 4), lambda t: ad.reduce_mean(
            ad.hadamard_mul(ad.concat([t, t], axis=1), ad.concat([t, t], axis=1)))),
        "narrow": ((3, 4), lambda t: ad.reduce_mean(
            ad.hadamard_mul(ad.narrow(t, 1, 1, 2), ad.narrow(t, 1, 0, 2)))),
        "soft_round": ((3, 4), lambda t: ad.reduce_mean(ad.soft_round(t, False)), rounding_safe),
        "soft_round_alt": ((3, 4), lambda t: ad.reduce_mean(ad.soft_round(t, True)),
                           rounding_safe),
        "kwta": ((3, 8), lambda t: ad.reduce_mean(ad.kwta(t, 4))),
        "conv2d_x": ((2, 2, 6, 6), lambda t: ad.reduce_mean(
            ad.conv2d(t, conv_w, conv_b, stride=2, padding=1))),
        "conv2d_w": ((3, 2, 3, 3), lambda t: ad.reduce_mean(
            ad.conv2d(conv_x, t, conv_b, stride=2, padding=1))),
        "conv2d_b": ((3,), lambda t: ad.reduce_mean(
            ad.conv2d(conv_x, conv_w, t, stride=2, padding=1))),
    }


def test_grad_check_every_op_below_1e4():
    rng = np.random.default_rng(17)
    worst = {}
    for name, spec in _op_closures(rng).items():
        shape, closure = spec[0], spec[1]
        prepare = spec[2] if len(spec) > 2 else (lambda x: x)
        errs = []
        for _ in range(20):
            x = prepare(rng.uniform(-2.0, 2.0, shape))
            # keep clamp inputs away from its kinks by the stated margin
            x = x + np.where(np.abs(np.abs(x) - 1.5) < 1e-3, 5e-3, 0.0)
            errs.append(grad_check(closure, Tensor(x), eps=1e-4))
        worst[name] = max(errs)
        assert worst[name] < 1e-4, f"{name}: {worst[name]}"


def test_grad_check_linear_closure_is_near_exact():
    err = grad_check(lambda t: ad.reduce_mean(ad.scalar_mul(t, 2.0)),
                        Tensor(np.arange(6.0)), eps=1e-4)
    assert err < 1e-10


def test_grad_check_clamp_strictly_inside_below_1e6():
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.9, 0.9, (5,))
    err = grad_check(lambda t: ad.reduce_mean(ad.clamp(t, -1.0, 1.0)), Tensor(x), eps=1e-4)
    assert err < 1e-6


# --- serialization -------------------------------------------------------------


def test_no_grad_links_no_parents_and_taping_resumes():
    x = leaf([1.0, -2.0])
    with ad.no_grad():
        y = ad.tanh(ad.hadamard_mul(x, x))
    assert not y.requires_grad and y._node is None
    assert np.array_equal(y.data, np.tanh(x.data * x.data))
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("inside")
    z = ad.reduce_mean(ad.hadamard_mul(x, x))
    assert z.requires_grad and z._node.parents
    ad.backward(z)
    assert np.array_equal(x.grad, x.data)


def test_no_grad_leaves_other_threads_taping():
    x = leaf([3.0])
    entered, done, results = threading.Event(), threading.Event(), []

    def other_thread():
        entered.wait(10)
        results.append(ad.scalar_mul(x, 2.0).requires_grad)
        done.set()

    worker = threading.Thread(target=other_thread)
    worker.start()
    with ad.no_grad():
        entered.set()
        assert done.wait(10)
        assert not ad.scalar_mul(x, 2.0).requires_grad
    worker.join(10)
    assert not worker.is_alive()
    assert results == [True]


def test_named_tensor_container_roundtrip_bit_exact():
    rng = np.random.default_rng(23)
    named = {
        "stem.w1": rng.normal(size=(4, 3, 3, 3)),
        "smrnn.Wf": rng.normal(size=(64, 16)),
        "scalar": np.array(np.pi),
        "unicode-名前": rng.normal(size=(2,)),
    }
    blob = tr.save_tensors(named)
    loaded, end = tr.load_tensors(blob)
    assert end == len(blob)
    assert set(loaded) == set(named)
    for key, value in named.items():
        assert loaded[key].tobytes() == np.asarray(value, dtype="<f8").tobytes()


def test_container_parses_with_trailing_payload():
    blob = tr.save_tensors({"a": np.ones(3)}) + b'{"extra": 1}'
    loaded, end = tr.load_tensors(blob)
    assert np.array_equal(loaded["a"], np.ones(3))
    assert blob[end:] == b'{"extra": 1}'


@pytest.mark.parametrize(
    "blob",
    [
        struct.pack("<I", 2**32 - 1),  # tensor count
        struct.pack("<2I", 1, 2**32 - 1) + bytes(16),  # name length
        struct.pack("<2I", 1, 1) + b"\xff" + struct.pack("<I", 0) + bytes(8),  # name not UTF-8
        struct.pack("<2I", 1, 1) + b"a" + struct.pack("<I", 2**32 - 1) + bytes(16),  # rank
        struct.pack("<2I", 1, 1) + b"a" + struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1)
        + bytes(16),  # dims
    ],
)
def test_container_rejects_corrupt_header_before_allocating(blob):
    with pytest.raises(tr.CheckpointFormatError):
        tr.load_tensors(blob)
