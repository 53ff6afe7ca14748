import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softjpeg import autodiff as ad
from softjpeg import training as tr
from softjpeg.autodiff import Tensor
from softjpeg.codec import round_half_away


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


def test_kwta_backward_masks_suppressed_entries():
    x = leaf([[0.1, 0.9, 0.5, 0.3]])
    ad.backward(ad.reduce_mean(ad.kwta(x, 2)))
    assert np.allclose(x.grad * 4, [[0.0, 1.0, 1.0, 0.0]])


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
            errs.append(ad.grad_check(closure, Tensor(x), eps=1e-4))
        worst[name] = max(errs)
        assert worst[name] < 1e-4, f"{name}: {worst[name]}"


def test_grad_check_linear_closure_is_near_exact():
    err = ad.grad_check(lambda t: ad.reduce_mean(ad.scalar_mul(t, 2.0)),
                        Tensor(np.arange(6.0)), eps=1e-4)
    assert err < 1e-10


def test_grad_check_clamp_strictly_inside_below_1e6():
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.9, 0.9, (5,))
    err = ad.grad_check(lambda t: ad.reduce_mean(ad.clamp(t, -1.0, 1.0)), Tensor(x), eps=1e-4)
    assert err < 1e-6


# --- serialization -------------------------------------------------------------


def test_no_grad_links_no_parents_and_taping_resumes():
    x = leaf([1.0, -2.0])
    with ad.no_grad():
        y = ad.tanh(ad.hadamard_mul(x, x))
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert np.array_equal(y.data, np.tanh(x.data * x.data))
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("inside")
    z = ad.reduce_mean(ad.hadamard_mul(x, x))
    assert z.requires_grad and z._parents
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
