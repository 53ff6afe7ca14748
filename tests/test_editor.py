import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softjpeg import autodiff as ad
from softjpeg import editor
from softjpeg.autodiff import Tensor


def zero_refiner(h=4):
    zeros = lambda *s: Tensor(np.zeros(s), requires_grad=True)
    return editor.RefinerParams(Wf=zeros(64, h), Vf=zeros(h, h), Vz=zeros(h, h),
                                Wz=zeros(64, h), U=zeros(h, 64))


def straight_line_refine(h_map, params, steps):
    """Independent per-row implementation of the two update equations,
    every step in full from z = 0."""
    Wf, Vf, Vz, Wz = (p.data for p in (params.Wf, params.Vf, params.Vz, params.Wz))
    out = []
    for row in range(h_map.shape[0]):
        H = h_map[row]
        z = np.zeros(Vf.shape[0])
        for _ in range(steps):
            f = (H @ Wf) * (z @ Vf)
            z = np.tanh(f @ Vz + H @ Wz)
        out.append(z)
    return np.stack(out)


def test_zero_weights_give_zero_state():
    params = zero_refiner()
    h_map = Tensor(np.random.default_rng(0).uniform(0, 1, (5, 64)))
    for steps in (1, 3, 7):
        z = editor.refine(h_map, params, steps)
        assert np.all(z.data == 0.0)


def test_scalar_case_single_step_is_tanh_half():
    ones = lambda: Tensor(np.ones((1, 1)))
    params = editor.RefinerParams(Wf=ones(), Vf=ones(), Vz=ones(), Wz=ones(), U=ones())
    z1 = editor.refine(Tensor([[0.5]]), params, 1)
    assert abs(z1.data[0, 0] - np.tanh(0.5)) < 1e-12
    assert abs(z1.data[0, 0] - 0.46212) < 1e-5


def test_zero_steps_returns_initial_state():
    rng = np.random.default_rng(1)
    params = editor.init_refiner(rng, hidden_size=8)
    out = editor.refine(Tensor(rng.uniform(0, 1, (3, 64))), params, 0)
    assert out.shape == (3, 8) and np.all(out.data == 0.0)


def test_negative_steps_rejected():
    params = editor.init_refiner(np.random.default_rng(0), 8)
    with pytest.raises(ValueError):
        editor.refine(Tensor(np.zeros((1, 64))), params, -1)


def test_refine_shape_mismatch_is_structured():
    params = editor.init_refiner(np.random.default_rng(0), 8)
    with pytest.raises(ad.ShapeError, match="refine"):
        editor.refine(Tensor(np.zeros((1, 63))), params, 1)


@given(rows=st.integers(1, 9), hidden=st.integers(1, 24), steps=st.integers(0, 5),
       seed=st.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_refine_matches_straight_line_oracle(rows, hidden, steps, seed):
    rng = np.random.default_rng(seed)
    params = editor.init_refiner(rng, hidden_size=hidden)
    h_map = rng.uniform(-1, 1, (rows, 64))
    ours = editor.refine(Tensor(h_map), params, steps).data
    oracle = straight_line_refine(h_map, params, steps)
    assert ours.shape == (rows, hidden)
    assert np.abs(ours - oracle).max() < 1e-12


@given(rows=st.integers(1, 9), hidden=st.integers(1, 24), steps=st.integers(0, 5),
       k=st.integers(0, 64), sweep=st.sampled_from(["once", "onto_grads", "twice", "in_no_grad"]),
       seed=st.integers(0, 2**32 - 1))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_recomputed_refiner_gives_the_taped_gradients_bit_for_bit(rows, hidden, steps, k,
                                                                   sweep, seed):
    rng = np.random.default_rng(seed)
    weights = [t.data for t in editor.init_refiner(rng, hidden_size=hidden).named().values()]
    coefficients = rng.uniform(-2000, 2000, (rows, 64))  # clamps on both sides
    c1, c2 = rng.normal(size=(2, rows, 64))

    def leaf_grads(taped):
        """Every leaf's gradient through two refiner calls sharing parameters."""
        x = Tensor(coefficients, requires_grad=True)
        refiner = editor.RefinerParams(*(Tensor(w, requires_grad=True) for w in weights))
        leaves = [x, *refiner.named().values()]
        if sweep == "onto_grads":
            for t in leaves:
                t.grad = np.full(t.shape, 0.25)
        call = (lambda fn, *inputs: fn(*inputs)) if taped else ad.recompute
        with mock.patch.object(ad, "recompute", side_effect=call) as spy:
            s1 = editor.coefficient_edit_scores(x, refiner, k, steps)
            s2 = editor.coefficient_edit_scores(ad.scalar_mul(x, -0.5), refiner, k, steps)
        assert spy.call_count == 2
        loss = ad.add(ad.add(ad.reduce_mean(ad.hadamard_mul(s1, Tensor(c1))),
                             ad.reduce_mean(ad.hadamard_mul(s2, Tensor(c2)))),
                      ad.reduce_mean(ad.hadamard_mul(x, x)))
        with ad.no_grad() if sweep == "in_no_grad" else contextlib.nullcontext():
            for _ in range(2 if sweep == "twice" else 1):
                ad.backward(loss)
        return [t.grad if t.grad is None else (t.grad.shape, t.grad.tobytes()) for t in leaves]

    assert leaf_grads(taped=False) == leaf_grads(taped=True)


# --- stem ----------------------------------------------------------------------


def test_zero_weight_stem_outputs_half_everywhere():
    params = editor.init_stem(np.random.default_rng(0))
    for t in (params.w1, params.b1, params.w2, params.b2, params.w3, params.b3,
              params.w4, params.b4):
        t.data[...] = 0.0
    features = editor.stem_forward(Tensor(np.random.default_rng(1).uniform(0, 1, (1, 3, 16, 16))),
                                   params)
    assert np.all(features.data == 0.5)
    h_l, h_c = editor.split_edit_maps(features)
    assert np.all(h_l.data == 0.5) and np.all(h_c.data == 0.5)


def test_stem_alignment_one_site_per_block():
    params = editor.init_stem(np.random.default_rng(2))
    features = editor.stem_forward(Tensor(np.zeros((2, 3, 16, 16))), params)
    assert features.shape == (2, 128, 2, 2)
    h_l, h_c = editor.split_edit_maps(features)
    assert h_l.shape == (8, 64) and h_c.shape == (8, 64)


def test_stem_output_bounds_under_random_weights():
    rng = np.random.default_rng(3)
    for seed in range(3):
        params = editor.init_stem(np.random.default_rng(seed))
        img = Tensor(rng.uniform(0, 1, (1, 3, 24, 32)))
        feats = editor.stem_forward(img, params).data
        assert feats.min() >= 0.0 and feats.max() <= 1.0


def test_stem_rejects_unaligned_input():
    params = editor.init_stem(np.random.default_rng(0))
    with pytest.raises(ad.ShapeError):
        editor.stem_forward(Tensor(np.zeros((1, 3, 12, 16))), params)


def test_split_edit_maps_is_8x8x2_unpacking():
    # Build features where channel c holds value c so the split is visible.
    feats = Tensor(np.arange(128.0)[None, :, None, None] * np.ones((1, 128, 1, 1)))
    h_l, h_c = editor.split_edit_maps(feats)
    assert h_l.data[0].tolist() == list(np.arange(0.0, 128.0, 2.0))
    assert h_c.data[0].tolist() == list(np.arange(1.0, 128.0, 2.0))


# --- edit scores -----------------------------------------------------------------


def test_zero_weights_give_zero_edit_scores():
    rng = np.random.default_rng(4)
    stem = editor.init_stem(rng)
    refiner = zero_refiner(8)
    img = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)))
    c_l, c_c = editor.edit_scores(img, stem, refiner, k=32, steps=3)
    assert np.all(c_l.data == 0.0) and np.all(c_c.data == 0.0)


def test_edit_scores_support_at_most_k():
    rng = np.random.default_rng(5)
    stem = editor.init_stem(rng)
    refiner = editor.init_refiner(rng, 32)
    img = Tensor(rng.uniform(0, 1, (1, 3, 24, 24)))
    for k in (0, 5, 32, 64):
        c_l, c_c = editor.edit_scores(img, stem, refiner, k=k, steps=2)
        assert (np.count_nonzero(c_l.data, axis=1) <= k).all()
        assert (np.count_nonzero(c_c.data, axis=1) <= k).all()


def test_edit_scores_deterministic():
    rng = np.random.default_rng(6)
    stem = editor.init_stem(np.random.default_rng(10))
    refiner = editor.init_refiner(np.random.default_rng(11), 16)
    img_data = rng.uniform(0, 1, (1, 3, 16, 16))
    a = editor.edit_scores(Tensor(img_data), stem, refiner, 16, 3)
    b = editor.edit_scores(Tensor(img_data), stem, refiner, 16, 3)
    assert np.array_equal(a[0].data, b[0].data)
    assert np.array_equal(a[1].data, b[1].data)


def test_kwta_gradient_contract_through_edit_projection():
    rng = np.random.default_rng(7)
    z = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
    u = Tensor(rng.normal(size=(8, 64)))
    scores = ad.kwta(ad.matmul(z, u), 16)
    mask = (scores.data != 0.0).astype(float)
    ad.backward(ad.reduce_mean(scores))
    expected = (np.full_like(scores.data, 1.0 / scores.data.size) * mask) @ u.data.T
    assert np.allclose(z.grad, expected, atol=1e-12)


def test_decoder_side_scores_share_refiner_weights():
    rng = np.random.default_rng(8)
    refiner = editor.init_refiner(rng, 16)
    dequant = Tensor(rng.normal(size=(4, 64)) * 500)
    c_dec = editor.coefficient_edit_scores(dequant, refiner, k=8, steps=3)
    assert (np.count_nonzero(c_dec.data, axis=1) <= 8).all()
    # the H input is the scaled coefficients, so values beyond +-1024 saturate
    h = np.clip(dequant.data / 1024.0, -1.0, 1.0)
    oracle = straight_line_refine(h, refiner, 3)
    proj = oracle @ refiner.U.data
    keep = np.argsort(-np.abs(proj), axis=1, kind="stable")[:, :8]
    expect = np.zeros_like(proj)
    np.put_along_axis(expect, keep, np.take_along_axis(proj, keep, axis=1), axis=1)
    assert np.abs(c_dec.data - expect).max() < 1e-12


def test_parameter_serialization_names():
    rng = np.random.default_rng(9)
    stem = editor.init_stem(rng)
    refiner = editor.init_refiner(rng, 8)
    names = set(stem.named()) | set(refiner.named())
    assert {"smrnn.Wf", "smrnn.Vf", "smrnn.Vz", "smrnn.Wz", "smrnn.U"} <= names
    assert all(n.startswith(("stem.", "smrnn.")) for n in names)
