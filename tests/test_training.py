
import importlib
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from softjpeg import LearnedJpeg
from softjpeg import pipeline as pl
from softjpeg import training as tr
from softjpeg.autodiff import Tensor
from softjpeg.codec import bits_per_pixel, decode_baseline, encode_baseline, tables_for_quality
from softjpeg.codec import write_ppm
from softjpeg.training import CSV_HEADER, CheckpointFormatError, LossConfig, load_tensors
from tests.conftest import make_natural_image


def quick_config(**kw):
    base = dict(steps=6, batch_size=4, patch_size=32, num_patches=6, seed=3,
                hidden_size=16, kwta_k=16)
    base.update(kw)
    return tr.TrainConfig(**base)


def quick_patches(count=6, size=32, seed=0):
    rng = np.random.default_rng(seed)
    return tr.sample_patches([make_natural_image(128, 128, seed=40)], size, count, rng)


# --- schedule ----------------------------------------------------------------


def test_poly_decay_endpoints():
    assert tr.poly_decay(1.0, 1e-8, 0, 100, 1.0) == 1.0
    assert tr.poly_decay(1.0, 1e-8, 100, 100, 1.0) == 1e-8
    assert tr.poly_decay(1.0, 1e-8, 250, 100, 1.0) == 1e-8  # clamps past the end


def test_poly_decay_midpoint_linear():
    assert abs(tr.poly_decay(1.0, 1e-8, 50, 100, 1.0) - 0.5) < 1e-6


def test_poly_decay_power_two():
    lr = tr.poly_decay(1.0, 0.0, 50, 100, 2.0)
    assert abs(lr - 0.25) < 1e-12


def test_poly_decay_rejects_bad_power():
    with pytest.raises(ValueError):
        tr.poly_decay(1.0, 1e-8, 0, 100, 0.0)


# --- adam ---------------------------------------------------------------------


def test_adam_first_step_moves_by_lr():
    t = Tensor(np.full((3, 3), 5.0), requires_grad=True)
    t.grad = np.ones((3, 3))
    state = tr.init_adam({"w": t})
    tr.adam_step({"w": t}, state, lr=0.1)
    assert np.allclose(t.data, 5.0 - 0.1, atol=1e-7)


def test_adam_zero_gradient_keeps_params_and_decays_moments():
    t = Tensor(np.ones((2,)), requires_grad=True)
    t.grad = np.array([1.0, -1.0])
    state = tr.init_adam({"w": t})
    tr.adam_step({"w": t}, state, lr=0.01)
    after_first = t.data.copy()
    m_prev = state.m["w"].copy()
    t.grad = np.zeros((2,))
    tr.adam_step({"w": t}, state, lr=0.01)
    assert not np.array_equal(t.data, after_first)  # momentum keeps moving
    assert np.allclose(state.m["w"], 0.9 * m_prev)
    t.grad = None
    before = t.data.copy()
    for _ in range(500):
        tr.adam_step({"w": t}, state, lr=0.01)
    assert np.abs(t.data - before).max() < 0.2  # moments decay toward no-op


def test_adam_nonfinite_gradient_names_parameter():
    t = Tensor(np.ones((2,)), requires_grad=True)
    t.grad = np.array([1.0, np.nan])
    state = tr.init_adam({"stem.w1": t})
    with pytest.raises(ValueError, match="stem.w1"):
        tr.adam_step({"stem.w1": t}, state, lr=0.1)


def test_table_pushed_below_lower_bound_clamps_exactly():
    cfg = quick_config()
    params = pl.init_pipeline(cfg.pipeline, seed=0)
    params.tables.luma.data[...] = cfg.table_scale * 1.5
    params.tables.luma.grad = np.full((8, 8), 1e9)
    state = tr.init_adam(params.named())
    tr.adam_step(params.named(), state, lr=1.0)
    params.tables.clamp_()
    assert np.all(params.tables.luma.data == cfg.table_scale)


# --- patches --------------------------------------------------------------------


def test_load_patches_inside_bounds_and_deterministic(tmp_path):
    img = make_natural_image(512, 512, seed=50)
    write_ppm(tmp_path / "a.ppm", img)
    first = tr.load_patches(tmp_path, 256, 4, seed=9)
    second = tr.load_patches(tmp_path, 256, 4, seed=9)
    assert len(first) == 4
    for a, b in zip(first, second):
        assert a.shape == (256, 256, 3)
        assert np.array_equal(a, b)


def test_patch_content_matches_source_region(tmp_path):
    img = make_natural_image(96, 96, seed=51)
    write_ppm(tmp_path / "img.ppm", img)
    (patch,) = tr.load_patches(tmp_path, 64, 1, seed=4)
    matches = [
        (top, left)
        for top in range(33)
        for left in range(33)
        if np.array_equal(img[top : top + 64, left : left + 64], patch)
    ]
    assert len(matches) >= 1


def test_load_patches_skips_bad_files_with_warning(tmp_path):
    write_ppm(tmp_path / "good.ppm", make_natural_image(64, 64, seed=52))
    (tmp_path / "tiny.ppm").write_bytes(b"P6\n8 8\n255\n" + bytes(192))
    (tmp_path / "broken.ppm").write_bytes(b"P6 not really")
    with pytest.warns(UserWarning):
        patches = tr.load_patches(tmp_path, 32, 3, seed=0)
    assert len(patches) == 3


def test_load_patches_empty_directory_errors(tmp_path):
    with pytest.raises(ValueError, match="no usable"):
        tr.load_patches(tmp_path, 32, 2, seed=0)


# --- training loop ---------------------------------------------------------------


def test_fixed_seed_reproduces_trajectory_bit_exactly():
    patches = quick_patches()
    cfg = quick_config()
    _, hist_a = tr.train_on_patches(patches, cfg)
    _, hist_b = tr.train_on_patches(patches, cfg)
    assert [h["loss"] for h in hist_a] == [h["loss"] for h in hist_b]


def test_benchmark_train_records_match_their_pins(monkeypatch):
    """The first steps of a perfbench train pool entry, run by the real loop,
    give the record digests pinned in perfbench/pins.json, so a change that
    moves the trajectory fails here and not only in the benchmark.  A change
    of one op's output layout first moved a record at step 4 to 8."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    inputs = importlib.import_module("inputs")
    workloads = importlib.import_module("workloads")
    pins = json.loads((bench / "pins.json").read_text())["train"]
    entry, steps = 0, 10
    patches = inputs.train_patches(entry, workloads.TRAIN_CONFIG)
    _, history = tr.train_on_patches(patches, workloads.TRAIN_CONFIG, stop_step=steps)
    assert [workloads.record_digest(r) for r in history] == [
        pins[f"{entry}:{step}"] for step in range(steps)]


def test_tables_stay_clamped_every_step():
    patches = quick_patches()
    cfg = quick_config(steps=5)
    ckpt, _ = tr.train_on_patches(patches, cfg)
    s = cfg.table_scale
    for t in (ckpt.params.tables.luma.data, ckpt.params.tables.chroma.data):
        assert t.min() >= s - 1e-18 and t.max() <= 255 * s + 1e-18


def test_training_log_lines(capsys):
    patches = quick_patches()
    cfg = quick_config(steps=2)
    tr.train_on_patches(patches, cfg, log=print)
    lines = [l for l in capsys.readouterr().out.strip().splitlines() if l]
    assert len(lines) == 2
    assert all(len(line.split(",")) == 6 for line in lines)


def test_checkpoint_roundtrip_bit_exact():
    patches = quick_patches()
    cfg = quick_config(steps=3)
    ckpt, _ = tr.train_on_patches(patches, cfg)
    blob = tr.checkpoint_bytes(ckpt)
    loaded = tr.checkpoint_from_bytes(blob)
    assert tr.checkpoint_bytes(loaded) == blob
    for name, t in ckpt.params.named().items():
        assert np.array_equal(loaded.params.named()[name].data, t.data)
    assert loaded.adam.step == ckpt.adam.step
    assert loaded.config == cfg


@pytest.fixture(scope="module")
def init_checkpoint():
    """A loadable checkpoint of the quick config at initialization: 4.9 MB,
    nearly all of it stem weights."""
    cfg = quick_config()
    params = pl.init_pipeline(cfg.pipeline)
    return tr.checkpoint_bytes(tr.TrainingCheckpoint(params, tr.init_adam(params.named()),
                                                     cfg))


def test_every_truncated_checkpoint_raises_checkpoint_format_error(init_checkpoint):
    blob = init_checkpoint
    assert tr.checkpoint_from_bytes(blob).adam.step == 0
    # Every cut inside one tensor's payload fails alike, so of those only the
    # first two and the last are tried; every other prefix is.
    named, end = load_tensors(blob)
    cuts, first, pos = set(), 0, 4
    for name, value in named.items():
        payload = pos + 8 + len(name.encode()) + 4 * value.ndim
        pos = payload + 8 * value.size
        cuts.update(range(first, payload + 2))
        first = pos - 1
    assert pos == end
    cuts.update(range(first, len(blob)))
    for cut in sorted(cuts):
        with pytest.raises(CheckpointFormatError):
            tr.checkpoint_from_bytes(blob[:cut])


@pytest.mark.parametrize(
    "name, shape",
    [("smrnn.U", (32, 32)), ("adam.v.stem.w4", (128, 256)), ("qtables.luma", (64,))],
)
def test_checkpoint_tensor_of_wrong_shape_raises_checkpoint_format_error(init_checkpoint,
                                                                         name, shape):
    named, end = load_tensors(init_checkpoint)
    named[name] = named[name].reshape(shape)
    with pytest.raises(CheckpointFormatError, match=rf"tensor '{name}' has shape"):
        tr.checkpoint_from_bytes(tr.save_tensors(named) + init_checkpoint[end:])


@pytest.mark.parametrize("name", ["stem.w1", "qtables.chroma", "adam.m.smrnn.Vf",
                                  "adam.v.qtables.luma"])
def test_checkpoint_missing_a_tensor_raises_checkpoint_format_error(init_checkpoint, name):
    named, end = load_tensors(init_checkpoint)
    del named[name]
    message = rf"^malformed checkpoint: KeyError\('{name}'\)$"
    with pytest.raises(CheckpointFormatError, match=message):
        tr.checkpoint_from_bytes(tr.save_tensors(named) + init_checkpoint[end:])


def test_checkpoint_hidden_size_beyond_its_tensors_rejected_before_allocating(init_checkpoint):
    # At hidden_size 4096 the refiner alone would take 2 x 128 MB.
    end = load_tensors(init_checkpoint)[1]
    trailer = init_checkpoint[end:].replace(b'"hidden_size": 16', b'"hidden_size": 4096')
    assert trailer != init_checkpoint[end:]
    blob = init_checkpoint[:end] + trailer
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointFormatError, match="hidden_size 4096 does not fit"):
            tr.checkpoint_from_bytes(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(blob)


def top_level_step(trailer, value):
    """The trailer with its last key, the top-level "step", set to ``value``."""
    return trailer[: trailer.rindex(b'"step"')] + b'"step": ' + value + b"}"


@pytest.mark.parametrize(
    "edit",
    [
        lambda trailer: b"[]",
        lambda trailer: b"\xff",
        lambda trailer: trailer.replace(b', "step": 0}', b"}"),
        lambda trailer: trailer.replace(b'"steps": 6', b'"stepz": 6'),
        lambda trailer: trailer.replace(b'"hidden_size": 16', b'"hidden_size": 0'),
        lambda trailer: top_level_step(trailer, b'"x"'),
        lambda trailer: top_level_step(trailer, b"1"),
        lambda trailer: trailer.replace(b'"step": 0', b'"step": -1'),
        lambda trailer: trailer.replace(b'"beta1": 0.9', b'"beta1": "x"'),
        lambda trailer: trailer.replace(b'"beta1": 0.9', b'"beta1": NaN'),
        lambda trailer: trailer.replace(b'"beta2": 0.999', b'"beta2": -Infinity'),
        lambda trailer: trailer.replace(b'"eps": 1e-08', b'"eps": Infinity'),
        lambda trailer: trailer.replace(b'"beta1": 0.9', b'"beta1": 1.0'),
        lambda trailer: trailer.replace(b'"beta2": 0.999', b'"beta2": 1.0'),
        lambda trailer: trailer.replace(b'"eps": 1e-08', b'"eps": 0'),
        lambda trailer: trailer.replace(b'"eps": 1e-08', b'"eps": -1'),
    ],
    ids=["not-an-object", "not-utf8", "missing-step", "unknown-config-key", "zero-hidden-size",
         "step-not-an-int", "step-not-the-adam-step", "negative-step", "adam-scalar-not-a-number",
         "adam-beta1-nan", "adam-beta2-minus-infinity", "adam-eps-infinity", "adam-beta1-one",
         "adam-beta2-one", "adam-eps-zero", "adam-eps-negative"],
)
def test_malformed_checkpoint_trailer_raises_checkpoint_format_error(init_checkpoint, edit):
    blob = init_checkpoint
    end = load_tensors(blob)[1]
    trailer = edit(blob[end:])
    assert trailer != blob[end:]
    with pytest.raises(CheckpointFormatError):
        tr.checkpoint_from_bytes(blob[:end] + trailer)


def test_config_from_dict_names_unknown_keys():
    with pytest.raises(ValueError, match="stepz"):
        tr.TrainConfig.from_dict({"steps": 2, "stepz": 3})
    with pytest.raises(ValueError, match="lamda"):
        tr.TrainConfig.from_dict({"loss": {"lamda": 0.5}})
    with pytest.raises(ValueError, match="JSON object"):
        tr.TrainConfig.from_dict({"loss": 5})


def test_config_from_dict_checks_value_types():
    cfg = tr.TrainConfig.from_dict({"lr0": 1, "loss": {"alpha": 0}, "soft_round_alternate": False})
    assert cfg.lr0 == 1 and cfg.loss.alpha == 0 and cfg.soft_round_alternate is False
    assert type(cfg.lr0) is int  # validation never casts, so the trailer stays as written
    for data, key in (({"steps": 2.0}, "steps"), ({"lr0": True}, "lr0"),
                      ({"soft_round_alternate": 1}, "soft_round_alternate"),
                      ({"loss": {"sigma": None}}, "sigma"), ({"lr0": math.nan}, "lr0"),
                      ({"table_scale": math.inf}, "table_scale"), ({"lr_end": 10**400}, "lr_end"),
                      ({"loss": {"gamma": -math.inf}}, "gamma"), ({"lr0": math.inf}, "lr0"),
                      ({"steps": np.int64(2)}, "steps"), ({"steps": 2.5}, "steps"),
                      ({"seed": 1.5}, "seed")):
        # A config is checked alike when built from JSON, in Python or by the estimator.
        for build in (tr.TrainConfig.from_dict, lambda d: tr.TrainConfig(**d),
                      lambda d: LearnedJpeg(**{k: v for k, v in d.items() if k != "loss"},
                                            **d.get("loss", {})).fit([])):
            with pytest.raises(ValueError, match=repr(key)):
                build(data)


def test_feature_proxy_raises_distortion_and_reaches_the_stem():
    batch = np.stack(quick_patches(4))
    runs = {}
    for gamma in (0.0, 0.5):
        cfg = quick_config(loss=LossConfig(gamma=gamma))
        params = pl.init_pipeline(cfg.pipeline, seed=cfg.seed)
        record = tr.train_step(params, cfg, tr.init_adam(params.named()), batch, 0)
        runs[gamma] = record, params
    (plain, plain_params), (proxy, proxy_params) = runs[0.0], runs[0.5]
    assert np.isfinite(proxy["d"]) and proxy["d"] > plain["d"]
    for name, t in proxy_params.stem.named().items():
        assert not np.array_equal(t.grad, plain_params.stem.named()[name].grad), name


def test_resume_matches_uninterrupted_run(tmp_path):
    patches = quick_patches()
    cfg = quick_config(steps=8)
    _, hist_full = tr.train_on_patches(patches, cfg)

    half_ckpt, hist_half = tr.train_on_patches(patches, cfg, stop_step=5)
    assert half_ckpt.adam.step == 5
    path = tmp_path / "half.ckpt"
    tr.save_checkpoint(half_ckpt, path)
    resumed = tr.load_checkpoint(path)
    _, hist_rest = tr.train_on_patches(patches, cfg, resume=resumed)

    assert [h["loss"] for h in hist_half + hist_rest] == [h["loss"] for h in hist_full]


def test_train_writes_loadable_checkpoint(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_ppm(data_dir / "img.ppm", make_natural_image(96, 96, seed=53))
    cfg = quick_config(steps=1, num_patches=4)
    out = tmp_path / "model.ckpt"
    tr.train(cfg, data_dir, out)
    loaded = tr.load_checkpoint(out)
    assert loaded.adam.step == 1
    assert loaded.config.patch_size == 32


# --- evaluation -------------------------------------------------------------------


@pytest.fixture(scope="module")
def eval_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eval")
    data_dir = tmp / "imgs"
    data_dir.mkdir()
    write_ppm(data_dir / "one.ppm", make_natural_image(184, 192, seed=54))
    cfg = quick_config(steps=2, num_patches=4)
    ckpt, _ = tr.train_on_patches(quick_patches(4, 32, seed=8), cfg)
    return ckpt, data_dir, tmp


def test_evaluate_writes_two_rows_per_image(eval_setup):
    ckpt, data_dir, tmp = eval_setup
    csv_path = tmp / "metrics.csv"
    rows = tr.evaluate(ckpt, data_dir, csv_out=csv_path)
    assert len(rows) == 2
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert all(row["bpp"] > 0 for row in rows)


def test_evaluate_baseline_row_matches_direct_measurement(eval_setup):
    ckpt, data_dir, _ = eval_setup
    rows = tr.evaluate(ckpt, data_dir)
    baseline = next(r for r in rows if "#jpeg-q" in r["image_id"])
    quality = int(baseline["image_id"].split("#jpeg-q")[1])
    img = make_natural_image(184, 192, seed=54)
    stream = encode_baseline(img, tables_for_quality(quality))
    # evaluate reconstructs from the matched grids; the row must be the one
    # measured on the decoded stream, every figure bit for bit.
    assert baseline == tr._metric_row(baseline["image_id"], bits_per_pixel(stream, 192, 184),
                                      img, decode_baseline(stream))


def test_evaluate_names_an_image_too_small_for_msssim_before_its_forward_pass(eval_setup):
    ckpt, _, tmp = eval_setup
    data_dir = tmp / "mixed"
    data_dir.mkdir()
    write_ppm(data_dir / "big.ppm", make_natural_image(256, 256, seed=55))
    write_ppm(data_dir / "small.ppm", make_natural_image(64, 64, seed=56))
    with mock.patch.object(pl, "forward", wraps=pl.forward) as forward:
        with pytest.raises(ValueError, match=r"small\.ppm: eval needs images of at least "
                                             r"176x176 pixels for MS-SSIM, got 64x64"):
            tr.evaluate(ckpt, data_dir)
    assert forward.call_count == 0  # small.ppm is checked before big.ppm is evaluated

