import inspect
from dataclasses import asdict, fields

import numpy as np
import pytest

from softjpeg import LearnedJpeg, LossConfig, NotFittedError, TrainConfig
from softjpeg.codec import decode_baseline
from tests.conftest import make_natural_image


def tiny_estimator(**kw):
    base = dict(steps=2, batch_size=2, patch_size=32, num_patches=4,
                hidden_size=16, kwta_k=16, seed=1)
    base.update(kw)
    return LearnedJpeg(**base)


@pytest.fixture(scope="module")
def fitted():
    images = [make_natural_image(96, 96, seed=s) for s in (60, 61)]
    return tiny_estimator().fit(images), images


def test_get_params_round_trips_through_constructor():
    est = tiny_estimator(alpha=0.5, kwta_k=8)
    clone = LearnedJpeg(**est.get_params())
    assert clone.get_params() == est.get_params()


def test_params_are_the_train_and_loss_config_fields():
    expected = ({f.name for f in fields(TrainConfig) if f.name != "loss"}
                | {f.name for f in fields(LossConfig)})
    assert set(LearnedJpeg().get_params()) == expected


def test_signature_gives_every_hyperparameter_as_a_keyword_with_its_default():
    config = TrainConfig(batch_size=8, patch_size=64, num_patches=64)  # the desk-scale sizes
    defaults = {f.name: getattr(config, f.name) for f in fields(TrainConfig) if f.name != "loss"}
    defaults.update(asdict(config.loss))
    parameters = inspect.signature(LearnedJpeg).parameters
    assert {name: p.default for name, p in parameters.items()} == defaults
    assert {p.kind for p in parameters.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


def test_estimators_compare_and_hash_by_identity():
    est = LearnedJpeg()
    assert est == est and est != LearnedJpeg()
    assert len({est, LearnedJpeg()}) == 2


def test_set_params_returns_self_and_updates():
    est = tiny_estimator()
    assert est.set_params(alpha=0.7, steps=9) is est
    assert est.alpha == 0.7 and est.steps == 9


def test_set_params_rejects_unknown():
    with pytest.raises(ValueError, match="invalid parameter"):
        tiny_estimator().set_params(bogus=1)


def test_transform_before_fit_raises():
    with pytest.raises(NotFittedError):
        tiny_estimator().transform([make_natural_image(32, 32, seed=0)])


def test_fit_stores_state_and_history(fitted):
    est, _ = fitted
    assert est.params_ is not None
    assert len(est.history_) == est.steps
    assert est.config_.loss.lam == est.lam


def test_transform_streams_are_standard_jpeg(fitted, libjpeg_decode):
    est, images = fitted
    streams = est.transform(images)
    assert len(streams) == 2
    for stream, img in zip(streams, images):
        assert stream[:2] == b"\xff\xd8" and stream[-2:] == b"\xff\xd9"
        assert decode_baseline(stream).shape == img.shape
        assert libjpeg_decode(stream).shape == img.shape


def test_inverse_transform_decodes(fitted):
    est, images = fitted
    rasters = est.inverse_transform(est.transform([images[0]]))
    assert rasters[0].shape == images[0].shape


def test_single_image_accepted(fitted):
    est, images = fitted
    assert len(est.transform(images[0])) == 1


def test_quantization_tables_in_range(fitted):
    est, _ = fitted
    tables = est.quantization_tables()
    for t in (tables.luma, tables.chroma):
        assert t.min() >= 1 and t.max() <= 255


def test_save_load_round_trip(fitted, tmp_path):
    est, images = fitted
    path = tmp_path / "model.ckpt"
    est.save(path)
    loaded = LearnedJpeg.load(path)
    assert loaded.get_params() == est.get_params()
    for name, t in est.params_.named().items():
        assert np.array_equal(loaded.params_.named()[name].data, t.data)
    assert loaded.transform([images[0]])[0] == est.transform([images[0]])[0]


def test_fit_from_directory(tmp_path):
    from softjpeg.codec import write_ppm

    data = tmp_path / "train"
    data.mkdir()
    write_ppm(data / "a.ppm", make_natural_image(64, 64, seed=62))
    est = tiny_estimator(steps=1).fit(str(data))
    assert est.params_ is not None


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        tiny_estimator().fit(12345)
    with pytest.raises(ValueError):
        tiny_estimator().fit([np.zeros((4, 4))])  # not (H, W, 3)


def test_sklearn_clone_compatibility():
    base = pytest.importorskip("sklearn.base")
    est = tiny_estimator(alpha=0.42)
    clone = base.clone(est)
    assert clone is not est
    assert clone.get_params() == est.get_params()
    assert clone.params_ is None  # clones are unfitted
