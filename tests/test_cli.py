import json
import math

import numpy as np
import pytest

from softjpeg import cli
from softjpeg import training as tr
from softjpeg.cli import main
from softjpeg.codec import jfif, read_ppm, write_ppm
from softjpeg.training import CSV_HEADER
from tests.conftest import make_natural_image


@pytest.fixture()
def workdir(tmp_path):
    img = make_natural_image(48, 64, seed=70)
    src = tmp_path / "in.ppm"
    write_ppm(src, img)
    return tmp_path, src, img


def test_encode_decode_cycle(workdir, capsys):
    tmp, src, img = workdir
    jpg = tmp / "out.jpg"
    back = tmp / "back.ppm"
    assert main(["encode", "--input", str(src), "--output", str(jpg), "--quality", "90"]) == 0
    out = capsys.readouterr().out
    assert "bpp=" in out and "time=" in out
    assert main(["decode", "--input", str(jpg), "--output", str(back),
                 "--reference", str(src)]) == 0
    out = capsys.readouterr().out
    assert "psnr=" in out
    psnr_value = float(out.split("psnr=")[1].split("dB")[0])
    assert psnr_value >= 32.0
    assert read_ppm(back).shape == img.shape


def test_inputs_are_never_mutated(workdir):
    tmp, src, _ = workdir
    original = src.read_bytes()
    main(["encode", "--input", str(src), "--output", str(tmp / "o.jpg"), "--quality", "50"])
    assert src.read_bytes() == original


def test_usage_errors_exit_1(workdir, capsys):
    tmp, src, _ = workdir
    assert main(["encode", "--input", str(src), "--output", str(tmp / "o.jpg"),
                 "--quality", "0"]) == 1
    assert main(["encode", "--input", str(src), "--output", str(tmp / "o.jpg")]) == 1
    assert main(["bogus-command"]) == 1
    assert main(["encode", "--input", str(src), "--output", str(tmp / "o.jpg"),
                 "--quality", "50", "--unknown-flag"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["encode", "--help"], 0), ([], 1)])
def test_help_exits_0_and_no_command_exits_1(argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert "usage: softjpeg" in (out if code == 0 else err)


@pytest.mark.parametrize("quality", ["0", "101", "abc", "50.5"])
def test_bad_quality_exits_1_before_the_input_is_read(tmp_path, capsys, quality):
    assert main(["encode", "--input", str(tmp_path / "absent.ppm"),
                 "--output", str(tmp_path / "o.jpg"), "--quality", quality]) == 1
    assert "quality" in capsys.readouterr().err
    assert not (tmp_path / "o.jpg").exists()


def test_missing_input_exits_2(workdir, capsys):
    tmp, _, _ = workdir
    code = main(["encode", "--input", str(tmp / "absent.ppm"),
                 "--output", str(tmp / "o.jpg"), "--quality", "50"])
    assert code == 2
    assert "I/O error" in capsys.readouterr().err


def test_malformed_jpeg_exits_3_with_diagnostic(workdir, capsys):
    tmp, src, _ = workdir
    jpg = tmp / "t.jpg"
    main(["encode", "--input", str(src), "--output", str(jpg), "--quality", "50"])
    data = jpg.read_bytes()
    jpg.write_bytes(data[: len(data) // 2])
    code = main(["decode", "--input", str(jpg), "--output", str(tmp / "x.ppm")])
    assert code == 3
    err = capsys.readouterr().err
    assert "invalid input data" in err


def test_non_jpeg_input_exits_3(workdir, capsys):
    tmp, src, _ = workdir
    code = main(["decode", "--input", str(src), "--output", str(tmp / "x.ppm")])
    assert code == 3
    assert "SOI" in capsys.readouterr().err


def test_frame_wider_than_sof0_can_declare_exits_3(tmp_path, capsys):
    src = tmp_path / "wide.ppm"
    write_ppm(src, np.full((1, 70000, 3), 90, dtype=np.uint8))
    out = tmp_path / "wide.jpg"
    code = main(["encode", "--input", str(src), "--output", str(out), "--quality", "50"])
    assert code == 3
    assert "each side must be in 1..65535" in capsys.readouterr().err
    assert not out.exists()


def test_frame_past_the_decoder_pixel_limit_exits_3(tmp_path, capsys, monkeypatch):
    # A 4104x4104 PPM is 48 MiB; a broadcast raster stands in for reading it.
    monkeypatch.setattr(cli, "read_ppm", lambda path: np.broadcast_to(np.uint8(90),
                                                                      (4104, 4104, 3)))
    out = tmp_path / "big.jpg"
    code = main(["encode", "--input", "big.ppm", "--output", str(out), "--quality", "50"])
    assert code == 3
    assert "more than the 16777216-pixel limit" in capsys.readouterr().err
    assert not out.exists()


def test_reference_dimension_mismatch_exits_3(workdir, capsys):
    tmp, src, img = workdir
    jpg = tmp / "t.jpg"
    main(["encode", "--input", str(src), "--output", str(jpg), "--quality", "50"])
    from softjpeg.codec import write_ppm

    other = tmp / "other.ppm"
    write_ppm(other, img[: img.shape[0] // 2])
    code = main(["decode", "--input", str(jpg), "--output", str(tmp / "y.ppm"),
                 "--reference", str(other)])
    assert code == 3
    assert "differs" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-train")
    data = tmp / "data"
    data.mkdir()
    write_ppm(data / "a.ppm", make_natural_image(96, 96, seed=71))
    config = {
        "steps": 1, "batch_size": 2, "patch_size": 32, "num_patches": 4,
        "hidden_size": 16, "kwta_k": 16, "seed": 2,
    }
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(config))
    ckpt = tmp / "model.ckpt"
    assert main(["train", "--data", str(data), "--config", str(cfg_path),
                 "--out", str(ckpt)]) == 0
    return tmp, ckpt


def test_train_produces_loadable_checkpoint(trained):
    _, ckpt = trained
    loaded = tr.load_checkpoint(ckpt)
    assert loaded.adam.step == 1


def test_qtable_prints_128_values_in_range(trained, capsys):
    _, ckpt = trained
    assert main(["qtable", "--checkpoint", str(ckpt)]) == 0
    out = capsys.readouterr().out
    values = [int(v) for v in out.replace("luminance:", "").replace("chrominance:", "").split()]
    assert len(values) == 128
    assert all(1 <= v <= 255 for v in values)


def test_checkpoint_encode_is_decodable(trained, workdir, capsys):
    _, ckpt = trained
    tmp, src, img = workdir
    jpg = tmp / "learned.jpg"
    assert main(["encode", "--input", str(src), "--output", str(jpg),
                 "--checkpoint", str(ckpt)]) == 0
    assert main(["decode", "--input", str(jpg), "--output", str(tmp / "r.ppm")]) == 0
    assert read_ppm(tmp / "r.ppm").shape == img.shape
    capsys.readouterr()


def test_eval_writes_csv_with_schema_header(trained, tmp_path, capsys):
    tmp, ckpt = trained
    data = tmp_path / "eval-data"
    data.mkdir()
    write_ppm(data / "big.ppm", make_natural_image(184, 184, seed=72))
    csv_path = tmp_path / "m.csv"
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    capsys.readouterr()


def test_eval_on_an_image_under_176_px_exits_1_naming_it(trained, tmp_path, capsys):
    _, ckpt = trained
    data = tmp_path / "eval-data"
    data.mkdir()
    write_ppm(data / "big.ppm", make_natural_image(184, 184, seed=72))
    write_ppm(data / "small.ppm", make_natural_image(64, 64, seed=73))
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--csv", str(tmp_path / "m.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{data / 'small.ppm'}: eval needs images of at least 176x176" in err


def test_eval_on_a_frame_too_large_to_code_exits_3_naming_it(trained, tmp_path, capsys,
                                                            monkeypatch):
    _, ckpt = trained
    data = tmp_path / "eval-data"
    data.mkdir()
    write_ppm(data / "wide.ppm", make_natural_image(176, 200, seed=74))
    monkeypatch.setattr(jfif, "MAX_PIXELS", 176 * 176)
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--csv", str(tmp_path / "m.csv")]) == 3
    err = capsys.readouterr().err
    assert f"invalid input data: {data / 'wide.ppm'}: frame declares 200x176 pixels" in err


def test_eval_on_a_file_that_is_not_a_p6_ppm_exits_3_naming_it(trained, tmp_path, capsys):
    _, ckpt = trained
    data = tmp_path / "eval-data"
    data.mkdir()
    (data / "bad.ppm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--csv", str(tmp_path / "m.csv")]) == 3
    err = capsys.readouterr().err
    assert f"invalid input data: {data / 'bad.ppm'}: not a binary PPM (P6) file" in err


@pytest.mark.parametrize("keep", [3, 100, 0.5])
def test_truncated_checkpoint_exits_3(trained, tmp_path, capsys, keep):
    _, ckpt = trained
    blob = ckpt.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[: int(len(blob) * keep) if keep < 1 else keep])
    assert main(["qtable", "--checkpoint", str(cut)]) == 3
    assert "invalid input data" in capsys.readouterr().err


def test_checkpoint_trailer_nested_too_deep_exits_3(trained, tmp_path, capsys):
    _, ckpt = trained
    blob = ckpt.read_bytes()
    deep = tmp_path / "deep.ckpt"
    deep.write_bytes(blob[: tr.load_tensors(blob)[1]] + b"[" * 100_000 + b"]" * 100_000)
    assert main(["qtable", "--checkpoint", str(deep)]) == 3
    assert "invalid input data: unreadable checkpoint trailer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["qtable", "encode"])
def test_checkpoint_with_a_reshaped_tensor_exits_3(trained, workdir, capsys, command):
    # smrnn.U keeps its element count and the container stays valid; only
    # its shape differs from the one the stored config gives it.
    tmp, ckpt = trained
    blob = ckpt.read_bytes()
    named, end = tr.load_tensors(blob)
    assert named["smrnn.U"].shape == (16, 64)
    named["smrnn.U"] = named["smrnn.U"].reshape(32, 32)
    bad = tmp / "reshaped.ckpt"
    bad.write_bytes(tr.save_tensors(named) + blob[end:])
    args = {"qtable": [], "encode": ["--input", str(workdir[1]), "--output", str(tmp / "x.jpg")]}
    assert main([command, "--checkpoint", str(bad), *args[command]]) == 3
    assert "tensor 'smrnn.U' has shape (32, 32), expected (16, 64)" in capsys.readouterr().err


def test_config_with_unknown_key_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"steps": 1, "stepz": 2}))
    assert main(["train", "--data", str(data), "--config", str(cfg_path),
                 "--out", str(tmp_path / "model.ckpt")]) == 1
    assert "stepz" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"steps": 1'],
                         ids=["nested-too-deep", "truncated"])
def test_config_that_is_not_json_exits_1_naming_it(tmp_path, capsys, text):
    data = tmp_path / "data"
    data.mkdir()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    assert main(["train", "--data", str(data), "--config", str(cfg_path),
                 "--out", str(tmp_path / "model.ckpt")]) == 1
    assert f"softjpeg: error: {cfg_path}: unreadable config JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, key",
    [({"steps": "ten"}, "steps"), ({"steps": True}, "steps"), ({"loss": {"lam": "high"}}, "lam"),
     ({"loss": {"gamma": math.nan}}, "gamma")],
    ids=["top-level-str", "top-level-bool", "nested-loss", "nested-loss-nan"],
)
def test_config_with_wrong_value_type_exits_1(tmp_path, capsys, config, key):
    data = tmp_path / "data"
    data.mkdir()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--data", str(data), "--config", str(cfg_path),
                 "--out", str(tmp_path / "model.ckpt")]) == 1
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("hidden_size", 0), ("num_patches", 0), ("patch_size", -8), ("patch_size", 0),
     ("kwta_k", -1), ("refine_steps", -1), ("table_scale", 0.0), ("decay_power", 0.0),
     ("table_lr_scale", -1.0), ("seed", -1), ("table_scale", math.inf)],
)
def test_config_out_of_range_exits_1_without_a_checkpoint(trained, tmp_path, capsys, key, value):
    tmp, _ = trained
    config = {"steps": 1, "batch_size": 2, "patch_size": 32, "num_patches": 4,
              "hidden_size": 16, "kwta_k": 16, key: value}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(tmp / "data"), "--config", str(cfg_path),
                 "--out", str(out)]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()
