import os
import subprocess
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from softjpeg.codec import decode_ppm, encode_ppm


def make_natural_image(height, width, seed=7):
    """Synthetic but photo-like test content: smooth color gradients,
    low-frequency blotches, and mild sensor-style noise."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    img = np.zeros((height, width, 3))
    for c in range(3):
        base = (
            110
            + 70 * np.sin(2 * np.pi * (xx * (c + 1) / width * 1.7 + yy / height * 0.9 + 0.3 * c))
            + 45 * np.cos(2 * np.pi * (yy * (2 - 0.5 * c) / height + xx / width * 0.35))
        )
        blob = rng.normal(0, 1, (height // 16 + 1, width // 16 + 1))
        blob = np.kron(blob, np.ones((16, 16)))[:height, :width]
        img[:, :, c] = base + 18 * blob + rng.normal(0, 4, (height, width))
    return np.clip(img, 0, 255).astype(np.uint8)


def traced_peak(call):
    """tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def natural_image():
    return make_natural_image


@pytest.fixture(scope="session")
def small_image():
    return make_natural_image(120, 184, seed=7)


def _build_libjpeg_client(tmp_path_factory, name, missing):
    """Compile ``<name>.c`` next to this file against the system libjpeg,
    once per session; skip with ``missing`` and the reason if that fails."""
    work = tmp_path_factory.mktemp(name)
    exe = work / name
    build = ["gcc", "-O2", "-o", str(exe), str(Path(__file__).with_name(f"{name}.c")), "-ljpeg"]
    try:
        done = subprocess.run(build, env=dict(os.environ, TMPDIR=str(work)),
                              capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        pytest.skip(f"{missing}: gcc could not run: {exc}")
    if done.returncode != 0:
        pytest.skip(f"{missing}: gcc -ljpeg failed: " + done.stderr.strip()[-300:])

    def run(stdin, *args, env=None):
        """The client's stdout for ``stdin``; ``env`` adds variables to its
        environment."""
        done = subprocess.run([str(exe), *args], input=stdin, capture_output=True, timeout=60,
                              env=None if env is None else {**os.environ, **env})
        if done.returncode != 0:
            raise ValueError(f"libjpeg rejected the input (exit {done.returncode}): "
                             + done.stderr.decode(errors="replace").strip())
        return done.stdout

    return run


@pytest.fixture(scope="session")
def libjpeg_decode(tmp_path_factory):
    """Decode a JFIF stream to an (H, W, 3) raster with the system libjpeg
    through the ``refdecode.c`` client: ``decode(stream, env=None)``, where
    ``env`` adds variables to the client's environment.  Tests that use this
    skip, with the reason, when that client cannot be built."""
    run = _build_libjpeg_client(tmp_path_factory, "refdecode", "no libjpeg decoder")
    return lambda stream, env=None: decode_ppm(run(stream, env=env))


@pytest.fixture(scope="session")
def libjpeg_encode(tmp_path_factory):
    """Encode an (H, W, 3) uint8 raster to JFIF with the system libjpeg through
    the ``refencode.c`` client: ``encode(image, quality, *options)``, with the
    client's options "420", "restart=ROWS", "progressive", "crtable" and
    "optimize"."""
    run = _build_libjpeg_client(tmp_path_factory, "refencode", "no libjpeg encoder")
    return lambda image, quality, *options: run(encode_ppm(image), str(quality), *options)
