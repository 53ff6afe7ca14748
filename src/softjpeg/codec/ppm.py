"""Binary PPM (P6) reading and writing."""

import numpy as np


class PpmFormatError(ValueError):
    pass


def _read_token(data, pos):
    # Skip whitespace and '#' comments between header fields.
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in b" \t\r\n":
            pos += 1
        elif c == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in b" \t\r\n":
        pos += 1
    if start == pos:
        raise PpmFormatError("truncated PPM header")
    return data[start:pos], pos


def decode_ppm(data):
    if data[:2] != b"P6":
        raise PpmFormatError("not a binary PPM (P6) file")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_token(data, pos)
        # Netpbm fields are ASCII decimal digits; int() would also take a
        # sign, underscores and non-ASCII digits.
        if not token.isdigit():
            raise PpmFormatError(f"invalid PPM header field {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise PpmFormatError("PPM header declares a zero-sized image")
    if maxval != 255:
        raise PpmFormatError(f"only maxval 255 is supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    expected = width * height * 3
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise PpmFormatError("PPM raster data is truncated")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3).copy()


def rgb_raster(image):
    """``image`` as an (H, W, 3) uint8 raster, uncopied if it is one: the
    rule for every raster input.  ValueError unless it is one non-empty
    (H, W, 3) array of an integer or float dtype whose samples are integers
    in 0..255, the samples of an 8-bit image (T.81 sample precision 8)."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.size == 0:
        raise ValueError(f"expected one (H, W, 3) raster, got shape {image.shape}")
    if image.dtype == np.uint8:
        return image
    # The dtype first: no comparison runs on a bool, complex, string or object sample.
    if image.dtype.kind not in "iuf" or not np.all(
            (image >= 0) & (image <= 255) & (image == np.round(image))):
        raise ValueError("raster samples must be integers in 0..255")
    return image.astype(np.uint8)


def encode_ppm(image):
    image = rgb_raster(image)
    height, width = image.shape[:2]
    return b"P6\n%d %d\n255\n" % (width, height) + image.tobytes()


def read_ppm(path):
    with open(path, "rb") as fh:
        return decode_ppm(fh.read())


def write_ppm(path, image):
    data = encode_ppm(image)  # before the file is created: a bad raster leaves none
    with open(path, "wb") as fh:
        fh.write(data)
