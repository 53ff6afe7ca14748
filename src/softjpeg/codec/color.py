"""Full-range BT.601 color transforms between RGB and YCbCr."""

import numpy as np

# Forward matrix rows are (Y, Cb, Cr) weights for (R, G, B).
YCBCR_FROM_RGB = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168735892, -0.331264108, 0.5],
        [0.5, -0.418687589, -0.081312411],
    ]
)
_OFFSET = np.array([0.0, 128.0, 128.0])

# Inverse rows exposed for code that rebuilds the transform channel-wise.
RGB_FROM_YCBCR = np.linalg.inv(YCBCR_FROM_RGB)


def rgb_to_ycbcr(rgb):
    """Convert an (H, W, 3) RGB raster to float64 YCbCr planes, clamped to [0, 255].

    The result keeps full float precision; rounding to bytes happens only
    when a caller needs an 8-bit raster.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    ycc = rgb @ YCBCR_FROM_RGB.T
    ycc += _OFFSET
    return np.clip(ycc, 0.0, 255.0, out=ycc)
