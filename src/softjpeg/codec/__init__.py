"""Standalone baseline JPEG codec: color transform, DCT, quantization,
Huffman entropy coding and the JFIF container.

Everything here is a pure function of its inputs and safe to call from
multiple threads.
"""

from .blocks import BLOCK, CoefficientGrid, partition_plane
from .color import rgb_to_ycbcr
from .dct import DCT_MATRIX, fdct_blocks
from .errors import CoefficientRangeError, JpegFormatError
from .jfif import (
    bits_per_pixel,
    decode_baseline,
    encode_baseline,
    entropy_decode,
    entropy_encode,
    forward_grids,
    quantize_grids,
    reconstruct_raster,
    transform_grids,
)
from .ppm import PpmFormatError, decode_ppm, encode_ppm, read_ppm, write_ppm
from .quant import (
    CHROMA_BASE_TABLE,
    LUMA_BASE_TABLE,
    QuantTablePair,
    quantize_blocks,
    round_half_away,
    tables_for_quality,
)

__all__ = [
    "BLOCK",
    "CHROMA_BASE_TABLE",
    "CoefficientGrid",
    "CoefficientRangeError",
    "DCT_MATRIX",
    "JpegFormatError",
    "LUMA_BASE_TABLE",
    "PpmFormatError",
    "QuantTablePair",
    "bits_per_pixel",
    "decode_baseline",
    "decode_ppm",
    "encode_baseline",
    "encode_ppm",
    "entropy_decode",
    "entropy_encode",
    "fdct_blocks",
    "forward_grids",
    "partition_plane",
    "quantize_blocks",
    "quantize_grids",
    "read_ppm",
    "reconstruct_raster",
    "rgb_to_ycbcr",
    "round_half_away",
    "tables_for_quality",
    "transform_grids",
    "write_ppm",
]
