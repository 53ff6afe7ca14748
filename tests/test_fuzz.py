"""Mutation fuzzing of the three parsers of outside input.

Whatever bytes arrive, each parser raises only its typed error, and its
memory stays within a fixed bound: nothing is allocated from a header the
data cannot back up.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softjpeg import pipeline as pl
from softjpeg import training as tr
from softjpeg.codec import (
    JpegFormatError,
    PpmFormatError,
    decode_ppm,
    encode_baseline,
    encode_ppm,
    entropy_decode,
    tables_for_quality,
)
from softjpeg.training import CheckpointFormatError, checkpoint_from_bytes
from tests.conftest import make_natural_image

MEMORY_BOUND = 8 * 2**20


def tiny_checkpoint_bytes():
    """A checkpoint container and trailer whose tensors all hold one value: a
    few KB that parse up to the shape check, which rejects them."""
    cfg = tr.TrainConfig(hidden_size=16)
    names = pl.init_pipeline(cfg.pipeline).named()
    params = pl.params_from_named({name: np.ones(1) for name in names}, cfg.pipeline)
    adam = tr.init_adam(params.named())
    return tr.checkpoint_bytes(tr.TrainingCheckpoint(params, adam, cfg))


SEEDS = {
    "jfif": encode_baseline(make_natural_image(16, 16, seed=5), tables_for_quality(50)),
    "ppm": encode_ppm(make_natural_image(4, 6, seed=6)),
    "checkpoint": tiny_checkpoint_bytes(),
}
TARGETS = {
    "jfif": (entropy_decode, JpegFormatError),
    "ppm": (decode_ppm, PpmFormatError),
    "checkpoint": (checkpoint_from_bytes, CheckpointFormatError),
}


@st.composite
def mutants(draw, seed):
    """``seed`` with a few bytes overwritten, inserted or deleted, then cut."""
    blob = bytearray(seed)
    for _ in range(draw(st.integers(0, 6))):
        pos = draw(st.integers(0, len(blob)))
        kind = draw(st.sampled_from(("set", "insert", "delete")))
        if kind == "insert" or pos == len(blob):
            blob.insert(pos, draw(st.integers(0, 255)))
        elif kind == "set":
            blob[pos] = draw(st.integers(0, 255))
        else:
            del blob[pos]
    return bytes(blob[: draw(st.integers(0, len(blob)))])


def parse_within_bound(name, blob):
    """Parse ``blob`` with the ``name`` parser under tracemalloc; only the
    parser's typed error may come out.  Returns the peak traced bytes."""
    parse, error = TARGETS[name]
    tracemalloc.start()
    try:
        try:
            parse(blob)
        except error:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_seeds_parse():
    grids, _, dims = entropy_decode(SEEDS["jfif"])
    assert dims == (16, 16) and grids[0].blocks.shape == (2, 2, 8, 8)
    assert decode_ppm(SEEDS["ppm"]).shape == (4, 6, 3)
    with pytest.raises(CheckpointFormatError, match="hidden_size 16 does not fit"):
        checkpoint_from_bytes(SEEDS["checkpoint"])


@pytest.mark.parametrize("name", sorted(SEEDS))
def test_mutated_input_raises_only_typed_errors_in_bounded_memory(name):
    @given(mutants(SEEDS[name]))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def check(blob):
        assert parse_within_bound(name, blob) < MEMORY_BOUND

    check()

