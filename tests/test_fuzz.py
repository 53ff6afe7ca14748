"""Mutation fuzzing of the three parsers of outside input.

Whatever bytes arrive, each parser raises only its typed error, and its
memory stays within a fixed bound: nothing is allocated from a header the
data cannot back up.  A JFIF stream the decoder accepts decodes to the
raster libjpeg gives, and one whose marker segments are edited is refused
only where libjpeg refuses it.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from softjpeg import pipeline as pl
from softjpeg import training as tr
from softjpeg.codec import (
    JpegFormatError,
    PpmFormatError,
    decode_baseline,
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
    params = pl.init_pipeline(cfg.pipeline)
    for t in params.named().values():
        t.data = np.ones(1)
    adam = tr.init_adam(params.named())
    return tr.checkpoint_bytes(tr.TrainingCheckpoint(params, adam, cfg))


SEEDS = {
    "jfif": encode_baseline(make_natural_image(16, 16, seed=5), tables_for_quality(50)),
    "ppm": encode_ppm(make_natural_image(4, 6, seed=6)),
    "checkpoint": tiny_checkpoint_bytes(),
}
# More blocks and longer codes than the jfif seed's 16x16 q50 stream.
Q90_JFIF = encode_baseline(make_natural_image(24, 40, seed=5), tables_for_quality(90))
# libjpeg-turbo's SIMD IDCT departs from its C path on coefficients that no
# 8-bit image gives and a mutated scan or DHT does; the decoder here follows
# the C path.
LIBJPEG_C_PATH = {"JSIMD_FORCENONE": "1"}
TARGETS = {
    "jfif": (decode_baseline, JpegFormatError),
    "ppm": (decode_ppm, PpmFormatError),
    "checkpoint": (checkpoint_from_bytes, CheckpointFormatError),
}


@st.composite
def mutants(draw, seed):
    """``seed`` with a few bytes overwritten, inserted or deleted, then
    perhaps cut."""
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
    if draw(st.booleans()):
        del blob[draw(st.integers(0, len(blob))):]
    return bytes(blob)


@st.composite
def overwrites(draw, seed):
    """``seed`` with one to three bytes overwritten: its length and markers
    mostly survive, so many of these decode."""
    blob = bytearray(seed)
    for _ in range(draw(st.integers(1, 3))):
        blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob)


def marker_segments(stream):
    """``stream`` cut into SOI, the list of its marker segments before SOS,
    the SOS segment with its scan, and EOI."""
    segments, pos = [], 2
    while stream[pos + 1] != 0xDA:
        end = pos + 2 + int.from_bytes(stream[pos + 2 : pos + 4], "big")
        segments.append(stream[pos:end])
        pos = end
    return stream[:2], segments, stream[pos:-2], stream[-2:]


@st.composite
def segment_mutants(draw, seed):
    """``seed`` edited one to three times: a marker segment before SOS is
    deleted, duplicated in place or swapped with the next one, or a COM or
    APPn segment with a random payload is inserted at any segment boundary,
    between the scan and EOI included.  The encoder writes five segments
    before SOS (APP0, two DQT, SOF0 and DHT), so at least three are left
    for each edit."""
    soi, segments, scan, eoi = marker_segments(seed)
    after_scan = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("delete", "duplicate", "swap", "insert")))
        if kind == "insert":
            marker = draw(st.sampled_from([0xFE, *range(0xE0, 0xF0)]))
            payload = draw(st.binary(max_size=24))
            new = struct.pack(">BBH", 0xFF, marker, len(payload) + 2) + payload
            i = draw(st.integers(0, len(segments) + len(after_scan) + 1))
            if i <= len(segments):
                segments.insert(i, new)
            else:
                after_scan.insert(i - len(segments) - 1, new)
            continue
        i = draw(st.integers(0, len(segments) - 1 - (kind == "swap")))
        if kind == "delete":
            del segments[i]
        elif kind == "duplicate":
            segments.insert(i, segments[i])
        else:
            segments[i : i + 2] = segments[i + 1], segments[i]
    return soi + b"".join(segments) + scan + b"".join(after_scan) + eoi


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
    # Overwrites keep most streams whole: about a quarter of the jfif
    # examples decode, so the scan and sample paths run under the bound too.
    @given(st.one_of(mutants(SEEDS[name]), overwrites(SEEDS[name])))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def check(blob):
        assert parse_within_bound(name, blob) < MEMORY_BOUND

    check()


def with_extra_table(seed, tcth, lengths, values):
    """``seed`` with one more DHT segment, of one table, before its SOS."""
    payload = bytes([tcth]) + bytes(lengths) + bytes(values)
    sos = seed.index(b"\xff\xda")
    return seed[:sos] + struct.pack(">BBH", 0xFF, 0xC4, len(payload) + 2) + payload + seed[sos:]


@st.composite
def extra_tables(draw, seed):
    """``seed`` with a short random table spliced in before SOS, at a random
    class and destination: some replace a table the scan uses, some are
    never used, some are invalid."""
    tcth = draw(st.integers(0, 2)) << 4 | draw(st.integers(0, 5))
    lengths = draw(st.lists(st.integers(0, 2), min_size=16, max_size=16))
    values = draw(st.binary(min_size=sum(lengths), max_size=sum(lengths)))
    return with_extra_table(seed, tcth, lengths, values)


def decodes_as_libjpeg_does(blob, libjpeg_decode, compared, refusals_too=False):
    """Unless ``decode_baseline`` refuses ``blob``, libjpeg's C path must
    decode it to the same raster; a compared ``blob`` joins ``compared``.
    With ``refusals_too``, libjpeg must refuse what ``decode_baseline``
    refuses, or decode it only with a warning."""
    try:
        raster = decode_baseline(blob)
    except JpegFormatError:
        if refusals_too:
            with pytest.raises(ValueError, match="libjpeg rejected"):
                libjpeg_decode(blob, env=LIBJPEG_C_PATH)
        return
    try:
        expected = libjpeg_decode(blob, env=LIBJPEG_C_PATH)
    except ValueError as exc:
        # A JFIF major revision other than 1 in APP0 is no corrupt data,
        # but libjpeg warns of it and the client exits 3 on any warning,
        # so there is no raster to compare.
        if "(exit 3)" in str(exc) and "unknown JFIF revision" in str(exc):
            reject()
        raise
    assert np.array_equal(raster, expected)
    compared.add(blob)


JFIF_SEEDS = pytest.mark.parametrize("seed", [SEEDS["jfif"], Q90_JFIF],
                                     ids=["16x16-q50", "24x40-q90"])


@JFIF_SEEDS
def test_mutated_jfif_the_decoder_accepts_decodes_as_libjpeg_does(seed, libjpeg_decode):
    compared = set()

    @given(overwrites(seed))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def check(blob):
        decodes_as_libjpeg_does(blob, libjpeg_decode, compared)

    check()
    # About a third of the mutants decode; the check says little unless
    # many distinct ones reached libjpeg.
    assert len(compared) >= 50


@JFIF_SEEDS
def test_jfif_with_an_extra_huffman_table_decodes_as_libjpeg_does(seed, libjpeg_decode):
    compared = set()

    @given(extra_tables(seed))
    # 455 values fit the code space, but no table holds more than 256.
    @example(with_extra_table(seed, 0x12, [0] * 8 + [255, 200] + [0] * 6, bytes(455)))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def check(blob):
        decodes_as_libjpeg_does(blob, libjpeg_decode, compared)

    check()
    # About one in eight examples decodes; as above, the check needs many
    # distinct ones to reach libjpeg.
    assert len(compared) >= 30


@JFIF_SEEDS
def test_jfif_with_segments_edited_raises_only_typed_errors_in_bounded_memory(seed):
    @given(segment_mutants(seed))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def check(blob):
        assert parse_within_bound("jfif", blob) < MEMORY_BOUND

    check()


@JFIF_SEEDS
def test_jfif_with_segments_edited_decodes_as_libjpeg_does(seed, libjpeg_decode):
    compared = set()

    @given(segment_mutants(seed))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def check(blob):
        decodes_as_libjpeg_does(blob, libjpeg_decode, compared, refusals_too=True)

    check()
    # Every refusal here is one libjpeg makes too.  The examples hold 166
    # distinct streams per seed that decode: edits that keep both DQT tables
    # and one SOF0 before SOS, such as a lost APP0 or DHT (the scan then
    # takes the default tables), a DQT moved past SOF0 or a COM or APPn
    # segment anywhere, after the scan included.
    assert len(compared) >= 120
