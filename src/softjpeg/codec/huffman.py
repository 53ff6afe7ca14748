"""The entropy-coded segment and its Huffman tables: default tables,
canonical code assignment (ITU-T T.81 Annex C), DHT parsing with libjpeg's
table checks, bit I/O with byte stuffing and the baseline scan syntax
(Annex F.1.2 / F.2.2).

A Huffman code is an integer with its bit length (T.81 C.2's HUFFCODE and
HUFFSIZE); only this module builds or reads codes.  Decode tables map
``(length, code)`` to symbol; the encoder indexes codes and lengths by symbol
in arrays and codes and packs whole bands of MCU rows into bytes at once."""

import numpy as np

from .blocks import mcu_row_bands
from .errors import CoefficientRangeError, JpegFormatError

# Zigzag scan: ZIGZAG[k] is the natural (row-major) index of the k-th element.
ZIGZAG = np.array(
    [
        0,  1,  8, 16,  9,  2,  3, 10,
        17, 24, 32, 25, 18, 11,  4,  5,
        12, 19, 26, 33, 40, 48, 41, 34,
        27, 20, 13,  6,  7, 14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36,
        29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46,
        53, 60, 61, 54, 47, 55, 62, 63,
    ]
)

# Default table specs, (code lengths 1..16, symbol values), by (table class,
# destination): class 0 is DC and 1 AC; destination 0 codes Y, 1 Cb and Cr.
# The DHT segment lists them in this order.
DEFAULT_SPECS = {
    (0, 0): (
        bytes([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]),
        bytes(range(12)),
    ),
    (1, 0): (
        bytes([0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125]),
        bytes([
            0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
            0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
            0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
            0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
            0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
            0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
            0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
            0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
            0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
            0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
            0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
            0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
            0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
            0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
        ]),
    ),
    (0, 1): (
        bytes([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]),
        bytes(range(12)),
    ),
    (1, 1): (
        bytes([0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119]),
        bytes([
            0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
            0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
            0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
            0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
            0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
            0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
            0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
            0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
            0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
            0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
            0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
            0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
            0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
            0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
        ]),
    ),
}


def code_assignment(lengths, values):
    """Yield ``(symbol, code, length)`` for a (lengths, values) table spec,
    shortest first: each canonical code of ITU-T T.81 Annex C as an integer.
    A length with more codes than fit, or whose last code is all 1-bits,
    raises JpegFormatError, as in libjpeg ("Bogus Huffman table definition")."""
    if len(lengths) != 16:
        raise ValueError("Huffman spec needs 16 length counts")
    if sum(lengths) != len(values):
        raise ValueError("Huffman spec length counts do not match value count")
    symbols = iter(values)
    code = 0
    for size, count in enumerate(lengths, start=1):
        if code + count >= 1 << size:
            raise JpegFormatError(f"Huffman table holds too many codes of length {size}")
        for _ in range(count):
            yield next(symbols), code, size
            code += 1
        code <<= 1


def parse_dht(payload):
    """Yield ``((class, destination), (lengths, values))`` for each table of
    a DHT segment's payload.  Raises JpegFormatError for what libjpeg
    refuses in any table as it reads it: a table past the payload, more than
    256 values, a class above 1 or a destination above 3."""
    pos = 0
    while pos < len(payload):
        cls, dest = payload[pos] >> 4, payload[pos] & 0x0F
        if cls > 1:
            raise JpegFormatError(f"invalid Huffman table class {cls}")
        lengths = payload[pos + 1 : pos + 17]
        count = sum(lengths)
        if pos + 17 + count > len(payload):
            raise JpegFormatError("DHT segment length mismatch")
        if count > 256:
            raise JpegFormatError(f"Huffman table holds {count} values, more than 256")
        if dest > 3:
            raise JpegFormatError(f"invalid Huffman table destination {dest}")
        yield (cls, dest), (lengths, payload[pos + 17 : pos + 17 + count])
        pos += 17 + count


def scan_tables(tables, dc_dest, ac_dest, channel):
    """The (DC, AC) decode tables, each mapping a ``(length, code)`` of
    ``code_assignment`` to its symbol, that scan component ``channel`` selects
    from ``tables``, parse_dht's tables by (class, destination).  As libjpeg's
    ``jpeg_make_d_derived_tbl`` does, only a table a scan uses is checked for
    an overfull code and, for DC, a value above 15, and an empty slot 0 or 1
    takes its T.81 K.3 table from ``DEFAULT_SPECS``."""
    tables = {**DEFAULT_SPECS, **tables}
    if (0, dc_dest) not in tables or (1, ac_dest) not in tables:
        raise JpegFormatError(f"missing Huffman tables for component {channel}")
    dc = _decode_table(*tables[0, dc_dest])
    if max(dc.values(), default=0) > 15:
        raise JpegFormatError(f"DC Huffman table {dc_dest} holds a value above 15")
    return dc, _decode_table(*tables[1, ac_dest])


def _decode_table(lengths, values):
    return {(length, code): symbol for symbol, code, length in code_assignment(lengths, values)}


def _code_arrays(dest):
    """(codes, lengths) of the default tables of ``dest`` as arrays indexed
    by ``class * 256 + symbol``: DC symbols first, then AC."""
    codes, lengths = np.zeros(512, np.int64), np.zeros(512, np.int64)
    for cls in (0, 1):
        for symbol, code, length in code_assignment(*DEFAULT_SPECS[cls, dest]):
            codes[cls * 256 + symbol], lengths[cls * 256 + symbol] = code, length
    return codes, lengths


# The encoder's code and length arrays by table destination; it writes no
# other tables.
_ENCODE_TABLES = {dest: _code_arrays(dest) for dest in (0, 1)}
_AC, _ZRL, _EOB = 256, 256 + 0xF0, 256 + 0x00
# The largest magnitudes a baseline scan codes (T.81 F.1.2): a DC difference
# of SSSS 11 and an AC coefficient of SSSS 10.
DC_PEAK, AC_PEAK = 2047, 1023
# SSSS (T.81 Table F.1) and magnitude bits (F.1.2.1) of every value a
# baseline scan codes, -DC_PEAK..DC_PEAK, at index value + DC_PEAK: a
# negative value's bits are the one's complement of its absolute value's.
_CODED = range(-DC_PEAK, DC_PEAK + 1)
_CATEGORY = np.array([abs(v).bit_length() for v in _CODED], dtype=np.int64)
_MAGNITUDE = np.array([(v - (v < 0)) & (1 << abs(v).bit_length()) - 1 for v in _CODED],
                      dtype=np.int64)


def extend_magnitude(bits, category):
    """Signed value of ``category`` magnitude bits (T.81 F.2.2.1 EXTEND)."""
    return bits if bits >= (1 << category) >> 1 else bits - (1 << category) + 1


class BitReader:
    """MSB-first bit reader that removes 0xFF00 stuffing and stops at markers."""

    def __init__(self, data, pos=0):
        self.data = data
        self.pos = pos
        self._acc = 0
        self._nbits = 0

    def _pull_byte(self):
        if self.pos >= len(self.data):
            raise JpegFormatError("truncated entropy-coded data")
        byte = self.data[self.pos]
        if byte == 0xFF:
            if self.pos + 1 >= len(self.data):
                raise JpegFormatError("truncated entropy-coded data")
            if self.data[self.pos + 1] != 0x00:
                # A real marker inside the scan: the stream ended early.
                raise JpegFormatError(
                    f"marker 0xFF{self.data[self.pos + 1]:02X} inside entropy-coded data"
                )
            self.pos += 2
        else:
            self.pos += 1
        # Called only when every earlier bit has been read, so the
        # accumulator holds one byte and a pull costs O(1), not O(position).
        self._acc = byte
        self._nbits = 8

    def read_bit(self):
        if self._nbits == 0:
            self._pull_byte()
        self._nbits -= 1
        return (self._acc >> self._nbits) & 1

    def read_bits(self, nbits):
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.read_bit()
        return value

    def decode_symbol(self, decode_map):
        """The symbol of a {(length, code): symbol} map the next bits spell."""
        code = 0
        for length in range(1, 17):
            code = code << 1 | self.read_bit()
            symbol = decode_map.get((length, code))
            if symbol is not None:
                return symbol
        raise JpegFormatError("invalid Huffman code in entropy-coded data")


def _scan_words(zz, dc_diffs, codes, lengths):
    """One (word, bit length) per coded coefficient of zigzag-ordered blocks,
    in scan order: the ZRLs before it, its code and magnitude bits (T.81
    F.1.2) and, after a block's last one, EOB if the block ends in zeros.
    ``zz`` is (blocks, 64), ``dc_diffs`` the blocks' DC differences, and
    block i is coded with row i % len(codes) of the (components, 512) code
    and length arrays."""
    coded = zz != 0
    coded[:, 0] = True  # every block codes its DC difference
    at = np.flatnonzero(coded)
    k = at & 63
    dc_at = np.flatnonzero(k == 0)
    value = zz.reshape(-1)[at].astype(np.int64)
    value[dc_at] = dc_diffs
    if value.min() < -AC_PEAK or value.max() > AC_PEAK:
        peak = np.full(value.shape, AC_PEAK)
        peak[dc_at] = DC_PEAK
        bad = np.abs(value) > peak
        if bad.any():
            first = int(np.argmax(bad))  # in scan order
            what = "DC difference" if k[first] == 0 else "AC coefficient"
            raise CoefficientRangeError(f"{what} {value[first]} is not Huffman-encodable")
    value += DC_PEAK
    cat = _CATEGORY[value]
    run = np.diff(k, prepend=0) - 1  # zeros since the block's last coded one
    # Each code's flat index in ``codes``: its component's row, then symbol.
    row = (at >> 6) % len(codes) * 512
    symbol = row + _AC + ((run & 15) << 4 | cat)
    symbol[dc_at] = row[dc_at] + cat[dc_at]
    codes, lengths = codes.reshape(-1), lengths.reshape(-1)
    word = codes[symbol] << cat | _MAGNITUDE[value]
    length = lengths[symbol] + cat
    # EOB after the last coded coefficient of a block that ends in zeros.
    last = np.append(dc_at[1:], len(at)) - 1
    last = last[k[last] < 63]
    eob = row[last] + _EOB
    word[last] = word[last] << lengths[eob] | codes[eob]
    length[last] += lengths[eob]
    # ZRLs before a coefficient that follows 16 zeros or more; rare.
    zrls = run >> 4
    zrls[dc_at] = 0
    ahead = np.flatnonzero(zrls)
    while ahead.size:
        zrl = row[ahead] + _ZRL
        word[ahead] |= codes[zrl] << length[ahead]
        length[ahead] += lengths[zrl]
        zrls[ahead] -= 1
        ahead = ahead[zrls[ahead] > 0]
    return word, length


def _pack(words, lengths, carry, carry_bits):
    """Pack (word, bit length) pairs MSB first after ``carry_bits`` bits of
    ``carry`` (a byte whose other bits are 0): (whole bytes, the next carry
    byte, its bit count)."""
    end = np.cumsum(lengths) + carry_bits
    total = int(end[-1])
    # A word ends in byte ``last``, ``shift`` bits short of its end, and
    # spans at most ``pieces`` bytes; 8 more keep the indices of its
    # earlier, empty, pieces non-negative.
    last = (end - 1 >> 3) + 8
    shift = -end & 7
    pieces = (int(lengths.max()) + 14) >> 3
    out = np.bincount(last, (words & 0xFF) << shift & 0xFF, minlength=(total + 7 >> 3) + 8)
    for j in range(1, pieces):
        out += np.bincount(last - j, (words >> (8 * j - shift)) & 0xFF, minlength=out.size)
    out = out[8:].astype(np.uint8)
    out[0] |= carry
    whole = total >> 3
    if total & 7:
        return out[:whole].tobytes(), int(out[whole]), total & 7
    return out.tobytes(), 0, 0


def encode_scan(blocks, dests):
    """The stuffed entropy-coded segment of an interleaved scan: ``blocks``
    holds each component's (rows, cols, 8, 8) integer array and ``dests``
    its default-table destination.  A DC difference past +-2047 or an AC
    coefficient past +-1023 raises CoefficientRangeError, naming the first
    in scan order.

    The scan is coded one band of MCU rows at a time, as arrays: the DC
    predictor and the bits short of a whole byte carry into the next band."""
    codes = np.stack([_ENCODE_TABLES[dest][0] for dest in dests])
    lengths = np.stack([_ENCODE_TABLES[dest][1] for dest in dests])
    scan = bytearray()
    carry, carry_bits = 0, 0
    prev_dc = np.zeros(len(blocks), dtype=np.int64)
    for band in mcu_row_bands(*blocks[0].shape[:2]):
        # (MCUs, components, 64): block i of the band is component i % components.
        zz = np.stack([b[band].reshape(-1, 64)[:, ZIGZAG] for b in blocks], axis=1)
        dc = zz[:, :, 0].astype(np.int64)
        diffs = np.diff(dc, axis=0, prepend=prev_dc[None])
        prev_dc = dc[-1]
        words, word_lengths = _scan_words(zz.reshape(-1, 64), diffs.reshape(-1), codes, lengths)
        packed, carry, carry_bits = _pack(words, word_lengths, carry, carry_bits)
        scan += packed
    if carry_bits:  # pad the last byte with 1-bits
        scan.append(carry | 0xFF >> carry_bits)
    return bytes(scan.replace(b"\xff", b"\xff\x00"))


def _decode_block(reader, prev_dc, dc_map, ac_map):
    zz = [0] * 64
    cat = reader.decode_symbol(dc_map)
    if cat > 11:
        raise JpegFormatError(f"invalid DC category {cat}")
    dc = prev_dc + extend_magnitude(reader.read_bits(cat), cat)
    if not -32768 <= dc <= 32767:
        raise JpegFormatError(f"DC coefficient {dc} overflows 16 bits")
    zz[0] = dc
    k = 1
    while k < 64:
        rs = reader.decode_symbol(ac_map)
        run, cat = rs >> 4, rs & 0x0F
        if cat == 0:
            if run != 15:  # EOB; libjpeg ends the block at any run but ZRL's
                break
            k += 16  # ZRL
            continue
        k += run
        if k > 63:  # libjpeg's natural order maps indexes 64-79 to 63
            k = 63
        zz[k] = extend_magnitude(reader.read_bits(cat), cat)
        k += 1
    return zz, dc


def decode_scan(data, pos, rows, cols, maps):
    """Decode a 3-component scan of rows x cols MCUs at ``data[pos]`` with each
    component's (DC, AC) {(length, code): symbol} maps; returns (each one's
    (rows * cols, 64) natural-order array, the end position).

    Coefficients are int16, libjpeg's ``JCOEF``: an AC magnitude has at most
    15 bits, and a DC predictor that leaves the int16 range raises
    JpegFormatError."""
    # Every block takes at least a 1-bit DC code and a 1-bit EOB, so each
    # 3-block MCU needs 6 bits of scan: check before allocating the grids.
    scan_bytes = len(data) - pos
    if 8 * scan_bytes < 6 * rows * cols:
        raise JpegFormatError(f"a {scan_bytes}-byte scan cannot hold {rows}x{cols} MCUs")

    reader = BitReader(data, pos)
    blocks = [np.zeros((rows * cols, 64), dtype=np.int16) for _ in maps]
    prev_dc = [0] * len(maps)
    for i in range(rows * cols):
        for ci, (dc_map, ac_map) in enumerate(maps):
            zz, prev_dc[ci] = _decode_block(reader, prev_dc[ci], dc_map, ac_map)
            blocks[ci][i, ZIGZAG] = zz
    return blocks, reader.pos
