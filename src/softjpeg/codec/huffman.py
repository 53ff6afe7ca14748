"""The entropy-coded segment: default Huffman tables, canonical code
assignment (ITU-T T.81 Annex C), bit I/O with byte stuffing and the
baseline scan syntax (Annex F.1.2 / F.2.2).  Huffman codes and magnitude
bits are '0'/'1' strings, packed into bytes one MCU row at a time."""

import numpy as np

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
    """Yield ``(symbol, code)`` for a (lengths, values) table spec: each
    canonical code of ITU-T T.81 Annex C as a '0'/'1' string, shortest first.
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
            yield next(symbols), format(code, f"0{size}b")
            code += 1
        code <<= 1


# The encoder's {symbol: code} tables; it writes no others.
_ENCODE_TABLES = {key: dict(code_assignment(*spec)) for key, spec in DEFAULT_SPECS.items()}


def extend_magnitude(bits, category):
    """Signed value of ``category`` magnitude bits (T.81 F.2.2.1 EXTEND)."""
    return bits if bits >= (1 << category) >> 1 else bits - (1 << category) + 1


# Every value a baseline scan codes, -2047..2047, to its (category, magnitude
# bits) (T.81 F.1.2.1), the inverse of EXTEND: a negative value's bits are the
# one's complement of its absolute value's.
_MAGNITUDES = {0: (0, ""), **{extend_magnitude(bits, cat): (cat, format(bits, f"0{cat}b"))
                              for cat in range(1, 12) for bits in range(1 << cat)}}


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
        """The symbol of a {code: symbol} map whose code the next bits spell."""
        code = ""
        for _ in range(16):
            code += "1" if self.read_bit() else "0"
            symbol = decode_map.get(code)
            if symbol is not None:
                return symbol
        raise JpegFormatError("invalid Huffman code in entropy-coded data")


def _encode_block(bits, zz, prev_dc, dc_codes, ac_codes):
    """Append one zigzag-ordered block's code and magnitude strings to
    ``bits`` (T.81 F.1.2)."""
    diff = zz[0] - prev_dc
    if diff not in _MAGNITUDES:
        raise CoefficientRangeError(f"DC difference {diff} is not Huffman-encodable")
    cat, magnitude = _MAGNITUDES[diff]
    bits += dc_codes[cat], magnitude

    run = 0
    for v in zz[1:]:
        if v == 0:
            run += 1
            continue
        while run >= 16:
            bits.append(ac_codes[0xF0])
            run -= 16
        cat, magnitude = _MAGNITUDES[v]
        if cat > 10:
            raise CoefficientRangeError(f"AC coefficient {v} is not Huffman-encodable")
        bits += ac_codes[run << 4 | cat], magnitude
        run = 0
    if run:
        bits.append(ac_codes[0x00])
    return zz[0]


def encode_scan(blocks, dests):
    """The stuffed entropy-coded segment of an interleaved scan: ``blocks``
    holds each component's (rows, cols, 8, 8) integer array, with every
    coefficient within +-2047, and ``dests`` its default-table destination."""
    tables = [(_ENCODE_TABLES[0, dest], _ENCODE_TABLES[1, dest]) for dest in dests]
    scan = bytearray()
    bits = ""  # what the last MCU row left short of a whole byte
    prev_dc = [0] * len(blocks)
    for mcu_row in zip(*blocks):
        # Zigzag-ordered Python int lists, much faster in the symbol loop
        # below, built one MCU row at a time so they never cover the frame.
        zigzagged = [b.reshape(-1, 64)[:, ZIGZAG].astype(np.int64).tolist() for b in mcu_row]
        parts = [bits]
        for mcu in zip(*zigzagged):
            for ci, zz in enumerate(mcu):
                prev_dc[ci] = _encode_block(parts, zz, prev_dc[ci], *tables[ci])
        # Packed row by row, so no bit string spans the scan.
        bits = "".join(parts)
        whole = len(bits) - len(bits) % 8
        scan += int(bits[:whole] or "0", 2).to_bytes(whole // 8, "big")
        bits = bits[whole:]
    if bits:  # pad the last byte with 1-bits
        scan.append(int(bits.ljust(8, "1"), 2))
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
            if run == 0:  # EOB
                break
            if run == 15:  # ZRL
                k += 16
                continue
            raise JpegFormatError(f"invalid AC symbol 0x{rs:02X}")
        k += run
        if k > 63:
            raise JpegFormatError("AC run-length overflows the block")
        zz[k] = extend_magnitude(reader.read_bits(cat), cat)
        k += 1
    return zz, dc


def decode_scan(data, pos, rows, cols, maps):
    """Decode a 3-component scan of rows x cols MCUs at ``data[pos]`` with each
    component's (DC, AC) {code: symbol} maps; returns (each one's
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
