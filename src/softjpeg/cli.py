"""Command-line entry point: encode, decode, train, eval, qtable.

Exit codes are a stable contract for scripts: 0 success, 1 usage errors,
2 I/O failures, 3 malformed input data.  Subcommands never mutate their
input files.
"""

import argparse
import json
import sys
import time

import numpy as np

from . import pipeline as pl
from . import training as tr
from .codec import (
    CoefficientRangeError,
    JpegFormatError,
    PpmFormatError,
    bits_per_pixel,
    decode_baseline,
    encode_baseline,
    read_ppm,
    tables_for_quality,
    write_ppm,
)
from .losses import psnr

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FORMAT = 3


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageExit()


def build_parser():
    parser = _Parser(prog="softjpeg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="compress a P6 PPM image to JFIF")
    enc.add_argument("--input", required=True, help="input P6 PPM file")
    enc.add_argument("--output", required=True, help="output .jpg path")
    mode = enc.add_mutually_exclusive_group(required=True)
    mode.add_argument("--quality", type=int, help="baseline quality in [1, 100]")
    mode.add_argument("--checkpoint", help="use a trained checkpoint (learned tables + edits)")

    dec = sub.add_parser("decode", help="decode a baseline JFIF stream to P6 PPM")
    dec.add_argument("--input", required=True)
    dec.add_argument("--output", required=True)
    dec.add_argument("--reference", help="PPM to report PSNR against")

    trn = sub.add_parser("train", help="train the learned pipeline on a directory of PPMs")
    trn.add_argument("--data", required=True, help="directory of P6 training images")
    trn.add_argument("--config", help="JSON training-config file (defaults when omitted)")
    trn.add_argument("--out", required=True, help="checkpoint output path")

    ev = sub.add_parser("eval", help="evaluate a checkpoint against bpp-matched baseline JPEG")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--csv", required=True, help="metrics CSV output path")

    qt = sub.add_parser("qtable", help="print a checkpoint's exported quantization tables")
    qt.add_argument("--checkpoint", required=True)
    return parser


def cmd_encode(args):
    # The tables before the input: a bad quality exits 1 whatever the input.
    tables = None if args.quality is None else tables_for_quality(args.quality)
    image = read_ppm(args.input)
    start = time.perf_counter()
    if tables is not None:
        stream = encode_baseline(image, tables)
    else:
        ckpt = tr.load_checkpoint(args.checkpoint)
        stream = pl.encode_stream(image, ckpt.params, ckpt.config.pipeline)
    elapsed = time.perf_counter() - start
    with open(args.output, "wb") as fh:
        fh.write(stream)
    bpp = bits_per_pixel(stream, image.shape[1], image.shape[0])
    print(f"bpp={bpp:.4f} time={elapsed:.3f}s")
    return EXIT_OK


def cmd_decode(args):
    with open(args.input, "rb") as fh:
        stream = fh.read()
    image = decode_baseline(stream)
    write_ppm(args.output, image)
    if args.reference:
        reference = read_ppm(args.reference)
        if reference.shape != image.shape:
            raise PpmFormatError(
                f"reference shape {reference.shape} differs from decoded {image.shape}"
            )
        print(f"psnr={psnr(reference, image):.4f}dB")
    return EXIT_OK


def cmd_train(args):
    if args.config:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                raise ValueError(f"{args.config}: unreadable config JSON: {exc}") from None
        config = tr.TrainConfig.from_dict(data)
    else:
        config = tr.TrainConfig()
    print(tr.TRAIN_LOG_HEADER)
    tr.train(config, args.data, args.out, log=print)
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def cmd_eval(args):
    ckpt = tr.load_checkpoint(args.checkpoint)
    rows = tr.evaluate(ckpt, args.data, csv_out=args.csv)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return EXIT_OK


def cmd_qtable(args):
    ckpt = tr.load_checkpoint(args.checkpoint)
    tables = pl.export_tables(ckpt.params.tables)
    for name, table in (("luminance", tables.luma), ("chrominance", tables.chroma)):
        print(f"{name}:")
        for row in np.asarray(table):
            print(" ".join(f"{v:3d}" for v in row))
    return EXIT_OK


_COMMANDS = {
    "encode": cmd_encode,
    "decode": cmd_decode,
    "train": cmd_train,
    "eval": cmd_eval,
    "qtable": cmd_qtable,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except _UsageExit:
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (JpegFormatError, PpmFormatError, CoefficientRangeError,
            tr.CheckpointFormatError) as exc:
        print(f"softjpeg: invalid input data: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"softjpeg: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"softjpeg: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
