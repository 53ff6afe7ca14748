#!/usr/bin/env python3
"""softjpeg benchmark: seeded closed-loop workloads with pinned outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload codec --seed 1 --seconds 10 --trace 0

One client, one process: the loop starts the next operation only when the
previous one has finished, and stops at the end of the first operation that
ends after ``--seconds``.  Set-up runs three
times and ``setup_s`` is its median.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` repeats every operation with
spans installed and reports the per-layer metrics.  The last line of
standard output is the JSON result; the line before it is a report with
the run context, the per-workload figures and the scan-length evidence.

    python3 perfbench/run.py --write-pins

re-computes ``perfbench/pins.json`` from the current program.  See
``perfbench/NOTES.md`` for the workloads and metrics.
"""

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PINS = os.path.join(BENCH_DIR, "pins.json")
SETUP_REPEATS = 3

# Per-layer time metrics: span names summed per operation (see NOTES.md).
LAYERS = {
    "codec.color.ms": ["codec.color.rgb_to_ycbcr"],
    "codec.dct.ms": ["codec.blocks.partition_plane", "codec.dct.fdct_blocks"],
    "codec.quant.ms": ["codec.quant.quantize_blocks"],
    "codec.huffman_encode.ms": ["codec.jfif.entropy_encode"],
    "codec.huffman_decode.ms": ["codec.jfif.entropy_decode"],
    "codec.intdecode.ms": ["codec.intdecode.integer_idct_samples",
                           "codec.intdecode.ycbcr_samples_to_rgb"],
    "autodiff.backward.ms": ["autodiff.backward"],
    "editor.stem_forward.ms": ["editor.stem_forward"],
    "editor.edit_scores.ms": ["pipeline.compute_edit_scores"],
    "pipeline.forward.ms": ["pipeline.forward"],
    "pipeline.decode_rows.ms": ["pipeline.decode_rows"],
    "pipeline.measure_bpp.ms": ["pipeline.hard_grids", "pipeline.measure_bpp"],
    "losses.loss_terms.ms": ["losses.loss_terms"],
    "losses.quality_metrics.ms": ["losses.psnr", "losses.ssim", "losses.msssim"],
    "training.adam_step.ms": ["training.adam_step", "pipeline.LearnableTables.clamp_"],
}
EVALUATE = "training.evaluate"
# Subtracted from evaluate's span; what is left is mostly the bpp-matching search.
EVALUATE_CHILDREN = ["pipeline.forward", "codec.jfif.decode_baseline",
                     "losses.psnr", "losses.ssim", "losses.msssim"]
ENCODE = "codec.jfif.entropy_encode"
DECODE = "codec.jfif.entropy_decode"


def median(values):
    return statistics.median(values) if values else 0.0


def run_context(seed):
    import numpy as np

    return {
        "seed": seed,
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def blas_threads(np):
    """Thread count of numpy's bundled OpenBLAS, or the reason it is unknown."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return getter()
    return "unknown: no bundled OpenBLAS found"


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("codec", "learned", "train"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-compute pins.json from the current program")
    args = parser.parse_args()
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    return args


def closed_loop(workload, seconds, tracer, tensor_count):
    """Run ops until one ends after ``seconds`` have passed.

    Returns (untraced ops, traced (op id, extra seconds) pairs, ops that raised)."""
    ops, traced, raised = [], [], 0
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        try:
            before = tensor_count()
            op = workload.op(k)
            op.tensors = tensor_count() - before - 1
            ops.append(op)
            if tracer is not None:
                traced_seconds, outputs = workload.traced_op(k, tracer)
                traced.append((k, traced_seconds - op.total))
                if outputs != op.outputs:
                    op.failures.append(f"{op.key}: traced outputs differ from untraced")
        except Exception:
            traceback.print_exc()
            raised += 1
        k += 1
        if time.perf_counter() >= deadline:
            return ops, traced, raised


def per_layer_metrics(workload, ops, traced, tracer):
    ids = [k for k, _ in traced]
    metrics = {name: median([tracer.layer_seconds(k, spans) for k in ids]) * 1e3
               for name, spans in LAYERS.items()}
    metrics["training.evaluate.self_ms"] = median([
        tracer.layer_seconds(k, [EVALUATE])
        - tracer.layer_seconds(k, EVALUATE_CHILDREN, within=EVALUATE) for k in ids]) * 1e3
    nonzero = sum(tracer.counts(k, ENCODE, "nonzero") for k in ids)
    scanned = sum(tracer.counts(k, DECODE, "scan_bytes") for k in ids)
    encode_s = sum(tracer.layer_seconds(k, [ENCODE]) for k in ids)
    decode_s = sum(tracer.layer_seconds(k, [DECODE]) for k in ids)
    metrics["codec.huffman_encode.ns_per_coeff"] = encode_s / nonzero * 1e9 if nonzero else 0.0
    metrics["codec.huffman_decode.us_per_byte"] = decode_s / scanned * 1e6 if scanned else 0.0
    metrics["codec.stream_bytes"] = tracer.counts(ids[0], ENCODE, "bytes") if ids else 0
    metrics["codec.nonzero_coeffs"] = tracer.counts(ids[0], ENCODE, "nonzero") if ids else 0
    metrics["autodiff.ops"] = median([op.tensors for op in ops])
    metrics["autodiff.forward_peak_mb"] = workload.forward_peak_mb
    metrics["training.checkpoint_io.ms"] = median(workload.io_seconds) * 1e3
    metrics["trace.overhead_ms"] = median([extra for _, extra in traced]) * 1e3
    metrics["libjpeg.decode_ms_p50"] = median([ms for op in ops for ms in op.ref_ms])
    return metrics


def main():
    args = parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "softjpeg")):
        print(f"perfbench: no program to measure: {os.path.join(ROOT, 'src', 'softjpeg')} "
              "is missing; run from the root of a softjpeg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(WORK_DIR, exist_ok=True)

    import inputs
    import tracing
    import workloads
    from softjpeg.autodiff import Tensor

    ref, ref_status = workloads.RefDecoder.build(os.path.join(BENCH_DIR, "refdecode.c"), WORK_DIR)
    if args.write_pins:
        pins = workloads.write_pins(ref, WORK_DIR)
        with open(PINS, "w") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    with open(PINS) as fh:
        pins = json.load(fh)[args.workload]

    workload = workloads.WORKLOADS[args.workload](inputs.pool_order(args.seed), ref, WORK_DIR)
    setup_failures = []
    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        facts = workload.setup()
        setup_seconds.append(time.perf_counter() - t0)
        setup_failures += [f"set-up {key}: got {got}, pinned {pins.get(key)}"
                           for key, got in facts.items() if pins.get(key) != got]

    tracer = tracing.Tracer() if args.trace else None
    gc.collect()  # the first op should not pay for the set-ups' garbage
    ops, traced, raised = closed_loop(workload, args.seconds, tracer,
                                      lambda: Tensor(0.0).node_id)
    for op in ops:
        if op.facts != pins.get(op.key):
            op.failures.append(f"{op.key}: got {op.facts}, pinned {pins.get(op.key)}")
    for failure in setup_failures + [f for op in ops for f in op.failures]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    # Every op ran on the set-up's state, so a failed set-up check fails them all.
    failed = raised + sum(1 for op in ops if op.failures or setup_failures)

    figures = workload.figures(ops) if ops else {}
    timed = sum(op.total for op in ops)
    measured = {
        "setup_s": median(setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_ms_p50": median([op.total for op in ops]) * 1e3,
        "mpix_s": sum(op.pixels for op in ops) / timed / 1e6 if timed else 0.0,
    }
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": run_context(args.seed),
        "pool_order": workload.order,
        "setup_s_all": setup_seconds,
        "ops": len(ops) + raised,
        "untraced": workloads.UNTRACED,
        "figures": figures,
        "op_seconds": {op.key: op.seconds for op in ops},
        "scans": [[nbytes, seconds * 1e3] for op in ops for nbytes, seconds in op.scans],
        "libjpeg": {"status": ref_status,
                    "decode_ms": [ms for op in ops for ms in op.ref_ms]},
    }
    section = "end_to_end"
    if tracer is not None:
        section = "per_layer"
        measured.update(per_layer_metrics(workload, ops, traced, tracer))
        trace_path = os.path.join(WORK_DIR, f"trace-{args.workload}-{args.seed}.json")
        tracer.write(trace_path)
        report["trace_file"] = os.path.relpath(trace_path, ROOT)
    unknown = [m["name"] for m in declared[section]
               if m["name"] not in measured and m["name"] not in workloads.FIGURES]
    if unknown:
        raise KeyError(f"BENCHMARK.json declares metrics the benchmark does not make: {unknown}")
    # Figures of another workload read 0 in the per-layer set.
    metrics = {m["name"]: {"value": measured.get(m["name"], figures.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared[section]}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops) + raised,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
