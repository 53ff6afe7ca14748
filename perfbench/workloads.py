"""The benchmark's three workloads.

Each workload walks a pool of seeded inputs (``inputs.py``).  Its set-up is
repeated by the run to time it; its operation is what the closed loop
repeats.  Every operation checks its outputs against ``pins.json`` and,
where the reference decoder was built, against libjpeg.  A traced
operation repeats the same work with spans installed and must reproduce
the untraced outputs exactly.
"""

import hashlib
import json
import os
import subprocess
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import inputs
import softjpeg
from softjpeg import autodiff, codec, losses, pipeline, training

# README desk-scale config (batch 8, 64x64 patches, hidden 64, k 32).  The
# train workload runs its 200-step schedule; the learned workload's
# checkpoint trains for 40 steps so that its set-up, timed three times a
# run, stays near 5 s.  Its half-Kodak streams are ~5.6 bpp, as the 200-step
# checkpoint's are.
TRAIN_CONFIG = training.TrainConfig(steps=200, batch_size=8, patch_size=64, num_patches=64,
                                    hidden_size=64, kwta_k=32)
CHECKPOINT_CONFIG = training.TrainConfig(steps=40, batch_size=8, patch_size=64, num_patches=64,
                                         hidden_size=64, kwta_k=32)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def record_digest(record):
    """Short digest of a training-step record; floats go through repr, so
    equal digests mean a bit-identical record."""
    return sha256(json.dumps(record, sort_keys=True).encode())[:16]


def scan_bytes(stream):
    """Length of the entropy-coded segment: after the SOS header, before EOI."""
    pos = 2
    while stream[pos + 1] != 0xDA:
        pos += 2 + int.from_bytes(stream[pos + 2 : pos + 4], "big")
    start = pos + 2 + int.from_bytes(stream[pos + 2 : pos + 4], "big")
    return len(stream) - 2 - start


def _encode_counts(args, stream):
    return {"bytes": len(stream),
            "nonzero": int(sum(np.count_nonzero(g.blocks) for g in args[0]))}


# Public functions the traced run wraps, as ``softjpeg``-relative names.  A
# name the program under test does not have is skipped, so its layer reads
# 0 and the report line lists it.
TRACED = (
    "codec.color.rgb_to_ycbcr",
    "codec.blocks.partition_plane",
    "codec.dct.fdct_blocks",
    "codec.quant.quantize_blocks",
    "codec.jfif.forward_grids",
    "codec.jfif.entropy_encode",
    "codec.jfif.entropy_decode",
    "codec.jfif.encode_baseline",
    "codec.jfif.decode_baseline",
    "codec.intdecode.integer_idct_samples",
    "codec.intdecode.ycbcr_samples_to_rgb",
    "autodiff.backward",
    "editor.stem_forward",
    "pipeline.compute_edit_scores",
    "pipeline.forward",
    "pipeline.decode_rows",
    "pipeline.hard_grids",
    "pipeline.measure_bpp",
    "pipeline.encode_stream",
    "losses.loss_terms",
    "losses.psnr",
    "losses.ssim",
    "losses.msssim",
    "training.adam_step",
    "pipeline.LearnableTables.clamp_",
    "training.evaluate",
)
# Work counts recorded on a span from the call's arguments and result.
HOOKS = {
    "codec.jfif.entropy_encode": _encode_counts,
    "codec.jfif.entropy_decode": lambda args, _: {"scan_bytes": scan_bytes(args[0])},
}


def _trace_targets():
    """({function: (span name, hook)}, names the program does not have)."""
    targets, missing = {}, []
    for name in TRACED:
        fn = softjpeg
        for part in name.split("."):
            fn = getattr(fn, part, None)
        if fn is None:
            missing.append(name)
        else:
            targets.setdefault(fn, (name, HOOKS.get(name)))
    return targets, missing


TRACE_TARGETS, UNTRACED = _trace_targets()


class RefDecoder:
    """The system libjpeg, through a small stdin -> P6 client."""

    def __init__(self, exe):
        self.exe = exe

    @classmethod
    def build(cls, source, work_dir):
        """Compile the client; returns (decoder or None, reason)."""
        exe = os.path.join(work_dir, "refdecode")
        env = dict(os.environ, TMPDIR=work_dir)
        try:
            done = subprocess.run(["gcc", "-O2", "-o", exe, source, "-ljpeg"], env=env,
                                  capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.TimeoutExpired) as exc:
            return None, f"gcc could not run: {exc}"
        if done.returncode != 0:
            return None, f"gcc -ljpeg failed: {done.stderr.strip()[-300:]}"
        return cls(exe), "built with gcc -O2 ... -ljpeg"

    def decode(self, stream):
        """(raster, libjpeg's own decode time in ms)."""
        done = subprocess.run([self.exe], input=stream, capture_output=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"libjpeg rejected the stream: {done.stderr.decode()[-200:]}")
        return codec.decode_ppm(done.stdout), float(done.stderr)


@dataclass
class Op:
    """One closed-loop operation: the seconds of each public call it made,
    by kind; the input pixels those calls processed; the outputs a traced
    repeat must reproduce; and the facts pinned under ``key``."""

    key: str
    seconds: dict  # call kind -> [seconds of each call]
    pixels: int
    outputs: object
    facts: object
    failures: list = field(default_factory=list)
    scans: list = field(default_factory=list)  # (scan bytes, decode seconds)
    ref_ms: list = field(default_factory=list)
    tensors: int = 0  # autodiff Tensors created

    @property
    def total(self):
        return sum(sum(calls) for calls in self.seconds.values())

    def check_reference(self, ref, stream, raster):
        """decode_baseline must match libjpeg exactly on the same stream."""
        if ref is None:
            return
        ref_raster, ms = ref.decode(stream)
        self.ref_ms.append(ms)
        if not np.array_equal(ref_raster, raster):
            self.failures.append(f"{self.key}: decode_baseline differs from libjpeg")


def _peak_mb(calls):
    """tracemalloc peak, in MB, over each call; the largest is returned."""
    peaks = []
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    return max(peaks)


class CodecWorkload:
    """encode_baseline then decode_baseline of Kodak-size rasters; one op
    codes one raster at each quality of the 50, 75, 90 cycle."""

    def __init__(self, order, ref, work_dir):
        self.order, self.ref = order, ref
        self.io_seconds = []
        self.forward_peak_mb = 0.0

    def _image(self, entry):
        if entry not in self.images:
            self.images[entry] = inputs.codec_image(entry)
        return self.images[entry]

    def setup(self):
        self.images = {}
        self.tables = {q: codec.tables_for_quality(q) for q in inputs.CODEC_QUALITIES}
        self._image(self.order[0])
        return {}

    def op(self, k):
        entry = self.order[k % len(self.order)]
        image = self._image(entry)
        op = Op(str(entry), {"encode": [], "decode": []}, 0, [], {})
        for q, tables in self.tables.items():
            t0 = time.perf_counter()
            stream = codec.encode_baseline(image, tables)
            t1 = time.perf_counter()
            raster = codec.decode_baseline(stream)
            t2 = time.perf_counter()
            op.seconds["encode"].append(t1 - t0)
            op.seconds["decode"].append(t2 - t1)
            op.pixels += image.shape[0] * image.shape[1]
            op.outputs.append((stream, raster.tobytes()))
            op.facts[str(q)] = {"stream": sha256(stream), "raster": sha256(raster.tobytes())}
            op.scans.append((scan_bytes(stream), t2 - t1))
            op.check_reference(self.ref, stream, raster)
        return op

    def traced_op(self, k, tracer):
        """encode_baseline re-composed as forward_grids + entropy_encode,
        then decode_baseline; returns (seconds, outputs)."""
        image = self._image(self.order[k % len(self.order)])
        outputs = []
        with tracer.installed(k, TRACE_TARGETS):
            t0 = time.perf_counter()
            for tables in self.tables.values():
                stream = codec.entropy_encode(codec.forward_grids(image, tables), tables)
                outputs.append((stream, codec.decode_baseline(stream).tobytes()))
            seconds = time.perf_counter() - t0
        return seconds, outputs

    def figures(self, ops):
        return _call_figures(ops, ("encode", "decode"))


class LearnedWorkload:
    """A checkpoint trained and reloaded at set-up; per half-Kodak raster,
    encode_stream, decode_baseline of its stream and evaluate on it."""

    def __init__(self, order, ref, work_dir):
        self.order, self.ref = order, ref
        self.work_dir = work_dir
        self.io_seconds = []
        self.forward_peak_mb = 0.0

    def _image(self, entry):
        """(raster, directory holding it as the one PPM that evaluate reads)."""
        if entry not in self.images:
            image = inputs.learned_image(entry)
            folder = os.path.join(self.work_dir, "learned", str(entry))
            os.makedirs(folder, exist_ok=True)
            codec.write_ppm(os.path.join(folder, f"img{entry}.ppm"), image)
            self.images[entry] = image, folder
        return self.images[entry]

    def setup(self):
        path = os.path.join(self.work_dir, "checkpoint.bin")
        patches = inputs.checkpoint_patches(CHECKPOINT_CONFIG)
        trained, _ = training.train_on_patches(patches, CHECKPOINT_CONFIG)
        t0 = time.perf_counter()
        training.save_checkpoint(trained, path)
        self.checkpoint = training.load_checkpoint(path)
        self.io_seconds.append(time.perf_counter() - t0)
        self.images = {}
        self._image(self.order[0])
        with open(path, "rb") as fh:
            return {"checkpoint": sha256(fh.read())}

    def _calls(self, entry):
        image, folder = self._image(entry)
        params, config = self.checkpoint.params, self.checkpoint.config.pipeline
        t0 = time.perf_counter()
        stream = pipeline.encode_stream(image, params, config)
        t1 = time.perf_counter()
        raster = codec.decode_baseline(stream)
        t2 = time.perf_counter()
        rows = training.evaluate(self.checkpoint, folder)
        t3 = time.perf_counter()
        return (t0, t1, t2, t3), (stream, raster, rows)

    def op(self, k):
        entry = self.order[k % len(self.order)]
        image, _ = self._image(entry)
        (t0, t1, t2, t3), (stream, raster, rows) = self._calls(entry)
        pixels = image.shape[0] * image.shape[1]
        op = Op(str(entry),
                {"learned_encode": [t1 - t0], "decode": [t2 - t1], "eval": [t3 - t2]},
                pixels, (stream, raster.tobytes(), rows),
                {"stream": sha256(stream),
                 "bpp": codec.bits_per_pixel(stream, image.shape[1], image.shape[0]),
                 "raster": sha256(raster.tobytes()),
                 "eval": sha256(json.dumps(rows, sort_keys=True).encode())},
                scans=[(scan_bytes(stream), t2 - t1)])
        op.check_reference(self.ref, stream, raster)
        return op

    def traced_op(self, k, tracer):
        entry = self.order[k % len(self.order)]
        with tracer.installed(k, TRACE_TARGETS):
            (t0, _, _, t3), (stream, raster, rows) = self._calls(entry)
        if k == 0:
            image, _ = self._image(entry)
            params, config = self.checkpoint.params, self.checkpoint.config.pipeline
            self.forward_peak_mb = _peak_mb([
                lambda: pipeline.encode_stream(image, params, config),
                lambda: pipeline.forward(image, params, config, rounding="hard",
                                         measure_rate=True),
            ])
        return t3 - t0, (stream, raster.tobytes(), rows)

    def figures(self, ops):
        figures = _call_figures(ops, ("learned_encode", "decode"))
        figures["eval_s_per_image"] = float(np.median([op.seconds["eval"][0] for op in ops]))
        return figures


class TrainWorkload:
    """train_on_patches re-run step by step: per-step seeded batches drawn
    from Kodak-size crops, one train_step per op, a fresh 200-step schedule
    on the next pool entry whenever one ends."""

    def __init__(self, order, ref, work_dir):
        self.order = order
        self.io_seconds = []
        self.forward_peak_mb = 0.0
        if TRAIN_CONFIG.loss.gamma != 0:
            raise ValueError("the traced step re-composition passes no feature function")

    def _start_schedule(self, index):
        self.entry = self.order[index % len(self.order)]
        self.pool = np.stack(inputs.train_patches(self.entry, TRAIN_CONFIG))
        self.state = self._fresh_state()
        self.traced_state = None

    @staticmethod
    def _fresh_state():
        params = pipeline.init_pipeline(TRAIN_CONFIG.pipeline, seed=TRAIN_CONFIG.seed)
        return params, training.init_adam(params.named())

    def setup(self):
        self._start_schedule(0)
        return {}

    def _batch(self, step):
        # The per-step seeded draw of train_on_patches.
        rng = np.random.default_rng([TRAIN_CONFIG.seed, step])
        return self.pool[rng.integers(len(self.pool), size=TRAIN_CONFIG.batch_size)]

    def op(self, k):
        index, step = divmod(k, TRAIN_CONFIG.steps)
        if step == 0 and k:
            self._start_schedule(index)
        params, adam = self.state
        batch = self._batch(step)
        t0 = time.perf_counter()
        record = training.train_step(params, TRAIN_CONFIG, adam, batch, step)
        seconds = time.perf_counter() - t0
        return Op(f"{self.entry}:{step}", {"train_step": [seconds]}, batch[..., 0].size,
                  record, record_digest(record))

    def traced_op(self, k, tracer):
        """train_step re-composed: forward -> loss_terms -> backward ->
        adam_step, on a second state kept in lock-step with the first."""
        step = k % TRAIN_CONFIG.steps
        if self.traced_state is None:
            self.traced_state = self._fresh_state()
        params, adam = self.traced_state
        config = TRAIN_CONFIG
        batch = self._batch(step)
        with tracer.installed(k, TRACE_TARGETS):
            t0 = time.perf_counter()
            out = pipeline.forward(batch, params, config.pipeline, rounding="soft")
            x = autodiff.Tensor(np.asarray(batch, dtype=np.float64))
            terms = losses.loss_terms(x, out.reconstruction, params.tables, out.scores,
                                      config.loss)
            for t in params.named().values():
                t.zero_grad()
            autodiff.backward(terms["total"])
            lr = training.poly_decay(config.lr0, config.lr_end, step, config.steps,
                                     config.decay_power)
            scales = {name: config.table_lr_scale for name in params.tables.named()}
            training.adam_step(params.named(), adam, lr, scales)
            params.tables.clamp_()
            seconds = time.perf_counter() - t0
        record = {"step": step + 1, "loss": terms["total"].item(), "d": terms["d"].item(),
                  "r": terms["r"].item(), "al": terms["al"].item(), "lr": lr}
        if k == 0:
            self.forward_peak_mb = _peak_mb([
                lambda: pipeline.forward(batch, params, config.pipeline, rounding="soft")])
        return seconds, record

    def figures(self, ops):
        step_seconds = [op.seconds["train_step"][0] for op in ops]
        figures = {
            "train_step_ms_p50": float(np.median(step_seconds)) * 1e3,
            "train_patches_s": len(ops) * TRAIN_CONFIG.batch_size / sum(step_seconds),
        }
        if len(step_seconds) >= 100:  # ten samples or more beyond the 90th percentile
            figures["train_step_ms_p90"] = float(np.percentile(step_seconds, 90)) * 1e3
        return figures


def _call_figures(ops, calls):
    """``<call>_ms_p50`` and ``<call>_mpix_s`` for each timed call."""
    figures = {}
    for call in calls:
        seconds = [s for op in ops for s in op.seconds[call]]
        figures[f"{call}_ms_p50"] = float(np.median(seconds)) * 1e3
        figures[f"{call}_mpix_s"] = sum(op.pixels for op in ops) / sum(seconds) / 1e6
    return figures


# Every figure a workload's ``figures`` can return; the others read 0.
FIGURES = ("encode_ms_p50", "encode_mpix_s", "decode_ms_p50", "decode_mpix_s",
           "learned_encode_ms_p50", "learned_encode_mpix_s", "eval_s_per_image",
           "train_step_ms_p50", "train_step_ms_p90", "train_patches_s")
WORKLOADS = {"codec": CodecWorkload, "learned": LearnedWorkload, "train": TrainWorkload}


def write_pins(ref, work_dir):
    """Facts of every pool entry at this commit, for ``pins.json``.  The
    train trajectories come from the real loop, train_on_patches, so the
    step-by-step re-run is checked against it."""
    order = list(range(inputs.POOL_SIZE))
    pins = {}
    for name in ("codec", "learned"):
        workload = WORKLOADS[name](order, ref, work_dir)
        pins[name] = dict(workload.setup())
        for k in range(inputs.POOL_SIZE):
            op = workload.op(k)
            if op.failures:
                raise RuntimeError("; ".join(op.failures))
            pins[name][op.key] = op.facts
    pins["train"] = {}
    for entry in order:
        patches = inputs.train_patches(entry, TRAIN_CONFIG)
        _, history = training.train_on_patches(patches, TRAIN_CONFIG)
        for step, record in enumerate(history):
            pins["train"][f"{entry}:{step}"] = record_digest(record)
    return pins
