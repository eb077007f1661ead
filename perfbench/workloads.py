"""The benchmark's workloads.

Each workload is a closed loop with one caller in one process. It makes its
inputs from the seed (``generate``, untimed), sets up (``setup``, timed as
``setup_s``), then runs one timed operation at a time (``op``) and checks
every output (``check``, untimed). ``reference_checks`` compare against
independent or float64 references once per run, and ``probes`` feed the
program inputs it must reject, to show the benchmark counts them as failed.
"""

from __future__ import annotations

import math
import os
import statistics
import tracemalloc
import wave
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import damnet
import reference
from tracing import MB

BATCH = 256
CLASSES = 1500
FIXED_BATCHES = 4       # train and infer cycle over this many fixed batches
WARMUP_FRAMES = 32      # the set-up's warm-up pass runs one batch this size
REFERENCE_FRAMES = 16   # frames compared against the float64 reference
PROBE_FRAMES = 4

# Tolerances. float32 against float64 with the same weights: the logits of
# a 20-40 layer net agree to a few float32 ulps of their scale, so 1e-4 of
# max(1, max|ref|) leaves room for summation-order changes while catching
# any real error. Repeated infer-mode evaluation of one batch must agree
# to float32 rounding of the mean loss.
LOGITS_REL_TOL = 1e-4
LOSS_REL_TOL = 1e-5
EVAL_REPEAT_REL_TOL = 1e-6
# log-Mel and deltas (float32 output, values |x| < ~30) against the float64
# reference: float32 rounding is ~2e-6 at that scale.
LOGMEL_ABS_TOL = 1e-4
# Normalised spliced rows (unit scale, float32) against a manual gather.
SPLICE_ABS_TOL = 1e-5
CMVN_REL_TOL = 1e-6
SPLICE_ROWS = 64


class CheckFailed(Exception):
    """An operation's output failed one of the benchmark's checks."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def random_utterances(rng, count: int, frames: int) -> list:
    """Standard-normal 3x40 features with uniform labels, one utterance
    per fixed batch."""
    return [damnet.UtteranceFeatures(
        f"rand{k}", rng.standard_normal((frames, 3, 40), dtype=np.float32),
        rng.integers(0, CLASSES, frames)) for k in range(count)]


def dataset_bytes_per_frame(data) -> float:
    arrays = [v for v in vars(data).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays) / len(data)


def _rel_err(value, ref) -> float:
    value, ref = np.asarray(value, np.float64), np.asarray(ref, np.float64)
    return float(np.max(np.abs(value - ref)) / max(1.0, float(np.max(np.abs(ref)))))


class _ModelWorkload:
    config: damnet.DenseNetConfig

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.frames_per_op = BATCH
        self.model = None

    def _build_batches(self):
        self.batches = [
            self.tracer.call("trainer.build_frame_dataset", damnet.build_frame_dataset, [utt])
            for utt in self.utterances]
        self.dataset_bytes_per_frame = dataset_bytes_per_frame(self.batches[0])

    def _bad_batches(self):
        nan = damnet.FrameDataset(np.full((PROBE_FRAMES, 3, 11, 40), np.nan, np.float32),
                                  np.zeros(PROBE_FRAMES, np.int64))
        misshaped = damnet.FrameDataset(np.zeros((PROBE_FRAMES, 3, 11, 39), np.float32),
                                        np.zeros(PROBE_FRAMES, np.int64))
        return nan, misshaped

    def _float64_reference(self, model, train: bool):
        """Logits and loss of ``model`` against a float64 model built from the
        same seed, on a slice of the first batch."""
        x = self.batches[0].features[:REFERENCE_FRAMES]
        y = self.batches[0].labels[:REFERENCE_FRAMES]
        exact = damnet.build_model(self.config, self.seed, dtype=np.float64)
        logits = model.forward(x, train=train)
        logits64 = exact.forward(x.astype(np.float64), train=train)
        loss, _ = damnet.layers.softmax_cross_entropy(logits, y)
        loss64, _ = damnet.layers.softmax_cross_entropy(logits64, y)
        logits_err, loss_err = _rel_err(logits, logits64), _rel_err(loss, loss64)
        require(logits_err <= LOGITS_REL_TOL,
                f"logits differ from float64 by {logits_err:.3g} (tolerance {LOGITS_REL_TOL})")
        require(loss_err <= LOSS_REL_TOL,
                f"loss differs from float64 by {loss_err:.3g} (tolerance {LOSS_REL_TOL})")
        return {"logits_rel_err": logits_err, "logits_tol": LOGITS_REL_TOL,
                "loss_rel_err": loss_err, "loss_tol": LOSS_REL_TOL}


class TrainPlain22(_ModelWorkload):
    """``train_epoch`` over one fixed batch of 256 per call: plain variant,
    depth 22, growth 12, 3x11x40 input, 1500 classes."""

    config = damnet.DenseNetConfig(variant="plain", depth=22, growth_rate=12,
                                   compression=1.0, num_classes=CLASSES)

    def generate(self):
        self.utterances = random_utterances(np.random.default_rng(self.seed),
                                            FIXED_BATCHES, BATCH)

    def setup(self):
        self.model = damnet.build_model(self.config, self.seed)
        self._build_batches()
        self.train_cfg = damnet.TrainConfig(batch_size=BATCH, seed=self.seed)
        self.rng = np.random.default_rng(self.seed)
        self.velocity = {}
        warm = self.batches[0].subset(np.arange(WARMUP_FRAMES))
        damnet.train_epoch(self.model, warm, self.train_cfg, self.rng, velocity=self.velocity)

    def op(self, i):
        return self.tracer.call("trainer.train_epoch", damnet.train_epoch, self.model,
                                self.batches[i % FIXED_BATCHES], self.train_cfg, self.rng,
                                velocity=self.velocity)

    def check(self, i, metrics):
        _check_step(self.model, metrics)

    def reference_checks(self):
        # a fresh float32 model, so the comparison is not against trained weights
        fresh = damnet.build_model(self.config, self.seed)
        return [("float64_forward", lambda: self._float64_reference(fresh, train=True))]

    def probes(self):
        probe = damnet.build_model(self.config, self.seed)
        cfg = damnet.TrainConfig(batch_size=PROBE_FRAMES, seed=self.seed)
        nan, misshaped = self._bad_batches()

        def step(data):
            return lambda: damnet.train_epoch(probe, data, cfg, np.random.default_rng(0))

        def check(metrics):
            _check_step(probe, metrics)

        return [("nan_batch", step(nan), check, ("DivergenceError",)),
                ("misshaped_batch", step(misshaped), check, ("ShapeError",))]

    def memory_metrics(self):
        """Peak of the memory one train step allocates and holds at once."""
        tracemalloc.start()
        try:
            self.op(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"model.train_step_peak_mb": peak / MB}

    def named_results(self, op_seconds):
        return {"train_frames_per_s": (BATCH / statistics.median(op_seconds), "frames/s")}


def _check_step(model, metrics):
    require(math.isfinite(metrics.train_loss), f"non-finite training loss {metrics.train_loss}")
    for name, param in model.named_params().items():
        require(bool(np.isfinite(param).all()), f"non-finite parameter {name} after the step")


class InferBC41(_ModelWorkload):
    """Infer-mode ``evaluate`` of one fixed batch of 256 per call with a
    BC depth-41, compression-0.5 model read back from a checkpoint."""

    config = damnet.DenseNetConfig(variant="BC", depth=41, growth_rate=12,
                                   compression=0.5, num_classes=CLASSES)

    def generate(self):
        self.utterances = random_utterances(np.random.default_rng(self.seed),
                                            FIXED_BATCHES, BATCH)
        self.source = damnet.build_model(self.config, self.seed)
        self.path = os.path.join(self.workdir, "bc41.damc")
        self.tracer.call("checkpoint.save", damnet.save_checkpoint, self.source, self.path)
        self.checkpoint_bytes = os.path.getsize(self.path)

    def setup(self):
        self.model = self.tracer.call("checkpoint.load", damnet.load_checkpoint, self.path)
        self._build_batches()
        warm = self.batches[0].subset(np.arange(WARMUP_FRAMES))
        damnet.evaluate(self.model, warm, batch_size=BATCH)
        self.first_loss = {}

    def op(self, i):
        return self.tracer.call("trainer.evaluate", damnet.evaluate, self.model,
                                self.batches[i % FIXED_BATCHES], batch_size=BATCH)

    def check(self, i, result):
        _check_eval(result, BATCH)
        first = self.first_loss.setdefault(i % FIXED_BATCHES, result.loss)
        require(abs(result.loss - first) <= EVAL_REPEAT_REL_TOL * max(1.0, abs(first)),
                f"evaluating batch {i % FIXED_BATCHES} again gave loss {result.loss!r}, "
                f"first {first!r}")

    def reference_checks(self):
        return [("checkpoint_roundtrip", self._roundtrip),
                ("float64_logits", lambda: self._float64_reference(self.model, train=False))]

    def _roundtrip(self):
        saved, loaded = self.source.named_tensors(), self.model.named_tensors()
        require(list(saved) == list(loaded), "checkpoint tensor names differ")
        for name, tensor in saved.items():
            require(loaded[name].dtype == np.float32 and loaded[name].shape == tensor.shape
                    and np.array_equal(loaded[name].view(np.uint32), tensor.view(np.uint32)),
                    f"tensor {name} is not bit-exact after the checkpoint round trip")
        return {"tensors": len(saved)}

    def probes(self):
        nan, misshaped = self._bad_batches()

        def evaluate(data):
            return lambda: damnet.evaluate(self.model, data, batch_size=BATCH)

        def check(result):
            _check_eval(result, PROBE_FRAMES)

        # infer mode has no divergence check of its own: the NaN batch must be
        # caught by the benchmark's output check
        return [("nan_batch", evaluate(nan), check, ("CheckFailed",)),
                ("misshaped_batch", evaluate(misshaped), check, ("ShapeError",))]

    def memory_metrics(self):
        """Memory an infer forward allocates and still holds after its output
        is dropped (tracemalloc counts only blocks allocated after start)."""
        tracemalloc.start()
        try:
            logits = self.model.forward(self.batches[0].features, train=False)
            del logits
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return {"model.infer_retained_mb": retained / MB}

    def named_results(self, op_seconds):
        return {"infer_frames_per_s": (BATCH / statistics.median(op_seconds), "frames/s")}


def _check_eval(result, frames):
    require(math.isfinite(result.loss), f"non-finite evaluation loss {result.loss}")
    require(0.0 <= result.accuracy <= 1.0, f"accuracy {result.accuracy} outside [0, 1]")
    require(int(result.confusion.sum()) == frames,
            f"confusion counts {int(result.confusion.sum())} frames, expected {frames}")


@dataclass
class _Pass:
    utterances: list
    read_back: list
    stats: object
    data: object
    featurize_s: float
    splice_s: float


class FeaturizeCorpus:
    """WAV -> log-Mel -> deltas -> archive, then archive -> CMVN -> spliced
    ``FrameDataset``, over 200 synthetic 5 s utterances per call."""

    UTTERANCES = 200
    SAMPLES = 5 * reference.SAMPLE_RATE
    WARMUP_UTTERANCES = 25
    CONTEXT = 5

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.model = None
        self.archive = os.path.join(workdir, "corpus.fbk")
        frames = 1 + (self.SAMPLES - reference.FRAME) // reference.SHIFT
        self.frames_per_op = self.UTTERANCES * frames
        self.featurize_seconds = []
        self.splice_seconds = []

    def generate(self):
        """Mono 16-bit WAVs (a few drifting tones plus noise) with uniform
        per-frame labels, and their manifest entries."""
        rng = np.random.default_rng(self.seed)
        frames = self.frames_per_op // self.UTTERANCES
        t = np.arange(self.SAMPLES) / reference.SAMPLE_RATE
        self.entries, labels_by_utt = [], []
        for u in range(self.UTTERANCES):
            signal = 0.05 * rng.standard_normal(self.SAMPLES)
            for _ in range(3):
                hz = rng.uniform(100.0, 4000.0) * (1.0 + 0.1 * np.sin(2 * np.pi * 0.5 * t))
                phase = 2 * np.pi * np.cumsum(hz) / reference.SAMPLE_RATE
                signal += rng.uniform(0.05, 0.2) * np.sin(phase)
            pcm = np.clip(signal * 32767, -32768, 32767).astype("<i2")
            wav = os.path.join(self.workdir, f"utt{u:03d}.wav")
            with wave.open(wav, "wb") as handle:
                handle.setnchannels(1)
                handle.setsampwidth(2)
                handle.setframerate(reference.SAMPLE_RATE)
                handle.writeframes(pcm.tobytes())
            labels = rng.integers(0, CLASSES, frames)
            label_path = os.path.join(self.workdir, f"utt{u:03d}.lab")
            with open(label_path, "w") as handle:
                handle.write(" ".join(map(str, labels.tolist())) + "\n")
            self.entries.append(damnet.features.ManifestEntry(f"utt{u:03d}", wav, label_path))
            labels_by_utt.append(labels)
        self.all_labels = np.concatenate(labels_by_utt)
        self.filterbank = reference.mel_filterbank()

    def setup(self):
        self._pass(self.entries[: self.WARMUP_UTTERANCES])

    def op(self, i):
        return self._pass(self.entries)

    def _pass(self, entries):
        call = self.tracer.call
        started = perf_counter()
        utts = call("features.featurize_manifest", damnet.features.featurize_manifest,
                    entries, damnet.FilterbankConfig())
        call("features.write_archive", damnet.write_archive, utts, self.archive)
        featurized = perf_counter()
        read_back = call("features.read_archive", damnet.read_archive, self.archive)
        stats = call("features.cmvn", damnet.compute_cmvn_stats, read_back)
        data = call("trainer.build_frame_dataset", damnet.build_frame_dataset, read_back,
                    stats, self.CONTEXT, self.CONTEXT)
        done = perf_counter()
        return _Pass(utts, read_back, stats, data, featurized - started, done - featurized)

    def check(self, i, p: _Pass):
        self.featurize_seconds.append(p.featurize_s)
        self.splice_seconds.append(p.splice_s)
        require([u.utt_id for u in p.read_back] == [u.utt_id for u in p.utterances],
                "archive round trip changed the utterance ids")
        for a, b in zip(p.utterances, p.read_back):
            require(np.array_equal(a.frames, b.frames) and np.array_equal(a.labels, b.labels),
                    f"archive round trip changed utterance {a.utt_id}")
        require(len(p.data) == self.frames_per_op
                and p.data.features.shape[1:] == (3, 2 * self.CONTEXT + 1, 40),
                f"dataset shape {p.data.features.shape}")
        require(np.array_equal(p.data.labels, self.all_labels), "dataset labels differ")
        require(bool(np.isfinite(p.data.features).all()), "non-finite spliced features")
        self._check_logmel(p, [0, 1 + i % (self.UTTERANCES - 1)])
        self._check_splice(p, np.random.default_rng([self.seed, i]))
        self.dataset_bytes_per_frame = dataset_bytes_per_frame(p.data)

    def _check_logmel(self, p: _Pass, indices):
        for u in indices:
            static = reference.logmel(reference.read_wav_samples(self.entries[u].audio_path),
                                      self.filterbank)
            first = reference.deltas(static)
            expected = np.stack([static, first, reference.deltas(first)], axis=1)
            err = float(np.max(np.abs(p.utterances[u].frames - expected)))
            require(err <= LOGMEL_ABS_TOL,
                    f"log-Mel/deltas of {self.entries[u].utt_id} differ from the reference "
                    f"by {err:.3g} (tolerance {LOGMEL_ABS_TOL})")

    def _check_splice(self, p: _Pass, rng):
        frames = [u.frames for u in p.read_back]
        mean, var = reference.cmvn_stats(frames)
        require(_rel_err(p.stats.mean, mean) <= CMVN_REL_TOL
                and _rel_err(p.stats.var, var) <= CMVN_REL_TOL,
                "CMVN statistics differ from the two-pass reference")
        starts = np.cumsum([0] + [len(f) for f in frames])
        for row in rng.integers(0, len(p.data), SPLICE_ROWS):
            u = int(np.searchsorted(starts, row, side="right")) - 1
            expected = reference.spliced_row(frames[u], int(row - starts[u]), mean, var,
                                             self.CONTEXT, self.CONTEXT)
            err = float(np.max(np.abs(p.data.features[row] - expected)))
            require(err <= SPLICE_ABS_TOL,
                    f"spliced row {row} differs from the manual gather by {err:.3g} "
                    f"(tolerance {SPLICE_ABS_TOL})")

    def reference_checks(self):
        return []

    def probes(self):
        cfg = damnet.FilterbankConfig()
        nan_wave = np.full(4000, np.nan)

        def nan_utterance():
            frames = damnet.append_deltas(damnet.compute_logmel(nan_wave, cfg))
            return damnet.UtteranceFeatures("nan", frames.astype(np.float32))

        def misshaped_utterance():
            return damnet.build_frame_dataset([damnet.UtteranceFeatures(
                "flat", np.zeros((10, 40), np.float32), np.zeros(10, np.int64))])

        return [("nan_waveform", nan_utterance, None, ("DataError",)),
                ("misshaped_frames", misshaped_utterance, None, ("ShapeError",))]

    def memory_metrics(self):
        return {}

    def named_results(self, op_seconds):
        # the first pass checked is the untimed warm-up operation
        return {
            "featurize_frames_per_s": (
                self.frames_per_op / statistics.median(self.featurize_seconds[1:]), "frames/s"),
            "splice_frames_per_s": (
                self.frames_per_op / statistics.median(self.splice_seconds[1:]), "frames/s"),
        }


WORKLOADS = {"train-plain22": TrainPlain22, "infer-bc41": InferBC41,
             "featurize-corpus": FeaturizeCorpus}
