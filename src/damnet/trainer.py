"""Minibatch SGD training with improvement-gated learning-rate halving.

The schedule watches the validation loss: once the relative improvement
drops below the threshold the learning rate is halved every epoch, and
training stops when improvement stalls again while halving, when the
rate falls below the floor, or when the epoch budget runs out. An epoch's
``Metrics`` and the metrics log that holds them are in ``formats``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConfigError, DataError, DivergenceError, ShapeError
from .features import apply_cmvn, splice_context
from .formats import Metrics, RunKeys, UtteranceFeatures, check_ranges, ranged
from .layers import fan_out, one_blas_thread, softmax_cross_entropy
from .model import Model

# Frames per evaluation shard. Infer forwards are per image, so neither this
# nor the number of threads can change a result. A shard's forward runs its
# full-resolution stages one 16-frame panel at a time (``Model.forward``), so
# it holds all its frames' activations only at the later, smaller stages.
SHARD_FRAMES = 64


@dataclass(frozen=True)
class TrainConfig:
    initial_lr: float = ranged(0.01, "(0, inf)")
    batch_size: int = ranged(256, "1..inf")
    max_epochs: int = ranged(20, "1..inf")
    momentum: float = ranged(0.9, "[0, 1)")
    lr_halving_factor: float = ranged(0.5, "(0, 1)")
    lr_improvement_threshold: float = ranged(0.002, "[0, inf)")
    min_lr: float = ranged(1e-5, "(0, inf)")
    seed: int = ranged(0, "0..inf")
    deterministic: bool = False

    def validate(self) -> None:
        check_ranges(TrainConfig, **vars(self))


@dataclass(frozen=True)
class ScheduleState:
    lr: float
    best_metric: float | None = None
    halving: bool = False


def schedule_step(state: ScheduleState, val_metric: float,
                  cfg: TrainConfig) -> tuple[ScheduleState, bool]:
    """Advance the decay state machine after one epoch's validation loss.

    Returns the new state and whether training should stop.
    """
    if state.best_metric is None:
        improvement = math.inf
    else:
        improvement = (state.best_metric - val_metric) / max(abs(state.best_metric), 1e-12)
    improved = improvement >= cfg.lr_improvement_threshold

    if not improved and state.halving:
        return replace(state, best_metric=_better(state.best_metric, val_metric)), True

    lr = state.lr
    halving = state.halving or not improved
    if halving:
        lr = lr * cfg.lr_halving_factor
    stop = lr < cfg.min_lr
    next_state = ScheduleState(lr=lr, best_metric=_better(state.best_metric, val_metric),
                               halving=halving)
    return next_state, stop


def _better(best: float | None, candidate: float) -> float:
    return candidate if best is None or candidate < best else best


@dataclass
class FrameDataset:
    """Spliced frames ready for the model: (N, C, H, W) plus labels.

    ``features`` is one materialised array. Built by ``build_frame_dataset``
    it is float32, C-contiguous and written in place, so a dataset holds
    ``features.nbytes`` plus its labels and building it peaks at about that
    plus one utterance's temporaries per usable core.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 4:
            raise ShapeError(f"features must be (N, C, H, W), got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ShapeError(
                f"{self.labels.shape[0] if self.labels.ndim else 0} labels for "
                f"{self.features.shape[0]} frames"
            )

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "FrameDataset":
        return FrameDataset(self.features[indices], self.labels[indices])


def build_frame_dataset(utterances: list[UtteranceFeatures], stats=None,
                        left: int = 5, right: int = 5) -> FrameDataset:
    """Normalize (optionally), splice context and flatten a labeled corpus.

    Every utterance is checked (labels, at least one frame, geometry) before
    anything is allocated. Each utterance is then normalised and spliced on
    its own, one ``layers.fan_out`` item per utterance, and written into its
    rows of one preallocated (N, C, left+1+right, F) float32 array, so the
    peak is about the output plus one utterance's temporaries per usable
    core, never a second copy of the corpus, and the rows have the same bits
    on any number of cores.
    """
    if not utterances:
        raise DataError("no utterances to build a dataset from")
    check_ranges(RunKeys, context_left=left, context_right=right)
    geometry = utterances[0].frames.shape[1:] if stats is None else stats.mean.shape
    for utt in utterances:
        if utt.labels is None:
            raise DataError(f"utterance '{utt.utt_id}' has no frame labels")
        if utt.num_frames < 1:
            raise DataError(f"utterance '{utt.utt_id}' has no frames")
        if utt.frames.shape[1:] != geometry:
            raise ShapeError(
                f"utterance '{utt.utt_id}' has geometry {utt.frames.shape[1:]}, "
                f"expected {geometry}"
            )
    channels, bins = geometry
    starts = np.cumsum([0] + [utt.num_frames for utt in utterances])
    features = np.empty((starts[-1], channels, left + 1 + right, bins), dtype=np.float32)

    def splice(i):
        utt = utterances[i]
        frames = apply_cmvn(utt.frames, stats) if stats is not None else utt.frames
        features[starts[i] : starts[i + 1]] = splice_context(frames, left, right)

    fan_out(splice, len(utterances))
    labels = np.concatenate([utt.labels for utt in utterances]).astype(np.int64, copy=False)
    return FrameDataset(features, labels)


def sgd_update(params: np.ndarray, grads: np.ndarray, velocity: np.ndarray, lr: float,
               momentum: float) -> None:
    """In-place SGD step on three like-shaped arrays: v = momentum * v - lr * g; p += v."""
    if lr < 0:
        raise ConfigError(f"learning rate must be >= 0, got {lr}")
    if not params.shape == grads.shape == velocity.shape:
        raise ShapeError(f"SGD shapes differ: {params.shape}, {grads.shape}, {velocity.shape}")
    velocity *= momentum
    velocity -= lr * grads
    params += velocity


def train_epoch(model: Model, data: FrameDataset, cfg: TrainConfig, rng,
                *, lr: float | None = None, velocity: dict | None = None,
                epoch: int = 1) -> Metrics:
    """One pass over the shuffled frames with per-batch SGD updates; the momentum
    is ``velocity["params"]``, made on first use and kept in the caller's dict.

    Each step runs inside ``layers.one_blas_thread``: numpy's bundled OpenBLAS
    is held at one thread, and the step's convolution panels and its
    batchnorm and pool channel chunks run on one pool thread per
    usable core (see ``layers.fan_out``). The work items are fixed by the
    batch shape, so the results are bitwise the same on any number of cores
    and under any OpenBLAS thread count. The thread count is restored after every step, also
    when a step raises."""
    if len(data) == 0:
        raise DataError("empty training data")
    lr = cfg.initial_lr if lr is None else lr
    velocity = {} if velocity is None else velocity
    velocity.setdefault("params", np.zeros_like(model.params))
    order = rng.permutation(len(data))
    total_loss = 0.0
    correct = 0
    started = time.perf_counter()
    for batch_index, start in enumerate(range(0, len(order), cfg.batch_size)):
        idx = order[start : start + cfg.batch_size]
        batch = data.features[idx]
        targets = data.labels[idx]
        with one_blas_thread():
            logits = model.forward(batch, train=True)
            loss, dlogits = softmax_cross_entropy(logits, targets)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss in epoch {epoch}, batch {batch_index}",
                    batch_index=batch_index,
                )
            total_loss += loss * len(idx)
            correct += int((logits.argmax(axis=1) == targets).sum())
            model.backward(dlogits)
            sgd_update(model.params, model.grads, velocity["params"], lr, cfg.momentum)
    seconds = 0.0 if cfg.deterministic else time.perf_counter() - started
    return Metrics(
        epoch=epoch, lr=lr,
        train_loss=total_loss / len(data),
        train_accuracy=correct / len(data),
        seconds=seconds,
    )


@dataclass(frozen=True)
class EvalResult:
    loss: float
    accuracy: float
    confusion: np.ndarray  # rows true class, columns predicted class

    @property
    def frame_error_rate(self) -> float:
        return 1.0 - self.accuracy


def _infer_logits(model: Model, batch: np.ndarray) -> np.ndarray:
    """One batch's infer logits, sharded as ``evaluate`` describes."""
    starts = range(0, len(batch), SHARD_FRAMES)
    shards = [None] * len(starts)

    def shard(i):
        shards[i] = model.forward(batch[starts[i] : starts[i] + SHARD_FRAMES], train=False)

    fan_out(shard, len(shards))
    return np.concatenate(shards)


def evaluate(model: Model, data: FrameDataset, batch_size: int = 256) -> EvalResult:
    """Infer-mode loss, frame accuracy and confusion counts, bitwise those of
    whole-batch forwards. Batches run as SHARD_FRAMES-frame shards on the pool
    that training uses, one thread per usable core, with OpenBLAS at one thread
    (``layers.fan_out``; concurrent calls and training steps serialize on this);
    on one core or without numpy's bundled OpenBLAS, the shards run in turn in
    the calling thread. The (num_classes, num_classes) int64 counts are
    allocated once the first batch's logits exist, so data that fails its
    forward raises before they take any memory."""
    check_ranges(TrainConfig, batch_size=batch_size)
    if len(data) == 0:
        raise DataError("empty evaluation data")
    num_classes = model.config.num_classes
    if data.labels.min() < 0 or data.labels.max() >= num_classes:
        raise DataError(
            f"labels range {data.labels.min()}..{data.labels.max()} exceeds "
            f"model classes [0, {num_classes})"
        )
    confusion = None
    total_loss = 0.0
    for start in range(0, len(data), batch_size):
        batch = data.features[start : start + batch_size]
        targets = data.labels[start : start + batch_size]
        logits = _infer_logits(model, batch)
        loss, _ = softmax_cross_entropy(logits, targets)
        total_loss += loss * len(targets)
        if confusion is None:
            confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
        predicted = logits.argmax(axis=1)
        np.add.at(confusion, (targets, predicted), 1)
    accuracy = float(np.trace(confusion)) / len(data)
    return EvalResult(loss=total_loss / len(data), accuracy=accuracy, confusion=confusion)


def fit(model: Model, train_data: FrameDataset, val_data: FrameDataset,
        cfg: TrainConfig) -> list[Metrics]:
    """Full training loop with the halving schedule and best-validation
    snapshotting; the model ends holding the best-validation parameters.
    A non-finite validation loss raises ``DivergenceError``."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    velocity: dict = {}
    state = ScheduleState(lr=cfg.initial_lr)
    history: list[Metrics] = []
    best_snapshot = None
    for epoch in range(1, cfg.max_epochs + 1):
        epoch_metrics = train_epoch(model, train_data, cfg, rng,
                                    lr=state.lr, velocity=velocity, epoch=epoch)
        result = evaluate(model, val_data, batch_size=cfg.batch_size)
        if not math.isfinite(result.loss):
            raise DivergenceError(f"non-finite validation loss in epoch {epoch}")
        epoch_metrics = replace(epoch_metrics, val_loss=result.loss,
                                val_accuracy=result.accuracy)
        history.append(epoch_metrics)
        if state.best_metric is None or result.loss < state.best_metric:
            best_snapshot = model.tensors.copy()
        state, stop = schedule_step(state, result.loss, cfg)
        if stop:
            break
    if best_snapshot is not None:
        model.tensors[...] = best_snapshot
    return history


def split_validation(utterances: list[UtteranceFeatures], fraction: float,
                     seed: int) -> tuple[list[UtteranceFeatures], list[UtteranceFeatures]]:
    """Seeded held-out split for schedule validation when no explicit
    validation set is supplied. Splits utterances, or frames of a single
    utterance into leading/trailing chunks."""
    if not utterances:
        raise DataError("cannot split an empty corpus")
    check_ranges(RunKeys, validation_fraction=fraction)
    if len(utterances) == 1:
        utt = utterances[0]
        held = max(1, int(round(utt.num_frames * fraction)))
        if utt.num_frames - held < 1:
            raise DataError(
                f"utterance '{utt.utt_id}' too short ({utt.num_frames} frames) to split"
            )
        cut = utt.num_frames - held
        train = UtteranceFeatures(utt.utt_id + ".train", utt.frames[:cut],
                                  None if utt.labels is None else utt.labels[:cut])
        val = UtteranceFeatures(utt.utt_id + ".val", utt.frames[cut:],
                                None if utt.labels is None else utt.labels[cut:])
        return [train], [val]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(utterances))
    held = max(1, int(round(len(utterances) * fraction)))
    held = min(held, len(utterances) - 1)
    val_indices = set(order[:held].tolist())
    train = [u for i, u in enumerate(utterances) if i not in val_indices]
    val = [u for i, u in enumerate(utterances) if i in val_indices]
    return train, val


def make_synthetic_dataset(num_classes: int, frames_per_class: int,
                           separation: float, seed: int) -> list[UtteranceFeatures]:
    """Class-conditional Gaussian frames with unit noise: class c's mean
    is offset by ``separation`` along its own coordinate, one utterance
    per class, emitted in the standard feature geometry, 3 x 40. The sizes and
    the separation are checked against their ``synth_*`` ranges before any draw."""
    channels, bins = 3, 40
    check_ranges(RunKeys, synth_classes=num_classes, synth_frames_per_class=frames_per_class,
                 synth_separation=separation)
    rng = np.random.default_rng(seed)
    utterances = []
    for label in range(num_classes):
        mean = np.zeros(channels * bins)
        mean[label] = separation
        frames = rng.standard_normal((frames_per_class, channels, bins))
        frames += mean.reshape(channels, bins)
        utterances.append(UtteranceFeatures(
            f"synth{label:03d}",
            frames.astype(np.float32),
            np.full(frames_per_class, label, dtype=np.int64),
        ))
    return utterances
