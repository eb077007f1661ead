"""Waveform to network-input feature pipeline.

Log-Mel filterbank extraction, time derivatives, corpus mean/variance
normalization and context splicing. Frames flow as (T, channels, bins)
float32 arrays where the channels are static, delta and delta-delta. The
pipeline's files and their record types are in ``formats``.

The corpus-wide steps, ``featurize_manifest`` and ``compute_cmvn_stats``
here and ``trainer.build_frame_dataset``, run one utterance per
``layers.fan_out`` item on the pool that training and ``evaluate`` use, so
they serialize with those on its OpenBLAS guard. An item's arithmetic is
that of the utterance alone and the statistics' sums are added in corpus
order, so every result has the same bits on any number of cores.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, DataError, FormatError, ShapeError
from .formats import CmvnStats, ManifestEntry, UtteranceFeatures, read_label_file, read_wav
from .layers import fan_out

VARIANCE_FLOOR = 1e-8
DELTA_WINDOW = 2
# Regression denominator 2 * sum(n^2) for n in 1..DELTA_WINDOW.
DELTA_DENOM = 2 * sum(n * n for n in range(1, DELTA_WINDOW + 1))


@dataclass(frozen=True)
class FilterbankConfig:
    sample_rate: int = 16000
    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    fft_size: int = 512
    num_filters: int = 40
    low_freq: float = 20.0
    high_freq: float = 0.0  # 0 means Nyquist
    pre_emphasis: float = 0.97
    log_floor: float = 1e-10

    @property
    def frame_samples(self) -> int:
        return int(round(self.sample_rate * self.frame_length_ms / 1000.0))

    @property
    def shift_samples(self) -> int:
        return int(round(self.sample_rate * self.frame_shift_ms / 1000.0))

    @property
    def resolved_high_freq(self) -> float:
        return self.high_freq or self.sample_rate / 2.0

    def validate(self) -> None:
        # before any float product or allocation; a WAV header's rate is a u32
        if not 1 <= self.sample_rate <= 2**32 - 1:
            raise ConfigError(f"sample_rate must be in 1..{2**32 - 1}, got {self.sample_rate}")
        if not 1 <= self.fft_size <= 2**16:
            raise ConfigError(f"fft_size must be in 1..{2**16}, got {self.fft_size}")
        if not 1 <= self.num_filters <= self.fft_size // 2 + 1:
            raise ConfigError(f"num_filters must be in 1..{self.fft_size // 2 + 1} "
                              f"(fft_size // 2 + 1), got {self.num_filters}")
        if not math.isfinite(self.pre_emphasis):
            raise ConfigError(f"pre_emphasis must be finite, got {self.pre_emphasis}")
        for name in ("frame_length_ms", "frame_shift_ms"):  # before a sample count is rounded
            if not math.isfinite(self.sample_rate * getattr(self, name)):
                raise ConfigError(f"{name} must give a finite sample count, got {getattr(self, name)}")
        if self.frame_samples < 1 or self.shift_samples < 1:
            raise ConfigError("frame length and shift must cover at least one sample")
        if self.fft_size < self.frame_samples:
            raise ConfigError(
                f"fft_size {self.fft_size} smaller than frame of {self.frame_samples} samples"
            )
        if self.fft_size & (self.fft_size - 1):
            raise ConfigError(f"fft_size must be a power of two, got {self.fft_size}")
        high = self.resolved_high_freq
        if not 0.0 <= self.low_freq < high <= self.sample_rate / 2.0:
            raise ConfigError(
                f"need 0 <= low_freq < high_freq <= Nyquist, got {self.low_freq}..{high}"
            )
        if not 0.0 < self.log_floor < math.inf:
            raise ConfigError(f"log_floor must be positive and finite, got {self.log_floor}")


def mel_scale(freq):
    return 2595.0 * np.log10(1.0 + np.asarray(freq, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filter_edges(cfg: FilterbankConfig) -> np.ndarray:
    """num_filters + 2 edge frequencies, uniform on the mel scale."""
    mels = np.linspace(mel_scale(cfg.low_freq), mel_scale(cfg.resolved_high_freq),
                       cfg.num_filters + 2)
    return mel_to_hz(mels)


def mel_filterbank(cfg: FilterbankConfig) -> np.ndarray:
    """Triangular filter weights, shape (num_filters, fft_size // 2 + 1)."""
    edges = mel_filter_edges(cfg)
    bin_freqs = np.arange(cfg.fft_size // 2 + 1) * (cfg.sample_rate / cfg.fft_size)
    weights = np.zeros((cfg.num_filters, bin_freqs.size))
    for i in range(cfg.num_filters):
        lower, center, upper = edges[i], edges[i + 1], edges[i + 2]
        rising = (bin_freqs - lower) / (center - lower)
        falling = (upper - bin_freqs) / (upper - center)
        weights[i] = np.maximum(0.0, np.minimum(rising, falling))
    return weights


def frame_count(num_samples: int, cfg: FilterbankConfig) -> int:
    return 1 + (num_samples - cfg.frame_samples) // cfg.shift_samples


@functools.lru_cache(maxsize=8)
def _analysis_constants(cfg: FilterbankConfig) -> tuple[np.ndarray, np.ndarray]:
    """Hamming window and transposed mel filterbank for one configuration,
    shared read-only by every utterance it featurizes."""
    window = np.hamming(cfg.frame_samples)
    filters = mel_filterbank(cfg)
    window.flags.writeable = False
    filters.flags.writeable = False
    return window, filters.T


def compute_logmel(samples: np.ndarray, cfg: FilterbankConfig) -> np.ndarray:
    """Pre-emphasized, Hamming-windowed log-Mel filterbank features,
    shape (T, num_filters) float32."""
    cfg.validate()
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ShapeError(f"waveform must be one-dimensional, got {samples.shape}")
    if len(samples) < cfg.frame_samples:
        raise DataError(
            f"waveform of {len(samples)} samples is shorter than one "
            f"{cfg.frame_samples}-sample frame"
        )
    emphasized = np.concatenate([samples[:1], samples[1:] - cfg.pre_emphasis * samples[:-1]])
    window, filters_t = _analysis_constants(cfg)
    frames = np.lib.stride_tricks.sliding_window_view(emphasized, cfg.frame_samples)
    windowed = frames[:: cfg.shift_samples] * window
    spectrum = np.abs(np.fft.rfft(windowed, n=cfg.fft_size, axis=1))
    energies = spectrum @ filters_t
    return np.log(np.maximum(energies, cfg.log_floor)).astype(np.float32)


def _delta(sequence: np.ndarray) -> np.ndarray:
    padded = np.pad(sequence, ((DELTA_WINDOW, DELTA_WINDOW), (0, 0)), mode="edge")
    t = len(sequence)
    acc = np.zeros_like(sequence)
    for n in range(1, DELTA_WINDOW + 1):
        acc += n * (padded[DELTA_WINDOW + n : DELTA_WINDOW + n + t]
                    - padded[DELTA_WINDOW - n : DELTA_WINDOW - n + t])
    return acc / DELTA_DENOM


def append_deltas(static: np.ndarray) -> np.ndarray:
    """Stack static features with their first and second regression
    derivatives (window +/-2, edge replication): (T, F) -> (T, 3, F)."""
    if static.ndim != 2 or len(static) < 1:
        raise ShapeError(f"expected a (T, bins) matrix with T >= 1, got {static.shape}")
    first = _delta(static)
    second = _delta(first)
    return np.stack([static, first, second], axis=1)


def compute_cmvn_stats(utterances: list[UtteranceFeatures]) -> CmvnStats:
    """Mean and variance per (channel, bin) from float64 sums and sums of
    squares, one ``fan_out`` item per utterance, added in corpus order."""
    if not utterances:
        raise DataError("cannot compute normalization stats over an empty corpus")
    shape = utterances[0].frames.shape[1:]
    for utt in utterances:
        if utt.frames.shape[1:] != shape:
            raise ShapeError(
                f"utterance '{utt.utt_id}' has geometry {utt.frames.shape[1:]}, "
                f"corpus uses {shape}"
            )
    sums = [None] * len(utterances)

    def accumulate(i):
        frames = utterances[i].frames.astype(np.float64)
        sums[i] = frames.sum(axis=0), (frames * frames).sum(axis=0)

    fan_out(accumulate, len(utterances))
    total = 0
    acc = np.zeros(shape, dtype=np.float64)
    acc_sq = np.zeros(shape, dtype=np.float64)
    for utt, (frame_sum, square_sum) in zip(utterances, sums):
        acc += frame_sum
        acc_sq += square_sum
        total += utt.num_frames
    if total < 2:
        raise DataError(f"need at least 2 frames for statistics, got {total}")
    mean = acc / total
    var = np.maximum(acc_sq / total - mean * mean, VARIANCE_FLOOR)
    return CmvnStats(mean=mean, var=var, frame_count=total)


def apply_cmvn(frames: np.ndarray, stats: CmvnStats) -> np.ndarray:
    if frames.shape[1:] != stats.mean.shape:
        raise ShapeError(
            f"frames have geometry {frames.shape[1:]}, stats cover {stats.mean.shape}"
        )
    return ((frames - stats.mean) / np.sqrt(stats.var)).astype(frames.dtype)


def splice_context(frames: np.ndarray, left: int = 5, right: int = 5) -> np.ndarray:
    """Stack each frame with its context window along a new height axis,
    edge-replicated at utterance boundaries: (T, C, F) -> (T, C, left+1+right, F)."""
    if frames.ndim != 3 or len(frames) < 1:
        raise ShapeError(f"expected (T, channels, bins) with T >= 1, got {frames.shape}")
    if left < 0 or right < 0:
        raise ConfigError(f"context extents must be >= 0, got {left}, {right}")
    t, channels = frames.shape[:2]
    offsets = np.arange(-left, right + 1)
    idx = np.clip(np.arange(t)[:, None] + offsets[None, :], 0, t - 1)
    # one gather, indexed straight into C-contiguous (T, C, H, F) order
    return frames[idx[:, None, :], np.arange(channels)[None, :, None]]


def featurize_utterance(entry: ManifestEntry, cfg: FilterbankConfig,
                        add_deltas: bool = True) -> UtteranceFeatures:
    samples, rate = read_wav(entry.audio_path)
    if rate != cfg.sample_rate:
        raise DataError(
            f"{entry.audio_path} is sampled at {rate} Hz, configuration says "
            f"{cfg.sample_rate} Hz"
        )
    static = compute_logmel(samples, cfg)
    frames = append_deltas(static) if add_deltas else static[:, None, :]
    labels = None
    if entry.label_path is not None:
        labels = read_label_file(entry.label_path)
        if len(labels) != len(frames):
            raise DataError(
                f"{entry.label_path}: {len(labels)} labels for {len(frames)} frames"
            )
    return UtteranceFeatures(entry.utt_id, frames.astype(np.float32, copy=False), labels)


def featurize_manifest(entries: list[ManifestEntry], cfg: FilterbankConfig,
                       add_deltas: bool = True) -> list[UtteranceFeatures]:
    """``featurize_utterance`` of each entry, one ``fan_out`` item per entry.

    ``cfg`` is validated before any item runs. A failing entry does not stop
    the others, so entries after it may still be featurized; once all are
    done, the first failing entry in manifest order raises ``DataError``.
    """
    cfg.validate()
    results = [None] * len(entries)

    def featurize(i):
        try:
            results[i] = featurize_utterance(entries[i], cfg, add_deltas)
        except (DataError, FormatError, OSError) as exc:
            results[i] = exc

    fan_out(featurize, len(entries))
    for position, (entry, result) in enumerate(zip(entries, results), 1):
        if isinstance(result, Exception):
            raise DataError(
                f"utterance '{entry.utt_id}' (manifest line entry {position}): {result}"
            ) from result
    return results
