"""Waveform to network-input feature pipeline.

Log-Mel filterbank extraction, time derivatives, corpus mean/variance
normalization, context splicing, and the binary feature archive. Frames
flow as (T, channels, bins) float32 arrays where the channels are
static, delta and delta-delta. The checkpoint shares the file helpers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import struct
import wave
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, DataError, FormatError, ShapeError

ARCHIVE_MAGIC = b"FBK1"
LABEL_MAGIC = b"LBL1"
ARCHIVE_VERSION = 2

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
        if self.sample_rate < 1:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        for name in ("frame_length_ms", "frame_shift_ms", "pre_emphasis"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.frame_samples < 1 or self.shift_samples < 1:
            raise ConfigError("frame length and shift must cover at least one sample")
        if self.fft_size < self.frame_samples:
            raise ConfigError(
                f"fft_size {self.fft_size} smaller than frame of {self.frame_samples} samples"
            )
        if self.fft_size & (self.fft_size - 1):
            raise ConfigError(f"fft_size must be a power of two, got {self.fft_size}")
        if self.num_filters < 1:
            raise ConfigError(f"num_filters must be >= 1, got {self.num_filters}")
        high = self.resolved_high_freq
        if not 0.0 <= self.low_freq < high <= self.sample_rate / 2.0:
            raise ConfigError(
                f"need 0 <= low_freq < high_freq <= Nyquist, got {self.low_freq}..{high}"
            )
        if not 0.0 < self.log_floor < math.inf:
            raise ConfigError(f"log_floor must be positive and finite, got {self.log_floor}")


@dataclass
class UtteranceFeatures:
    """Per-utterance feature matrix (frames x channels x bins) plus
    optional frame labels."""

    utt_id: str
    frames: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.frames.ndim != 3:
            raise ShapeError(
                f"utterance '{self.utt_id}': frames must be (T, channels, bins), "
                f"got {self.frames.shape}"
            )
        if not np.all(np.isfinite(self.frames)):
            raise DataError(f"utterance '{self.utt_id}': non-finite feature values")
        if self.labels is not None and len(self.labels) != len(self.frames):
            raise DataError(
                f"utterance '{self.utt_id}': {len(self.labels)} labels for "
                f"{len(self.frames)} frames"
            )

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


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


@dataclass
class CmvnStats:
    """Per-(channel, bin) mean and variance over a training corpus."""

    mean: np.ndarray
    var: np.ndarray
    frame_count: int


def compute_cmvn_stats(utterances: list[UtteranceFeatures]) -> CmvnStats:
    if not utterances:
        raise DataError("cannot compute normalization stats over an empty corpus")
    shape = utterances[0].frames.shape[1:]
    total = 0
    acc = np.zeros(shape, dtype=np.float64)
    acc_sq = np.zeros(shape, dtype=np.float64)
    for utt in utterances:
        if utt.frames.shape[1:] != shape:
            raise ShapeError(
                f"utterance '{utt.utt_id}' has geometry {utt.frames.shape[1:]}, "
                f"corpus uses {shape}"
            )
        frames = utt.frames.astype(np.float64)
        acc += frames.sum(axis=0)
        acc_sq += (frames * frames).sum(axis=0)
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


def save_cmvn_stats(stats: CmvnStats, path, filterbank: FilterbankConfig | None = None) -> None:
    payload = {
        "frame_count": stats.frame_count,
        "mean": stats.mean.tolist(),
        "var": stats.var.tolist(),
    }
    if filterbank is not None:
        payload["filterbank"] = {**asdict(filterbank),
                                 "high_freq": filterbank.resolved_high_freq}
    with atomic_write(path) as handle:
        handle.write((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


def load_cmvn_stats(path) -> CmvnStats:
    try:
        payload = json.loads(Path(path).read_text())
        stats = CmvnStats(
            mean=np.asarray(payload["mean"], dtype=np.float64),
            var=np.asarray(payload["var"], dtype=np.float64),
            frame_count=int(payload["frame_count"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad statistics file {path}: {exc}") from exc
    if stats.mean.shape != stats.var.shape:
        problem = f"mean has shape {stats.mean.shape}, var {stats.var.shape}"
    elif not (np.isfinite(stats.mean).all() and np.isfinite(stats.var).all()):
        problem = "non-finite mean or variance"
    elif (stats.var <= 0.0).any():
        problem = "variance <= 0"
    else:
        return stats
    raise FormatError(f"bad statistics file {path}: {problem}")


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


@contextlib.contextmanager
def atomic_write(path):
    """Open a temporary file next to ``path`` for binary writing and move it
    over ``path`` when the block ends. If the block raises, the temporary file
    is removed and ``path`` keeps its old contents (or stays absent)."""
    temp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_with_crc32(path, chunks) -> None:
    """Atomically write the byte strings ``chunks``, then the u32 CRC32 of all of them."""
    crc = 0
    with atomic_write(path) as handle:
        for chunk in chunks:
            handle.write(chunk)
            crc = zlib.crc32(chunk, crc)
        handle.write(struct.pack("<I", crc))


def write_archive(utterances: list[UtteranceFeatures], path) -> None:
    def chunks():
        yield ARCHIVE_MAGIC + struct.pack("<II", ARCHIVE_VERSION, len(utterances))
        for utt in utterances:
            encoded = utt.utt_id.encode("utf-8")
            yield struct.pack("<I", len(encoded)) + encoded + struct.pack("<III", *utt.frames.shape)
            yield np.ascontiguousarray(utt.frames, dtype="<f4").tobytes()
            if utt.labels is not None:
                if len(utt.labels) and not 0 <= utt.labels.min() <= utt.labels.max() < 2**32:
                    raise DataError(f"utterance '{utt.utt_id}': label ids must be in [0, 2^32)")
                yield LABEL_MAGIC + np.ascontiguousarray(utt.labels, dtype="<u4").tobytes()

    write_with_crc32(path, chunks())


class ByteReader:
    """Sequential reader over one binary file (archive or checkpoint) held in
    memory. A field is a ``memoryview`` of the data, not a copy. Reading past
    the end raises ``FormatError`` naming the field, the ``context`` (for
    example "record 3") and the byte offset."""

    def __init__(self, data: bytes, what: str):
        self.data = data
        self.view = memoryview(data)
        self.offset = 0
        self.what = what
        self.context = "header"

    def take(self, count: int, field: str) -> memoryview:
        if self.offset + count > len(self.data):
            raise FormatError(
                f"truncated {self.what}: {field} in {self.context}", offset=self.offset
            )
        chunk = self.view[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def u32(self, field: str) -> int:
        return struct.unpack("<I", self.take(4, field))[0]

    @property
    def remaining(self) -> int:
        return len(self.data) - self.offset

    def check_crc32(self) -> None:
        """Read the u32 CRC32 trailer, which must end the data and match every
        byte before it."""
        end, self.context = self.offset, "trailer"
        stored = self.u32("CRC32")
        if self.remaining:
            raise FormatError(f"{self.remaining} trailing bytes", offset=self.offset)
        if zlib.crc32(self.view[:end]) != stored:
            raise FormatError(f"{self.what} fails its CRC32 check", offset=end)


def read_archive(path) -> list[UtteranceFeatures]:
    reader = ByteReader(Path(path).read_bytes(), "archive")
    magic = reader.take(4, "magic")
    if magic != ARCHIVE_MAGIC:
        raise FormatError(f"bad archive magic {bytes(magic)!r}", offset=0)
    version = reader.u32("version")
    if version != ARCHIVE_VERSION:
        raise FormatError(f"unsupported archive version {version}", offset=4)
    count = reader.u32("utterance count")
    utterances = []
    for index in range(count):
        reader.context = f"record {index}"
        id_len = reader.u32("id length")
        try:
            utt_id = str(reader.take(id_len, "id"), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"undecodable id in record {index}: {exc}", offset=reader.offset - id_len
            ) from exc
        t, channels, bins = (reader.u32(f"{axis} count") for axis in ("frame", "channel", "bin"))
        raw = reader.take(4 * t * channels * bins, "feature values")
        frames = np.frombuffer(raw, dtype="<f4").reshape(t, channels, bins).copy()
        labels = None
        if reader.data.startswith(LABEL_MAGIC, reader.offset):
            reader.take(4, "label magic")
            labels = np.frombuffer(reader.take(4 * t, "labels"), dtype="<u4").astype(np.int64)
        utterances.append(UtteranceFeatures(utt_id, frames, labels))
    reader.check_crc32()
    return utterances


def read_wav(path) -> tuple[np.ndarray, int]:
    """Single-channel 16-bit PCM WAV as float64 samples in [-1, 1)."""
    try:
        with wave.open(str(path), "rb") as handle:
            channels = handle.getnchannels()
            width = handle.getsampwidth()
            rate = handle.getframerate()
            raw = handle.readframes(handle.getnframes())
    except (wave.Error, EOFError) as exc:
        raise FormatError(f"bad WAV file {path}: {exc}") from exc
    except RuntimeError as exc:  # wave's bare error for a chunk that overruns its parent
        raise FormatError(f"bad WAV file {path}: a chunk size overruns the file") from exc
    if channels != 1:
        raise DataError(f"{path}: expected mono audio, got {channels} channels")
    if width != 2:
        raise DataError(f"{path}: expected 16-bit samples, got {8 * width}-bit")
    if len(raw) % width:
        raise FormatError(f"bad WAV file {path}: {len(raw)} data bytes is not whole samples")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return samples, rate


@dataclass(frozen=True)
class ManifestEntry:
    utt_id: str
    audio_path: Path
    label_path: Path | None = None


def parse_manifest(path) -> list[ManifestEntry]:
    """Line-oriented manifest: id, audio path, optional label path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"manifest {path} is not UTF-8 text: {exc}") from exc
    entries = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) not in (2, 3):
            raise DataError(
                f"{path}:{lineno}: expected 'id audio-path [label-path]', "
                f"got {len(parts)} fields"
            )
        label = Path(parts[2]) if len(parts) == 3 else None
        entries.append(ManifestEntry(parts[0], Path(parts[1]), label))
    return entries


def read_label_file(path) -> np.ndarray:
    """Whitespace-separated integer class ids, one per frame."""
    try:
        labels = np.array([int(token) for token in Path(path).read_text().split()],
                          dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"bad label file {path}: {exc}") from exc
    if labels.size and labels.min() < 0:
        raise DataError(f"bad label file {path}: negative class id")
    return labels


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
    utterances = []
    for position, entry in enumerate(entries, 1):
        try:
            utterances.append(featurize_utterance(entry, cfg, add_deltas))
        except (DataError, FormatError, OSError) as exc:
            raise DataError(
                f"utterance '{entry.utt_id}' (manifest line entry {position}): {exc}"
            ) from exc
    return utterances
