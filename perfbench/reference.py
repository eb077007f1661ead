"""Independent references the benchmark checks the program's outputs against.

These are written from the definitions (HTK-style log-Mel with regression
deltas, per-(channel, bin) mean/variance normalisation, edge-clamped context
splicing), one frame or row at a time, without calling into damnet.
"""

from __future__ import annotations

import wave

import numpy as np

SAMPLE_RATE = 16000
FRAME = 400        # 25 ms
SHIFT = 160        # 10 ms
NFFT = 512
FILTERS = 40
LOW_HZ = 20.0
PRE_EMPHASIS = 0.97
LOG_FLOOR = 1e-10
DELTA_WINDOW = 2


def read_wav_samples(path) -> np.ndarray:
    with wave.open(str(path), "rb") as handle:
        raw = handle.readframes(handle.getnframes())
    return np.frombuffer(raw, dtype="<i2") / 32768.0


def mel_filterbank() -> np.ndarray:
    """Triangles uniform on the mel scale from LOW_HZ to Nyquist."""
    def mel(hz):
        return 2595.0 * np.log10(1.0 + hz / 700.0)

    def hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = hz(np.linspace(mel(LOW_HZ), mel(SAMPLE_RATE / 2.0), FILTERS + 2))
    weights = np.zeros((FILTERS, NFFT // 2 + 1))
    for m in range(FILTERS):
        lower, centre, upper = edges[m], edges[m + 1], edges[m + 2]
        for k in range(NFFT // 2 + 1):
            f = k * SAMPLE_RATE / NFFT
            if lower < f <= centre:
                weights[m, k] = (f - lower) / (centre - lower)
            elif centre < f < upper:
                weights[m, k] = (upper - f) / (upper - centre)
    return weights


def logmel(samples: np.ndarray, filterbank: np.ndarray) -> np.ndarray:
    """Pre-emphasised, Hamming-windowed magnitude spectra through the
    filterbank, natural log floored at LOG_FLOOR: (T, FILTERS) float64."""
    x = np.asarray(samples, dtype=np.float64)
    emphasized = x.copy()
    emphasized[1:] -= PRE_EMPHASIS * x[:-1]
    n = np.arange(FRAME)
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (FRAME - 1))
    count = 1 + (len(x) - FRAME) // SHIFT
    out = np.empty((count, FILTERS))
    for t in range(count):
        segment = emphasized[t * SHIFT : t * SHIFT + FRAME] * window
        spectrum = np.abs(np.fft.rfft(segment, NFFT))
        out[t] = np.log(np.maximum(filterbank @ spectrum, LOG_FLOOR))
    return out


def deltas(sequence: np.ndarray) -> np.ndarray:
    """Regression derivative over +/-DELTA_WINDOW frames, edges replicated."""
    t_max = len(sequence) - 1
    denom = 2 * sum(n * n for n in range(1, DELTA_WINDOW + 1))
    out = np.zeros_like(sequence, dtype=np.float64)
    for t in range(len(sequence)):
        for n in range(1, DELTA_WINDOW + 1):
            out[t] += n * (sequence[min(t + n, t_max)].astype(np.float64)
                           - sequence[max(t - n, 0)])
    return out / denom


def cmvn_stats(frame_arrays) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass float64 mean and (population) variance per (channel, bin)."""
    count = sum(len(f) for f in frame_arrays)
    mean = sum(f.sum(axis=0, dtype=np.float64) for f in frame_arrays) / count
    var = sum(((f - mean) ** 2).sum(axis=0) for f in frame_arrays) / count
    return mean, var


def spliced_row(frames: np.ndarray, t: int, mean, var, left: int, right: int) -> np.ndarray:
    """Normalised context window of frame t: (channels, left+1+right, bins)."""
    last = len(frames) - 1
    rows = [(frames[min(max(t + o, 0), last)] - mean) / np.sqrt(var)
            for o in range(-left, right + 1)]
    return np.stack(rows, axis=1)
