"""Every file format's writer and reader, with the record types the files
hold, the atomic writes and CRC32 trailer they share, the number grammar
and the ranges of the config keys. ``checkpoint`` maps a ``Model`` to the
checkpoint's fields; WAV, manifest, label and KEY=VALUE files are only read.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import struct
import wave
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, DataError, FormatError, ShapeError

ARCHIVE_MAGIC = b"FBK1"
LABEL_MAGIC = b"LBL1"
ARCHIVE_VERSION = 2
CHECKPOINT_MAGIC = b"DAMC"
CHECKPOINT_VERSION = 2

_INTEGER = re.compile(r"[+-]?[0-9]+")
_FLOAT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def parse_int(text: str) -> int:
    """An integer in ASCII: an optional sign, then digits 0-9."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """A finite number in Python's float syntax, restricted to ASCII and
    without '_': an optional sign, digits with an optional point, and an
    optional exponent."""
    if not _FLOAT.fullmatch(text) or not math.isfinite(value := float(text)):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# The grammar above decides how a number is written, a key's range which
# numbers it takes: declared once, on the key's dataclass field.
def ranged(default, values: str):
    """A dataclass field with ``default`` whose values lie in ``values``:
    "low..high" for integers, both ends included, or an interval of reals
    such as "(0, 1]", where a square bracket includes its end; an end may be inf."""
    return field(default=default, metadata={"range": values})


def check_ranges(cls, **values) -> None:
    """Raise ``ConfigError`` "<key> must be in <range>, got <value>" for the
    first ``key=value`` outside the range of ``cls``'s field ``key``. A field
    without a range takes any value; NaN lies in no range."""
    for key, value in values.items():
        if (spec := cls.__dataclass_fields__[key].metadata.get("range")) is None:
            continue
        low, high = map(float, spec.strip("[()]").replace("..", ",").split(","))
        if not ((low < value if spec[0] == "(" else low <= value)
                and (value < high if spec[-1] == ")" else value <= high)):
            raise ConfigError(f"{key} must be in {spec}, got {value}")


@dataclass(frozen=True)
class RunKeys:
    """The numeric run-config keys of no config dataclass. The functions that
    take one check its range, so only a command that uses a key refuses it."""

    context_left: int = ranged(5, "0..inf")
    context_right: int = ranged(5, "0..inf")
    validation_fraction: float = ranged(0.05, "(0, 1)")
    synth_classes: int = ranged(10, "2..120")  # a mean coordinate each in 3 x 40 frames
    synth_frames_per_class: int = ranged(50, f"1..{2**32 - 1}")  # an archive's u32 count
    # the class means must fit the float32 features
    synth_separation: float = ranged(5.0, f"[0, {float(np.finfo(np.float32).max)}]")


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# type of a key's default -> parser of its values
_PARSERS = {bool: _parse_bool, int: parse_int, float: parse_float, str: str}


def parse_item(schema: dict, item: str, where: str) -> tuple[str, object]:
    """The key of one ``KEY=VALUE`` item and its value, read by the parser for
    the type of the key's default in ``schema``."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected KEY=VALUE, got {item!r}")
    key, _, raw = item.partition("=")
    key = key.strip()
    if key not in schema:
        raise ConfigError(f"{where}: unknown config key '{key}'")
    try:
        return key, _PARSERS[type(schema[key])](raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: invalid value for '{key}': {exc}") from exc


def read_items(text: str, schema: dict, source: str):
    """Yield ``parse_item`` of each line of ``text``, skipping blank lines and
    lines starting with '#'; errors name ``source`` and the line number."""
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield parse_item(schema, stripped, f"{source}:{lineno}")


def read_config_file(path, schema: dict) -> list[tuple[str, object]]:
    """The items of a UTF-8 KEY=VALUE file, in file order."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return list(read_items(text, schema, path))


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

    def text(self, count: int, field: str, name: str) -> str:
        """``count`` bytes of UTF-8 text, ``name`` in the error if undecodable."""
        start = self.offset
        try:
            return str(self.take(count, field), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"undecodable {name}: {exc}", offset=start) from exc

    def check_header(self, magic: bytes, version: int) -> None:
        """Read the 4-byte magic and the u32 format version the data starts with."""
        found = self.take(4, "magic")
        if found != magic:
            raise FormatError(f"bad {self.what} magic {bytes(found)!r}", offset=0)
        found = self.u32("version")
        if found != version:
            raise FormatError(f"unsupported {self.what} version {found}", offset=4)

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


def read_archive(path) -> list[UtteranceFeatures]:
    reader = ByteReader(Path(path).read_bytes(), "archive")
    reader.check_header(ARCHIVE_MAGIC, ARCHIVE_VERSION)
    count = reader.u32("utterance count")
    utterances = []
    for index in range(count):
        reader.context = f"record {index}"
        utt_id = reader.text(reader.u32("id length"), "id", f"id in record {index}")
        t, channels, bins = (reader.u32(f"{axis} count") for axis in ("frame", "channel", "bin"))
        raw = reader.take(4 * t * channels * bins, "feature values")
        frames = np.frombuffer(raw, dtype="<f4").reshape(t, channels, bins).copy()
        labels = None
        # the last 4 bytes are the CRC32 trailer, which may spell the magic
        if reader.remaining > 4 and reader.data.startswith(LABEL_MAGIC, reader.offset):
            reader.take(4, "label magic")
            labels = np.frombuffer(reader.take(4 * t, "labels"), dtype="<u4").astype(np.int64)
        utterances.append(UtteranceFeatures(utt_id, frames, labels))
    reader.check_crc32()
    return utterances


def write_checkpoint(path, config_text: str, fingerprint: int, values: np.ndarray) -> None:
    """A checkpoint of ``values`` as float32, behind its config text and
    layout fingerprint (the layout is in ``checkpoint``'s docstring)."""
    config_bytes = config_text.encode("utf-8")
    write_with_crc32(path, [
        CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(config_bytes)),
        config_bytes,
        struct.pack("<II", fingerprint, values.size),
        np.asarray(values, dtype="<f4").tobytes(),
    ])


def read_checkpoint(path, read_config):
    """``read_config(text, offset)`` of a checkpoint's config text, read before
    any later byte, then that offset, the layout fingerprint, the values as a
    read-only float32 array and the offset of the fingerprint and count."""
    reader = ByteReader(Path(path).read_bytes(), "checkpoint")
    reader.check_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    config_len = reader.u32("config length")
    config_offset = reader.offset
    config = read_config(reader.text(config_len, "config", "checkpoint config"), config_offset)
    layout_offset = reader.offset
    fingerprint, count = reader.u32("layout fingerprint"), reader.u32("value count")
    values = reader.take(4 * count, "values")
    reader.check_crc32()
    return config, config_offset, fingerprint, np.frombuffer(values, dtype="<f4"), layout_offset


@dataclass
class CmvnStats:
    """Per-(channel, bin) mean and variance over a training corpus."""

    mean: np.ndarray
    var: np.ndarray
    frame_count: int


def save_cmvn_stats(stats: CmvnStats, path, filterbank=None) -> None:
    """The statistics file, with ``filterbank`` (a ``FilterbankConfig``) if given."""
    payload = {
        "frame_count": stats.frame_count,
        "mean": stats.mean.tolist(),
        "var": stats.var.tolist(),
    }
    if filterbank is not None:
        payload["filterbank"] = {**asdict(filterbank),
                                 "high_freq": filterbank.resolved_high_freq}
    with atomic_write(path) as handle:
        handle.write(_stats_text(payload).encode())


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _stats_text(payload: dict) -> str:
    """A statistics file: ``payload`` as canonical JSON plus a ``crc32`` key,
    the CRC32 of the canonical JSON of the payload without it."""
    crc = zlib.crc32(_canonical_json(payload).encode())
    return _canonical_json({**payload, "crc32": crc}) + "\n"


def _json_numbers(payload: dict, key: str) -> np.ndarray:
    """``payload[key]``, nested lists of JSON numbers (no strings, booleans
    or nulls), as a float64 array."""
    if not all(type(value) in (int, float) for value in np.asarray(payload[key], dtype=object).flat):
        raise ValueError(f"{key} holds a value that is not a JSON number")
    return np.asarray(payload[key], dtype=np.float64)


@contextlib.contextmanager
def _bad_file(what: str, path, errors, error=FormatError):
    """Raise ``error`` "bad {what} {path}: ..." for any of ``errors`` in the block."""
    try:
        yield
    except errors as exc:
        raise error(f"bad {what} {path}: {exc}") from exc


def load_cmvn_stats(path) -> CmvnStats:
    # OverflowError: an integer past float64's range; RecursionError: deep nesting
    with _bad_file("statistics file", path,
                   (KeyError, TypeError, ValueError, OverflowError, RecursionError)):
        payload = json.loads(Path(path).read_text())
        crc = payload["crc32"]  # TypeError if the file holds no JSON object
        del payload["crc32"]
        if crc != zlib.crc32(_canonical_json(payload).encode()):
            raise ValueError("CRC mismatch")
        frame_count = payload["frame_count"]
        if type(frame_count) is not int or frame_count < 0:
            raise ValueError(f"frame_count {frame_count!r} is not a non-negative integer")
        stats = CmvnStats(mean=_json_numbers(payload, "mean"), var=_json_numbers(payload, "var"),
                          frame_count=frame_count)
    if stats.mean.shape != stats.var.shape:
        problem = f"mean has shape {stats.mean.shape}, var {stats.var.shape}"
    elif stats.mean.ndim != 2 or not stats.mean.size:
        problem = f"mean and var have shape {stats.mean.shape}, not non-empty (channels, bins)"
    elif not (np.isfinite(stats.mean).all() and np.isfinite(stats.var).all()):
        problem = "non-finite mean or variance"
    elif (stats.var <= 0.0).any():
        problem = "variance <= 0"
    else:
        return stats
    raise FormatError(f"bad statistics file {path}: {problem}")


@dataclass(frozen=True)
class Metrics:
    epoch: int
    lr: float
    train_loss: float
    train_accuracy: float
    val_loss: float = math.nan
    val_accuracy: float = math.nan
    seconds: float = 0.0


def format_metrics_line(metrics: Metrics) -> str:
    """One epoch per line, fixed field order, no lookahead needed. Every
    value must be finite, as ``parse_metrics_line`` reads only those, so a
    ``Metrics`` without validation results (``train_epoch``'s) is refused
    with ``DataError``."""
    for f in fields(metrics):
        if not math.isfinite(value := getattr(metrics, f.name)):
            raise DataError(f"metrics field {f.name} is {value}, not a finite number")
    return (f"{metrics.epoch} {metrics.lr:.8g} "
            f"{metrics.train_loss:.8g} {metrics.train_accuracy:.8g} "
            f"{metrics.val_loss:.8g} {metrics.val_accuracy:.8g} "
            f"{metrics.seconds:.3f}")


def parse_metrics_line(line: str) -> Metrics:
    """Read back a ``format_metrics_line`` line; every value must be finite."""
    fields = line.split()
    if len(fields) != 7:
        raise DataError(f"metrics line has {len(fields)} fields, expected 7")
    try:
        return Metrics(parse_int(fields[0]), *map(parse_float, fields[1:]))
    except ValueError as exc:
        raise DataError(f"bad metrics line {line!r}: {exc}") from exc


def write_metrics_log(path, history: list[Metrics]) -> None:
    with atomic_write(path) as handle:
        handle.write("".join(format_metrics_line(m) + "\n" for m in history).encode())


def read_wav(path) -> tuple[np.ndarray, int]:
    """Single-channel 16-bit PCM WAV as float64 samples in [-1, 1)."""
    with _bad_file("WAV file", path, (wave.Error, EOFError)):
        try:
            with wave.open(str(path), "rb") as handle:
                params = handle.getparams()
                raw = handle.readframes(params.nframes)
        except RuntimeError as exc:  # wave's bare error for a chunk that overruns its parent
            raise FormatError(f"bad WAV file {path}: a chunk size overruns the file") from exc
    if params.nchannels != 1:
        raise DataError(f"{path}: expected mono audio, got {params.nchannels} channels")
    if params.sampwidth != 2:
        raise DataError(f"{path}: expected 16-bit samples, got {8 * params.sampwidth}-bit")
    if len(raw) % 2:
        raise FormatError(f"bad WAV file {path}: {len(raw)} data bytes is not whole samples")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return samples, params.framerate


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
    """Whitespace-separated class ids, one per frame, each of ASCII digits 0-9."""
    # ValueError also covers undecodable text; OverflowError an id past int64
    with _bad_file("label file", path, (ValueError, OverflowError), DataError):
        tokens = Path(path).read_text().split()
        bad = next((token for token in tokens if not (token.isascii() and token.isdigit())), None)
        if bad is not None:
            raise ValueError(f"class id {bad!r} is not ASCII digits 0-9")
        return np.array([int(token) for token in tokens], dtype=np.int64)
