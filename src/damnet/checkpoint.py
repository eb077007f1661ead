"""Binary model checkpoints.

Layout (version 2): magic "DAMC", u32 format version, u32 config length +
key=value config text, u32 layout fingerprint, u32 value count, the
model's whole tensor arena (``Model.tensors``) as 32-bit IEEE-754
little-endian values, and a u32 CRC32 of every byte before it. The
fingerprint is the CRC32 of one "name shape" line per named tensor in
arena order, so a build that renames or reshapes a tensor rejects the
file instead of loading permuted weights. Round-trips are bit-exact for
float32 models, and writes are atomic.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np

from .builder import DenseNetConfig
from .exceptions import ConfigError, FormatError
from .features import ByteReader, write_with_crc32
from .layers import BN_EPSILON, BN_MOMENTUM
from .model import Model

CHECKPOINT_MAGIC = b"DAMC"
CHECKPOINT_VERSION = 2


def _config_text(model: Model) -> str:
    cfg = model.config
    lines = [f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg)]
    lines += [f"seed={model.seed}", f"bn_epsilon={BN_EPSILON}", f"bn_momentum={BN_MOMENTUM}"]
    return "".join(line + "\n" for line in lines)


def _parse_config_text(text: str, offset: int) -> tuple[DenseNetConfig, int]:
    values: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"bad checkpoint config line {line!r}", offset=offset)
        key, _, raw = line.partition("=")
        values[key.strip()] = raw.strip()
    try:
        config = DenseNetConfig(**{
            f.name: type(f.default)(values[f.name]) for f in fields(DenseNetConfig)
        })
        seed = int(values["seed"])
        if seed < 0:
            raise FormatError(f"negative checkpoint seed {seed}", offset=offset)
        # infer-mode batchnorm folds epsilon into every output: a model
        # trained with other constants would silently compute something else
        for key, expected in (("bn_epsilon", BN_EPSILON), ("bn_momentum", BN_MOMENTUM)):
            if float(values[key]) != expected:
                raise FormatError(
                    f"checkpoint {key}={values[key]} differs from this build's {expected}",
                    offset=offset,
                )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"incomplete checkpoint config: {exc}", offset=offset) from exc
    return config, seed


def _layout_fingerprint(model: Model) -> int:
    """CRC32 of one "name shape" line per named tensor, in arena order."""
    lines = "".join(f"{name} {tensor.shape}\n" for name, tensor in model.named_tensors().items())
    return zlib.crc32(lines.encode("utf-8"))


def save_checkpoint(model: Model, path) -> None:
    config_bytes = _config_text(model).encode("utf-8")
    write_with_crc32(path, [
        CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(config_bytes)),
        config_bytes,
        struct.pack("<II", _layout_fingerprint(model), model.tensors.size),
        np.asarray(model.tensors, dtype="<f4").tobytes(),
    ])


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint, restoring its whole tensor arena."""
    reader = ByteReader(Path(path).read_bytes(), "checkpoint")
    magic = reader.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {bytes(magic)!r}", offset=0)
    version = reader.u32("version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    config_len = reader.u32("config length")
    config_offset = reader.offset
    try:
        config_text = str(reader.take(config_len, "config"), "utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"undecodable checkpoint config: {exc}", offset=config_offset) from exc
    config, seed = _parse_config_text(config_text, config_offset)
    layout_offset = reader.offset
    fingerprint, count = reader.u32("layout fingerprint"), reader.u32("value count")
    values = reader.take(4 * count, "values")
    reader.check_crc32()  # before building a model from possibly corrupted bytes
    try:
        model = Model(config, seed)
    except ConfigError as exc:
        raise FormatError(f"bad checkpoint config: {exc}", offset=config_offset) from exc
    if fingerprint != _layout_fingerprint(model):
        raise FormatError("checkpoint tensor layout differs from this build's",
                          offset=layout_offset)
    if count != model.tensors.size:
        raise FormatError(f"checkpoint holds {count} values, model needs {model.tensors.size}",
                          offset=layout_offset + 4)
    model.tensors[...] = np.frombuffer(values, dtype="<f4")
    return model
