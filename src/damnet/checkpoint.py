"""Binary model checkpoints.

Layout: magic "DAMC", u32 format version, u32 config length + key=value
config text, u32 tensor count, then per named tensor: u32 name length +
UTF-8 name, u32 rank, u32 extents, raw 32-bit IEEE-754 little-endian
values. Round-trips are bit-exact for float32 models.
"""

from __future__ import annotations

import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .builder import DenseNetConfig
from .exceptions import FormatError
from .features import ByteReader
from .layers import BN_EPSILON, BN_MOMENTUM
from .model import Model

CHECKPOINT_MAGIC = b"DAMC"
CHECKPOINT_VERSION = 1


def _config_text(model: Model) -> str:
    cfg = model.config
    lines = [f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg)]
    lines.append(f"seed={model.seed}")
    lines.append(f"bn_epsilon={BN_EPSILON}")
    lines.append(f"bn_momentum={BN_MOMENTUM}")
    return "\n".join(lines) + "\n"


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


def save_checkpoint(model: Model, path) -> None:
    tensors = model.named_tensors()
    config_bytes = _config_text(model).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<I", CHECKPOINT_VERSION))
        handle.write(struct.pack("<I", len(config_bytes)))
        handle.write(config_bytes)
        handle.write(struct.pack("<I", len(tensors)))
        for name, tensor in tensors.items():
            encoded = name.encode("utf-8")
            handle.write(struct.pack("<I", len(encoded)))
            handle.write(encoded)
            handle.write(struct.pack("<I", tensor.ndim))
            for extent in tensor.shape:
                handle.write(struct.pack("<I", extent))
            handle.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint, restoring every named tensor."""
    reader = ByteReader(Path(path).read_bytes(), "checkpoint")
    magic = reader.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}", offset=0)
    version = reader.u32("version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    config_len = reader.u32("config length")
    config_offset = reader.offset
    try:
        config_text = reader.take(config_len, "config").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"undecodable checkpoint config: {exc}", offset=config_offset) from exc
    config, seed = _parse_config_text(config_text, config_offset)

    model = Model(config, seed)
    targets = model.named_tensors()
    count = reader.u32("tensor count")
    if count != len(targets):
        raise FormatError(
            f"checkpoint holds {count} tensors, model needs {len(targets)}",
            offset=reader.offset - 4,
        )
    seen = set()
    for index in range(count):
        reader.context = f"tensor {index}"
        name_len = reader.u32("name length")
        if name_len > 4096:
            raise FormatError(
                f"implausible tensor name length {name_len}", offset=reader.offset - 4
            )
        name_offset = reader.offset
        try:
            name = reader.take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"undecodable tensor name: {exc}", offset=name_offset) from exc
        if name not in targets:
            raise FormatError(f"unknown tensor '{name}'", offset=name_offset)
        if name in seen:
            raise FormatError(f"duplicate tensor '{name}'", offset=name_offset)
        seen.add(name)
        rank = reader.u32("rank")
        shape = tuple(reader.u32(f"extent {d}") for d in range(rank))
        target = targets[name]
        if shape != target.shape:
            raise FormatError(
                f"tensor '{name}' has shape {shape}, model expects {target.shape}",
                offset=reader.offset,
            )
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        raw = reader.take(4 * size, "values")
        target[...] = np.frombuffer(raw, dtype="<f4").reshape(shape)
    if reader.remaining:
        raise FormatError(
            f"{reader.remaining} trailing bytes after last tensor", offset=reader.offset
        )
    return model
