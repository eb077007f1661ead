"""The mapping between a ``Model`` and a checkpoint's fields (``formats``).

Layout (version 2): magic "DAMC", u32 format version, u32 config length +
config text, u32 layout fingerprint, u32 value count, the
model's whole tensor arena (``Model.tensors``) as 32-bit IEEE-754
little-endian values, and a u32 CRC32 of every byte before it. The
fingerprint is the CRC32 of one "name shape" line per named tensor in
arena order, so a build that renames or reshapes a tensor rejects the
file instead of loading permuted weights. Round-trips are bit-exact for
float32 models, and writes are atomic.

The config text is KEY=VALUE lines, read by ``formats.read_items`` with
the run config's parsers: the ``DenseNetConfig`` fields, ``seed``,
``bn_epsilon`` and ``bn_momentum``, each required. A line that does not
parse, an unknown key or a missing one is a ``FormatError`` at the config
text's offset; a config that needs more values than the file holds is one
at the value count's offset, before any model is built.
"""

from __future__ import annotations

import zlib
from dataclasses import fields

from .builder import DenseNetConfig, plan_architecture
from .exceptions import ConfigError, FormatError
from .formats import read_checkpoint, read_items, write_checkpoint
from .layers import BN_EPSILON, BN_MOMENTUM
from .model import Model
from .runconfig import field_defaults

# the keys of the config block, each mapped to a default whose type picks its parser
_CONFIG_KEYS = {**field_defaults(DenseNetConfig), "seed": 0,
                "bn_epsilon": BN_EPSILON, "bn_momentum": BN_MOMENTUM}


def _config_text(model: Model) -> str:
    cfg = model.config
    lines = [f"{f.name}={getattr(cfg, f.name)}" for f in fields(cfg)]
    lines += [f"seed={model.seed}", f"bn_epsilon={BN_EPSILON}", f"bn_momentum={BN_MOMENTUM}"]
    return "".join(line + "\n" for line in lines)


def _parse_config_text(text: str, offset: int) -> tuple[DenseNetConfig, int]:
    try:
        values = dict(read_items(text, _CONFIG_KEYS, "checkpoint config"))
        config = DenseNetConfig(**{name: values[name] for name in field_defaults(DenseNetConfig)})
        seed = values["seed"]  # refused, if negative, by the Model built from it
        # infer-mode batchnorm folds epsilon into every output: a model
        # trained with other constants would silently compute something else
        for key, expected in (("bn_epsilon", BN_EPSILON), ("bn_momentum", BN_MOMENTUM)):
            if values[key] != expected:
                raise FormatError(
                    f"checkpoint {key}={values[key]} differs from this build's {expected}",
                    offset=offset,
                )
    except (KeyError, ConfigError) as exc:
        raise FormatError(f"incomplete checkpoint config: {exc}", offset=offset) from exc
    return config, seed


def _layout_fingerprint(model: Model) -> int:
    """CRC32 of one "name shape" line per named tensor, in arena order."""
    lines = "".join(f"{name} {tensor.shape}\n" for name, tensor in model.named_tensors().items())
    return zlib.crc32(lines.encode("utf-8"))


def save_checkpoint(model: Model, path) -> None:
    write_checkpoint(path, _config_text(model), _layout_fingerprint(model), model.tensors)


def load_checkpoint(path) -> Model:
    """Rebuild a model from a checkpoint, restoring its whole tensor arena."""
    # the CRC32 is checked before a model is built from possibly corrupted bytes
    (config, seed), config_offset, fingerprint, values, layout_offset = read_checkpoint(
        path, _parse_config_text)
    try:
        # refuse a config needing more values than the file holds before building it
        if plan_architecture(config).total_params > values.size:
            raise FormatError(f"checkpoint config needs more than the {values.size} values "
                              "the file holds", offset=layout_offset + 4)
        model = Model(config, seed)
    except ConfigError as exc:
        raise FormatError(f"bad checkpoint config: {exc}", offset=config_offset) from exc
    if fingerprint != _layout_fingerprint(model):
        raise FormatError("checkpoint tensor layout differs from this build's",
                          offset=layout_offset)
    if values.size != model.tensors.size:
        raise FormatError(f"checkpoint holds {values.size} values, "
                          f"model needs {model.tensors.size}", offset=layout_offset + 4)
    model.tensors[...] = values
    return model
