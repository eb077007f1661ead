"""The schema of the run configuration shared by all subcommands. Its
KEY=VALUE reader, which the checkpoint's config block shares, is in ``formats``.

Every key is valid for every subcommand; unknown keys are rejected.
Flag overrides (--set, --seed, --deterministic) win over the file.

A schema maps each key to its default, and the default's type picks the
key's parser in ``formats.parse_item``: ``formats.parse_int`` (ASCII digits
with an optional sign), ``formats.parse_float`` (Python's float syntax in
ASCII, without '_', finite only), a boolean word, or the text itself. The fields
of ``DenseNetConfig``, ``FilterbankConfig``, ``TrainConfig`` and
``formats.RunKeys`` (context, validation split, synthetic data) are keys of
``SCHEMA`` without being listed: each field is a key of the same name, in
field order, with the field's default. ``config_from`` builds a dataclass
back from those keys, so a validation error names the key the user set.
``add_deltas`` and the paths are written out below.

Every numeric key's range is declared once, beside its default on its
field (``formats.ranged``), and checked by ``formats.check_ranges`` where the
key is used. ``seed`` is checked here too, for every command, as gradcheck
and synthdata take it without a ``TrainConfig``.
"""

from __future__ import annotations

from dataclasses import fields

from .builder import DenseNetConfig
from .exceptions import ConfigError
from .features import FilterbankConfig
from .formats import RunKeys, check_ranges, parse_item, read_config_file
from .trainer import TrainConfig


def field_defaults(cls) -> dict:
    """One key per field of ``cls``, in field order, mapped to its default."""
    return {f.name: f.default for f in fields(cls)}


# key -> default
SCHEMA: dict[str, object] = {
    **field_defaults(DenseNetConfig),
    **field_defaults(FilterbankConfig),
    "add_deltas": True,
    **field_defaults(TrainConfig),
    **field_defaults(RunKeys),  # context, validation split, synthetic data
    # paths ("" means unset)
    "manifest": "",
    "output_archive": "",
    "stats_file": "",
    "train_archive": "",
    "val_archive": "",
    "cmvn_stats": "",
    "checkpoint": "",
    "metrics_log": "",
    "eval_archive": "",
}


def load_run_config(path=None, overrides=()) -> dict:
    """Defaults, then the config file, then --set overrides (last wins)."""
    config = dict(SCHEMA)
    if path is not None:
        config.update(read_config_file(path, SCHEMA))
    config.update(parse_item(SCHEMA, item, "--set") for item in overrides)
    try:  # worded as the grammar's errors are
        check_ranges(TrainConfig, seed=config["seed"])
    except ConfigError as exc:
        raise ConfigError(f"invalid value for 'seed': {exc}") from exc
    return config


def config_from(cls, config: dict):
    """Build ``cls`` from the run-config keys of its fields and validate it."""
    built = cls(**{f.name: config[f.name] for f in fields(cls)})
    built.validate()
    return built


def require_path(config: dict, key: str, purpose: str) -> str:
    value = config[key]
    if not value:
        raise ConfigError(f"config key '{key}' is required {purpose}")
    return value
