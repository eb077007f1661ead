"""Line-oriented KEY=VALUE text: the run configuration shared by all
subcommands, and the reader the checkpoint's config block goes through too.

Every key is valid for every subcommand; unknown keys are rejected.
Flag overrides (--set, --seed, --deterministic) win over the file.

A schema maps each key to its default, and the default's type picks the
key's parser from ``_PARSERS``: ``features.parse_int`` (ASCII digits with an
optional sign), ``features.parse_float`` (Python's float syntax in ASCII,
without '_', finite only), a boolean word, or the text itself. The fields
of ``DenseNetConfig``, ``FilterbankConfig`` and ``TrainConfig`` are keys of
``SCHEMA`` without being listed: each field is a key of the same name, in
field order, with the field's default. ``config_from`` builds a dataclass
back from those keys, so a validation error names the key the user set.
The remaining keys (context, deltas, validation split, synthetic data,
paths) are written out below.
"""

from __future__ import annotations

from dataclasses import fields

from .builder import DenseNetConfig
from .exceptions import ConfigError
from .features import FilterbankConfig, parse_float, parse_int
from .trainer import TrainConfig

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


def field_defaults(cls) -> dict:
    """One key per field of ``cls``, in field order, mapped to its default."""
    return {f.name: f.default for f in fields(cls)}


# key -> default
SCHEMA: dict[str, object] = {
    **field_defaults(DenseNetConfig),
    **field_defaults(FilterbankConfig),
    "add_deltas": True,
    "context_left": 5,
    "context_right": 5,
    **field_defaults(TrainConfig),
    "validation_fraction": 0.05,
    # synthetic data
    "synth_classes": 10,
    "synth_frames_per_class": 50,
    "synth_separation": 5.0,
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


def _parse_item(schema: dict, item: str, where: str) -> tuple[str, object]:
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
    """Yield ``_parse_item`` of each line of ``text``, skipping blank lines and
    lines starting with '#'; errors name ``source`` and the line number."""
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield _parse_item(schema, stripped, f"{source}:{lineno}")


def load_run_config(path=None, overrides=()) -> dict:
    """Defaults, then the config file, then --set overrides (last wins)."""
    config = dict(SCHEMA)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        config.update(read_items(text, SCHEMA, path))
    config.update(_parse_item(SCHEMA, item, "--set") for item in overrides)
    if config["seed"] < 0:
        raise ConfigError(f"invalid value for 'seed': must be >= 0, got {config['seed']}")
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
