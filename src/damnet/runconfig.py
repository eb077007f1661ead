"""Line-oriented key=value run configuration shared by all subcommands.

Every key is valid for every subcommand; unknown keys are rejected.
Flag overrides (--set, --seed, --deterministic) win over the file.

The fields of ``DenseNetConfig``, ``FilterbankConfig`` and ``TrainConfig``
are keys here without being listed: each field is a key of the same name,
in field order, with the field's default and the default's type as its
parser (``_parse_bool`` for bools, ``_parse_float``, which rejects nan and
infinities, for floats). ``config_from`` builds a dataclass back from
those keys, so a validation error names the key the user set. The remaining
keys (context, deltas, validation split, synthetic data, paths) are
written out below.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .builder import DenseNetConfig
from .exceptions import ConfigError
from .features import FilterbankConfig
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


def _parse_float(raw: str) -> float:
    if not math.isfinite(value := float(raw)):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _field_entries(cls) -> dict:
    """One (parser, default) entry per field of ``cls``, in field order."""
    return {
        f.name: ({bool: _parse_bool, float: _parse_float}.get(type(f.default), type(f.default)),
                 f.default)
        for f in fields(cls)
    }


# key -> (parser, default)
SCHEMA: dict[str, tuple] = {
    **_field_entries(DenseNetConfig),
    **_field_entries(FilterbankConfig),
    "add_deltas": (_parse_bool, True),
    "context_left": (int, 5),
    "context_right": (int, 5),
    **_field_entries(TrainConfig),
    "validation_fraction": (_parse_float, 0.05),
    # synthetic data
    "synth_classes": (int, 10),
    "synth_frames_per_class": (int, 50),
    "synth_separation": (_parse_float, 5.0),
    # paths ("" means unset)
    "manifest": (str, ""),
    "output_archive": (str, ""),
    "stats_file": (str, ""),
    "train_archive": (str, ""),
    "val_archive": (str, ""),
    "cmvn_stats": (str, ""),
    "checkpoint": (str, ""),
    "metrics_log": (str, ""),
    "eval_archive": (str, ""),
}


def default_config() -> dict:
    return {key: default for key, (_, default) in SCHEMA.items()}


def _apply(config: dict, key: str, raw: str, where: str) -> None:
    key = key.strip()
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown config key '{key}'")
    parser, _ = SCHEMA[key]
    try:
        config[key] = parser(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: invalid value for '{key}': {exc}") from exc


def load_run_config(path=None, overrides=()) -> dict:
    """Defaults, then the config file, then --set overrides (last wins)."""
    config = default_config()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            _apply(config, key, raw, f"{path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        _apply(config, key, raw, "--set")
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
