"""The ranges of the numeric run-config keys: one per key of the schema, the
parent's accepted values at every edge, and nothing but ``ConfigError`` (exit
2) for any value written in the number grammar."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damnet import builder, cli, features, trainer
from damnet.builder import DenseNetConfig
from damnet.exceptions import ConfigError
from damnet.features import FilterbankConfig
from damnet.formats import RunKeys
from damnet.runconfig import SCHEMA, config_from, load_run_config
from damnet.trainer import TrainConfig

# key -> (dataclass, range)
RANGES = {f.name: (cls, f.metadata["range"])
          for cls in (DenseNetConfig, FilterbankConfig, TrainConfig, RunKeys)
          for f in fields(cls) if "range" in f.metadata}
# keys probed on another base than the defaults, where the plain variant's
# compression=1.0 would refuse every other value
BASE = {"compression": {"variant": "C"}}

# Each key's bounds as the code compared them before the ranges were
# declared on the fields; a key without one was bounded by cross-field
# checks alone, which are unchanged.
PARENT = {
    "depth": lambda v: v >= 1, "blocks": lambda v: v >= 1, "growth_rate": lambda v: v >= 1,
    "compression": lambda v: 0.0 < v <= 1.0, "input_channels": lambda v: v >= 1,
    "input_height": lambda v: v >= 1, "input_width": lambda v: v >= 1,
    "num_classes": lambda v: v >= 2, "first_conv_channels": lambda v: v >= 1,
    "sample_rate": lambda v: 1 <= v <= 2**32 - 1, "fft_size": lambda v: 1 <= v <= 2**16,
    "num_filters": lambda v: v >= 1, "low_freq": lambda v: v >= 0.0,
    "pre_emphasis": math.isfinite, "log_floor": lambda v: 0.0 < v < math.inf,
    "initial_lr": lambda v: 0.0 < v < math.inf, "batch_size": lambda v: v >= 1,
    "max_epochs": lambda v: v >= 1, "momentum": lambda v: 0.0 <= v < 1.0,
    "lr_halving_factor": lambda v: 0.0 < v < 1.0,
    "lr_improvement_threshold": lambda v: 0.0 <= v < math.inf,
    "min_lr": lambda v: 0.0 < v < math.inf, "seed": lambda v: v >= 0,
    "context_left": lambda v: v >= 0, "context_right": lambda v: v >= 0,
    "validation_fraction": lambda v: 0.0 < v < 1.0, "synth_classes": lambda v: 2 <= v <= 120,
    "synth_frames_per_class": lambda v: v >= 1, "synth_separation": lambda v: v >= 0.0,
}
# the upper bounds that are new: the parent accepted every value above them
NEW_BOUNDS = {"synth_frames_per_class": 2**32 - 1,
              "synth_separation": float(np.finfo(np.float32).max)}


def probes(spec):
    """Each finite end of ``spec`` with its neighbours on both sides, and
    values far beyond either end."""
    if ".." in spec:
        ends = [int(end) for end in spec.split("..") if end != "inf"]
        return sorted({*(end + step for end in ends for step in (-1, 0, 1)), -10**30, 10**30})
    ends = [float(end) for end in spec.strip("[()]").split(",") if math.isfinite(float(end))]
    near = {math.nextafter(end, to) for end in ends for to in (-math.inf, math.inf)}
    return sorted({*ends, *near, 0.0, 5e-324, -5e-324, 1e308, -1e308})


def accepts(key, value):
    """Whether the checks of ``key``'s consumer take ``value``, the other keys
    at their defaults: its dataclass's ``validate``, or for a ``RunKeys``
    key, the check that the functions taking it run first."""
    cls = RANGES[key][0]
    try:
        if cls is RunKeys:
            trainer.check_ranges(RunKeys, **{key: value})
        else:
            cls(**{**BASE.get(key, {}), key: value}).validate()
    except ConfigError:
        return False
    return True


def parent_check(cls, **values):
    for key, value in values.items():
        if key in PARENT and not PARENT[key](value):
            raise ConfigError(f"{key} out of range, got {value}")


def test_every_numeric_key_has_a_range():
    numeric = {key for key, default in SCHEMA.items() if type(default) in (int, float)}
    assert set(RANGES) == numeric
    assert set(PARENT) == numeric - {"frame_length_ms", "frame_shift_ms", "high_freq"}


@pytest.mark.parametrize("key", sorted(RANGES))
def test_each_edge_accepts_what_the_parent_accepted(monkeypatch, key):
    values = probes(RANGES[key][1])
    now = [accepts(key, value) for value in values]
    if key in NEW_BOUNDS:
        bound = NEW_BOUNDS[key]
        past = bound + 1 if type(bound) is int else math.nextafter(bound, math.inf)
        assert accepts(key, bound) and not accepts(key, past)
    for module in (builder, features, trainer):
        monkeypatch.setattr(module, "check_ranges", parent_check)
    before = [accepts(key, value) for value in values]
    # only a new bound may differ, refusing what the parent took above it
    changed = [(value, new) for value, new, old in zip(values, now, before) if new != old]
    assert all(key in NEW_BOUNDS and value > NEW_BOUNDS[key] and not new
               for value, new in changed), changed


@st.composite
def key_and_text(draw, keys):
    """A ranged key and a value for it as ``--set`` text: an edge probe, or
    any integer within 10^30 or any finite float."""
    key = draw(st.sampled_from(keys))
    spec = RANGES[key][1]
    if ".." in spec:
        anything = st.integers(-10**30, 10**30)
    else:
        anything = st.floats(allow_nan=False, allow_infinity=False)
    value = draw(st.one_of(st.sampled_from(probes(spec)), anything))
    return key, repr(value)


@settings(max_examples=300, deadline=None)
@given(case=key_and_text(sorted(RANGES)))
def test_any_value_is_taken_or_a_config_error(case):
    key, text = case
    overrides = [f"{k}={v}" for k, v in BASE.get(key, {}).items()] + [f"{key}={text}"]
    try:
        config = load_run_config(overrides=overrides)
        cls = RANGES[key][0]
        if cls is RunKeys:
            trainer.check_ranges(RunKeys, **{key: config[key]})
        else:
            config_from(cls, config)
    except ConfigError:
        pass


MODEL_KEYS = sorted(key for key, (cls, _) in RANGES.items() if cls is DenseNetConfig)


@settings(max_examples=150, deadline=None)
@given(case=key_and_text(MODEL_KEYS))
def test_inspect_exits_0_or_2(case):
    key, text = case
    argv = ["inspect", "--machine", "--set", f"{key}={text}"]
    argv += [arg for k, v in BASE.get(key, {}).items() for arg in ("--set", f"{k}={v}")]
    assert cli.main(argv) in (0, 2), argv
