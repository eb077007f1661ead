import pytest

from damnet.builder import DenseNetConfig
from damnet.exceptions import ConfigError
from damnet.features import FilterbankConfig
from damnet.runconfig import config_from, load_run_config
from damnet.trainer import TrainConfig


@pytest.mark.parametrize("cls", [DenseNetConfig, FilterbankConfig, TrainConfig])
def test_defaults_build_the_dataclass_defaults(cls):
    assert config_from(cls, load_run_config()) == cls()


def test_prefixed_training_keys_set_their_fields():
    config = load_run_config(overrides=["lr_halving_factor=0.25",
                                        "lr_improvement_threshold=0.01"])
    train = config_from(TrainConfig, config)
    assert (train.halving_factor, train.improvement_threshold) == (0.25, 0.01)


def test_keys_parse_as_their_field_types():
    config = load_run_config(overrides=["depth=13", "compression=0.5", "variant=C",
                                        "high_freq=7000", "deterministic=yes"])
    assert config_from(DenseNetConfig, config) == DenseNetConfig(
        variant="C", depth=13, compression=0.5)
    assert config_from(FilterbankConfig, config).high_freq == 7000.0
    assert config_from(TrainConfig, config).deterministic is True
    with pytest.raises(ConfigError, match="depth"):
        load_run_config(overrides=["depth=13.5"])


def test_built_dataclass_is_validated():
    with pytest.raises(ConfigError, match="momentum"):
        config_from(TrainConfig, load_run_config(overrides=["momentum=1.5"]))
