import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_checkpoint import rewrite_config, small_model, with_crc

from damnet import cli
from damnet.builder import DenseNetConfig
from damnet.checkpoint import save_checkpoint
from damnet.exceptions import ConfigError
from damnet.features import FilterbankConfig
from damnet.formats import UtteranceFeatures, write_archive
from damnet.layers import BN_EPSILON
from damnet.runconfig import config_from, load_run_config
from damnet.trainer import TrainConfig


@pytest.mark.parametrize("cls", [DenseNetConfig, FilterbankConfig, TrainConfig])
def test_defaults_build_the_dataclass_defaults(cls):
    assert config_from(cls, load_run_config()) == cls()


def test_prefixed_training_keys_set_their_fields():
    config = load_run_config(overrides=["lr_halving_factor=0.25",
                                        "lr_improvement_threshold=0.01"])
    train = config_from(TrainConfig, config)
    assert (train.lr_halving_factor, train.lr_improvement_threshold) == (0.25, 0.01)


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


# One property over the KEY=VALUE number grammar, through every reader of the
# text: a run config file, --set, and a checkpoint's config block behind a
# forged CRC32. A case is (text, kind): "int" if it spells an ASCII integer,
# "float" if only a finite float, "bad" if neither.
SIGNS = st.sampled_from(["", "+", "-"])
ASCII_DIGITS = "0123456789"
OTHER_DIGITS = "٠١٢٧٩０１２９𝟙"  # Arabic-Indic, fullwidth, mathematical


@st.composite
def numbers(draw):
    """An ASCII decimal: sign, digits, optional point and fraction, optional
    exponent, kept within float range."""
    whole = draw(st.text(ASCII_DIGITS, max_size=10))
    fraction = draw(st.text(ASCII_DIGITS, max_size=10))
    point = "." if fraction or draw(st.booleans()) else ""
    whole = whole or ("" if fraction else "0")
    exponent = draw(st.sampled_from(["", "e", "E"]))
    if exponent:
        exponent += draw(SIGNS) + str(draw(st.integers(0, 290)))
    kind = "float" if point or exponent else "int"
    return draw(SIGNS) + whole + point + fraction + exponent, kind


@st.composite
def malformed(draw):
    """A number with a non-ASCII digit, a '_' or an inner space in it."""
    text, _ = draw(numbers())
    text += "0"  # at least two characters, so there is an inner position
    digits = [i for i, char in enumerate(text) if char in ASCII_DIGITS]
    at = draw(st.sampled_from(digits))
    inner = draw(st.integers(1, len(text) - 1))
    return draw(st.sampled_from([
        text[:at] + draw(st.sampled_from(OTHER_DIGITS)) + text[at + 1:],
        text[:inner] + "_" + text[inner:],
        text[:inner] + draw(st.sampled_from([" ", "\t", "\u2003"])) + text[inner:],
    ])), "bad"


# spellings of 1e-05, the one bn_epsilon a checkpoint of this build may hold
EPSILONS = st.sampled_from(["1e-05", "0.00001", "+10E-6", ".1e-4", "000.000010"])
BAD = st.sampled_from(["٢٢", "１２", "٢_٢", "+１２", "2_2",
                       "0.5_0", "inf", "-Infinity", "nan", "1e400", "", "1 2", "0x10", "1e",
                       ".", "+", "e5", "1.5.2", "1,5"])
CASES = st.one_of(numbers(), st.tuples(EPSILONS, st.just("float")), malformed(),
                  st.tuples(BAD, st.just("bad")))


@pytest.fixture(scope="module")
def checkpoint_and_archive(tmp_path_factory):
    """A seed-0 checkpoint of a small C model, and an archive it can evaluate."""
    root = tmp_path_factory.mktemp("grammar")
    save_checkpoint(small_model(), root / "base.ckpt")
    frames = np.random.default_rng(0).standard_normal((3, 3, 40)).astype(np.float32)
    write_archive([UtteranceFeatures("u", frames, np.arange(3))], root / "eval.fbk")
    return root


@settings(max_examples=100, deadline=None)
@given(case=CASES)
@example(case=("٢٢", "bad"))
@example(case=("0.5_0", "bad"))
@example(case=("22", "int"))
@example(case=("1e-05", "float"))
def test_every_key_value_reader_takes_one_number_grammar(checkpoint_and_archive, case):
    """``cli.main`` reads a number exactly, or ends in ConfigError (exit 2)
    for a run config and FormatError (exit 3) for a checkpoint; no other
    exception escapes."""
    text, kind = case
    root = checkpoint_and_archive
    as_int = int(text) if kind == "int" else None
    as_float = float(text) if kind != "bad" else None
    seed = None if as_int is None or as_int < 0 else as_int  # a negative seed is an error
    seen = []  # the run config inspect is given, or the model eval loads
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "cmd_inspect", lambda config, machine: seen.append(config) or 0)
        load = cli.load_checkpoint
        patch.setattr(cli, "load_checkpoint", lambda path: seen.append(load(path)) or seen[-1])

        config_file = root / "run.cfg"
        for key, expected in (("seed", seed), ("compression", as_float)):
            config_file.write_text(f"# one key\n{key}={text}\n", encoding="utf-8")
            for argv in (["inspect", "--config", str(config_file)],
                         ["inspect", "--set", f"{key}={text}"]):
                seen.clear()
                if expected is None:
                    assert (cli.main(argv), seen) == (2, []), argv
                else:
                    assert cli.main(argv) == 0, argv
                    assert seen[0][key] == expected and type(seen[0][key]) is type(expected)

        checkpoint = root / "model.ckpt"
        for key, expected in (("seed", seed),
                              ("bn_epsilon", BN_EPSILON if as_float == BN_EPSILON else None)):
            checkpoint.write_bytes((root / "base.ckpt").read_bytes())
            rewrite_config(checkpoint, lambda config: "".join(
                f"{key}={text}\n" if line.startswith(key + "=") else line
                for line in config.splitlines(keepends=True)))
            checkpoint.write_bytes(with_crc(checkpoint.read_bytes()[:-4]))
            seen.clear()
            argv = ["eval", "--set", f"checkpoint={checkpoint}",
                    "--set", f"eval_archive={root / 'eval.fbk'}"]
            if expected is None:
                assert (cli.main(argv), seen) == (3, []), key
            else:
                assert cli.main(argv) == 0, key
                assert key != "seed" or seen[0].seed == expected
