import numpy as np
import pytest

from damnet.builder import DenseNetConfig
from damnet.checkpoint import load_checkpoint, save_checkpoint
from damnet.exceptions import FormatError
from damnet.features import ByteReader, UtteranceFeatures, read_archive, write_archive
from damnet.model import build_model


def small_model(seed=0):
    cfg = DenseNetConfig(variant="C", depth=7, blocks=3, growth_rate=6,
                         compression=0.5, num_classes=8, first_conv_channels=8)
    return build_model(cfg, seed=seed)


def test_round_trip_is_bit_exact(tmp_path):
    model = small_model(seed=11)
    # perturb running stats so state tensors are non-trivial
    x = np.random.default_rng(0).standard_normal((4, 3, 11, 40)).astype(np.float32)
    model.forward(x, train=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.seed == model.seed
    for name, tensor in model.named_tensors().items():
        np.testing.assert_array_equal(tensor, loaded.named_tensors()[name])
    # re-saving the loaded model reproduces the file byte for byte
    second = tmp_path / "model2.ckpt"
    save_checkpoint(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_names_and_values_follow_the_arena(tmp_path):
    model = small_model(seed=2)
    model.forward(np.random.default_rng(3).standard_normal((4, 3, 11, 40)).astype(np.float32),
                  train=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    reader = ByteReader(path.read_bytes(), "checkpoint")
    reader.take(8, "magic and version")
    reader.take(reader.u32("config length"), "config")
    names, values = [], []
    for _ in range(reader.u32("tensor count")):
        names.append(reader.take(reader.u32("name length"), "name").decode("utf-8"))
        shape = [reader.u32("extent") for _ in range(reader.u32("rank"))]
        values.append(reader.take(4 * int(np.prod(shape)), "values"))
    assert names == list(model.named_tensors())
    assert b"".join(values) == model.tensors.astype("<f4").tobytes()
    assert load_checkpoint(path).tensors.tobytes() == model.tensors.tobytes()


def test_truncation_raises_only_format_error(tmp_path):
    frames = np.random.default_rng(0).standard_normal((3, 3, 4)).astype(np.float32)
    utts = [UtteranceFeatures("a", frames, np.arange(3)),
            UtteranceFeatures("bb", frames[:2], None),
            UtteranceFeatures("c", frames[1:], np.arange(2))]
    archive = tmp_path / "data.fbk"
    write_archive(utts, archive)
    data = archive.read_bytes()
    # the format cannot tell a missing label block from an unlabelled record
    unlabelled_cut = len(data) - 4 - 4 * 2
    cut_path = tmp_path / "cut.fbk"
    for cut in range(len(data)):
        cut_path.write_bytes(data[:cut])
        if cut == unlabelled_cut:
            loaded = read_archive(cut_path)
            assert [u.utt_id for u in loaded] == ["a", "bb", "c"]
            assert loaded[-1].labels is None
            continue
        with pytest.raises(FormatError):
            read_archive(cut_path)

    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(small_model(), checkpoint)
    data = checkpoint.read_bytes()
    cuts = [*range(600), *np.random.default_rng(1).integers(600, len(data), size=300)]
    cut_path = tmp_path / "cut.ckpt"
    for cut in cuts:
        cut_path.write_bytes(data[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(cut_path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_bad_version(tmp_path):
    model = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    data = bytearray(path.read_bytes())
    data[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_truncation_reports_offset(tmp_path):
    model = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "byte offset" in str(err.value)


def test_trailing_garbage_rejected(tmp_path):
    model = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_loaded_model_gives_identical_inference(tmp_path):
    model = small_model(seed=5)
    x = np.random.default_rng(1).standard_normal((3, 3, 11, 40)).astype(np.float32)
    model.forward(x, train=True)  # move running stats off init
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(
        model.forward(x, train=False), loaded.forward(x, train=False)
    )


def test_undecodable_tensor_name(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(), path)
    data = bytearray(path.read_bytes())
    name_offset = data.index(b"initial_conv.weight")
    data[name_offset] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == name_offset


CONFIG_OFFSET = 12  # magic, version and config length come first


def rewrite_config(path, edit):
    """Replace a checkpoint's config text with ``edit(text)``, fixing its length."""
    data = path.read_bytes()
    length = int.from_bytes(data[8:CONFIG_OFFSET], "little")
    text = edit(data[CONFIG_OFFSET : CONFIG_OFFSET + length].decode("utf-8")).encode("utf-8")
    path.write_bytes(data[:8] + len(text).to_bytes(4, "little") + text
                     + data[CONFIG_OFFSET + length :])


@pytest.mark.parametrize("key", ["bn_epsilon", "bn_momentum"])
def test_missing_batchnorm_constant(tmp_path, key):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(), path)
    rewrite_config(path, lambda text: "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith(key + "=")))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == CONFIG_OFFSET
    assert key in str(err.value)


@pytest.mark.parametrize("line,value", [("bn_epsilon=1e-05", "bn_epsilon=0.001"),
                                        ("bn_momentum=0.9", "bn_momentum=0.99")])
def test_mismatched_batchnorm_constant(tmp_path, line, value):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(), path)
    rewrite_config(path, lambda text: text.replace(line + "\n", value + "\n"))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == CONFIG_OFFSET
    assert value in str(err.value)


def test_config_text_of_a_c13_model(tmp_path):
    cfg = DenseNetConfig(variant="C", depth=13, compression=0.5, num_classes=10)
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_model(cfg, seed=7), path)
    data = path.read_bytes()
    length = int.from_bytes(data[8:CONFIG_OFFSET], "little")
    assert data[CONFIG_OFFSET : CONFIG_OFFSET + length] == (
        b"variant=C\ndepth=13\nblocks=3\ngrowth_rate=12\ncompression=0.5\n"
        b"input_channels=3\ninput_height=11\ninput_width=40\nnum_classes=10\n"
        b"first_conv_channels=16\nseed=7\nbn_epsilon=1e-05\nbn_momentum=0.9\n"
    )


@pytest.mark.parametrize("line,value", [("depth=7\n", ""),
                                        ("depth=7\n", "depth=seven\n"),
                                        ("compression=0.5\n", "compression=half\n")])
def test_missing_or_unparsable_config_field(tmp_path, line, value):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(), path)
    rewrite_config(path, lambda text: text.replace(line, value))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == CONFIG_OFFSET
    assert "incomplete checkpoint config" in str(err.value)
