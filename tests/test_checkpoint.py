import struct
import zlib

import numpy as np
import pytest

from damnet.builder import DenseNetConfig
from damnet.checkpoint import _layout_fingerprint, load_checkpoint, save_checkpoint
from damnet.exceptions import DamnetError, FormatError
from damnet.features import UtteranceFeatures, read_archive, write_archive
from damnet.layers import softmax_cross_entropy
from damnet.model import build_model

CONFIG_OFFSET = 12  # magic, version and config length come first


def small_model(seed=0):
    cfg = DenseNetConfig(variant="C", depth=7, blocks=3, growth_rate=6,
                         compression=0.5, num_classes=8, first_conv_channels=8)
    return build_model(cfg, seed=seed)


def three_record_archive(path):
    """Write an archive of a labelled, an unlabelled and a labelled record."""
    frames = np.random.default_rng(0).standard_normal((3, 3, 4)).astype(np.float32)
    write_archive([UtteranceFeatures("a", frames, np.arange(3)),
                   UtteranceFeatures("bb", frames[:2], None),
                   UtteranceFeatures("c", frames[1:], np.arange(2))], path)
    return path


def with_crc(body: bytes) -> bytes:
    """``body`` followed by the CRC32 trailer that makes it pass the check."""
    return body + struct.pack("<I", zlib.crc32(body))


def blob_offset(data: bytes) -> int:
    """Offset of a checkpoint's layout fingerprint, right after its config text."""
    return CONFIG_OFFSET + int.from_bytes(data[8:CONFIG_OFFSET], "little")


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


@pytest.mark.parametrize("variant,depth,compression", [("plain", 22, 1.0), ("BC", 41, 0.5)])
def test_paper_models_round_trip_after_a_train_step(tmp_path, variant, depth, compression):
    model = build_model(DenseNetConfig(variant=variant, depth=depth, compression=compression),
                        seed=4)
    x = np.random.default_rng(5).standard_normal((4, 3, 11, 40)).astype(np.float32)
    model.backward(softmax_cross_entropy(model.forward(x, train=True), np.arange(4))[1])
    model.params -= 0.1 * model.grads
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.tensors.tobytes() == model.tensors.tobytes()
    assert loaded.forward(x).tobytes() == model.forward(x).tobytes()
    save_checkpoint(loaded, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_names_and_values_follow_the_arena(tmp_path):
    model = small_model(seed=2)
    model.forward(np.random.default_rng(3).standard_normal((4, 3, 11, 40)).astype(np.float32),
                  train=True)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    data = path.read_bytes()
    fingerprint, count = struct.unpack_from("<II", data, blob_offset(data))
    layout = "".join(f"{name} {tensor.shape}\n" for name, tensor in model.named_tensors().items())
    assert fingerprint == zlib.crc32(layout.encode("utf-8"))
    assert count == model.tensors.size
    assert data[blob_offset(data) + 8 : -4] == model.tensors.astype("<f4").tobytes()
    assert data == with_crc(data[:-4])
    assert load_checkpoint(path).tensors.tobytes() == model.tensors.tobytes()


@pytest.mark.parametrize("config,fingerprint,tensors", [
    (DenseNetConfig(variant="plain", depth=22, num_classes=1500), 0x76D7CBD2, 107),
    (DenseNetConfig(variant="BC", depth=41, compression=0.5, num_classes=1500), 0xE6E0E1C2, 197),
], ids=["plain22", "bc41"])
def test_layout_is_pinned(config, fingerprint, tensors):
    # literals, so renaming or reordering a stage's layers cannot pass
    # unnoticed: every checkpoint saved before such a change would stop loading
    model = build_model(config, 0)
    assert len(model.named_tensors()) == tensors
    assert _layout_fingerprint(model) == fingerprint


def edit_blob(data: bytes, edit: str) -> bytes:
    """Apply ``edit`` to the bytes after a checkpoint's config, keeping the CRC valid."""
    head, blob = data[: blob_offset(data)], bytearray(data[blob_offset(data) : -4])
    if edit == "fingerprint":
        blob[0] ^= 1
    elif edit == "count":
        blob[4:8] = (int.from_bytes(blob[4:8], "little") - 1).to_bytes(4, "little")
        del blob[-4:]
    return with_crc(head + bytes(blob))


@pytest.mark.parametrize("edit,message", [("fingerprint", "layout differs"),
                                          ("count", "model needs")])
def test_blob_that_does_not_fit_the_model(tmp_path, edit, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(), path)
    path.write_bytes(edit_blob(path.read_bytes(), edit))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert message in str(err.value)


def test_invalid_config_with_valid_crc_is_format_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(), path)
    rewrite_config(path, lambda text: text.replace("num_classes=8\n", "num_classes=1\n"))
    path.write_bytes(with_crc(path.read_bytes()[:-4]))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == CONFIG_OFFSET
    assert "num_classes" in str(err.value)


def test_negative_seed_with_valid_crc_is_format_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model(), path)
    rewrite_config(path, lambda text: text.replace("\nseed=0\n", "\nseed=-1\n"))
    path.write_bytes(with_crc(path.read_bytes()[:-4]))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == CONFIG_OFFSET
    assert "seed -1" in str(err.value)


def test_truncation_raises_only_format_error(tmp_path):
    data = three_record_archive(tmp_path / "data.fbk").read_bytes()
    cut_path = tmp_path / "cut.fbk"
    for cut in range(len(data)):
        cut_path.write_bytes(data[:cut])
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


def byte_flips(data: bytes, count: int, seed: int):
    """``count`` seeded copies of ``data``, each with one byte XORed by a nonzero mask."""
    r = np.random.default_rng(seed)
    for position, mask in zip(r.integers(0, len(data), count), r.integers(1, 256, count)):
        flipped = bytearray(data)
        flipped[position] ^= mask
        yield bytes(flipped)


def test_corruption_fuzz(tmp_path):
    """One-byte flips and cuts: no corrupted checkpoint or archive loads. A
    checkpoint fails with FormatError; an archive may also fail on decoded
    values (DataError) before its CRC32 trailer is checked."""
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(small_model(), checkpoint)
    archive = three_record_archive(tmp_path / "data.fbk")
    for path, load, error in ((checkpoint, load_checkpoint, FormatError),
                              (archive, read_archive, DamnetError)):
        data = path.read_bytes()
        cuts = np.random.default_rng(2).integers(0, len(data), size=200)
        for corrupted in [*byte_flips(data, 1200, seed=3), *(data[:cut] for cut in cuts)]:
            path.write_bytes(corrupted)
            with pytest.raises(error):
                load(path)


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
