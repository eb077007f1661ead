import json
import wave
import zlib

import numpy as np
import pytest

from damnet.builder import DenseNetConfig, plan_architecture
from damnet.cli import main
from damnet.features import (
    FilterbankConfig,
    UtteranceFeatures,
    frame_count,
    read_archive,
    write_archive,
)
from damnet.model import build_model, count_parameters
from damnet.trainer import make_synthetic_dataset


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_stages(out):
    """Parse --machine inspect output into per-stage field tuples."""
    stages = []
    total = None
    for line in out.strip().splitlines():
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if fields[0] == "total":
            total = int(fields[1])
        else:
            stages.append(fields)
    return stages, total


class TestInspect:
    def test_machine_output_columns(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "--machine",
                               "--set", "variant=C", "--set", "compression=0.5")
        assert code == 0
        stages, total = machine_stages(out)
        assert [s[3] for s in stages] == ["9x38", "9x38", "4x19", "4x19", "2x9", "2x9", "1x1"]
        assert [s[1] for s in stages] == ["initial-conv", "dense-block", "transition",
                                          "dense-block", "transition", "dense-block",
                                          "classifier"]
        assert total is not None

    def test_totals_match_count_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "--machine",
                               "--set", "variant=BC", "--set", "compression=0.5",
                               "--set", "num_classes=37")
        assert code == 0
        _, total = machine_stages(out)
        cfg = DenseNetConfig(variant="BC", compression=0.5, num_classes=37)
        assert total == count_parameters(build_model(cfg, seed=0)).total
        assert total == plan_architecture(cfg).total_params

    def test_human_output_has_header(self, capsys):
        code, out, _ = run_cli(capsys, "inspect")
        assert code == 0
        assert "DenseNet" in out
        assert "effective_depth=22" in out

    def test_config_error_names_key(self, capsys):
        code, _, err = run_cli(capsys, "inspect", "--set", "depth=4", "--set", "blocks=3")
        assert code == 2
        assert "depth" in err

    def test_unknown_key_rejected(self, capsys):
        code, _, err = run_cli(capsys, "inspect", "--set", "depht=22")
        assert code == 2
        assert "depht" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("variant=C\ncompression=0.5\ndepth=22\n# comment\n")
        code, out, _ = run_cli(capsys, "inspect", "--machine",
                               "--config", str(cfg_file), "--set", "depth=13")
        assert code == 0
        stages, _ = machine_stages(out)
        assert stages[1][2] == "3x3 conv x3"  # depth 13 -> 3 layers per block

    def test_non_utf8_config_file_is_config_error(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(b"variant=C\n# caf\xe9\n")
        code, _, err = run_cli(capsys, "inspect", "--config", str(cfg_file))
        assert code == 2
        assert str(cfg_file) in err


class TestSynthData:
    def test_archive_written_and_deterministic(self, capsys, tmp_path):
        out_a = tmp_path / "a.fbk"
        out_b = tmp_path / "b.fbk"
        for target in (out_a, out_b):
            code, out, _ = run_cli(capsys, "synthdata", "--seed", "5",
                                   "--set", f"output_archive={target}",
                                   "--set", "synth_classes=4",
                                   "--set", "synth_frames_per_class=6")
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        utts = read_archive(out_a)
        assert len(utts) == 4
        assert all(u.num_frames == 6 for u in utts)

    def test_missing_output_path(self, capsys):
        code, _, err = run_cli(capsys, "synthdata")
        assert code == 2
        assert "output_archive" in err


def write_test_wav(path, samples, rate=16000):
    scaled = np.clip(np.asarray(samples) * 32767.0, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(rate)
        handle.writeframes(scaled.tobytes())


class TestFeaturize:
    def make_corpus(self, tmp_path, count=3):
        rng = np.random.default_rng(0)
        lines = []
        cfg = FilterbankConfig()
        for i in range(count):
            wav = tmp_path / f"utt{i}.wav"
            num_samples = 8000 + 800 * i
            write_test_wav(wav, rng.standard_normal(num_samples) * 0.1)
            lab = tmp_path / f"utt{i}.lab"
            lab.write_text(" ".join(["2"] * frame_count(num_samples, cfg)))
            lines.append(f"utt{i} {wav} {lab}")
        manifest = tmp_path / "corpus.scp"
        manifest.write_text("\n".join(lines) + "\n")
        return manifest

    def test_archive_order_and_determinism(self, capsys, tmp_path):
        manifest = self.make_corpus(tmp_path)
        args = ["featurize", "--set", f"manifest={manifest}"]
        out_a, stats_a = tmp_path / "a.fbk", tmp_path / "a.json"
        out_b, stats_b = tmp_path / "b.fbk", tmp_path / "b.json"
        for archive, stats in ((out_a, stats_a), (out_b, stats_b)):
            code, _, _ = run_cli(capsys, *args, "--set", f"output_archive={archive}",
                                 "--set", f"stats_file={stats}")
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert stats_a.read_bytes() == stats_b.read_bytes()
        utts = read_archive(out_a)
        assert [u.utt_id for u in utts] == ["utt0", "utt1", "utt2"]
        assert all(u.frames.shape[1:] == (3, 40) for u in utts)

    @pytest.mark.parametrize("override,high_freq", [((), 8000.0),
                                                    (("--set", "high_freq=7000"), 7000.0)])
    def test_stats_file_records_filterbank(self, capsys, tmp_path, override, high_freq):
        manifest = self.make_corpus(tmp_path, count=1)
        stats = tmp_path / "stats.json"
        code, _, _ = run_cli(capsys, "featurize", "--set", f"manifest={manifest}",
                             "--set", f"output_archive={tmp_path / 'a.fbk'}",
                             "--set", f"stats_file={stats}", *override)
        assert code == 0
        assert json.loads(stats.read_text())["filterbank"] == {
            "sample_rate": 16000, "frame_length_ms": 25.0, "frame_shift_ms": 10.0,
            "fft_size": 512, "num_filters": 40, "low_freq": 20.0,
            "high_freq": high_freq, "pre_emphasis": 0.97, "log_floor": 1e-10,
        }

    def test_non_utf8_manifest_is_io_error(self, capsys, tmp_path):
        manifest = tmp_path / "corpus.scp"
        manifest.write_bytes(b"caf\xe9 caf\xe9.wav\n")
        code, _, err = run_cli(capsys, "featurize",
                               "--set", f"manifest={manifest}",
                               "--set", f"output_archive={tmp_path / 'x.fbk'}",
                               "--set", f"stats_file={tmp_path / 'x.json'}")
        assert code == 3
        assert str(manifest) in err

    def featurize_exit_code(self, capsys, tmp_path, manifest):
        code, _, err = run_cli(capsys, "featurize",
                               "--set", f"manifest={manifest}",
                               "--set", f"output_archive={tmp_path / 'x.fbk'}",
                               "--set", f"stats_file={tmp_path / 'x.json'}")
        assert not (tmp_path / "x.fbk").exists()
        return code, err

    @pytest.mark.parametrize("offset,value", [(16, 0x10000),  # fmt chunk overruns the file
                                              (4, 36 + 8 + 101)])  # odd count of data bytes
    def test_corrupted_wav_header_exits_3(self, capsys, tmp_path, offset, value):
        manifest = self.make_corpus(tmp_path, count=2)
        wav = tmp_path / "utt1.wav"
        data = bytearray(wav.read_bytes())
        data[offset : offset + 4] = value.to_bytes(4, "little")
        wav.write_bytes(bytes(data))
        code, err = self.featurize_exit_code(capsys, tmp_path, manifest)
        assert code == 3
        assert "utt1" in err and "bad WAV file" in err

    @pytest.mark.parametrize("label", [2**32 + 1, 10**20])
    def test_label_outside_u32_exits_3(self, capsys, tmp_path, label):
        manifest = self.make_corpus(tmp_path, count=2)
        lab = tmp_path / "utt1.lab"
        lab.write_text(lab.read_text().replace("2", str(label), 1))
        code, err = self.featurize_exit_code(capsys, tmp_path, manifest)
        assert code == 3
        assert "utt1" in err

    @pytest.mark.parametrize("corpus", ["comment-only", "one-short-wav"])
    def test_corpus_without_stats_leaves_no_file(self, capsys, tmp_path, corpus):
        manifest = tmp_path / "corpus.scp"
        if corpus == "comment-only":
            manifest.write_text("# no utterances\n")
        else:
            write_test_wav(tmp_path / "short.wav", np.zeros(400))
            manifest.write_text(f"short {tmp_path / 'short.wav'}\n")
        code, _ = self.featurize_exit_code(capsys, tmp_path, manifest)
        assert code == 3
        assert not (tmp_path / "x.json").exists()

    def test_missing_audio_names_utterance(self, capsys, tmp_path):
        manifest = tmp_path / "bad.scp"
        manifest.write_text(f"lost {tmp_path / 'nope.wav'}\n")
        code, _, err = run_cli(capsys, "featurize",
                               "--set", f"manifest={manifest}",
                               "--set", f"output_archive={tmp_path / 'x.fbk'}",
                               "--set", f"stats_file={tmp_path / 'x.json'}")
        assert code == 3
        assert "lost" in err


MALFORMED_STATS = {
    "nan-mean": (np.full((3, 40), np.nan), np.ones((3, 40))),
    "zero-var": (np.zeros((3, 40)), np.linspace(0.0, 1.0, 120).reshape(3, 40)),
    "shape": (np.zeros((3, 40)), np.ones(40)),
}


def write_stats(path, name):
    mean, var = MALFORMED_STATS[name]
    path.write_text(json.dumps({"frame_count": 10, "mean": mean.tolist(),
                                "var": var.tolist()}))
    return path


def write_archive_with_empty_utterance(path, classes):
    """A synthetic archive whose last utterance, 'silent', has no frames."""
    utts = make_synthetic_dataset(classes, 4, 4.0, seed=5)
    utts.append(UtteranceFeatures("silent", np.zeros((0, 3, 40), np.float32),
                                  np.zeros(0, np.int64)))
    write_archive(utts, path)
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Train once on separable synthetic data; reused by several tests.

    Validation runs on the training archive so the schedule tracks
    training progress at this desk scale.
    """
    root = tmp_path_factory.mktemp("train")
    train_archive = root / "train.fbk"
    checkpoint = root / "model.ckpt"
    metrics_log = root / "metrics.log"
    assert main(["synthdata", "--seed", "3",
                 "--set", f"output_archive={train_archive}",
                 "--set", "synth_classes=10",
                 "--set", "synth_frames_per_class=12",
                 "--set", "synth_separation=6.0"]) == 0
    code = main(["train", "--seed", "3", "--deterministic",
                 "--set", f"train_archive={train_archive}",
                 "--set", f"val_archive={train_archive}",
                 "--set", f"checkpoint={checkpoint}",
                 "--set", f"metrics_log={metrics_log}",
                 "--set", "variant=C", "--set", "depth=13",
                 "--set", "compression=0.5", "--set", "num_classes=10",
                 "--set", "batch_size=8", "--set", "max_epochs=15"])
    assert code == 0
    return {"root": root, "train_archive": train_archive,
            "checkpoint": checkpoint, "metrics_log": metrics_log}


class TestTrainEval:
    def test_end_to_end_accuracy(self, capsys, trained):
        code, out, _ = run_cli(capsys, "eval",
                               "--set", f"checkpoint={trained['checkpoint']}",
                               "--set", f"eval_archive={trained['train_archive']}")
        assert code == 0
        accuracy = float(out.splitlines()[0].split("accuracy")[1].split()[0])
        assert accuracy > 0.99

    def test_metrics_log_parseable(self, trained):
        from damnet.trainer import parse_metrics_line

        lines = trained["metrics_log"].read_text().strip().splitlines()
        assert lines
        for i, line in enumerate(lines, 1):
            metrics = parse_metrics_line(line)
            assert metrics.epoch == i
            assert 0.0 <= metrics.train_accuracy <= 1.0
        # deterministic mode blanks the wall-clock field
        assert all(line.split()[6] == "0.000" for line in lines)

    def test_eval_class_count_mismatch(self, capsys, trained, tmp_path):
        bad = tmp_path / "bad.fbk"
        assert main(["synthdata", "--seed", "9",
                     "--set", f"output_archive={bad}",
                     "--set", "synth_classes=12",
                     "--set", "synth_frames_per_class=2"]) == 0
        code, _, err = run_cli(capsys, "eval",
                               "--set", f"checkpoint={trained['checkpoint']}",
                               "--set", f"eval_archive={bad}")
        assert code == 2
        assert "num_classes=10" in err and "11" in err

    def test_eval_geometry_mismatch(self, capsys, trained):
        code, _, err = run_cli(capsys, "eval",
                               "--set", f"checkpoint={trained['checkpoint']}",
                               "--set", f"eval_archive={trained['train_archive']}",
                               "--set", "context_left=3", "--set", "context_right=3")
        assert code == 2
        assert "(3, 11, 40)" in err and "(3, 7, 40)" in err

    def test_flipped_checkpoint_is_io_error(self, capsys, trained, tmp_path):
        data = trained["checkpoint"].read_bytes()
        corrupted = tmp_path / "corrupted.ckpt"
        r = np.random.default_rng(8)
        for position, mask in zip(r.integers(0, len(data), 40), r.integers(1, 256, 40)):
            flipped = bytearray(data)
            flipped[position] ^= mask
            corrupted.write_bytes(bytes(flipped))
            code, out, err = run_cli(capsys, "eval",
                                     "--set", f"checkpoint={corrupted}",
                                     "--set", f"eval_archive={trained['train_archive']}")
            assert (code, out) == (3, ""), err
            assert "error:" in err

    def test_mismatched_batchnorm_momentum_is_io_error(self, capsys, trained, tmp_path):
        data = trained["checkpoint"].read_bytes()
        assert data.count(b"bn_momentum=0.9\n") == 1
        corrupted = tmp_path / "momentum.ckpt"
        corrupted.write_bytes(data.replace(b"bn_momentum=0.9\n", b"bn_momentum=0.8\n"))
        code, _, err = run_cli(capsys, "eval",
                               "--set", f"checkpoint={corrupted}",
                               "--set", f"eval_archive={trained['train_archive']}")
        assert code == 3
        assert "bn_momentum=0.8" in err

    @pytest.mark.parametrize("name", sorted(MALFORMED_STATS))
    def test_malformed_stats_are_io_error(self, capsys, trained, tmp_path, name):
        stats = write_stats(tmp_path / "stats.json", name)
        code, out, err = run_cli(capsys, "eval",
                                 "--set", f"checkpoint={trained['checkpoint']}",
                                 "--set", f"eval_archive={trained['train_archive']}",
                                 "--set", f"cmvn_stats={stats}")
        assert code == 3
        assert str(stats) in err
        assert out == ""

    def test_empty_utterance_is_io_error(self, capsys, trained, tmp_path):
        archive = write_archive_with_empty_utterance(tmp_path / "empty.fbk", 10)
        code, out, err = run_cli(capsys, "eval",
                                 "--set", f"checkpoint={trained['checkpoint']}",
                                 "--set", f"eval_archive={archive}")
        assert (code, out) == (3, ""), err
        assert "'silent'" in err

    def test_negative_seed_checkpoint_is_io_error(self, capsys, trained, tmp_path):
        data = trained["checkpoint"].read_bytes()
        length = int.from_bytes(data[8:12], "little")
        text = data[12 : 12 + length].replace(b"\nseed=3\n", b"\nseed=-1\n")
        body = data[:8] + len(text).to_bytes(4, "little") + text + data[12 + length : -4]
        corrupted = tmp_path / "seed.ckpt"
        corrupted.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        code, out, err = run_cli(capsys, "eval",
                                 "--set", f"checkpoint={corrupted}",
                                 "--set", f"eval_archive={trained['train_archive']}")
        assert (code, out) == (3, ""), err
        assert "seed -1" in err

    def test_missing_checkpoint_is_io_error(self, capsys, trained):
        code, _, err = run_cli(capsys, "eval",
                               "--set", "checkpoint=/nonexistent/model.ckpt",
                               "--set", f"eval_archive={trained['train_archive']}")
        assert code == 3


class TestNonFiniteFloats:
    @pytest.mark.parametrize("key,value", [("min_lr", "nan"),
                                           ("lr_improvement_threshold", "nan"),
                                           ("initial_lr", "inf")])
    def test_train_rejects(self, capsys, tmp_path, key, value):
        code, _, err = run_cli(capsys, "train",
                               "--set", f"train_archive={tmp_path / 'none.fbk'}",
                               "--set", f"checkpoint={tmp_path / 'm.ckpt'}",
                               "--set", f"{key}={value}")
        assert code == 2
        assert key in err

    def test_featurize_rejects_log_floor(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "featurize",
                               "--set", f"manifest={tmp_path / 'none.scp'}",
                               "--set", f"output_archive={tmp_path / 'x.fbk'}",
                               "--set", f"stats_file={tmp_path / 'x.json'}",
                               "--set", "log_floor=nan")
        assert code == 2
        assert "log_floor" in err


@pytest.mark.parametrize("key,value", [("lr_halving_factor", "2"),
                                       ("lr_improvement_threshold", "-1")])
def test_train_range_error_names_the_key_set(capsys, tmp_path, key, value):
    code, _, err = run_cli(capsys, "train",
                           "--set", f"train_archive={tmp_path / 'none.fbk'}",
                           "--set", f"checkpoint={tmp_path / 'm.ckpt'}",
                           "--set", f"{key}={value}")
    assert code == 2
    assert key in err


class TestTrainValidation:
    def test_context_window_must_match_input_height(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train",
                               "--set", f"train_archive={tmp_path / 'x.fbk'}",
                               "--set", f"checkpoint={tmp_path / 'x.ckpt'}",
                               "--set", "input_height=9")
        assert code == 2
        assert "input_height" in err

    @pytest.mark.parametrize("name", sorted(MALFORMED_STATS))
    def test_malformed_stats_are_io_error(self, capsys, tmp_path, name):
        archive = tmp_path / "train.fbk"
        assert main(["synthdata", "--seed", "1",
                     "--set", f"output_archive={archive}",
                     "--set", "synth_classes=4",
                     "--set", "synth_frames_per_class=8"]) == 0
        stats = write_stats(tmp_path / "stats.json", name)
        code, _, err = run_cli(capsys, "train", "--seed", "1",
                               "--set", f"train_archive={archive}",
                               "--set", f"checkpoint={tmp_path / 'm.ckpt'}",
                               "--set", f"cmvn_stats={stats}",
                               "--set", "depth=7", "--set", "num_classes=4")
        assert code == 3
        assert str(stats) in err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("override,message", [
        (("--set", "num_classes=3"), "contains label 3"),
        (("--set", "input_width=39"), "geometry"),
    ], ids=["num_classes", "input_width"])
    def test_rejected_run_leaves_no_file(self, capsys, tmp_path, override, message):
        archive = tmp_path / "train.fbk"
        assert main(["synthdata", "--seed", "1",
                     "--set", f"output_archive={archive}",
                     "--set", "synth_classes=4",
                     "--set", "synth_frames_per_class=8"]) == 0
        checkpoint = tmp_path / "m.ckpt"
        code, _, err = run_cli(capsys, "train", "--seed", "1",
                               "--set", f"train_archive={archive}",
                               "--set", f"checkpoint={checkpoint}",
                               "--set", "depth=7", *override)
        assert code == 2
        assert message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.fbk"]

    def test_auto_validation_split(self, capsys, tmp_path):
        archive = tmp_path / "train.fbk"
        assert main(["synthdata", "--seed", "1",
                     "--set", f"output_archive={archive}",
                     "--set", "synth_classes=6",
                     "--set", "synth_frames_per_class=6",
                     "--set", "synth_separation=4.0"]) == 0
        code, out, _ = run_cli(capsys, "train", "--seed", "1",
                               "--set", f"train_archive={archive}",
                               "--set", f"checkpoint={tmp_path / 'm.ckpt'}",
                               "--set", "variant=plain", "--set", "depth=7",
                               "--set", "growth_rate=6",
                               "--set", "first_conv_channels=8",
                               "--set", "num_classes=6",
                               "--set", "batch_size=8", "--set", "max_epochs=2")
        assert code == 0
        assert "validation" in out


class TestGradcheckCommand:
    def test_passes_and_reports_layers(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck")
        assert code == 0
        for name in ("conv2d_3x3", "batchnorm", "softmax_cross_entropy"):
            assert name in out
        assert "gradcheck OK" in out


class TestExitCodes:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_4(self, capsys, tmp_path):
        archive = tmp_path / "t.fbk"
        assert main(["synthdata", "--seed", "1",
                     "--set", f"output_archive={archive}",
                     "--set", "synth_classes=4",
                     "--set", "synth_frames_per_class=8"]) == 0
        code, _, err = run_cli(capsys, "train", "--seed", "1",
                               "--set", f"train_archive={archive}",
                               "--set", f"val_archive={archive}",
                               "--set", f"checkpoint={tmp_path / 'm.ckpt'}",
                               "--set", "variant=plain", "--set", "depth=7",
                               "--set", "growth_rate=6",
                               "--set", "first_conv_channels=8",
                               "--set", "num_classes=4",
                               "--set", "batch_size=8", "--set", "max_epochs=3",
                               "--set", "initial_lr=1e12")
        assert code == 4
        assert "non-finite loss" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lr", ["1e3", "1e6"])
    def test_divergence_in_the_last_epoch_exits_4_and_leaves_no_file(self, capsys, tmp_path,
                                                                      lr):
        # the training loss stays finite; only the validation loss is not
        archive = tmp_path / "train.fbk"
        assert main(["synthdata", "--seed", "5",
                     "--set", f"output_archive={archive}",
                     "--set", "synth_classes=10",
                     "--set", "synth_frames_per_class=40"]) == 0
        code, _, err = run_cli(capsys, "train", "--seed", "5",
                               "--set", f"train_archive={archive}",
                               "--set", f"checkpoint={tmp_path / 'm.ckpt'}",
                               "--set", f"metrics_log={tmp_path / 'm.log'}",
                               "--set", "variant=C", "--set", "depth=13",
                               "--set", "compression=0.5", "--set", "num_classes=10",
                               "--set", "batch_size=100", "--set", "max_epochs=1",
                               "--set", f"initial_lr={lr}")
        assert code == 4
        assert "validation loss in epoch 1" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.fbk"]

    @pytest.mark.parametrize("command", ["train", "synthdata", "gradcheck"])
    def test_negative_seed_is_config_error(self, capsys, tmp_path, command):
        code, out, err = run_cli(capsys, command, "--seed", "-1",
                                 "--set", f"train_archive={tmp_path / 'none.fbk'}",
                                 "--set", f"output_archive={tmp_path / 'x.fbk'}",
                                 "--set", f"checkpoint={tmp_path / 'm.ckpt'}")
        assert (code, out) == (2, ""), err
        assert "'seed'" in err
        assert list(tmp_path.iterdir()) == []

    def test_empty_utterance_exits_3(self, capsys, tmp_path):
        archive = write_archive_with_empty_utterance(tmp_path / "t.fbk", 4)
        code, _, err = run_cli(capsys, "train", "--seed", "1",
                               "--set", f"train_archive={archive}",
                               "--set", f"val_archive={archive}",
                               "--set", f"checkpoint={tmp_path / 'm.ckpt'}",
                               "--set", "depth=7", "--set", "num_classes=4")
        assert code == 3
        assert "'silent'" in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_missing_archive_exits_3(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "train",
                             "--set", f"train_archive={tmp_path / 'none.fbk'}",
                             "--set", f"checkpoint={tmp_path / 'm.ckpt'}")
        assert code == 3
