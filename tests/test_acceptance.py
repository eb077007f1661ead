"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is the criterion's stated one.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from damnet.builder import (
    DenseNetConfig,
    block_connection_count,
    bottleneck_pairs_per_block,
    layers_per_block,
    plan_architecture,
    transition_output_channels,
)
from damnet.cli import main
from damnet.exceptions import ConfigError
from damnet.features import (
    FilterbankConfig,
    append_deltas,
    apply_cmvn,
    compute_cmvn_stats,
    compute_logmel,
    splice_context,
)
from damnet.formats import read_archive, write_archive
from damnet.gradcheck import GRADCHECK_TOLERANCE, gradcheck_report
from damnet.model import DenseBlock, build_model, count_parameters
from damnet.trainer import (
    TrainConfig,
    build_frame_dataset,
    evaluate,
    fit,
    make_synthetic_dataset,
    train_epoch,
)


def report(number, name, detail=""):
    suffix = f" - {detail}" if detail else ""
    print(f"CRITERION {number} ({name}): PASS{suffix}")


def machine_stages(out):
    stages = []
    for line in out.strip().splitlines():
        if line.startswith("#") or line.startswith("total\t"):
            continue
        stages.append(line.split("\t"))
    return stages


def test_criterion_1_shape_table_reproduction(capsys):
    started = time.perf_counter()
    expected_sizes = ["9x38", "9x38", "4x19", "4x19", "2x9", "2x9", "1x1"]
    for variant, compression, block_desc in (
        ("plain", "1.0", "3x3 conv x6"),
        ("C", "0.5", "3x3 conv x6"),
        ("BC", "0.5", "1x1 conv, 3x3 conv x3"),
    ):
        code = main(["inspect", "--machine",
                     "--set", f"variant={variant}",
                     "--set", f"compression={compression}",
                     "--set", "depth=22", "--set", "blocks=3",
                     "--set", "input_channels=3", "--set", "input_height=11",
                     "--set", "input_width=40"])
        out = capsys.readouterr().out
        assert code == 0
        stages = machine_stages(out)
        assert [s[3] for s in stages] == expected_sizes, variant
        blocks = [s for s in stages if s[1] == "dense-block"]
        assert len(blocks) == 3
        assert all(s[2] == block_desc for s in blocks), variant
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"inspect took {elapsed:.2f}s"
    with capsys.disabled():
        report(1, "shape-table reproduction",
               f"3 variants, output sizes {expected_sizes}, {elapsed * 1000:.0f} ms")


def test_criterion_2_layer_count_arithmetic(capsys):
    assert layers_per_block(22, 3) == 6
    assert bottleneck_pairs_per_block(22, 3) == 3
    assert layers_per_block(41, 4) == 9
    with capsys.disabled():
        report(2, "layer-count arithmetic", "(22-4)/3=6, 6/2=3 pairs, (41-5)/4=9")


TABLE4 = {
    "plain-3db": (DenseNetConfig(variant="plain", depth=41, blocks=3, growth_rate=12,
                                 compression=1.0, num_classes=1500,
                                 first_conv_channels=16), 1_600_000),
    "C-3db": (DenseNetConfig(variant="C", depth=41, blocks=3, growth_rate=12,
                             compression=0.5, num_classes=1500,
                             first_conv_channels=16), 914_000),
    "C-4db": (DenseNetConfig(variant="C", depth=41, blocks=4, growth_rate=12,
                             compression=0.5, num_classes=1500,
                             first_conv_channels=16), 661_000),
    "BC-3db": (DenseNetConfig(variant="BC", depth=41, blocks=3, growth_rate=12,
                              compression=0.5, num_classes=1500,
                              first_conv_channels=16), 387_000),
}


def _random_config(r):
    variant = r.choice(["plain", "C", "BC"])
    blocks = int(r.integers(1, 4))
    units = int(r.integers(1, 5))
    layers = units * 2 if variant == "BC" else units
    return DenseNetConfig(
        variant=variant, depth=blocks * layers + blocks + 1, blocks=blocks,
        growth_rate=int(r.integers(4, 17)),
        compression=1.0 if variant == "plain" else float(r.choice([0.4, 0.5, 0.8])),
        num_classes=int(r.integers(5, 41)),
        first_conv_channels=int(r.integers(8, 25)),
    )


def test_criterion_3_parameter_count_oracle(capsys):
    started = time.perf_counter()
    totals = {}
    for key, (config, published) in TABLE4.items():
        table = plan_architecture(config)
        walked = count_parameters(build_model(config, seed=0))
        assert walked.total == table.total_params, key
        assert walked.per_stage == table.stage_params(), key
        totals[key] = walked.total
        ratio = walked.total / published
        assert 0.75 <= ratio <= 1.25, f"{key}: {walked.total} vs published {published}"
    assert totals["plain-3db"] > totals["C-3db"] > totals["C-4db"] > totals["BC-3db"]
    r = np.random.default_rng(123)
    for _ in range(20):
        config = _random_config(r)
        assert plan_architecture(config).total_params == \
            count_parameters(build_model(config, seed=1)).total
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"parameter-count checks took {elapsed:.2f}s"
    with capsys.disabled():
        report(3, "parameter counts vs published table",
               f"{totals} ordered, within 25%, analytic==walked for 20 random configs, "
               f"{elapsed:.2f}s")


def test_criterion_4_compression_law(capsys):
    started = time.perf_counter()
    checked = 0
    for tenths in range(1, 10):
        theta = tenths / 10.0
        for channels in range(1, 513):
            expected = int(Fraction(tenths, 10) * channels)  # exact floor oracle
            if expected == 0:
                with pytest.raises(ConfigError):
                    transition_output_channels(channels, theta)
            else:
                assert transition_output_channels(channels, theta) == expected
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"compression sweep took {elapsed:.2f}s"
    with capsys.disabled():
        report(4, "compression law", f"{checked} (theta, channels) pairs, exact")


def test_criterion_5_connectivity(capsys):
    rng = np.random.default_rng(0)
    three = DenseBlock(16, 12, 3, bottleneck=False, rng=rng, dtype=np.float32)
    assert three.wiring_edge_count() == 6
    for num_layers in range(1, 13):
        block = DenseBlock(8, 4, num_layers, bottleneck=False, rng=rng, dtype=np.float32)
        assert block.wiring_edge_count() == num_layers * (num_layers + 1) // 2
        assert block.wiring_edge_count() == block_connection_count(num_layers)
    with capsys.disabled():
        report(5, "dense connectivity", "3-layer block has 6 edges; L(L+1)/2 for L in 1..12")


def test_criterion_6_gradient_verification(capsys):
    started = time.perf_counter()
    results = gradcheck_report(seed=20, instances=10)
    elapsed = time.perf_counter() - started
    assert len(results) == 8
    for name, err in results.items():
        assert err < GRADCHECK_TOLERANCE, f"{name}: {err:.3e}"
    assert elapsed < 60.0, f"gradient checks took {elapsed:.2f}s"
    with capsys.disabled():
        worst = max(results.values())
        report(6, "gradient verification",
               f"8 primitives x 10 instances, worst {worst:.2e} < 1e-4, {elapsed:.1f}s")


DESK_MODEL = DenseNetConfig(variant="C", depth=13, blocks=3, growth_rate=12,
                            compression=0.5, num_classes=10)


def _sixty_four_frames(separation, seed):
    utts = make_synthetic_dataset(10, 7, separation, seed=seed)
    data = build_frame_dataset(utts)
    picked = np.random.default_rng(seed).permutation(len(data))[:64]
    return data.subset(picked)


def test_criterion_7_desk_scale_learning(capsys):
    started = time.perf_counter()

    # (a) 64 well-separated frames: >= 99% training accuracy within 200
    # epochs at the initial learning rate 0.01.
    train = _sixty_four_frames(separation=6.0, seed=7)
    model = build_model(DESK_MODEL, seed=7)
    cfg = TrainConfig(initial_lr=0.01, batch_size=8, max_epochs=200, seed=7)
    epoch_rng = np.random.default_rng(7)
    velocity = {}
    reached = None
    for epoch in range(1, 201):
        metrics = train_epoch(model, train, cfg, epoch_rng, lr=0.01,
                              velocity=velocity, epoch=epoch)
        if metrics.train_accuracy >= 0.99:
            reached = epoch
            break
    assert reached is not None, "did not reach 99% training accuracy in 200 epochs"

    # (b) separation 0: the schedule stops the run early and accuracy on
    # separation-0 data stays chance-level (chance = 0.1 for 10 classes).
    train0 = _sixty_four_frames(separation=0.0, seed=7)
    val0 = build_frame_dataset(make_synthetic_dataset(10, 5, 0.0, seed=8))
    model0 = build_model(DESK_MODEL, seed=7)
    history = fit(model0, train0, val0, TrainConfig(initial_lr=0.01, batch_size=8,
                                                    max_epochs=200, seed=7))
    fresh0 = build_frame_dataset(make_synthetic_dataset(10, 100, 0.0, seed=9))
    accuracy = evaluate(model0, fresh0).accuracy
    assert 0.05 <= accuracy <= 0.20, f"separation-0 accuracy {accuracy:.3f}"

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"desk-scale run took {elapsed:.1f}s"
    with capsys.disabled():
        report(7, "desk-scale learning",
               f"99% at epoch {reached}; separation-0 accuracy {accuracy:.3f} "
               f"in [0.05, 0.20] after {len(history)} epochs; {elapsed:.1f}s")


def test_criterion_8_feature_pipeline_properties(tmp_path, capsys):
    # delta of a constant input is exactly zero
    constant = np.full((25, 40), 1.5, dtype=np.float32)
    with_deltas = append_deltas(constant)
    assert np.all(with_deltas[:, 1:] == 0.0)

    # one second at 16 kHz -> 98 frames
    cfg = FilterbankConfig()
    logmel = compute_logmel(np.zeros(16000), cfg)
    assert logmel.shape == (98, 40)

    # splicing preserves the frame count and builds 3x11x40 tensors
    spliced = splice_context(append_deltas(logmel), 5, 5)
    assert spliced.shape == (98, 3, 11, 40)

    # post-normalization per-coefficient mean below 1e-5
    utts = make_synthetic_dataset(4, 40, 2.0, seed=5)
    stats = compute_cmvn_stats(utts)
    normalized = np.concatenate([apply_cmvn(u.frames, stats) for u in utts])
    worst_mean = float(np.abs(normalized.mean(axis=0)).max())
    assert worst_mean < 1e-5

    # archive round-trip is bit-exact
    path_a, path_b = tmp_path / "a.fbk", tmp_path / "b.fbk"
    write_archive(utts, path_a)
    write_archive(read_archive(path_a), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    restored = read_archive(path_a)
    for original, loaded in zip(utts, restored):
        assert original.utt_id == loaded.utt_id
        np.testing.assert_array_equal(original.frames, loaded.frames)
        np.testing.assert_array_equal(original.labels, loaded.labels)

    with capsys.disabled():
        report(8, "feature-pipeline properties",
               f"zero deltas, 98 frames, 3x11x40 splice, |mean| {worst_mean:.1e}, "
               "bit-exact archive")


def test_criterion_9_deterministic_training(tmp_path, capsys):
    archive = tmp_path / "train.fbk"
    code = main(["synthdata", "--seed", "6",
                 "--set", f"output_archive={archive}",
                 "--set", "synth_classes=6", "--set", "synth_frames_per_class=10",
                 "--set", "synth_separation=4.0"])
    capsys.readouterr()
    assert code == 0

    outputs = []
    for run in ("one", "two"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        code = main(["train", "--seed", "11", "--deterministic",
                     "--set", f"train_archive={archive}",
                     "--set", f"val_archive={archive}",
                     "--set", f"checkpoint={run_dir / 'model.ckpt'}",
                     "--set", f"metrics_log={run_dir / 'metrics.log'}",
                     "--set", "variant=C", "--set", "depth=7",
                     "--set", "growth_rate=6", "--set", "compression=0.5",
                     "--set", "first_conv_channels=8", "--set", "num_classes=6",
                     "--set", "batch_size=16", "--set", "max_epochs=3"])
        capsys.readouterr()
        assert code == 0
        outputs.append(((run_dir / "model.ckpt").read_bytes(),
                        (run_dir / "metrics.log").read_bytes()))

    assert outputs[0][0] == outputs[1][0], "checkpoints differ between runs"
    assert outputs[0][1] == outputs[1][1], "metrics logs differ between runs"
    with capsys.disabled():
        report(9, "deterministic training",
               f"identical checkpoints ({len(outputs[0][0])} bytes) and metrics logs")
