import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damnet import layers
from damnet.builder import DenseNetConfig
from damnet.exceptions import ConfigError, DataError, DivergenceError, ShapeError
from damnet.features import FilterbankConfig, apply_cmvn, compute_cmvn_stats, splice_context
from damnet.formats import (
    Metrics,
    UtteranceFeatures,
    format_metrics_line,
    parse_metrics_line,
    write_archive,
)
from damnet.layers import softmax_cross_entropy
from damnet.model import build_model
from damnet.trainer import (
    FrameDataset,
    ScheduleState,
    TrainConfig,
    build_frame_dataset,
    evaluate,
    fit,
    make_synthetic_dataset,
    schedule_step,
    sgd_update,
    split_validation,
    train_epoch,
)


def rng(seed=0):
    return np.random.default_rng(seed)


SMALL_MODEL = DenseNetConfig(variant="C", depth=7, blocks=3, growth_rate=6,
                             compression=0.5, num_classes=5, first_conv_channels=8)


def small_dataset(num_classes=5, frames_per_class=6, separation=6.0, seed=0):
    utts = make_synthetic_dataset(num_classes, frames_per_class, separation, seed)
    return build_frame_dataset(utts)


class TestSgdUpdate:
    def test_plain_step(self):
        params = np.array([1.0])
        grads = np.array([0.5])
        sgd_update(params, grads, np.zeros(1), lr=0.1, momentum=0.0)
        assert params.item() == pytest.approx(0.95)

    def test_zero_grads_leave_params(self):
        params = np.array([2.0])
        velocity = np.array([0.4])
        sgd_update(params, np.array([0.0]), velocity, lr=0.1, momentum=0.5)
        assert velocity.item() == pytest.approx(0.2)  # decayed by momentum only
        assert params.item() == pytest.approx(2.2)    # moved by the velocity

    def test_matches_hand_recurrence(self):
        params = np.array([1.0])
        velocity = np.zeros(1)
        grads = [np.array([0.3]), np.array([-0.2])]
        for g in grads:
            sgd_update(params, g, velocity, lr=0.1, momentum=0.9)
        v1 = -0.1 * 0.3
        w1 = 1.0 + v1
        v2 = 0.9 * v1 - 0.1 * (-0.2)
        w2 = w1 + v2
        assert params.item() == pytest.approx(w2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sgd_update(np.zeros(3), np.zeros(4), np.zeros(3), 0.1, 0.0)


def no_frames():
    return FrameDataset(np.zeros((0, 3, 11, 40), np.float32), np.zeros(0, np.int64))


@pytest.mark.parametrize("call, error, message", [
    (lambda: FrameDataset(np.zeros((3, 3, 40), np.float32), np.zeros(3, np.int64)),
     ShapeError, "features must be"),
    (lambda: FrameDataset(np.zeros((3, 3, 11, 40), np.float32), np.zeros(2, np.int64)),
     ShapeError, "2 labels for 3 frames"),
    (lambda: sgd_update(np.zeros(2), np.zeros(2), np.zeros(2), -0.1, 0.9),
     ConfigError, "learning rate"),
    (lambda: train_epoch(build_model(SMALL_MODEL, seed=0), no_frames(), TrainConfig(), rng()),
     DataError, "empty training data"),
    (lambda: evaluate(build_model(SMALL_MODEL, seed=0), no_frames()),
     DataError, "empty evaluation data"),
    (lambda: split_validation([], 0.1, seed=0), DataError, "empty corpus"),
    (lambda: split_validation([UtteranceFeatures("u", np.zeros((1, 3, 40), np.float32),
                                                 np.zeros(1, np.int64))], 0.1, seed=0),
     DataError, "too short"),
], ids=["features-rank", "label-count", "negative-rate", "train-no-frames", "evaluate-no-frames",
        "split-no-utterances", "split-one-frame"])
def test_malformed_training_input_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_default_training_configuration():
    cfg = TrainConfig()
    assert cfg.initial_lr == 0.01
    assert cfg.batch_size == 256
    assert cfg.max_epochs == 20
    assert cfg.lr_halving_factor == 0.5
    assert cfg.lr_improvement_threshold == 0.002
    assert cfg.min_lr == 1e-5


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("cls,field", [
    (TrainConfig, "initial_lr"),
    (TrainConfig, "min_lr"),
    (TrainConfig, "lr_improvement_threshold"),
    (FilterbankConfig, "log_floor"),
    (FilterbankConfig, "frame_length_ms"),
    (FilterbankConfig, "frame_shift_ms"),
    (FilterbankConfig, "pre_emphasis"),
])
def test_validate_rejects_non_finite(cls, field, value):
    with pytest.raises(ConfigError, match=field):
        cls(**{field: value}).validate()


def test_validate_rejects_negative_seed():
    # numpy's generator would reject it only once fit seeds its shuffle
    with pytest.raises(ConfigError, match="seed"):
        TrainConfig(seed=-1).validate()
    model, data = build_model(SMALL_MODEL, seed=0), small_dataset()
    with pytest.raises(ConfigError, match="seed"):
        fit(model, data, data, TrainConfig(seed=-1, max_epochs=1))


class TestSchedule:
    CFG = TrainConfig()

    def test_steady_improvement_keeps_lr(self):
        state = ScheduleState(lr=0.01)
        loss = 3.0
        for _ in range(20):
            state, stop = schedule_step(state, loss, self.CFG)
            assert not stop
            assert state.lr == 0.01
            loss *= 0.9

    def test_halving_trace_after_stall(self):
        state = ScheduleState(lr=0.01)
        lrs = []
        losses = [3.0, 2.5, 2.0, 1.6, 1.5999, 1.55, 1.50, 1.46]  # stalls at epoch 5
        for loss in losses:
            state, stop = schedule_step(state, loss, self.CFG)
            lrs.append(state.lr)
            assert not stop
        assert lrs == [0.01, 0.01, 0.01, 0.01, 0.005, 0.0025, 0.00125, 0.000625]

    def test_stall_while_halving_stops(self):
        state = ScheduleState(lr=0.01)
        state, stop = schedule_step(state, 2.0, self.CFG)
        state, stop = schedule_step(state, 2.0, self.CFG)   # stall -> halving
        assert state.halving and not stop
        state, stop = schedule_step(state, 2.0, self.CFG)   # stall while halving
        assert stop

    def test_floor_stops(self):
        cfg = TrainConfig(min_lr=1e-5)
        state = ScheduleState(lr=1.5e-5, best_metric=1.0, halving=True)
        state, stop = schedule_step(state, 0.5, cfg)  # improving, but lr halves below floor
        assert state.lr < 1e-5 and stop

    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_lr_never_increases(self, losses):
        cfg = TrainConfig()
        state = ScheduleState(lr=cfg.initial_lr)
        previous = state.lr
        for loss in losses:
            state, stop = schedule_step(state, loss, cfg)
            assert 0 < state.lr <= previous
            previous = state.lr
            if stop:
                break


class TestMetricsLog:
    def test_round_trip(self):
        metrics = Metrics(epoch=3, lr=0.005, train_loss=1.25, train_accuracy=0.5,
                          val_loss=1.5, val_accuracy=0.4, seconds=12.345)
        line = format_metrics_line(metrics)
        assert len(line.split()) == 7
        parsed = parse_metrics_line(line)
        assert parsed.epoch == 3
        assert parsed.lr == pytest.approx(0.005)
        assert parsed.seconds == pytest.approx(12.345)

    @given(st.builds(Metrics, epoch=st.integers(-10**6, 10**6),
                     **{name: st.floats(allow_nan=False, allow_infinity=False)
                        for name in ("lr", "train_loss", "train_accuracy", "val_loss",
                                     "val_accuracy", "seconds")}))
    @settings(max_examples=200, deadline=None)
    def test_every_finite_line_reads_back(self, metrics):
        # the writer's rounding is the only change: 8 significant digits, and
        # the seconds to 3 decimals
        parsed = parse_metrics_line(format_metrics_line(metrics))
        rounded = [float(f"{getattr(metrics, name):.8g}") for name in
                   ("lr", "train_loss", "train_accuracy", "val_loss", "val_accuracy")]
        assert parsed == Metrics(metrics.epoch, *rounded, float(f"{metrics.seconds:.3f}"))

    def test_non_finite_value_is_refused_by_the_writer(self):
        # train_epoch leaves the validation fields at nan, which no line holds
        metrics = train_epoch(build_model(SMALL_MODEL, seed=0), small_dataset(),
                              TrainConfig(batch_size=8), rng(0))
        with pytest.raises(DataError, match="val_loss"):
            format_metrics_line(metrics)
        with pytest.raises(DataError, match="seconds"):
            format_metrics_line(replace(metrics, val_loss=1.0, val_accuracy=0.5,
                                        seconds=math.inf))

    def test_bad_line(self):
        # too few fields, a value that is no number, an epoch in Arabic-Indic digits
        for line in ["1 2 3", "1 0.01 x 0.5 1 0.5 0", "\u0661 0.01 1 0.5 1 0.5 0"]:
            with pytest.raises(DataError):
                parse_metrics_line(line)


class TestTrainEpoch:
    def test_zero_lr_leaves_parameters(self):
        data = small_dataset()
        model = build_model(SMALL_MODEL, seed=0)
        before = {k: v.copy() for k, v in model.named_params().items()}
        metrics = train_epoch(model, data, TrainConfig(batch_size=8), rng(0), lr=0.0)
        for name, tensor in model.named_params().items():
            np.testing.assert_array_equal(tensor, before[name])
        assert np.isfinite(metrics.train_loss)
        assert 0.0 <= metrics.train_accuracy <= 1.0

    def test_loss_decreases_over_first_epochs(self):
        data = small_dataset(separation=8.0)
        model = build_model(SMALL_MODEL, seed=1)
        cfg = TrainConfig(batch_size=8, seed=1)
        epoch_rng = rng(1)
        velocity = {}
        losses = []
        for epoch in range(1, 6):
            m = train_epoch(model, data, cfg, epoch_rng, lr=0.01,
                            velocity=velocity, epoch=epoch)
            losses.append(m.train_loss)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_deterministic_repeat(self):
        def run():
            data = small_dataset()
            model = build_model(SMALL_MODEL, seed=3)
            cfg = TrainConfig(batch_size=8, seed=3, deterministic=True)
            epoch_rng = rng(3)
            velocity = {}
            for epoch in range(2):
                train_epoch(model, data, cfg, epoch_rng, lr=0.01, velocity=velocity)
            return model

        a, b = run(), run()
        for name, tensor in a.named_tensors().items():
            np.testing.assert_array_equal(tensor, b.named_tensors()[name])

    def test_flat_update_matches_per_tensor_reference(self):
        # train_epoch updates the whole parameter arena with three vector ops;
        # sgd_update applied per named tensor on a copy must give the same bits
        data = small_dataset()
        model = build_model(SMALL_MODEL, seed=2)
        cfg = TrainConfig(batch_size=len(data), momentum=0.9)
        reference = {k: v.copy() for k, v in model.named_params().items()}
        velocity = {}
        reference_velocity = {k: np.zeros_like(v) for k, v in reference.items()}
        for epoch in range(2):
            train_epoch(model, data, cfg, rng(epoch), lr=0.05, velocity=velocity)
            for name, grad in model.named_grads().items():
                sgd_update(reference[name], grad.copy(), reference_velocity[name], 0.05,
                           cfg.momentum)
        for name, tensor in model.named_params().items():
            assert tensor.tobytes() == reference[name].tobytes(), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_batch(self):
        data = small_dataset()
        model = build_model(SMALL_MODEL, seed=0)
        fc = dict(model.stages())["classifier"].fc
        fc.weight[...] = np.inf
        with pytest.raises(DivergenceError) as err:
            train_epoch(model, data, TrainConfig(batch_size=8), rng(0), lr=0.01)
        assert err.value.batch_index == 0

    def test_geometry_mismatch(self):
        data = FrameDataset(np.zeros((4, 3, 9, 40), dtype=np.float32),
                            np.zeros(4, dtype=np.int64))
        model = build_model(SMALL_MODEL, seed=0)
        with pytest.raises(ShapeError):
            train_epoch(model, data, TrainConfig(), rng(0))


class TestEvaluate:
    @pytest.mark.parametrize("batch_size", [-5, 0])
    def test_rejects_batch_size_below_one(self, batch_size):
        # -5 would evaluate no frame and 0 would be range()'s ValueError
        with pytest.raises(ConfigError, match="batch_size"):
            evaluate(build_model(SMALL_MODEL, seed=0), small_dataset(), batch_size=batch_size)

    def test_uniform_logits_hit_chance(self):
        model = build_model(SMALL_MODEL, seed=0)
        fc = dict(model.stages())["classifier"].fc
        fc.weight[...] = 0.0
        fc.bias[...] = 0.0
        data = small_dataset(num_classes=5, frames_per_class=8, separation=0.0)
        result = evaluate(model, data)
        assert result.accuracy == pytest.approx(1.0 / 5.0)
        assert result.loss == pytest.approx(np.log(5.0), rel=1e-5)

    def test_pure_and_repeatable(self):
        model = build_model(SMALL_MODEL, seed=1)
        data = small_dataset()
        state_before = {k: v.copy() for k, v in model.named_state().items()}
        first = evaluate(model, data)
        second = evaluate(model, data)
        assert first.loss == second.loss
        assert first.accuracy == second.accuracy
        np.testing.assert_array_equal(first.confusion, second.confusion)
        for name, tensor in model.named_state().items():
            np.testing.assert_array_equal(tensor, state_before[name])

    def test_accuracy_matches_brute_force_count(self):
        model = build_model(SMALL_MODEL, seed=2)
        data = small_dataset(separation=2.0, seed=5)
        result = evaluate(model, data)
        errors = 0
        for i in range(len(data)):
            logits = model.forward(data.features[i : i + 1], train=False)
            if int(logits.argmax()) != int(data.labels[i]):
                errors += 1
        assert result.accuracy == pytest.approx(1.0 - errors / len(data))
        assert int(result.confusion.sum()) == len(data)

    def test_label_out_of_range(self):
        model = build_model(SMALL_MODEL, seed=0)
        data = FrameDataset(np.zeros((2, 3, 11, 40), dtype=np.float32),
                            np.array([0, 7], dtype=np.int64))
        with pytest.raises(DataError):
            evaluate(model, data)

    def test_concurrent_evaluations_on_one_model(self):
        model = build_model(SMALL_MODEL, seed=3)
        model.forward(small_dataset(seed=9).features, train=True)  # move running stats off init
        datasets = [small_dataset(frames_per_class=16, separation=2.0, seed=s) for s in (1, 2)]
        expected = [evaluate(model, data, batch_size=4) for data in datasets]
        state_before = {k: v.copy() for k, v in model.named_state().items()}

        # more threads than a small machine's cores, alternating datasets,
        # switching often so their forwards interleave layer by layer
        workers = 4
        results = [None] * workers
        start = threading.Barrier(workers, timeout=30)

        def run(i):
            start.wait()
            results[i] = evaluate(model, datasets[i % 2], batch_size=4)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, got in enumerate(results):
            want = expected[i % 2]
            assert got.loss == want.loss
            assert got.accuracy == want.accuracy
            np.testing.assert_array_equal(got.confusion, want.confusion)
        for name, tensor in model.named_state().items():
            np.testing.assert_array_equal(tensor, state_before[name])


C13_MODEL = DenseNetConfig(variant="C", depth=13, growth_rate=4, compression=0.5,
                            num_classes=10, first_conv_channels=8)


@pytest.fixture(scope="module")
def c13_model():
    model = build_model(C13_MODEL, seed=4)
    model.forward(small_dataset(seed=9).features, train=True)  # move running stats off init
    return model


def random_frames(size, seed=0, width=40):
    gen = rng(seed)
    return FrameDataset(gen.standard_normal((size, 3, 11, width)).astype(np.float32),
                        gen.integers(0, C13_MODEL.num_classes, size))


def whole_batch_reference(model, data, batch_size):
    """evaluate with every stage run on each whole batch in turn."""
    classes = model.config.num_classes
    confusion = np.zeros((classes, classes), dtype=np.int64)
    total_loss = 0.0
    for start in range(0, len(data), batch_size):
        targets = data.labels[start : start + batch_size]
        logits = data.features[start : start + batch_size].transpose(1, 0, 2, 3)
        for _, stage in model.stages():
            logits = stage.forward(logits, False)
        loss, _ = softmax_cross_entropy(logits, targets)
        total_loss += loss * len(targets)
        np.add.at(confusion, (targets, logits.argmax(axis=1)), 1)
    return total_loss / len(data), float(np.trace(confusion)) / len(data), confusion


def probe_shards(model, monkeypatch, probe):
    """Call ``probe(frames)`` as each infer shard enters the first stage that
    runs on the whole shard, not per panel."""
    stage = model.stages()[model._split][1]

    def forward(x, train=False):
        probe(x.shape[1])
        return type(stage).forward(stage, x, train)

    monkeypatch.setattr(stage, "forward", forward)


@pytest.fixture
def blas_threads():
    """Get the OpenBLAS thread count; set it to 2 for the test, restored after."""
    lib = layers._openblas()
    if lib is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    saved = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    yield lib.scipy_openblas_get_num_threads64_
    lib.scipy_openblas_set_num_threads64_(saved)


class TestShardedEvaluate:
    @pytest.mark.parametrize("blas", ["bundled", "missing"])
    @pytest.mark.parametrize("batch_size", [256, 100])
    @pytest.mark.parametrize("size", [1, 63, 64, 65, 200, 256, 257])
    def test_bitwise_equal_to_whole_batch_forwards(self, c13_model, monkeypatch,
                                                   size, batch_size, blas):
        if blas == "missing":
            monkeypatch.setattr(layers, "_openblas", lambda: None)
        data = random_frames(size, seed=size)
        result = evaluate(c13_model, data, batch_size=batch_size)
        loss, accuracy, confusion = whole_batch_reference(c13_model, data, batch_size)
        assert result.loss == loss
        assert result.accuracy == accuracy
        assert np.array_equal(result.confusion, confusion)

    def test_shards_run_with_one_blas_thread_and_restore_it(self, c13_model, monkeypatch,
                                                            blas_threads):
        # two usable cores even on a one-core runner, so the sharded path runs
        monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: {0, 1})
        seen = []
        probe_shards(c13_model, monkeypatch, lambda n: seen.append((n, blas_threads())))
        evaluate(c13_model, random_frames(200), batch_size=256)
        assert sorted(seen) == [(8, 1), (64, 1), (64, 1), (64, 1)]
        assert blas_threads() == 2

    def test_shard_error_reaches_caller_and_restores_blas(self, c13_model, monkeypatch,
                                                          blas_threads):
        monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ShapeError):
            evaluate(c13_model, random_frames(200, width=39))
        assert blas_threads() == 2

    def test_concurrent_sharded_calls_restore_blas(self, c13_model, monkeypatch,
                                                   blas_threads):
        monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: {0, 1})
        data = random_frames(200)
        expected = whole_batch_reference(c13_model, data, 256)[0]
        workers = 4
        losses = []
        start = threading.Barrier(workers, timeout=30)

        def run():
            start.wait()
            losses.extend(evaluate(c13_model, data).loss for _ in range(3))

        threads = [threading.Thread(target=run) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert losses == [expected] * (3 * workers)
        assert blas_threads() == 2

    def test_one_core_runs_shards_inline_without_blas(self, c13_model, monkeypatch):
        def no_lookup():
            raise AssertionError("OpenBLAS looked up on one core")

        monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(layers, "_openblas", no_lookup)
        sizes = []
        probe_shards(c13_model, monkeypatch, sizes.append)
        evaluate(c13_model, random_frames(257), batch_size=256)
        assert sizes == [64, 64, 64, 64, 1]

    @pytest.mark.parametrize("cores", [{0}, {0, 1}])
    @pytest.mark.parametrize("size", [100, 300, 230], ids=["one", "several", "partial"])
    def test_int64_counts_bitwise_on_one_and_two_cores(self, c13_model, monkeypatch,
                                                       cores, size):
        monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: cores)
        data = random_frames(size, seed=size)
        result = evaluate(c13_model, data, batch_size=100)
        loss, accuracy, confusion = whole_batch_reference(c13_model, data, 100)
        assert result.loss == loss
        assert result.accuracy == accuracy
        assert result.confusion.dtype == np.int64
        assert np.array_equal(result.confusion, confusion)

    def test_nan_batch_gives_a_non_finite_loss(self, c13_model):
        data = random_frames(70)
        data.features[66] = np.nan
        assert not math.isfinite(evaluate(c13_model, data, batch_size=64).loss)

    def test_misshaped_data_raises_before_the_counts_take_memory(self):
        # at 1,500 classes the counts are 18 MB of int64
        model = build_model(replace(SMALL_MODEL, num_classes=1500), seed=0)
        data = FrameDataset(np.zeros((4, 3, 11, 39), np.float32), np.zeros(4, np.int64))
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError):
                evaluate(model, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak} B"


class TestLossDecreaseSanity:
    def test_single_sample_step_decreases_loss(self):
        from damnet.layers import softmax_cross_entropy

        for seed in range(3):
            data = small_dataset(seed=seed)
            model = build_model(SMALL_MODEL, seed=seed)
            x = data.features[:1]
            y = data.labels[:1]
            logits = model.forward(x, train=True)
            loss_before, dlogits = softmax_cross_entropy(logits, y)
            model.backward(dlogits)
            grads = {k: g.copy() for k, g in model.named_grads().items()}
            snapshot = {k: v.copy() for k, v in model.named_params().items()}
            decreased = False
            for lr in (1e-3, 1e-4, 1e-5):
                for name, tensor in model.named_params().items():
                    tensor[...] = snapshot[name]
                for name, tensor in model.named_params().items():
                    sgd_update(tensor, grads[name], np.zeros_like(tensor), lr, 0.0)
                loss_after, _ = softmax_cross_entropy(model.forward(x, train=True), y)
                if loss_after < loss_before:
                    decreased = True
                    break
            assert decreased, f"seed {seed}: no lr in sweep decreased the loss"


class TestFit:
    def test_reaches_high_accuracy_on_separable_data(self):
        train = small_dataset(num_classes=3, frames_per_class=8, separation=8.0, seed=9)
        cfg = DenseNetConfig(variant="C", depth=7, blocks=3, growth_rate=6,
                             compression=0.5, num_classes=3, first_conv_channels=8)
        model = build_model(cfg, seed=9)
        history = fit(model, train, train, TrainConfig(batch_size=6, max_epochs=60, seed=9))
        assert max(m.train_accuracy for m in history) >= 0.99

    def test_best_validation_snapshot_restored(self):
        train = small_dataset(num_classes=5, frames_per_class=6, separation=4.0, seed=2)
        val = small_dataset(num_classes=5, frames_per_class=3, separation=4.0, seed=4)
        model = build_model(SMALL_MODEL, seed=2)
        history = fit(model, train, val, TrainConfig(batch_size=8, max_epochs=8, seed=2))
        best = min(history, key=lambda m: m.val_loss)
        result = evaluate(model, val, batch_size=8)
        assert result.loss == pytest.approx(best.val_loss, rel=1e-6)

    def test_non_finite_validation_loss_is_divergence(self):
        train = small_dataset(seed=2)
        val = FrameDataset(np.full((6, 3, 11, 40), np.nan, np.float32), np.zeros(6, np.int64))
        model = build_model(SMALL_MODEL, seed=2)
        with pytest.raises(DivergenceError, match="validation loss in epoch 1"):
            fit(model, train, val, TrainConfig(batch_size=8, max_epochs=3, seed=2))


class TestSplitValidation:
    def test_multi_utterance_split(self):
        utts = make_synthetic_dataset(5, 4, 1.0, seed=0)  # 5 utterances
        train, val = split_validation(utts, 0.2, seed=1)
        assert len(train) == 4 and len(val) == 1
        assert {u.utt_id for u in train} | {u.utt_id for u in val} == {u.utt_id for u in utts}

    def test_single_utterance_frame_split(self):
        utts = make_synthetic_dataset(2, 20, 1.0, seed=0)[:1]
        train, val = split_validation(utts, 0.1, seed=0)
        assert train[0].num_frames == 18
        assert val[0].num_frames == 2

    def test_deterministic(self):
        utts = make_synthetic_dataset(6, 3, 1.0, seed=0)
        a = split_validation(utts, 0.3, seed=7)
        b = split_validation(utts, 0.3, seed=7)
        assert [u.utt_id for u in a[1]] == [u.utt_id for u in b[1]]

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            split_validation(make_synthetic_dataset(2, 2, 0.0, 0), 1.5, seed=0)


class TestSyntheticData:
    def test_deterministic_archives(self, tmp_path):
        a_path, b_path = tmp_path / "a.fbk", tmp_path / "b.fbk"
        write_archive(make_synthetic_dataset(4, 5, 2.0, seed=11), a_path)
        write_archive(make_synthetic_dataset(4, 5, 2.0, seed=11), b_path)
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_separable_under_nearest_mean_oracle(self):
        utts = make_synthetic_dataset(10, 60, 5.0, seed=1)
        frames = np.concatenate([u.frames.reshape(u.num_frames, -1) for u in utts])
        labels = np.concatenate([u.labels for u in utts])
        train_mask = np.arange(len(frames)) % 2 == 0
        means = np.stack([frames[train_mask & (labels == c)].mean(axis=0)
                          for c in range(10)])
        test_frames, test_labels = frames[~train_mask], labels[~train_mask]
        distances = ((test_frames[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        accuracy = (distances.argmin(axis=1) == test_labels).mean()
        assert accuracy > 0.99

    def test_zero_separation_is_chance_under_oracle(self):
        utts = make_synthetic_dataset(10, 60, 0.0, seed=2)
        frames = np.concatenate([u.frames.reshape(u.num_frames, -1) for u in utts])
        labels = np.concatenate([u.labels for u in utts])
        train_mask = np.arange(len(frames)) % 2 == 0
        means = np.stack([frames[train_mask & (labels == c)].mean(axis=0)
                          for c in range(10)])
        distances = ((frames[~train_mask][:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        accuracy = (distances.argmin(axis=1) == labels[~train_mask]).mean()
        assert 0.0 <= accuracy < 0.25

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_synthetic_dataset(1, 5, 1.0, seed=0)
        with pytest.raises(ConfigError):
            make_synthetic_dataset(5, 5, -1.0, seed=0)


class TestBuildFrameDataset:
    def test_missing_labels_rejected(self):
        utts = make_synthetic_dataset(2, 3, 1.0, seed=0)
        utts[0].labels = None
        with pytest.raises(DataError):
            build_frame_dataset(utts)

    def test_empty_utterance_named(self):
        utts = make_synthetic_dataset(2, 3, 1.0, seed=0)
        utts.insert(1, UtteranceFeatures("silent", np.zeros((0, 3, 40), np.float32),
                                         np.zeros(0, np.int64)))
        with pytest.raises(DataError, match="'silent'"):
            build_frame_dataset(utts)

    def test_shapes(self):
        utts = make_synthetic_dataset(3, 4, 1.0, seed=0)
        data = build_frame_dataset(utts)
        assert data.features.shape == (12, 3, 11, 40)
        assert data.features.dtype == np.float32
        assert data.labels.shape == (12,)

    @pytest.mark.parametrize("left, right", [(5, 5), (0, 0), (3, 1)])
    @pytest.mark.parametrize("normalise", [False, True])
    def test_bitwise_equal_to_concatenated_splices(self, left, right, normalise):
        generator = rng(3)
        utts = [
            UtteranceFeatures(f"u{i}", generator.standard_normal((t, 3, 40)).astype(dtype),
                              generator.integers(0, 9, t))
            for i, (t, dtype) in enumerate([(1, np.float32), (17, np.float64),
                                            (1, np.float64), (40, np.float32)])
        ]
        stats = compute_cmvn_stats(utts) if normalise else None
        expected = np.concatenate([
            splice_context(apply_cmvn(u.frames, stats) if normalise else u.frames, left, right)
            for u in utts
        ]).astype(np.float32)
        data = build_frame_dataset(utts, stats, left, right)
        assert data.features.dtype == expected.dtype
        assert data.features.shape == expected.shape
        assert data.features.tobytes() == expected.tobytes()
        assert data.labels.dtype == np.int64
        np.testing.assert_array_equal(data.labels, np.concatenate([u.labels for u in utts]))

    def test_mixed_geometry_names_first_mismatch(self):
        utts = make_synthetic_dataset(3, 4, 1.0, seed=0)
        utts[1] = UtteranceFeatures("narrow", np.zeros((4, 3, 20), np.float32),
                                    np.zeros(4, np.int64))
        utts[2] = UtteranceFeatures("flat", np.zeros((4, 1, 40), np.float32),
                                    np.zeros(4, np.int64))
        with pytest.raises(ShapeError, match="'narrow'"):
            build_frame_dataset(utts)

    @pytest.mark.parametrize("left, right", [(-1, 5), (5, -7)])
    def test_negative_context_rejected(self, left, right):
        with pytest.raises(ConfigError):
            build_frame_dataset(make_synthetic_dataset(2, 3, 1.0, seed=0), None, left, right)

    def test_an_array_past_the_address_space_is_a_data_error(self):
        # numpy refuses 2^60 context frames before allocating anything
        with pytest.raises(DataError, match=r"6 frames of \(3, 1152921504606846977, 40\) float32 "
                                            r"features \(3320413933267719293760 bytes\)"):
            build_frame_dataset(make_synthetic_dataset(2, 3, 1.0, seed=0), None, 2**60, 0)

    def test_peak_memory_is_output_plus_one_utterance(self):
        generator = rng(5)
        utts = [UtteranceFeatures(f"u{i}", generator.standard_normal((200, 3, 40), np.float32),
                                  generator.integers(0, 9, 200))
                for i in range(20)]
        stats = compute_cmvn_stats(utts)
        # one utterance's spliced float32 rows; splice_context holds two such
        # arrays at once (the gather and its contiguous transpose)
        utterance_bytes = 200 * 3 * 11 * 40 * 4
        tracemalloc.start()
        try:
            data = build_frame_dataset(utts, stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= data.features.nbytes + 3 * utterance_bytes, (
            f"peak {peak} B for a {data.features.nbytes} B dataset")
