"""Train-mode buffers: per-layer step state and per-thread scratch.

A train-mode result is a view into scratch that the next train call in the
same thread overwrites, so every test here copies what it keeps.
"""

import math
import sys
import threading

import numpy as np
import pytest

from damnet import layers, model as model_module
from damnet.builder import DenseNetConfig
from damnet.exceptions import ShapeError
from damnet.layers import softmax_cross_entropy
from damnet.model import build_model

C_SMALL = DenseNetConfig(variant="C", depth=13, growth_rate=4, compression=0.5,
                         num_classes=10, first_conv_channels=8)
BC_SMALL = DenseNetConfig(variant="BC", depth=16, growth_rate=4, compression=0.5,
                          num_classes=7, first_conv_channels=8)
C13 = DenseNetConfig(variant="C", depth=13, compression=0.5, num_classes=10)
PLAIN_SMALL = DenseNetConfig(variant="plain", depth=13, growth_rate=4, num_classes=5)


def batch(frames, num_classes, seed):
    r = np.random.default_rng(seed)
    return (r.standard_normal((frames, 3, 11, 40), dtype=np.float32),
            r.integers(0, num_classes, frames))


def finish_step(model, logits, y):
    """Backward and an SGD update; returns copies of the logits, the input
    gradient and the parameter gradients."""
    dx = model.backward(softmax_cross_entropy(logits, y)[1]).copy()
    grads = model.grads.copy()
    model.params -= 0.01 * model.grads
    return logits.copy(), dx, grads


def train_alone(config, seed, sizes):
    model = build_model(config, seed)
    results = []
    for step, frames in enumerate(sizes):
        x, y = batch(frames, config.num_classes, seed * 100 + step)
        results.append(finish_step(model, model.forward(x, train=True), y))
    return results


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for step, (a, b) in enumerate(zip(got, want)):
        for name, u, v in zip(("logits", "dx", "grads"), a, b):
            assert u.dtype == v.dtype and u.shape == v.shape, (step, name)
            assert u.tobytes() == v.tobytes(), (step, name)


class TestTrainWorkspace:
    @pytest.mark.parametrize("config", [C_SMALL, BC_SMALL], ids=["C", "BC"])
    def test_partial_batch_matches_fresh_model(self, config):
        model = build_model(config, seed=1)
        for step in range(2):
            x, y = batch(256, config.num_classes, step)
            finish_step(model, model.forward(x, train=True), y)
        fresh = build_model(config, seed=2)
        fresh.tensors[...] = model.tensors
        x, y = batch(100, config.num_classes, 9)
        assert_bitwise([finish_step(model, model.forward(x, train=True), y)],
                       [finish_step(fresh, fresh.forward(x, train=True), y)])
        np.testing.assert_array_equal(model.tensors, fresh.tensors)

    def test_interleaved_models_in_one_thread(self):
        sizes = (64, 64, 40)
        a, b = build_model(C_SMALL, 1), build_model(BC_SMALL, 2)
        got_a, got_b = [], []
        for step, frames in enumerate(sizes):
            xa, ya = batch(frames, C_SMALL.num_classes, 100 + step)
            xb, yb = batch(frames, BC_SMALL.num_classes, 200 + step)
            logits_a = a.forward(xa, train=True)
            logits_b = b.forward(xb, train=True)
            got_b.append(finish_step(b, logits_b, yb))
            got_a.append(finish_step(a, logits_a, ya))
        assert_bitwise(got_a, train_alone(C_SMALL, 1, sizes))
        assert_bitwise(got_b, train_alone(BC_SMALL, 2, sizes))

    def test_models_in_two_threads(self):
        sizes = (64, 40, 64)
        jobs = [(C_SMALL, 1), (BC_SMALL, 2)]
        want = [train_alone(config, seed, sizes) for config, seed in jobs]
        got = [None] * len(jobs)
        start = threading.Barrier(len(jobs), timeout=30)

        def run(i):
            start.wait()
            got[i] = train_alone(*jobs[i], sizes)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for results, expected in zip(got, want):
            assert_bitwise(results, expected)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_minflt counts minor faults on Linux only")
    def test_steady_state_step_does_not_fault(self):
        import resource

        # a step that allocates its activations again takes 10,000-17,000
        # minor faults with glibc, which hands freed large blocks back to the
        # kernel; with fixed-lifetime buffers it takes none
        bound = 1000
        model = build_model(C13, seed=0)
        x, y = batch(256, C13.num_classes, 0)
        for _ in range(2):
            finish_step(model, model.forward(x, train=True), y)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        finish_step(model, model.forward(x, train=True), y)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < bound, f"{faults} minor faults in a steady-state step"

    def test_dense_block_backward_holds_no_unit_input_gradient(self, monkeypatch):
        # a unit's first conv adds its input gradient into the block's
        # gradient buffer panel by panel, so apart from that buffer no
        # scratch request of the calling thread is as large as a unit's
        # full-batch input gradient; 128 frames split each channel chunk of
        # the block input, so the pool threads take all its items
        monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: {0, 1})
        model = build_model(PLAIN_SMALL, seed=0)
        x, y = batch(128, PLAIN_SMALL.num_classes, 0)
        logits = model.forward(x, train=True)
        block, caller, channel_bytes, requests = model.blocks[0], threading.get_ident(), [], []

        def record(name, shape, dtype, scratch=layers.scratch):
            if channel_bytes and threading.get_ident() == caller:
                requests.append((name, math.prod(shape) * np.dtype(dtype).itemsize))
            return scratch(name, shape, dtype)

        def traced(dout, backward=block.backward):
            channel_bytes.append(dout.nbytes // dout.shape[0])
            return backward(dout)

        block.backward = traced
        monkeypatch.setattr(layers, "scratch", record)
        monkeypatch.setattr(model_module, "scratch", record)
        model.backward(softmax_cross_entropy(logits, y)[1])
        assert [name for name, _ in requests].count("block") == 1
        # the smallest unit input gradient, the first unit's: the block input's width
        smallest = block.in_channels * channel_bytes[0]
        assert max(size for name, size in requests if name != "block") < smallest, requests


class TestConvOutputBuffer:
    """Every conv's train output, and its input gradient without a
    destination, is one per-thread buffer, so a conv refuses to read an
    array there that it would overwrite."""

    def convs(self):
        r = np.random.default_rng(0)
        x = r.standard_normal((4, 2, 3, 5), dtype=np.float32)
        return (layers.Conv2d(4, 4, 3, pad=1, rng=r), layers.Conv2d(4, 4, 1, rng=r), x)

    def test_forward_refuses_a_train_output(self):
        first, second, x = self.convs()
        out = first.forward(x, train=True)
        with pytest.raises(ShapeError, match="copy a train-mode result"):
            second.forward(out, train=True)
        second.forward(out.copy(), train=True)

    def test_backward_refuses_a_train_output_as_dout(self):
        first, second, x = self.convs()
        second.forward(x, train=True)
        out = first.forward(x, train=True)
        with pytest.raises(ShapeError, match="copy a train-mode result"):
            second.backward(out)
        second.backward(out.copy())
