"""Train-mode work items on the shared pool: convolution panels of whole
images, batchnorm and ReLU channel chunks, and the OpenBLAS guard.

Items are fixed by shape, so results must be bitwise the same with one
worker or two and under any OpenBLAS thread count.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from damnet import layers
from damnet.builder import DenseNetConfig
from damnet.exceptions import DivergenceError
from damnet.layers import BatchNorm, Conv2d, ReLU, softmax_cross_entropy
from damnet.model import build_model
from damnet.trainer import FrameDataset, TrainConfig, train_epoch

# channel counts 8 + 6k and 4 * 6 = 24 wide bottlenecks: most are not a
# multiple of CHANNEL_CHUNK
PLAIN = DenseNetConfig(variant="plain", depth=7, growth_rate=6, compression=1.0,
                       num_classes=9, first_conv_channels=8)
BC = DenseNetConfig(variant="BC", depth=10, growth_rate=6, compression=0.5,
                    num_classes=9, first_conv_channels=10)


@pytest.fixture
def blas():
    """numpy's bundled OpenBLAS; its thread count is restored after the test."""
    lib = layers._openblas()
    if lib is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    saved = lib.scipy_openblas_get_num_threads64_()
    yield lib
    lib.scipy_openblas_set_num_threads64_(saved)


def use_cores(monkeypatch, count):
    monkeypatch.setattr(layers.os, "sched_getaffinity", lambda pid: set(range(count)))


def frames(n, num_classes, seed, dtype=np.float32):
    r = np.random.default_rng(seed)
    return r.standard_normal((n, 3, 11, 40)).astype(dtype), r.integers(0, num_classes, n)


def train_digest(config, n):
    """Hash of two train_epoch steps on an n-frame batch, then one direct
    step's logits and input gradient."""
    model = build_model(config, seed=4)
    x, y = frames(n, config.num_classes, seed=n)
    cfg = TrainConfig(batch_size=n, seed=0, deterministic=True)
    velocity = {}
    digest = hashlib.sha256()
    for epoch in (1, 2):
        metrics = train_epoch(model, FrameDataset(x, y), cfg, np.random.default_rng(epoch),
                              velocity=velocity, epoch=epoch)
        digest.update(repr(metrics).encode())
        for array in (model.tensors, model.grads, velocity["params"]):
            digest.update(array.tobytes())
    with layers.one_blas_thread():
        logits = model.forward(x, train=True)
        dx = model.backward(softmax_cross_entropy(logits, y)[1])
    digest.update(logits.tobytes())
    digest.update(np.ascontiguousarray(dx).tobytes())
    return digest.hexdigest()


class TestBitwiseAcrossCores:
    @pytest.mark.parametrize("n", [5, 100, 256])
    @pytest.mark.parametrize("config", [PLAIN, BC], ids=["plain", "BC"])
    def test_same_bits_for_any_workers_and_blas_threads(self, monkeypatch, blas, config, n):
        digests = {}
        for cores in (1, 2):
            use_cores(monkeypatch, cores)
            for threads in (1, 2):
                blas.scipy_openblas_set_num_threads64_(threads)
                digests[cores, threads] = train_digest(config, n)
        assert len(set(digests.values())) == 1, digests


def reference_conv(x, weight, pad):
    """Whole-batch direct convolution: out[o,n,y,x] = sum W[o,c,i,j] xp[c,n,y+i,x+j]."""
    k = weight.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = xp.shape[2] - k + 1, xp.shape[3] - k + 1
    out = np.zeros((weight.shape[0], x.shape[1], oh, ow))
    for i in range(k):
        for j in range(k):
            out += np.einsum("oc,cnhw->onhw", weight[:, :, i, j], xp[:, :, i : i + oh, j : j + ow])
    return out


def reference_conv_backward(x, weight, pad, dout):
    k = weight.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = dout.shape[2:]
    dw = np.zeros_like(weight)
    dxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            window = (slice(None), slice(None), slice(i, i + oh), slice(j, j + ow))
            dw[:, :, i, j] = np.einsum("onhw,cnhw->oc", dout, xp[window])
            dxp[window] += np.einsum("oc,onhw->cnhw", weight[:, :, i, j], dout)
    return dw, dxp[:, :, pad : xp.shape[2] - pad, pad : xp.shape[3] - pad]


def reference_batchnorm(x, gamma, beta, dout):
    """Unchunked train-mode batchnorm: output, dx, dgamma, dbeta, mean, var."""
    axes = (1, 2, 3)
    mean = x.mean(axis=axes, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=axes, keepdims=True)
    xhat = (x - mean) / np.sqrt(var + layers.BN_EPSILON)
    g = gamma.reshape(-1, 1, 1, 1)
    out = g * xhat + beta.reshape(-1, 1, 1, 1)
    dgamma = (dout * xhat).sum(axis=axes)
    dbeta = dout.sum(axis=axes)
    count = x.size // x.shape[0]
    dx = g / np.sqrt(var + layers.BN_EPSILON) * (
        dout - dbeta.reshape(g.shape) / count - xhat * dgamma.reshape(g.shape) / count)
    return out, dx, dgamma, dbeta, mean.ravel(), var.ravel()


def assert_close(got, want, rtol=1e-12):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(np.asarray(got) - want)) <= rtol * scale


class TestFloat64Reference:
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("n", [5, 37])
    @pytest.mark.parametrize("k,pad", [(3, 1), (3, 0), (1, 0)])
    def test_conv_matches_whole_batch_reference(self, monkeypatch, cores, n, k, pad):
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(n * 10 + k + pad)
        conv = Conv2d(13, 7, k, pad=pad, rng=r, dtype=np.float64)
        x = r.standard_normal((13, n, 9, 38))
        out = conv.forward(x, train=True)
        assert_close(out, reference_conv(x, conv.weight, pad))
        dout = r.standard_normal(out.shape)
        dx = conv.backward(dout)
        dw, dx_ref = reference_conv_backward(x, conv.weight, pad, dout)
        assert_close(conv.grad_weight, dw)
        assert_close(dx, dx_ref)

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("shape", [(21, 100, 9, 38), (21, 5, 9, 38), (19, 256, 2, 9)])
    def test_batchnorm_and_relu_match_unchunked_reference(self, monkeypatch, cores, shape):
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(shape[1])
        bn = BatchNorm(shape[0], dtype=np.float64)
        bn.gamma[...] = r.uniform(0.5, 1.5, shape[0])
        bn.beta[...] = r.standard_normal(shape[0])
        x = r.standard_normal(shape) * 3 + 1
        dout = r.standard_normal(shape)
        out_ref, dx_ref, dgamma, dbeta, mean, var = reference_batchnorm(x, bn.gamma, bn.beta, dout)
        assert_close(bn.forward(x, train=True), out_ref)
        assert_close(bn.backward(dout), dx_ref)
        assert_close(bn.grad_gamma, dgamma)
        assert_close(bn.grad_beta, dbeta)
        momentum = layers.BN_MOMENTUM
        assert_close(bn.running_mean, (1 - momentum) * mean)
        assert_close(bn.running_var, momentum + (1 - momentum) * var)
        relu = ReLU()
        np.testing.assert_array_equal(relu.forward(x, train=True), np.maximum(x, 0))
        np.testing.assert_array_equal(relu.backward(dout), dout * (x > 0))

    def test_items_split_the_batch_and_channels(self):
        # the shapes above do run as several items
        assert len(layers._chunks(37, layers.PANEL_FRAMES)) == 3
        assert [c.stop - c.start for c in layers._channel_chunks((21, 100, 9, 38))] == [8, 8, 5]


class TestBlasGuard:
    def test_train_epoch_steps_at_one_thread_and_restores(self, monkeypatch, blas):
        use_cores(monkeypatch, 2)
        blas.scipy_openblas_set_num_threads64_(2)
        model = build_model(PLAIN, seed=1)
        seen = []

        def forward(x, train):
            seen.append(blas.scipy_openblas_get_num_threads64_())
            return type(model).forward(model, x, train)

        monkeypatch.setattr(model, "forward", forward)
        x, y = frames(40, PLAIN.num_classes, seed=1)
        train_epoch(model, FrameDataset(x, y), TrainConfig(batch_size=16), np.random.default_rng(0))
        assert seen == [1, 1, 1]
        assert blas.scipy_openblas_get_num_threads64_() == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_restored_after_divergence(self, monkeypatch, blas):
        use_cores(monkeypatch, 2)
        blas.scipy_openblas_set_num_threads64_(2)
        model = build_model(PLAIN, seed=1)
        x = np.full((40, 3, 11, 40), np.nan, np.float32)
        with pytest.raises(DivergenceError):
            train_epoch(model, FrameDataset(x, np.zeros(40, np.int64)), TrainConfig(batch_size=16),
                        np.random.default_rng(0))
        assert blas.scipy_openblas_get_num_threads64_() == 2


class TestFanOut:
    def test_train_step_inside_a_pool_thread_finishes(self, monkeypatch):
        # the calling thread holds the BLAS guard while a pool thread runs the
        # other item, a whole train step with its own guard and fan-outs
        use_cores(monkeypatch, 2)
        want = train_digest(BC, 100)
        got = {}

        def run():
            layers.fan_out(lambda i: got.__setitem__(i, train_digest(BC, 100)), 2)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive(), "fan-out of train steps did not finish"
        assert got == {0: want, 1: want}

    def test_no_item_runs_twice_and_errors_reach_the_caller(self, monkeypatch):
        use_cores(monkeypatch, 2)
        done = np.zeros(50, np.int64)

        def work(i):
            done[i] += 1
            if i == 17:
                raise ValueError("item 17")

        with pytest.raises(ValueError, match="item 17"):
            layers.fan_out(work, len(done))
        assert done.max() == 1 and done[17] == 1

    def test_items_run_once_under_contention(self, monkeypatch):
        # more workers than cores and a tiny switch interval: an item handed
        # out twice or lost would leave a count other than the rounds run
        use_cores(monkeypatch, 4)
        counts = [0] * 1000
        rounds = 10

        def work(i):
            counts[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                layers.fan_out(work, len(counts))
        finally:
            sys.setswitchinterval(interval)
        assert counts == [rounds] * len(counts)
