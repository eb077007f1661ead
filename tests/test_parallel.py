"""Work items on the shared pool: convolution panels of whole images in
both modes, train-mode batchnorm and pool channel chunks, and the OpenBLAS
guard.

Items are fixed by shape, so training results must be bitwise the same with
one worker or two and under any OpenBLAS thread count, and a frame's infer
logits must not depend on its batch.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from damnet import layers
from damnet.builder import DenseNetConfig
from damnet.exceptions import DivergenceError
from damnet.layers import BatchNorm, Conv2d, softmax_cross_entropy
from damnet.model import build_model
from damnet.trainer import FrameDataset, TrainConfig, train_epoch

# channel counts 8 + 6k and 4 * 6 = 24 wide bottlenecks: most are not a
# multiple of CHANNEL_CHUNK
PLAIN = DenseNetConfig(variant="plain", depth=7, growth_rate=6, compression=1.0,
                       num_classes=9, first_conv_channels=8)
BC = DenseNetConfig(variant="BC", depth=10, growth_rate=6, compression=0.5,
                    num_classes=9, first_conv_channels=10)
# 64 -> 48 channel 1x1 bottlenecks, a size whose float64 GEMMs OpenBLAS can
# round differently on one thread and on several
WIDE_BC = DenseNetConfig(variant="BC", depth=8, blocks=1, growth_rate=12, compression=0.5,
                         num_classes=9, first_conv_channels=64)


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
    @pytest.mark.parametrize("cores,train", [(1, True), (2, True), (1, False), (2, False)],
                             ids=["1", "2", "1-infer", "2-infer"])
    @pytest.mark.parametrize("n", [5, 37])
    # at 2x9, 1x4 and 1x1 with pad 1 a panel's GEMM reads the next image's
    # shared padding, at 1x1 three of its four grid columns
    @pytest.mark.parametrize("k,pad,extent", [
        pytest.param(3, 1, (9, 38), id="3-1"), pytest.param(3, 0, (9, 38), id="3-0"),
        pytest.param(1, 0, (9, 38), id="1-0"), pytest.param(3, 1, (2, 9), id="3-1-2x9"),
        pytest.param(3, 1, (1, 4), id="3-1-1x4"), pytest.param(3, 1, (1, 1), id="3-1-1x1"),
    ])
    def test_conv_matches_whole_batch_reference(self, monkeypatch, cores, train, n, k, pad,
                                                extent):
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(n * 10 + k + pad)
        conv = Conv2d(13, 7, k, pad=pad, rng=r, dtype=np.float64)
        x = r.standard_normal((13, n, *extent))
        out = conv.forward(x, train=train)
        assert_close(out, reference_conv(x, conv.weight, pad))
        if not train:
            return
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
        # the ReLU after the batchnorm masks its output gradient
        relu_out = np.maximum(reference_batchnorm(x, bn.gamma, bn.beta, dout)[0], 0)
        out_ref, dx_ref, dgamma, dbeta, mean, var = reference_batchnorm(
            x, bn.gamma, bn.beta, dout * (relu_out > 0))
        gamma, beta = (v.reshape(-1, 1, 1, 1) for v in (bn.gamma, bn.beta))
        assert_close(bn.forward(x, train=True) * gamma + beta, out_ref)
        dx = bn.backward(dout, relu_out)
        assert np.shares_memory(dx, dout)  # finished in place, by ``project``
        assert_close(dx, dx_ref)
        assert_close(bn.grad_gamma, dgamma)
        assert_close(bn.grad_beta, dbeta)
        momentum = layers.BN_MOMENTUM
        assert_close(bn.running_mean, (1 - momentum) * mean)
        assert_close(bn.running_var, momentum + (1 - momentum) * var)

    def test_items_split_the_batch_and_channels(self):
        # the shapes above do run as several items
        assert len(layers._chunks(37, layers.PANEL_FRAMES)) == 3
        assert [c.stop - c.start for c in layers._channel_chunks((21, 100, 9, 38))] == [8, 8, 5]


class TestUnpaddedGrid:
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("fused", [False, True], ids=["plain", "scale-shift"])
    def test_grid_and_results_are_c_contiguous(self, monkeypatch, cores, fused):
        # the grid is the (C, N*H*W) input, or its ReLU output, with no padding
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(8)
        conv = Conv2d(5, 4, 3, pad=1, rng=r)
        scale = r.uniform(0.5, 1.5, (5, 1, 1, 1)).astype(np.float32)
        shift = r.normal(1.0, 0.5, (5, 1, 1, 1)).astype(np.float32)
        for n in (37, 37, 20, 20):  # the batch-size change replaces the step state
            x = (r.standard_normal((5, n, 4, 7)) + 3).astype(np.float32)
            out = conv.forward(x, True, *((scale.ravel(), shift.ravel()) if fused else ()))
            grid, kept = conv._cache[0], conv.kept_input()
            assert grid.shape == (5, n * 4 * 7) and grid.flags.c_contiguous
            assert kept.flags.c_contiguous and np.shares_memory(grid, kept)
            np.testing.assert_array_equal(kept, np.maximum(x * scale + shift, 0) if fused else x)
            assert out.shape == (4, n, 4, 7) and out.flags.c_contiguous
            dx = conv.backward(r.standard_normal(out.shape).astype(np.float32))
            assert dx.shape == x.shape and dx.flags.c_contiguous


def random_batchnorm(r, channels, dtype):
    bn = BatchNorm(channels, dtype=dtype)
    bn.gamma[...] = r.uniform(0.5, 1.5, channels) * r.choice([-1.0, 1.0], channels)
    bn.beta[...] = r.normal(0.0, 0.5, channels)
    bn.running_mean[...] = r.normal(0.0, 0.5, channels)
    bn.running_var[...] = r.uniform(0.5, 2.0, channels)
    return bn


def explicit_relu(bn, x, train):
    """The ReLU output after ``bn`` as standalone arithmetic: its scale and
    shift applied to what its forward returns, then ``np.maximum``."""
    scale, shift = (bn.gamma, bn.beta) if train else bn.folded()
    pre = bn.forward(x, train) * scale.reshape(-1, 1, 1, 1) + shift.reshape(-1, 1, 1, 1)
    return np.maximum(pre, 0)


class TestFusedPreActivation:
    """Each BN -> ReLU of a dense unit runs inside the panels of the conv
    after it, and its mask is read back from the conv's grid; standalone
    arithmetic is the reference."""

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "infer"])
    @pytest.mark.parametrize("n", [5, 37])
    @pytest.mark.parametrize("k,pad", [(3, 1), (1, 0)])
    def test_fused_forward_matches_explicit_chain(self, monkeypatch, cores, train, n, k, pad):
        # the same arithmetic in the same order: equal in float32
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(n * 10 + k)
        bn = random_batchnorm(r, 13, np.float32)
        conv = Conv2d(13, 7, k, pad=pad, rng=r)
        x = (r.standard_normal((13, n, 9, 38)) * 2 + 0.5).astype(np.float32)
        explicit = conv.forward(explicit_relu(bn, x, train), train).copy()
        if train:  # the grid holds the ReLU output: the fused forward must write it anew
            conv.kept_input()[...] = np.nan
            fused = conv.forward(bn._cache[0], True, bn.gamma, bn.beta)
        else:
            fused = conv.forward(x, False, *bn.folded())
        np.testing.assert_array_equal(fused, explicit)

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_grid_mask_backward_matches_stored_mask(self, monkeypatch, cores, dtype, rtol):
        # the reference stores the ReLU output apart from the conv, and
        # finishes the batchnorm's backward itself
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(3)
        bn = random_batchnorm(r, 21, dtype)
        conv = Conv2d(21, 5, 3, pad=1, rng=r, dtype=dtype)
        x = (r.standard_normal((21, 37, 9, 38)) * 2 + 0.5).astype(dtype)
        dout = r.standard_normal((5, 37, 9, 38)).astype(dtype)
        relu_out = explicit_relu(bn, x, True)
        conv.forward(relu_out, True)
        d = conv.backward(dout)
        dx = bn.backward(d, relu_out).copy()
        grad_gamma, grad_beta = bn.grad_gamma.copy(), bn.grad_beta.copy()

        conv.forward(bn._cache[0], True, bn.gamma, bn.beta)
        d = conv.backward(dout)
        shared = np.zeros_like(x)
        bn.backward(d, conv.kept_input(), shared)
        np.testing.assert_array_equal(bn.grad_gamma, grad_gamma)
        np.testing.assert_array_equal(bn.grad_beta, grad_beta)
        layers.project(shared, *bn._cache, bn.gamma * np.stack((bn.grad_beta, bn.grad_gamma)))
        assert_close(shared, dx, rtol)

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("config", [PLAIN, BC], ids=["plain", "BC"])
    def test_block_forward_matches_standalone_units(self, monkeypatch, cores, config):
        # the block normalizes each slab once; per channel those are the
        # statistics a standalone batchnorm computes over the whole prefix,
        # and the transition's over the whole output, in float32 too (einsum
        # rounds a channel's sum alike in any chunk of two or more channels,
        # and no chunk here has one)
        use_cores(monkeypatch, cores)
        fused, explicit = (build_model(config, seed=5) for _ in range(2))
        x = np.random.default_rng(6).standard_normal(
            (fused.blocks[0].in_channels, 37, 9, 38)).astype(np.float32)
        out = fused.blocks[0].forward(x, train=True)
        features = x
        for unit in explicit.blocks[0].units:
            layers_after_bn1 = [layer for name, layer in vars(unit).items()
                                if name != "bn1" and hasattr(layer, "backward")]
            h = explicit_relu(unit.bn1, features, train=True)
            for layer in layers_after_bn1:
                if isinstance(layer, BatchNorm):
                    h = explicit_relu(layer, h, train=True)
                else:
                    h = layer.forward(h, train=True)
            features = np.concatenate([features, h])
        head = dict(explicit.stages())["transition1"].bn
        head.forward(features, train=True)
        np.testing.assert_array_equal(out, head._cache[0])
        pairs = [(a.bn1, b.bn1) for a, b in zip(fused.blocks[0].units, explicit.blocks[0].units)]
        for a, b in pairs + [(dict(fused.stages())["transition1"].bn, head)]:
            np.testing.assert_array_equal(a.running_mean, b.running_mean)
            np.testing.assert_array_equal(a.running_var, b.running_var)


class TestFusedHead:
    """A transition's or the classifier's BN -> ReLU runs inside its pool's
    channel chunks, with the mask recomputed in backward; standalone
    arithmetic and layers are the reference."""

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "infer"])
    @pytest.mark.parametrize("extent", [(9, 38), (5, 7), (2, 9)])
    @pytest.mark.parametrize("pool", [layers.AvgPool2d, layers.GlobalAvgPool])
    def test_fused_head_matches_explicit_chain(self, monkeypatch, cores, train, extent, pool):
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(extent[0] * 100 + extent[1])
        bn, explicit, fused = random_batchnorm(r, 21, np.float64), pool(), pool()
        x = r.standard_normal((21, 37, *extent)) * 2 + 0.5
        relu_out = explicit_relu(bn, x, train)
        out = explicit.forward(relu_out, train).copy()
        if not train:
            np.testing.assert_array_equal(fused.forward(x, False, *bn.folded()), out)
            return
        xhat, inv = bn._cache
        np.testing.assert_array_equal(fused.forward(xhat, True, bn.gamma, bn.beta), out)
        dout = r.standard_normal(out.shape)
        dx = bn.backward(explicit.backward(dout), relu_out).copy()
        grad_gamma, grad_beta = np.empty(21), np.empty(21)
        d = fused.backward(dout, grad_gamma, grad_beta)
        np.testing.assert_array_equal(grad_gamma, bn.grad_gamma)
        np.testing.assert_array_equal(grad_beta, bn.grad_beta)
        layers.project(d, xhat, inv, bn.gamma * np.stack((grad_beta, grad_gamma)))
        assert_close(d, dx)


class TestInferPerFrame:
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("config", [PLAIN, BC, WIDE_BC], ids=["plain", "BC", "wide-BC"])
    def test_logits_do_not_depend_on_the_batch(self, monkeypatch, config, dtype, cores):
        # rows at the start and end of the first panel, the second panel's
        # first row and the last row of a short third panel
        use_cores(monkeypatch, cores)
        model = build_model(config, seed=2, dtype=dtype)
        x = frames(37, config.num_classes, seed=3, dtype=dtype)[0]
        logits = model.forward(x, train=False)
        for row in (0, 15, 16, 36):
            single = model.forward(x[row : row + 1], train=False)
            np.testing.assert_array_equal(logits[row : row + 1], single)


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
