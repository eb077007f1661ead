"""Work items on the shared pool: convolution panels of whole images in
both modes, train-mode batchnorm and pool channel chunks, one utterance of
a corpus each, and the OpenBLAS guard.

Items are fixed by shape, so training results must be bitwise the same with
one worker or two and under any OpenBLAS thread count, and a frame's infer
logits must not depend on its batch. Corpus items must give the bits of a
plain loop over the utterances.
"""

import hashlib
import sys
import threading
import tracemalloc
import wave

import numpy as np
import pytest

from damnet import layers
from damnet.builder import DenseNetConfig, plan_architecture
from damnet.exceptions import ConfigError, DataError, DivergenceError
from damnet.features import (
    VARIANCE_FLOOR,
    FilterbankConfig,
    apply_cmvn,
    compute_cmvn_stats,
    featurize_manifest,
    featurize_utterance,
    frame_count,
    splice_context,
)
from damnet.formats import ManifestEntry, UtteranceFeatures
from damnet.layers import BatchNorm, Conv2d, softmax_cross_entropy
from damnet.model import build_model
from damnet.trainer import FrameDataset, TrainConfig, build_frame_dataset, train_epoch

# channel counts 8 + 6k and 4 * 6 = 24 wide bottlenecks: most are not a
# multiple of CHANNEL_CHUNK
PLAIN = DenseNetConfig(variant="plain", depth=7, growth_rate=6, compression=1.0,
                       num_classes=9, first_conv_channels=8)
BC = DenseNetConfig(variant="BC", depth=10, growth_rate=6, compression=0.5,
                    num_classes=9, first_conv_channels=10)
C = DenseNetConfig(variant="C", depth=7, growth_rate=6, compression=0.5,
                   num_classes=9, first_conv_channels=8)
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
    # None: a panel's images and 5 more, so the batch spans two panels at
    # every size, also at 2x9, 1x4 and 1x1, whose panels hold 128, 512 and
    # 2,048 images
    @pytest.mark.parametrize("n", [5, 37, None])
    # at 2x9, 1x4 and 1x1 with pad 1 a panel's shifted reads cross the
    # margins between images, at 1x1 every read but the centre tap's
    @pytest.mark.parametrize("k,pad,extent", [
        pytest.param(3, 1, (9, 38), id="3-1"), pytest.param(3, 0, (9, 38), id="3-0"),
        pytest.param(1, 0, (9, 38), id="1-0"), pytest.param(3, 1, (2, 9), id="3-1-2x9"),
        pytest.param(3, 1, (1, 4), id="3-1-1x4"), pytest.param(3, 1, (1, 1), id="3-1-1x1"),
    ])
    def test_conv_matches_whole_batch_reference(self, monkeypatch, cores, train, n, k, pad,
                                                extent):
        use_cores(monkeypatch, cores)
        if n is None:
            image = (extent[0] + 2 * pad - k + 1) * (extent[1] + 2 * pad - k + 1)
            # no panel holds more than PANEL_COLUMNS images
            n = layers._panels(layers.PANEL_COLUMNS, image)[0].stop + 5
            assert len(layers._panels(n, image)) == 2
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
        # the ReLU after the batchnorm masks its output gradient, as the
        # conv after it does in its backward
        relu_out = np.maximum(reference_batchnorm(x, bn.gamma, bn.beta, dout)[0], 0)
        dout *= relu_out > 0
        out_ref, dx_ref, dgamma, dbeta, mean, var = reference_batchnorm(
            x, bn.gamma, bn.beta, dout)
        gamma, beta = (v.reshape(-1, 1, 1, 1) for v in (bn.gamma, bn.beta))
        assert_close(bn.forward(x, train=True) * gamma + beta, out_ref)
        # what the conv after it writes (``Conv2d.backward``), then the batchnorm's own step
        layers._read_relu(dout, bn._cache[0], bn.gamma, bn.grad_gamma, bn.grad_beta)
        dx = bn.backward(dout)
        assert np.shares_memory(dx, dout)  # finished in place, by ``project``
        assert_close(dx, dx_ref)
        assert_close(bn.grad_gamma, dgamma)
        assert_close(bn.grad_beta, dbeta)
        momentum = layers.BN_MOMENTUM
        assert_close(bn.running_mean, (1 - momentum) * mean)
        assert_close(bn.running_var, momentum + (1 - momentum) * var)

    def test_items_split_the_batch_and_channels(self):
        # the shapes above do run as several items
        assert len(layers._panels(37, 9 * 38)) == 3
        # every conv of plain-22 and BC-41 at batch 256 runs as two panels or
        # more, so none runs as a lone item in the calling thread, whose
        # scratch CI's memory figures count
        sizes = set()
        for config in (DenseNetConfig(variant="plain", depth=22),
                       DenseNetConfig(variant="BC", depth=41, compression=0.5)):
            sizes |= {stage.out_size for stage in plan_architecture(config).stages
                      if stage.kind != "classifier"}
        assert sizes == {(9, 38), (4, 19), (2, 9)}
        for (h, w), frames in zip(sorted(sizes, reverse=True), (16, 32, 128)):
            panels = layers._panels(256, h * w)
            assert panels[0] == slice(0, frames) and len(panels) >= 2
        lengths = []
        layers._fan_out_chunks((21, 100, 9, 38), lambda ch: lengths.append(ch.stop - ch.start))
        assert sorted(lengths) == [5, 8, 8]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_standalone_batchnorm_backward_is_one_fan_out(self, monkeypatch, cores):
        # a BC unit's bn2 finishes its input gradient in place, in one fan-out
        # of channel chunks, from D and the gamma and beta gradients that the
        # conv after it wrote; ``_read_relu`` on the whole batch and then
        # ``project`` give the same bits
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(9)
        bn = random_batchnorm(r, 21, np.float32)
        x = (r.standard_normal((21, 100, 9, 38)) * 2 + 0.5).astype(np.float32)
        relu_out = explicit_relu(bn, x, True)
        dout = r.standard_normal(x.shape).astype(np.float32) * (relu_out > 0)
        xhat, inv = bn._cache
        dgamma, dbeta = np.empty(21, np.float32), np.empty(21, np.float32)
        layers._read_relu(dout, xhat, bn.gamma, dgamma, dbeta)
        bn.grad_gamma[...], bn.grad_beta[...] = dgamma, dbeta
        want = dout.copy()
        layers.project(want, xhat, inv, bn.gamma * np.stack((dbeta, dgamma)))
        calls, fan_out = [], layers.fan_out

        def counted(work, count):
            calls.append(count)
            fan_out(work, count)

        monkeypatch.setattr(layers, "fan_out", counted)
        np.testing.assert_array_equal(bn.backward(dout), want)
        assert calls == [3]
        np.testing.assert_array_equal(bn.grad_gamma, dgamma)
        np.testing.assert_array_equal(bn.grad_beta, dbeta)


class TestUnpaddedGrid:
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("fused", [False, True], ids=["plain", "scale-shift"])
    def test_grid_and_results_are_c_contiguous(self, monkeypatch, cores, fused):
        # the conv keeps its input itself, with or without a scale and shift;
        # a panel's grid is a view of its images' (C, images*H*W) columns,
        # with no padding, or, given a scale and shift, their ReLU output,
        # C-contiguous in scratch
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(8)
        conv = Conv2d(5, 4, 3, pad=1, rng=r)
        scale = r.uniform(0.5, 1.5, (5, 1, 1, 1)).astype(np.float32)
        shift = r.normal(1.0, 0.5, (5, 1, 1, 1)).astype(np.float32)
        for n in (37, 37, 20, 20):
            x = (r.standard_normal((5, n, 4, 7)) + 3).astype(np.float32)
            out = conv.forward(x, True, *((scale.ravel(), shift.ravel()) if fused else ()))
            kept = conv._cache[0]
            assert kept is x
            frames = slice(16, min(n, 32))
            grid = conv._columns(conv._images(*conv._cache, frames))
            assert grid.shape == (5, (frames.stop - 16) * 4 * 7)
            if fused:
                assert grid.flags.c_contiguous
                np.testing.assert_array_equal(
                    grid, np.maximum(x * scale + shift, 0)[:, frames].reshape(5, -1))
            else:
                assert np.shares_memory(grid, x) and grid.strides[1] == x.itemsize
                np.testing.assert_array_equal(grid, x[:, frames].reshape(5, -1))
            assert out.shape == (4, n, 4, 7) and out.flags.c_contiguous
            grads = (np.empty(5, np.float32), np.empty(5, np.float32)) if fused else ()
            dx = conv.backward(r.standard_normal(out.shape).astype(np.float32), *grads)
            assert dx.shape == x.shape and dx.flags.c_contiguous

    @pytest.mark.parametrize("cores", [1, 2])
    def test_pad0_results_are_c_contiguous(self, monkeypatch, cores):
        # a pad-0 conv writes its smaller output straight from its GEMM, not
        # as a crop of a larger one; its input is the transposed batch
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(9)
        conv = Conv2d(3, 24, 3, rng=r)
        x = r.standard_normal((21, 3, 11, 40)).astype(np.float32).transpose(1, 0, 2, 3)
        out = conv.forward(x, True)
        assert out.shape == (24, 21, 9, 38) and out.flags.c_contiguous
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
    after it, in both directions: backward recomputes a panel's ReLU output
    and masks the panel's dX with it; standalone arithmetic is the
    reference."""

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "infer"])
    @pytest.mark.parametrize("n", [5, 37])
    # pad 0 at k = 3 builds its patches from the panel's ReLU output
    @pytest.mark.parametrize("k,pad", [(3, 1), (1, 0), (3, 0)])
    def test_fused_forward_matches_explicit_chain(self, monkeypatch, cores, train, n, k, pad):
        # the same arithmetic in the same order: equal in float32
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(n * 10 + k)
        bn = random_batchnorm(r, 13, np.float32)
        conv = Conv2d(13, 7, k, pad=pad, rng=r)
        x = (r.standard_normal((13, n, 9, 38)) * 2 + 0.5).astype(np.float32)
        explicit = conv.forward(explicit_relu(bn, x, train), train).copy()
        if train:  # the fused forward reads neither the explicit one's input nor stale scratch
            conv._cache[0][...] = np.nan
            panel = layers._panels(n, 9 * 38)[0].stop
            layers.scratch("grid", (13, panel * 9 * 38), np.float32)[...] = np.nan
            fused = conv.forward(bn._cache[0], True, bn.gamma, bn.beta)
        else:
            fused = conv.forward(x, False, *bn.folded())
        np.testing.assert_array_equal(fused, explicit)

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_grid_mask_backward_matches_stored_mask(self, monkeypatch, cores, dtype, rtol):
        # the reference stores the ReLU output apart from the conv, and reads
        # the masked gradient per panel, summing the gamma and beta partials
        # in panel order as the conv does, and finishes the batchnorm's
        # backward itself
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(3)
        bn = random_batchnorm(r, 21, dtype)
        conv = Conv2d(21, 5, 3, pad=1, rng=r, dtype=dtype)
        x = (r.standard_normal((21, 37, 9, 38)) * 2 + 0.5).astype(dtype)
        dout = r.standard_normal((5, 37, 9, 38)).astype(dtype)
        relu_out = explicit_relu(bn, x, True)
        conv.forward(relu_out, True)
        d = conv.backward(dout) * (relu_out > 0)
        panels = layers._panels(37, 9 * 38)
        partials = np.empty((len(panels), 2, 21), dtype)
        for i, frames in enumerate(panels):
            layers._read_relu(d[:, frames].reshape(21, -1), bn._cache[0][:, frames].reshape(21, -1),
                              bn.gamma, *partials[i])
        grad_gamma, grad_beta = partials.sum(axis=0)
        dx = d.copy()
        layers.project(dx, *bn._cache, bn.gamma * np.stack((grad_beta, grad_gamma)))

        conv.forward(bn._cache[0], True, bn.gamma, bn.beta)
        shared = np.zeros_like(x)
        conv.backward(dout, bn.grad_gamma, bn.grad_beta, shared)
        np.testing.assert_array_equal(shared, d)
        np.testing.assert_array_equal(bn.grad_gamma, grad_gamma)
        np.testing.assert_array_equal(bn.grad_beta, grad_beta)
        layers.project(shared, *bn._cache, bn.gamma * np.stack((bn.grad_beta, bn.grad_gamma)))
        assert_close(shared, dx, rtol)

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("k,pad", [(3, 1), (1, 0), (3, 0)])
    def test_fused_backward_matches_float64_reference(self, monkeypatch, cores, k, pad):
        # explicit BN -> ReLU -> conv in float64: the conv writes the gamma
        # and beta gradients and gives D, the gradient of xhat, added into a
        # destination that already holds values, or in scratch, which the
        # batchnorm finishes into its input gradient
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(k * 10 + pad)
        bn = random_batchnorm(r, 13, np.float64)
        conv = Conv2d(13, 7, k, pad=pad, rng=r, dtype=np.float64)
        x = r.standard_normal((13, 37, 9, 38)) * 2 + 0.5
        dout = r.standard_normal((7, 37, 9 + 2 * pad - k + 1, 38 + 2 * pad - k + 1))
        pre = reference_batchnorm(x, bn.gamma, bn.beta, np.zeros_like(x))[0]
        dh = reference_conv_backward(np.maximum(pre, 0), conv.weight, pad, dout)[1] * (pre > 0)
        dx_ref, dgamma, dbeta = reference_batchnorm(x, bn.gamma, bn.beta, dh)[1:4]
        xhat = bn.forward(x, train=True)
        assert_close(conv.forward(xhat, True, bn.gamma, bn.beta),
                     reference_conv(np.maximum(pre, 0), conv.weight, pad))
        prior = r.standard_normal(x.shape)
        into = prior.copy()
        assert conv.backward(dout, bn.grad_gamma, bn.grad_beta, into) is into
        assert_close(into, prior + dh * bn.gamma.reshape(-1, 1, 1, 1))
        assert_close(bn.grad_gamma, dgamma)
        assert_close(bn.grad_beta, dbeta)
        bn.grad_gamma[...], bn.grad_beta[...] = 0, 0
        assert_close(bn.backward(conv.backward(dout, bn.grad_gamma, bn.grad_beta)), dx_ref)
        assert_close(bn.grad_gamma, dgamma)
        assert_close(bn.grad_beta, dbeta)

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


def block_mean(x):
    """Means of 2x2 blocks, the odd row and column dropped, in plain numpy."""
    oh, ow = x.shape[2] // 2, x.shape[3] // 2
    blocks = x[:, :, : 2 * oh, : 2 * ow].reshape(*x.shape[:2], oh, 2, ow, 2)
    return ((blocks[:, :, :, 0, :, 0] + blocks[:, :, :, 1, :, 0])
            + (blocks[:, :, :, 0, :, 1] + blocks[:, :, :, 1, :, 1])) / 4


def block_mean_adjoint(dout, shape):
    """The gradient of ``block_mean``'s (C, N, H, W) input: each output's
    gradient over 4 on its block, 0 on the dropped row and column."""
    dx = np.zeros(shape)
    oh, ow = dout.shape[2:]
    dx[:, :, : 2 * oh, : 2 * ow] = (dout / 4).repeat(2, axis=2).repeat(2, axis=3)
    return dx


def global_mean(x):
    """Each image's mean per channel, as (N, C), in plain numpy."""
    return x.mean(axis=(2, 3)).T


def global_mean_adjoint(dout, shape):
    """The gradient of ``global_mean``'s (C, N, H, W) input: each mean's
    gradient over H * W on every pixel of its image."""
    dx = np.empty(shape)
    dx[...] = dout.T[:, :, None, None] / (shape[2] * shape[3])
    return dx


class TestFusedHead:
    """A transition's or the classifier's BN -> ReLU runs inside its pool's
    channel chunks, with the mask recomputed in backward; standalone
    arithmetic is the reference, pooling in plain numpy."""

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "infer"])
    @pytest.mark.parametrize("extent", [(9, 38), (5, 7), (2, 9)])
    @pytest.mark.parametrize("pool,mean,adjoint", [
        (layers.AvgPool2d, block_mean, block_mean_adjoint),
        (layers.GlobalAvgPool, global_mean, global_mean_adjoint),
    ], ids=["AvgPool2d", "GlobalAvgPool"])
    def test_fused_head_matches_explicit_chain(self, monkeypatch, cores, train, extent, pool,
                                               mean, adjoint):
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(extent[0] * 100 + extent[1])
        bn, fused = random_batchnorm(r, 21, np.float64), pool()
        x = r.standard_normal((21, 37, *extent)) * 2 + 0.5
        relu_out = explicit_relu(bn, x, train)
        out = mean(relu_out)
        if not train:
            np.testing.assert_array_equal(fused.forward(x, False, *bn.folded()), out)
            return
        xhat, inv = bn._cache
        np.testing.assert_array_equal(fused.forward(xhat, True, bn.gamma, bn.beta), out)
        dout = r.standard_normal(out.shape)
        d = adjoint(dout, x.shape) * (relu_out > 0)
        layers._read_relu(d, xhat, bn.gamma, bn.grad_gamma, bn.grad_beta)
        dx = bn.backward(d).copy()
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
        # first row and the last row of a short third panel at 9x38, and the
        # rows on either side of the first panel boundary at 4x19, 32 images
        use_cores(monkeypatch, cores)
        model = build_model(config, seed=2, dtype=dtype)
        x = frames(37, config.num_classes, seed=3, dtype=dtype)[0]
        logits = model.forward(x, train=False)
        for row in (0, 15, 16, 31, 32, 36):
            single = model.forward(x[row : row + 1], train=False)
            np.testing.assert_array_equal(logits[row : row + 1], single)

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("extent", [(11, 40), (3, 3)])
    def test_pad0_conv_output_does_not_depend_on_the_batch(self, monkeypatch, cores, extent):
        # the initial conv's patch GEMM runs per image in infer mode: a
        # frame's output is the same alone, at another position in the first
        # panel and in a short last panel; OpenBLAS rounds a one-pixel
        # image's GEMM apart from a whole panel's
        use_cores(monkeypatch, cores)
        r = np.random.default_rng(4)
        conv = Conv2d(3, 24, 3, rng=r)
        image = (extent[0] - 2) * (extent[1] - 2)
        n = layers._panels(layers.PANEL_COLUMNS, image)[0].stop + 5
        x = r.standard_normal((n, 3, *extent)).astype(np.float32)
        frame = x[7:8]
        want = conv.forward(frame.transpose(1, 0, 2, 3))[:, 0]
        for row in (0, 7, n - 1):
            batch = x.copy()
            batch[row] = frame[0]
            got = conv.forward(batch.transpose(1, 0, 2, 3))[:, row]
            np.testing.assert_array_equal(got, want)


def whole_batch_logits(model, x):
    """The reference infer forward: every stage on the whole batch in turn."""
    x = x.transpose(1, 0, 2, 3)
    for _, stage in model.stages():
        x = stage.forward(x, False)
    return x


BC41 = DenseNetConfig(variant="BC", depth=41, compression=0.5, num_classes=1500)


def infer_peak(forward):
    """The tracemalloc peak of ``forward()`` once a first call has sized the
    thread's scratch."""
    forward()
    tracemalloc.start()
    try:
        forward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDepthFirstInfer:
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("dtypes", [(np.float32, np.float32), (np.float64, np.float64),
                                        (np.float64, np.float32), (np.float32, np.float64)],
                             ids=["f32", "f64", "f64-model-f32-input", "f32-model-f64-input"])
    @pytest.mark.parametrize("config", [PLAIN, C, BC, WIDE_BC], ids=["plain", "C", "BC", "wide-BC"])
    def test_bitwise_the_whole_batch_loop(self, monkeypatch, config, dtypes, cores):
        # 16-frame panels at 9x38: no panel (0), one short panel (1, 15), one
        # full (16), full ones and a short last one (17, 37, 100), four full ones (64);
        # 64-frame shards: one short (63), a full one and a one-frame one (65),
        # two full ones (128), four full ones and a one-frame one (257)
        use_cores(monkeypatch, cores)
        model_dtype, input_dtype = dtypes
        model = build_model(config, seed=5, dtype=model_dtype)
        for n in (0, 1, 15, 16, 17, 37, 63, 64, 65, 100, 128, 257):
            x = frames(n, config.num_classes, seed=n, dtype=input_dtype)[0]
            got, want = model.forward(x, train=False), whole_batch_logits(model, x)
            assert got.dtype == want.dtype and got.shape == want.shape == (n, config.num_classes), n
            assert got.tobytes() == want.tobytes(), n

    def test_a_shard_forward_holds_under_half_the_whole_batch_loop(self, monkeypatch):
        # one core runs every item inline, so the allocation peaks repeat
        use_cores(monkeypatch, 1)
        model = build_model(BC41, seed=1)
        x = frames(64, 1500, seed=1)[0]
        peaks = {"depth-first": infer_peak(lambda: model.forward(x, train=False)),
                 "whole-batch": infer_peak(lambda: whole_batch_logits(model, x))}
        assert 2 * peaks["depth-first"] <= peaks["whole-batch"], peaks

    def test_a_long_forward_holds_one_shard_at_a_time(self, monkeypatch):
        # on one core the shards run in turn, so 256 frames add only logits
        use_cores(monkeypatch, 1)
        model = build_model(BC41, seed=1)
        peaks = {}
        for n in (64, 256):
            x = frames(n, 1500, seed=1)[0]
            peaks[n] = infer_peak(lambda: model.forward(x, train=False))
        assert peaks[256] <= 1.5 * peaks[64], peaks


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


def write_wav(path, samples, rate=16000):
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(rate)
        handle.writeframes(np.clip(samples * 32767, -32768, 32767).astype("<i2").tobytes())


def corpus(directory, lengths):
    """Manifest entries of labeled WAVs with ``lengths`` samples each."""
    r = np.random.default_rng(len(lengths))
    entries = []
    for u, samples in enumerate(lengths):
        wav, label = directory / f"u{u}.wav", directory / f"u{u}.lab"
        write_wav(wav, 0.1 * r.standard_normal(samples))
        frames = frame_count(samples, FilterbankConfig())
        label.write_text(" ".join(map(str, r.integers(0, 9, frames))))
        entries.append(ManifestEntry(f"u{u}", wav, label))
    return entries


# 1 to 142 frames per utterance
CORPORA = {"six": [8000, 400, 23000, 4160, 12345, 6000], "one": [5000], "empty": []}


class TestCorpusMatchesSerialLoop:
    @pytest.fixture(params=[1, 2], ids=["1core", "2cores"])
    def cores(self, request, monkeypatch):
        use_cores(monkeypatch, request.param)

    @pytest.mark.parametrize("name", CORPORA)
    def test_featurize_manifest(self, tmp_path, cores, name):
        entries = corpus(tmp_path, CORPORA[name])
        want = [featurize_utterance(entry, FilterbankConfig()) for entry in entries]
        got = featurize_manifest(entries, FilterbankConfig())
        assert [utt.utt_id for utt in got] == [utt.utt_id for utt in want]
        for a, b in zip(got, want):
            assert a.frames.tobytes() == b.frames.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()

    @pytest.mark.parametrize("name", CORPORA)
    def test_cmvn_stats(self, tmp_path, cores, name):
        utts = featurize_manifest(corpus(tmp_path, CORPORA[name]), FilterbankConfig())
        if not utts:
            with pytest.raises(DataError):
                compute_cmvn_stats(utts)
            return
        acc = np.zeros(utts[0].frames.shape[1:])
        acc_sq = np.zeros_like(acc)
        total = 0
        for utt in utts:
            frames = utt.frames.astype(np.float64)
            acc += frames.sum(axis=0)
            acc_sq += (frames * frames).sum(axis=0)
            total += len(frames)
        mean = acc / total
        var = np.maximum(acc_sq / total - mean * mean, VARIANCE_FLOOR)
        stats = compute_cmvn_stats(utts)
        assert stats.frame_count == total
        assert stats.mean.tobytes() == mean.tobytes() and stats.var.tobytes() == var.tobytes()

    @pytest.mark.parametrize("name", CORPORA)
    def test_frame_dataset(self, tmp_path, cores, name):
        utts = featurize_manifest(corpus(tmp_path, CORPORA[name]), FilterbankConfig())
        if not utts:
            with pytest.raises(DataError):
                build_frame_dataset(utts)
            return
        stats = compute_cmvn_stats(utts)
        want = np.concatenate([splice_context(apply_cmvn(utt.frames, stats), 4, 2)
                               for utt in utts])
        data = build_frame_dataset(utts, stats, 4, 2)
        assert data.features.tobytes() == want.tobytes()
        assert data.labels.tobytes() == np.concatenate([utt.labels for utt in utts]).tobytes()

    def test_rows_under_contention(self, monkeypatch):
        # more workers than cores and a tiny switch interval: a row block
        # written by the wrong item, or not at all, changes the dataset
        use_cores(monkeypatch, 4)
        r = np.random.default_rng(3)
        utts = [UtteranceFeatures(f"u{u}", r.standard_normal((1 + u % 7, 3, 5), np.float32),
                                  r.integers(0, 9, 1 + u % 7)) for u in range(300)]
        want = np.concatenate([splice_context(utt.frames, 2, 1) for utt in utts])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            data = build_frame_dataset(utts, None, 2, 1)
        finally:
            sys.setswitchinterval(interval)
        assert data.features.tobytes() == want.tobytes()


class TestFeaturizeErrors:
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("second", ["missing", "rate"])
    def test_first_failing_entry_in_manifest_order(self, monkeypatch, tmp_path, cores, second):
        # entries 2 and 5 fail in different ways, and entry 5's failure may
        # come first on the pool
        entries = corpus(tmp_path, [8000] * 6)
        write_wav(tmp_path / "8k.wav", np.zeros(8000), rate=8000)
        failing = {"missing": ManifestEntry("gone", tmp_path / "missing.wav"),
                   "rate": ManifestEntry("8k", tmp_path / "8k.wav")}
        entries[1] = failing.pop(second)
        entries[4] = failing.popitem()[1]
        use_cores(monkeypatch, cores)
        with pytest.raises(DataError) as err:
            featurize_manifest(entries, FilterbankConfig())
        cause = err.value.__cause__
        assert isinstance(cause, FileNotFoundError if second == "missing" else DataError)
        assert str(err.value) == f"utterance '{entries[1].utt_id}' (manifest line entry 2): {cause}"

    @pytest.mark.parametrize("cores", [1, 2])
    def test_invalid_config_before_any_entry(self, monkeypatch, tmp_path, cores):
        use_cores(monkeypatch, cores)
        with pytest.raises(ConfigError):
            featurize_manifest([ManifestEntry("ghost", tmp_path / "missing.wav")],
                               FilterbankConfig(fft_size=256))
