import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damnet.exceptions import ConfigError, DataError, ShapeError
from damnet.layers import (
    BN_EPSILON,
    AvgPool2d,
    BatchNorm,
    Conv2d,
    GlobalAvgPool,
    Linear,
    _read_relu,
    conv_output_size,
    pool_output_size,
    scratch,
    softmax,
    softmax_cross_entropy,
)
from damnet.builder import DenseNetConfig
from damnet.model import DenseBlock, DenseUnit, build_model, named_arrays, transition
from test_parallel import block_mean, block_mean_adjoint, reference_batchnorm


def rng(seed=0):
    return np.random.default_rng(seed)


def unit_scale_shift(channels, dtype=np.float64):
    """A pool's batchnorm scale 1 and shift 0: on positive input it pools
    the input itself."""
    return np.ones(channels, dtype), np.zeros(channels, dtype)


class ExplicitChain:
    """A dense unit's BN -> ReLU -> conv steps, each batchnorm by
    ``reference_batchnorm`` and each ReLU by ``np.maximum``, with the unit's
    convs run as standalone layers. ``backward`` returns the unit's input
    gradient and writes every gradient of the unit's layers."""

    def __init__(self, unit):
        layers = [layer for layer in vars(unit).values() if hasattr(layer, "backward")]
        self.steps = list(zip(layers[0::2], layers[1::2]))  # (batchnorm, conv)

    def forward(self, x, train=True):
        self.kept = []  # each batchnorm's input and output
        for bn, conv in self.steps:
            pre = reference_batchnorm(x, bn.gamma, bn.beta, np.zeros_like(x))[0]
            self.kept.append((x, pre))
            x = conv.forward(np.maximum(pre, 0), train).copy()
        return x

    def backward(self, dout):
        for (bn, conv), (x, pre) in reversed(list(zip(self.steps, self.kept))):
            d = conv.backward(dout) * (pre > 0)
            dout, bn.grad_gamma[...], bn.grad_beta[...] = reference_batchnorm(
                x, bn.gamma, bn.beta, d)[1:4]
        return dout


class TestDenseWiring:
    @pytest.mark.parametrize("bottleneck", [False, True])
    def test_dense_block_matches_explicit_concatenation(self, bottleneck):
        r = rng(4)
        block = DenseBlock(5, 3, 4, bottleneck=bottleneck, rng=r, dtype=np.float64)
        x = r.standard_normal((5, 3, 4, 6))
        dout = r.standard_normal((block.out_channels, 3, 4, 6))
        out = block.forward(x, train=True).copy()
        dx = block.backward(dout).copy()
        grads = {name: g.copy()
                 for name, g in named_arrays([("block", block)], "PARAMS", "grad_").items()}

        # reference: each unit's layers run as a standalone BN -> ReLU -> conv
        # chain, wired by explicit concatenation, with each unit's input
        # gradient split back onto its sources; a standalone block's train
        # output is its features normalized, as a batchnorm with gamma 1 and
        # beta 0 gives them
        units = [ExplicitChain(unit) for unit in block.units]
        features = [x]
        for unit in units:
            features.append(unit.forward(np.concatenate(features), train=True))
        ones, zeros = np.ones(block.out_channels), np.zeros(block.out_channels)
        normalized, dnormalized = reference_batchnorm(np.concatenate(features), ones, zeros,
                                                      dout)[:2]
        np.testing.assert_allclose(out, normalized, rtol=0, atol=1e-12)
        sizes = [f.shape[0] for f in features]
        accum = [g.copy() for g in np.split(dnormalized, np.cumsum(sizes)[:-1])]
        for n in range(len(units), 0, -1):
            din = units[n - 1].backward(accum[n])
            for i, part in enumerate(np.split(din, np.cumsum(sizes[:n])[:-1])):
                accum[i] += part
        np.testing.assert_allclose(dx, accum[0], rtol=0, atol=1e-12)
        for name, g in named_arrays([("block", block)], "PARAMS", "grad_").items():
            np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12, err_msg=name)

    def test_bc_unit_matches_float64_reference(self):
        # bn2 normalizes the 1x1 conv's output into its own xhat; the 3x3
        # conv applies bn2's gamma and beta and the ReLU to each panel, and
        # in backward masks its dX with the panel's ReLU output, recomputed
        r = rng(12)
        unit = DenseUnit(5, 3, bottleneck=True, rng=r, dtype=np.float64)
        for bn in (unit.bn1, unit.bn2):
            c = bn.num_channels
            bn.gamma[...] = r.uniform(0.5, 1.5, c) * r.choice([-1.0, 1.0], c)
            bn.beta[...] = r.normal(0.0, 0.5, c)
        x = r.standard_normal((5, 4, 4, 6))
        dout = r.standard_normal((3, 4, 4, 6))
        out = unit.forward(unit.bn1.forward(x, train=True), train=True).copy()
        dx = unit.bn1.backward(unit.backward(dout, np.zeros_like(x))).copy()
        grads = {name: g.copy()
                 for name, g in named_arrays([("unit", unit)], "PARAMS", "grad_").items()}

        reference = ExplicitChain(unit)
        np.testing.assert_allclose(out, reference.forward(x), rtol=0, atol=1e-12)
        np.testing.assert_allclose(dx, reference.backward(dout), rtol=0, atol=1e-12)
        for name, g in named_arrays([("unit", unit)], "PARAMS", "grad_").items():
            np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12, err_msg=name)

    def test_unit_batchnorm_forward_keeps_block_normalization(self):
        # a unit's bn1 keeps a view of its block's xhat, which a later
        # standalone bn1 forward of the same shape must not overwrite
        r = rng(5)
        block = DenseBlock(5, 3, 3, bottleneck=False, rng=r, dtype=np.float64)
        block.forward(r.standard_normal((5, 3, 4, 6)), train=True)
        xhat = block._cache[0].copy()
        block.units[1].bn1.forward(r.standard_normal((8, 3, 4, 6)), train=True)
        np.testing.assert_array_equal(block._cache[0], xhat)

    def test_train_forward_writes_only_the_kept_normalization(self, monkeypatch):
        # a train forward normalizes each slab straight from the layer that
        # made it, into the xhat that it returns, keeps and shares with its
        # readers; its only scratch is its gradient, in backward
        names = []

        def record(name, shape, dtype):
            names.append(name)
            return scratch(name, shape, dtype)

        monkeypatch.setattr("damnet.model.scratch", record)
        cfg = DenseNetConfig(variant="BC", depth=16, blocks=3, growth_rate=4,
                             compression=0.5, num_classes=5, first_conv_channels=8)
        model = build_model(cfg, seed=0)
        outputs = {}
        for block in model.blocks:
            def keep(x, train=False, forward=block.forward, block=block):
                outputs[id(block)] = forward(x, train)
                return outputs[id(block)]
            block.forward = keep
        x = rng(6).standard_normal((4, 3, 11, 40)).astype(np.float32)
        logits = model.forward(x, train=True)
        assert names == []
        stages = [stage for _, stage in model.stages()]
        for block, head in zip(stages, stages[1:]):
            if not isinstance(block, DenseBlock):
                continue
            out = outputs[id(block)]
            assert out is block._cache[0]
            for unit in block.units:
                assert np.shares_memory(unit.bn1._cache[0], out)
            assert np.shares_memory(head.bn._cache[0], out)
        model.backward(softmax_cross_entropy(logits, np.arange(4))[1])
        assert names == ["block"] * len(model.blocks)

    @pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("bottleneck", [False, True])
    def test_cropped_input_matches_contiguous_copy(self, dtype, atol, bottleneck):
        # a block normalizes its input where it lies; summing a channel's
        # statistics over a crop of wider rows rounds only as a copy's
        # order would
        r = rng(8)
        grid = r.standard_normal((16, 64, 9, 40)).astype(dtype)
        dout = r.standard_normal((40, 64, 9, 38)).astype(dtype)
        results = []
        for x in (grid[:, :, :, :38], np.ascontiguousarray(grid[:, :, :, :38])):
            block = DenseBlock(16, 12, 2, bottleneck=bottleneck, rng=rng(9), dtype=dtype)
            out = block.forward(x, train=True).copy()
            dx = block.backward(dout).copy()
            grads = named_arrays([("block", block)], "PARAMS", "grad_")
            results.append((out, dx, {k: v.copy() for k, v in grads.items()}))
        (out_a, dx_a, grads_a), (out_b, dx_b, grads_b) = results
        for got, want in [(out_a, out_b), (dx_a, dx_b),
                          *((grads_a[k], grads_b[k]) for k in grads_b)]:
            scale = max(1.0, float(np.abs(want).max()))
            np.testing.assert_allclose(got, want, rtol=0, atol=atol * scale)

    def test_dense_block_rejects_wrong_width(self):
        block = DenseBlock(5, 3, 2, bottleneck=False, rng=rng(), dtype=np.float64)
        with pytest.raises(ShapeError):
            block.forward(np.zeros((4, 2, 3, 3)))

    @pytest.mark.parametrize("h,w", [(4, 6), (5, 7), (9, 38)])
    def test_transition_pool_first_equals_conv_first(self, h, w):
        # in train mode a transition reads its block's xhat and applies its
        # batchnorm's gamma and beta and the ReLU in its pool
        r = rng(h * w)
        stage = transition(6, 3, rng=r, dtype=np.float64)
        gamma = stage.bn.gamma[...] = r.uniform(0.5, 1.5, 6) * r.choice([-1.0, 1.0], 6)
        beta = stage.bn.beta[...] = r.normal(0.0, 0.5, 6)
        xhat = r.standard_normal((6, 3, h, w))
        dout = r.standard_normal((3, 3, h // 2, w // 2))
        out = stage.forward(xhat, train=True).copy()
        dx = stage.backward(dout).copy()
        grads = [g.copy() for g in (stage.conv.grad_weight, stage.bn.grad_gamma,
                                    stage.bn.grad_beta)]

        # reference: the planned order, BN scale and shift -> ReLU -> 1x1 conv
        # then a 2x2 block mean, same weights
        pre = xhat * gamma[:, None, None, None] + beta[:, None, None, None]
        reference = block_mean(stage.conv.forward(np.maximum(pre, 0), train=True))
        np.testing.assert_allclose(out, reference, rtol=0, atol=1e-12)
        dh = stage.conv.backward(block_mean_adjoint(dout, (3, 3, h, w))) * (pre > 0)
        np.testing.assert_allclose(dx, dh * gamma[:, None, None, None], rtol=0, atol=1e-12)
        for got, want in zip(grads, (stage.conv.grad_weight, np.einsum("cnhw,cnhw->c", dh, xhat),
                                     dh.sum(axis=(1, 2, 3)))):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def conv_reference(x, weight, pad):
    """Direct-summation convolution oracle (nested loops) on (C, N, H, W) arrays."""
    cin, n, h, w = x.shape
    cout, _, kh, kw = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = h + 2 * pad - kh + 1
    ow = w + 2 * pad - kw + 1
    out = np.zeros((cout, n, oh, ow))
    for b in range(n):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    out[o, b, i, j] = (xp[:, b, i : i + kh, j : j + kw] * weight[o]).sum()
    return out


def conv_reference_adjoint(x, weight, pad, dout):
    """Input and weight gradients of conv_reference by direct summation."""
    cin, n, h, w = x.shape
    cout, _, kh, kw = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(weight)
    for b in range(n):
        for o in range(cout):
            for i in range(dout.shape[2]):
                for j in range(dout.shape[3]):
                    dxp[:, b, i : i + kh, j : j + kw] += dout[o, b, i, j] * weight[o]
                    dw[o] += dout[o, b, i, j] * xp[:, b, i : i + kh, j : j + kw]
    return dxp[:, :, pad : pad + h, pad : pad + w], dw


class TestConv2d:
    def test_initial_conv_geometry(self):
        conv = Conv2d(3, 16, 3, pad=0, rng=rng())
        out = conv.forward(rng().standard_normal((3, 2, 11, 40)).astype(np.float32))
        assert out.shape == (16, 2, 9, 38)

    def test_identity_1x1_kernel(self):
        conv = Conv2d(1, 1, 1)
        conv.weight[...] = 1.0
        x = rng().standard_normal((1, 2, 4, 5)).astype(np.float32)
        np.testing.assert_allclose(conv.forward(x), x, rtol=1e-6)

    def test_2x2_kernel_direct_sum(self):
        conv = Conv2d(1, 1, 2, dtype=np.float64)
        conv.weight[...] = np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2)
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = conv.forward(x)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 5.0

    def test_channel_mismatch(self):
        conv = Conv2d(3, 4, 3)
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((2, 1, 5, 5)))

    @pytest.mark.parametrize("kernel,in_channels,pad", [
        (3, 1, 1), (3, 2, 0), (1, 1, 0), (3, 1, 0), (3, 4, 1), (2, 2, 1),
    ])
    def test_matches_direct_summation(self, kernel, in_channels, pad):
        # a batch of 3 so the flat grids of neighbouring images are
        # exercised; 1xW and 1x1 inputs with pad 1 are the depth-41
        # four-block net's last block
        if 2 * pad > kernel - 1:  # an output larger than the input is not supported
            with pytest.raises(ConfigError):
                Conv2d(in_channels, 3, kernel, pad=pad)
            return
        shapes = [(6, 7), (kernel, kernel)] + ([(1, 4), (1, 1), (2, 1)] if pad else [])
        for h, w in shapes:
            r = rng(kernel * 100 + in_channels * 10 + pad + h * w)
            conv = Conv2d(in_channels, 3, kernel, pad=pad, rng=r, dtype=np.float64)
            x = r.standard_normal((in_channels, 3, h, w))
            out = conv.forward(x, train=True)
            np.testing.assert_allclose(out, conv_reference(x, conv.weight, pad),
                                       rtol=0, atol=1e-12)
            dout = r.standard_normal(out.shape)
            dx_ref, dw_ref = conv_reference_adjoint(x, conv.weight, pad, dout)
            np.testing.assert_allclose(conv.backward(dout), dx_ref, rtol=0, atol=1e-10)
            np.testing.assert_allclose(conv.grad_weight, dw_ref, rtol=0, atol=1e-10)

    @given(st.integers(1, 12), st.integers(1, 12), st.sampled_from([(1, 0), (3, 0), (3, 1)]))
    @settings(max_examples=30, deadline=None)
    def test_shape_formula_matches_realized(self, h, w, kernel_pad):
        kernel, pad = kernel_pad
        conv = Conv2d(1, 2, kernel, pad=pad, rng=rng(), dtype=np.float64)
        x = np.zeros((1, 3, h, w))
        oh, ow = conv_output_size(h, kernel, pad), conv_output_size(w, kernel, pad)
        if oh < 1 or ow < 1:
            with pytest.raises(ShapeError):
                conv.forward(x)
            return
        assert conv.forward(x).shape == (2, 3, oh, ow)

    # (5, 1) would crop a larger same-size output: a pad is 0 or (k-1)/2
    @pytest.mark.parametrize("kernel,pad", [(1, 1), (3, 2), (4, 2), (5, 1), (3, -1), (0, 0)])
    def test_rejects_unsupported_kernel_and_pad(self, kernel, pad):
        with pytest.raises(ConfigError):
            Conv2d(1, 2, kernel, pad=pad)


class TestBatchNorm:
    def test_constant_per_channel_train(self):
        bn = BatchNorm(3, dtype=np.float64)
        x = np.ones((3, 4, 2, 2)) * np.array([1.0, -2.0, 7.0]).reshape(3, 1, 1, 1)
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_two_point_batch_closed_form(self):
        bn = BatchNorm(1, dtype=np.float64)
        x = np.array([-1.0, 1.0]).reshape(1, 2, 1, 1)
        out = bn.forward(x, train=True)
        expected = 1.0 / np.sqrt(1.0 + 1e-5)  # (x - mean) / sqrt(var + eps)
        np.testing.assert_allclose(out.ravel(), [-expected, expected], atol=1e-12)

    def test_infer_mode_closed_form(self):
        # infer forward hands the next layer its input, which that layer
        # scales and shifts by folded()
        bn = BatchNorm(1, dtype=np.float64)
        bn.gamma[...] = 2.0
        bn.beta[...] = 3.0
        x = np.ones((1, 1, 1, 1))
        assert bn.forward(x, train=False) is x
        scale, shift = bn.folded()
        out = x * scale + shift
        assert abs(out.item() - 5.0) < 1e-4
        assert out.item() == pytest.approx(2.0 / np.sqrt(1.0 + 1e-5) + 3.0, abs=1e-12)

    def test_infer_mode_folds_running_statistics(self):
        r = rng(8)
        bn = BatchNorm(5, dtype=np.float64)
        bn.running_mean[...] = r.standard_normal(5) * 2.0
        bn.running_var[...] = r.uniform(0.1, 4.0, size=5)
        bn.gamma[...] = r.standard_normal(5) + 1.5
        bn.beta[...] = r.standard_normal(5)
        x = r.standard_normal((5, 3, 4, 6)) * 3.0
        rm, rv, gamma, beta = (v.reshape(5, 1, 1, 1) for v in
                               (bn.running_mean, bn.running_var, bn.gamma, bn.beta))
        expected = gamma * (x - rm) / np.sqrt(rv + BN_EPSILON) + beta
        scale, shift = (v.reshape(5, 1, 1, 1) for v in bn.folded())
        np.testing.assert_allclose(bn.forward(x, train=False) * scale + shift, expected,
                                   rtol=0, atol=1e-12)

    def test_degenerate_batch(self):
        bn = BatchNorm(3)
        with pytest.raises(DataError):
            bn.forward(np.zeros((3, 1, 1, 1), dtype=np.float32), train=True)

    def test_running_statistics_update(self):
        bn = BatchNorm(1, dtype=np.float64)
        x = np.array([0.0, 2.0]).reshape(1, 2, 1, 1)
        bn.forward(x, train=True)
        # new = 0.9 * old + 0.1 * batch; batch mean 1, batch var 1
        assert bn.running_mean.item() == pytest.approx(0.1)
        assert bn.running_var.item() == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)

    def test_infer_mode_has_no_side_effects(self):
        bn = BatchNorm(2)
        before = (bn.running_mean.copy(), bn.running_var.copy())
        bn.forward(rng().standard_normal((2, 3, 2, 2)).astype(np.float32), train=False)
        bn.folded()
        np.testing.assert_array_equal(bn.running_mean, before[0])
        np.testing.assert_array_equal(bn.running_var, before[1])

    def test_train_output_moments(self):
        # train forward returns xhat; the next layer scales and shifts it
        bn = BatchNorm(4, dtype=np.float64)
        bn.beta[...] = np.array([0.0, 1.0, -2.0, 0.5])
        x = rng(3).standard_normal((4, 16, 3, 5)) * 3.0 + 1.0
        out = bn.forward(x, train=True) * bn.gamma[:, None, None, None] + bn.beta[:, None, None, None]
        np.testing.assert_allclose(out.mean(axis=(1, 2, 3)), bn.beta, atol=1e-5)
        bn.beta[...] = 0.0
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out.var(axis=(1, 2, 3)), 1.0, atol=1e-3)


def identity_conv(channels):
    """A 3x3 pad-1 conv that passes each channel through its kernel's centre."""
    conv = Conv2d(channels, channels, 3, pad=1, dtype=np.float64)
    conv.weight[:, :, 1, 1] = np.eye(channels)
    return conv


class TestReLU:
    """The ReLU after a batchnorm runs inside the conv or pool after it.
    Both recompute its mask in backward: the conv masks its dX with each
    panel's ReLU output; the subgradient at exactly 0 is 0."""

    def test_definition(self):
        x = np.array([-1.0, 0.0, 2.0]).reshape(3, 1, 1, 1)
        out = identity_conv(3).forward(x, False, np.ones(3), np.zeros(3))
        np.testing.assert_array_equal(out.ravel(), [0.0, 0.0, 2.0])

    def test_dead_region(self):
        # every pre-activation below 0: no output and no gradient
        bn, conv = BatchNorm(3, dtype=np.float64), identity_conv(3)
        bn.beta[...] = -10.0
        x = rng().standard_normal((3, 2, 4, 4))
        out = conv.forward(bn.forward(x, train=True), True, bn.gamma, bn.beta)
        np.testing.assert_array_equal(out, 0.0)
        d = conv.backward(np.ones_like(x), bn.grad_gamma, bn.grad_beta)  # masked by the conv
        np.testing.assert_array_equal(d, 0.0)
        dx = bn.backward(d)
        np.testing.assert_array_equal(dx, 0.0)
        np.testing.assert_array_equal(bn.grad_beta, 0.0)

    def test_idempotent(self):
        conv, ones, zeros = identity_conv(2), np.ones(2), np.zeros(2)
        once = conv.forward(rng(5).standard_normal((2, 3, 4, 4)), False, ones, zeros)
        np.testing.assert_array_equal(conv.forward(once, False, ones, zeros), once)

    def test_gradient_zero_at_kink(self):
        # the middle sample is its channel's mean, so its pre-activation is
        # exactly 0, and the ReLU output the conv recomputes is 0 there
        bn, conv = BatchNorm(1, dtype=np.float64), identity_conv(1)
        x = np.array([-1.0, 0.0, 1.0]).reshape(1, 3, 1, 1)
        conv.forward(bn.forward(x, train=True), True, bn.gamma, bn.beta)
        d = conv.backward(np.ones_like(x), bn.grad_gamma, bn.grad_beta)  # masked by the conv
        np.testing.assert_array_equal(d.ravel(), [0.0, 0.0, 1.0])
        dh = np.zeros_like(x)
        assert conv.backward(np.ones_like(x), bn.grad_gamma, bn.grad_beta, dh) is dh
        np.testing.assert_array_equal(dh.ravel(), [0.0, 0.0, 1.0])
        assert bn.grad_beta.item() == 1.0

    def test_gradient_zero_at_kink_in_pool(self):
        # the pool recomputes the mask from its input; two inputs are exactly 0
        pool, dscale, dshift = AvgPool2d(), np.zeros(1), np.zeros(1)
        x = np.array([-1.0, 0.0, 0.0, 2.0]).reshape(1, 1, 2, 2)
        pool.forward(x, True, np.ones(1), np.zeros(1))
        dx = pool.backward(np.ones((1, 1, 1, 1)), dscale, dshift)
        np.testing.assert_array_equal(dx.ravel(), [0.0, 0.0, 0.0, 0.25])
        assert dshift.item() == 0.25 and dscale.item() == 0.5


class TestAvgPool:
    def test_table_shapes(self):
        pool, scale_shift = AvgPool2d(), unit_scale_shift(2, np.float32)
        for shape, pooled in (((2, 1, 9, 38), (2, 1, 4, 19)), ((2, 1, 4, 19), (2, 1, 2, 9))):
            assert pool.forward(np.ones(shape, np.float32), False, *scale_shift).shape == pooled

    def test_constant_preserved(self):
        pool = AvgPool2d()
        out = pool.forward(np.full((3, 2, 5, 6), 2.5), False, *unit_scale_shift(3))
        np.testing.assert_array_equal(out, 2.5)

    def test_too_small(self):
        with pytest.raises(ShapeError):
            AvgPool2d().forward(np.ones((1, 1, 1, 4)), False, *unit_scale_shift(1))

    def test_backward_distributes_quarter(self):
        pool = AvgPool2d()
        x = rng().uniform(0.5, 1.5, (1, 1, 5, 4))
        pool.forward(x, True, *unit_scale_shift(1))
        dx = pool.backward(np.ones((1, 1, 2, 2)), np.zeros(1), np.zeros(1))
        np.testing.assert_array_equal(dx[0, 0, :4, :4], 0.25)
        np.testing.assert_array_equal(dx[0, 0, 4, :], 0.0)  # dropped odd row

    def test_train_output_is_step_state(self):
        # the conv after a transition's pool keeps the pool's train output,
        # so it is the pool's own, reused while the shape repeats and
        # replaced when it changes; an infer output is a new array
        pool, outputs = AvgPool2d(), []
        for n in (3, 3, 2, 2):
            x = rng(n).uniform(0.5, 1.5, (2, n, 4, 6)).astype(np.float32)
            out = pool.forward(x, True, *unit_scale_shift(2, np.float32))
            assert pool._cache[3] is out and out.base is None  # not a view of scratch
            np.testing.assert_array_equal(out, pool.forward(x, False, *unit_scale_shift(2, np.float32)))
            outputs.append(out)
        assert [out is outputs[0] for out in outputs] == [True, True, False, False]
        assert outputs[3] is outputs[2]
        assert pool.forward(x, False, *unit_scale_shift(2, np.float32)) is not outputs[3]


class TestGlobalAvgPool:
    def test_constant(self):
        out = GlobalAvgPool().forward(np.full((3, 1, 2, 9), 4.0), False, *unit_scale_shift(3))
        assert out.shape == (1, 3)
        np.testing.assert_array_equal(out, 4.0)

    def test_direct_mean(self):
        x = np.array([3.0, 5.0]).reshape(1, 1, 1, 2)
        assert GlobalAvgPool().forward(x, False, *unit_scale_shift(1)).item() == 4.0

    def test_backward_spreads_uniformly(self):
        pool = GlobalAvgPool()
        pool.forward(np.ones((1, 1, 2, 9)), True, *unit_scale_shift(1))
        dx = pool.backward(np.ones((1, 1)), np.zeros(1), np.zeros(1))
        np.testing.assert_allclose(dx, 1.0 / 18.0)


class TestLinear:
    def test_identity(self):
        lin = Linear(3, 3)
        lin.weight[...] = np.eye(3)
        x = rng().standard_normal((2, 3))
        np.testing.assert_allclose(lin.forward(x), x, atol=1e-12)

    def test_dot_product(self):
        lin = Linear(2, 1, dtype=np.float64)
        lin.weight[...] = np.array([[1.0, 2.0]])
        lin.bias[...] = np.array([1.0])
        out = lin.forward(np.array([[3.0, 4.0]]))
        assert out.item() == 12.0

    def test_batching(self):
        lin = Linear(4, 3, rng=rng(2), dtype=np.float64)
        x = rng(3).standard_normal((2, 4))
        joint = lin.forward(x)
        np.testing.assert_allclose(joint[0], lin.forward(x[:1])[0], atol=1e-12)
        np.testing.assert_allclose(joint[1], lin.forward(x[1:])[0], atol=1e-12)

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            Linear(4, 3).forward(np.zeros((2, 5)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        for classes in (2, 5, 10):
            loss, _ = softmax_cross_entropy(np.zeros((3, classes)), np.zeros(3, dtype=int))
            assert loss == pytest.approx(np.log(classes), rel=1e-6)

    def test_extreme_logits_stable(self):
        loss, grad = softmax_cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_rows_sum_to_one(self):
        probs = softmax(rng(7).standard_normal((6, 9)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(DataError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        logits = rng(11).standard_normal((4, 6))
        labels = np.array([0, 5, 2, 2])
        _, grad = softmax_cross_entropy(logits, labels)
        expected = softmax(logits)
        expected[np.arange(4), labels] -= 1.0
        np.testing.assert_allclose(grad, expected / 4.0, atol=1e-12)


@given(st.integers(2, 16), st.integers(2, 16))
@settings(max_examples=30, deadline=None)
def test_pool_shape_formula(h, w):
    out = AvgPool2d().forward(np.ones((1, 1, h, w)), False, *unit_scale_shift(1))
    assert out.shape[2:] == (pool_output_size(h), pool_output_size(w))


def as_strided(x):
    """The same values as ``x``, (C, N, ...), over (N, C, ...) memory."""
    return np.ascontiguousarray(x.swapaxes(0, 1)).swapaxes(0, 1)


class TestChannelMajorLayout:
    """Layers give the same results on C-order and strided (C, N, H, W) input,
    and reject an array whose leading axis is not their channel count."""

    def run_both(self, make, shape, train=True, seed=0):
        r = rng(seed)
        x = r.standard_normal(shape)
        results = []
        for layout in (np.ascontiguousarray, as_strided):
            layer = make()
            # a pool runs after a batchnorm's scale and shift, here 1 and 0 on positive input
            pooled = isinstance(layer, (AvgPool2d, GlobalAvgPool))
            fused = unit_scale_shift(shape[0]) if pooled else ()
            out = layer.forward(layout(np.abs(x) if pooled else x), train, *fused).copy()
            if not train:
                results.append((out, None, {}))
                continue
            dout = layout(rng(seed + 1).standard_normal(out.shape))
            # a batchnorm's backward finishes what the conv after it read
            # (``_read_relu``), and a pool's writes the gradients of its
            # scale and shift
            if isinstance(layer, BatchNorm):
                _read_relu(dout, out, layer.gamma, layer.grad_gamma, layer.grad_beta)
            after = [np.zeros(shape[0]), np.zeros(shape[0])] if pooled else []
            dx = layer.backward(dout, *after).copy()
            grads = named_arrays([("layer", layer)], "PARAMS", "grad_")
            if pooled:
                grads = dict(zip(("scale", "shift"), after))
            results.append((out, dx, {k: v.copy() for k, v in grads.items()}))
        (out_a, dx_a, grads_a), (out_b, dx_b, grads_b) = results
        np.testing.assert_allclose(out_b, out_a, rtol=0, atol=1e-12)
        if train:
            assert dx_b.shape == x.shape
            np.testing.assert_allclose(dx_b, dx_a, rtol=0, atol=1e-12)
            assert grads_a.keys() == grads_b.keys()
            for name in grads_a:
                np.testing.assert_allclose(grads_b[name], grads_a[name], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel,pad", [(1, 0), (1, 1), (3, 0), (3, 1)])
    def test_conv2d(self, kernel, pad):
        if 2 * pad > kernel - 1:
            with pytest.raises(ConfigError):
                Conv2d(4, 5, kernel, pad=pad)
            return
        self.run_both(lambda: Conv2d(4, 5, kernel, pad=pad, rng=rng(9), dtype=np.float64),
                      (4, 3, 5, 7))

    @pytest.mark.parametrize("train", [True, False])
    def test_batchnorm(self, train):
        def make():
            bn = BatchNorm(4, dtype=np.float64)
            bn.gamma[...] = [0.5, 1.5, -1.0, 2.0]
            bn.beta[...] = [0.1, -0.2, 0.3, 0.0]
            bn.running_mean[...] = [0.2, -0.1, 0.0, 0.4]
            bn.running_var[...] = [0.5, 2.0, 1.0, 1.5]
            return bn
        self.run_both(make, (4, 3, 5, 7), train=train)

    @pytest.mark.parametrize("layer", [AvgPool2d, GlobalAvgPool])
    def test_parameter_free_layers(self, layer):
        self.run_both(layer, (4, 3, 5, 7))

    @pytest.mark.parametrize("bottleneck", [False, True])
    def test_dense_block(self, bottleneck):
        self.run_both(lambda: DenseBlock(5, 3, 3, bottleneck=bottleneck, rng=rng(4),
                                         dtype=np.float64), (5, 3, 4, 6))

    @pytest.mark.parametrize("layer", [lambda: BatchNorm(4), AvgPool2d],
                             ids=["BatchNorm", "AvgPool2d"])
    def test_train_results_are_channel_major_for_c_order_input(self, layer):
        layer = layer()
        x = rng(2).standard_normal((4, 3, 5, 7)).astype(np.float32)
        # a pool runs after a batchnorm's scale 1 and shift 0, on positive input,
        # and its backward writes their gradients; a batchnorm's backward
        # finishes its input gradient in place
        if isinstance(layer, AvgPool2d):
            out = layer.forward(np.abs(x), True, *unit_scale_shift(4, np.float32))
            after = [np.zeros(4, np.float32), np.zeros(4, np.float32)]
        else:
            out = layer.forward(x, train=True)
            after = []
        assert out.flags.c_contiguous
        dx = layer.backward(np.ones(out.shape, np.float32), *after)
        assert dx.shape == x.shape and dx.flags.c_contiguous

    def test_train_forward_keeps_block_features_channel_major(self):
        cfg = DenseNetConfig(variant="BC", depth=16, blocks=3, compression=0.5,
                             num_classes=5)
        model = build_model(cfg, seed=0)
        features = []
        for block in model.blocks:
            def record(x, train=False, forward=block.forward):
                out = forward(x, train)
                features.append(out)
                return out
            block.forward = record
        model.forward(rng(5).standard_normal((4, 3, 11, 40)).astype(np.float32), train=True)
        assert len(features) == len(model.blocks)
        for out, block in zip(features, model.blocks):
            assert out.shape[:2] == (block.out_channels, 4)
            assert out.flags.c_contiguous

    @pytest.mark.parametrize("layer", [
        lambda: Conv2d(4, 5, 3, pad=1), lambda: Conv2d(4, 5, 1), lambda: BatchNorm(4),
        lambda: DenseBlock(4, 3, 2, bottleneck=True, rng=rng(), dtype=np.float32),
    ], ids=["Conv2d-3x3", "Conv2d-1x1", "BatchNorm", "DenseBlock"])
    @pytest.mark.parametrize("train", [False, True])
    def test_rejects_batch_major_input(self, layer, train):
        # (N, C, H, W) with N != C: the leading axis is not the channel count
        with pytest.raises(ShapeError):
            layer().forward(np.zeros((3, 4, 5, 7), np.float32), train=train)

    @pytest.mark.parametrize("shape", [(3, 4, 0, 7), (3, 4, 5, 0)], ids=["no-rows", "no-columns"])
    def test_global_pool_rejects_an_empty_extent(self, shape):
        scale = np.ones(3, np.float32)
        with pytest.raises(ShapeError, match="global_avgpool"):
            GlobalAvgPool().forward(np.ones(shape, np.float32), False, scale, scale)

    @pytest.mark.parametrize("logits, labels, message", [
        (np.zeros(4), np.zeros(4, np.int64), "logits must be"),
        (np.zeros((4, 3)), np.zeros(3, np.int64), "labels must be"),
        (np.zeros((4, 3)), np.zeros((4, 1), np.int64), "labels must be"),
    ], ids=["1-D-logits", "short-labels", "2-D-labels"])
    def test_cross_entropy_rejects_misshaped_input(self, logits, labels, message):
        with pytest.raises(ShapeError, match=message):
            softmax_cross_entropy(logits, labels)

    @pytest.mark.parametrize("layer", [lambda: Conv2d(3, 5, 3, pad=1), AvgPool2d, GlobalAvgPool],
                             ids=["Conv2d", "AvgPool2d", "GlobalAvgPool"])
    @pytest.mark.parametrize("shape,scale_size", [((3, 4, 5, 7), 4), ((3, 4, 5, 7), 2),
                                                  ((3, 4, 35), 3)],
                             ids=["long-scale", "short-scale", "three-axes"])
    @pytest.mark.parametrize("train", [False, True])
    def test_rejects_malformed_activation_input(self, layer, shape, scale_size, train):
        # the batchnorm's scale and shift that a conv or pool applies must
        # match the input's channels, checked before any work item runs
        scale = np.ones(scale_size, np.float32)
        with pytest.raises(ShapeError):
            layer().forward(np.ones(shape, np.float32), train, scale, np.zeros_like(scale))
