import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damnet.builder import (
    DenseNetConfig,
    block_connection_count,
    block_input_channels,
    bottleneck_pairs_per_block,
    effective_depth,
    layers_per_block,
    plan_architecture,
    transition_output_channels,
)
from damnet.exceptions import ConfigError
from damnet.layers import BatchNorm, Conv2d
from damnet import model as model_module
from damnet.model import DenseBlock, build_model, count_parameters, named_arrays, walk


def rng(seed=0):
    return np.random.default_rng(seed)


class TestLayerArithmetic:
    def test_depth22_three_blocks(self):
        assert layers_per_block(22, 3) == 6
        assert bottleneck_pairs_per_block(22, 3) == 3

    def test_derived_counts(self):
        assert layers_per_block(41, 4) == 9
        assert layers_per_block(5, 1) == 3
        assert bottleneck_pairs_per_block(41, 3) == 6  # floor gives 12 layers
        assert bottleneck_pairs_per_block(10, 1) == 4

    def test_effective_depth_floors(self):
        assert effective_depth(22, 3) == 22
        assert effective_depth(41, 3) == 40  # (41-4)/3 is inexact
        assert effective_depth(41, 4) == 41

    def test_depth_too_small(self):
        with pytest.raises(ConfigError):
            layers_per_block(4, 3)
        with pytest.raises(ConfigError):
            layers_per_block(5, 3)  # (5-4)//3 == 0

    def test_odd_layers_reject_bottleneck(self):
        with pytest.raises(ConfigError):
            bottleneck_pairs_per_block(9, 1)  # 7 layers


class TestBlockInputChannels:
    def test_first_layer_sees_block_input(self):
        assert block_input_channels(16, 12, 1) == 16

    def test_seventh_layer(self):
        assert block_input_channels(16, 12, 7) == 88

    def test_cumulative_new_maps(self):
        # accumulated new maps after layers 1, 2, 3 with growth rate 12
        growth = 12
        assert [n * growth for n in (1, 2, 3)] == [12, 24, 36]


class TestTransitionChannels:
    def test_values(self):
        assert transition_output_channels(160, 0.5) == 80
        assert transition_output_channels(7, 1.0) == 7
        assert transition_output_channels(7, 0.4) == 2  # floor(2.8)

    def test_over_compression(self):
        with pytest.raises(ConfigError):
            transition_output_channels(5, 0.1)

    @given(st.integers(1, 512), st.integers(1, 9))
    @settings(max_examples=200, deadline=None)
    def test_floor_law(self, channels, tenths):
        theta = tenths / 10.0
        expected = int(Fraction(tenths, 10) * channels)  # exact decimal floor oracle
        if expected == 0:
            with pytest.raises(ConfigError):
                transition_output_channels(channels, theta)
        else:
            assert transition_output_channels(channels, theta) == expected


class TestConnectionCount:
    def test_three_layer_block(self):
        assert block_connection_count(3) == 6

    def test_single_layer(self):
        assert block_connection_count(1) == 1

    def test_matches_constructed_wiring(self):
        block = DenseBlock(16, 12, 6, bottleneck=False, rng=rng(), dtype=np.float32)
        assert block.wiring_edge_count() == 21
        assert block.wiring_edge_count() == block_connection_count(6)


@pytest.mark.parametrize("call, message", [
    (lambda: block_input_channels(16, 12, 0), "layer index"),
    (lambda: transition_output_channels(0, 0.5), "channel count"),
    (lambda: block_connection_count(0), "layer count"),
], ids=["block_input_channels", "transition_output_channels", "block_connection_count"])
def test_counts_below_one_rejected(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


class TestConfigValidation:
    def test_plain_requires_full_compression(self):
        with pytest.raises(ConfigError):
            DenseNetConfig(variant="plain", compression=0.5).validate()

    def test_compressed_variants_require_theta_below_one(self):
        with pytest.raises(ConfigError):
            DenseNetConfig(variant="C", compression=1.0).validate()
        with pytest.raises(ConfigError):
            DenseNetConfig(variant="BC", compression=1.0).validate()

    def test_bc_requires_even_layers(self):
        # depth 25, 3 blocks -> 7 layers per block
        with pytest.raises(ConfigError):
            DenseNetConfig(variant="BC", depth=25, blocks=3, compression=0.5).validate()

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            DenseNetConfig(variant="bc").validate()

    def test_negative_seed(self):
        # numpy's generator would reject it with its own ValueError
        with pytest.raises(ConfigError, match="seed"):
            build_model(DenseNetConfig(num_classes=5), seed=-1)

    def test_depth_bound(self):
        with pytest.raises(ConfigError):
            DenseNetConfig(depth=4, blocks=3).validate()


class TestPlanArchitecture:
    def test_depth22_output_size_column(self):
        cfg = DenseNetConfig(variant="C", depth=22, blocks=3, compression=0.5)
        table = plan_architecture(cfg)
        sizes = [s.out_size for s in table.stages]
        assert sizes == [(9, 38), (9, 38), (4, 19), (4, 19), (2, 9), (2, 9), (1, 1)]

    def test_transition_records_pre_pool_size(self):
        table = plan_architecture(DenseNetConfig(variant="C", compression=0.5))
        transitions = [s for s in table.stages if s.kind == "transition"]
        assert transitions[0].mid_size == (9, 38)
        assert transitions[0].out_size == (4, 19)
        assert transitions[1].mid_size == (4, 19)
        assert transitions[1].out_size == (2, 9)

    def test_single_block_has_no_transition(self):
        table = plan_architecture(DenseNetConfig(variant="plain", depth=5, blocks=1))
        kinds = [s.kind for s in table.stages]
        assert kinds == ["initial-conv", "dense-block", "classifier"]

    def test_bc_block_lists_three_pairs(self):
        table = plan_architecture(DenseNetConfig(variant="BC", depth=22, blocks=3,
                                                 compression=0.5))
        blocks = [s for s in table.stages if s.kind == "dense-block"]
        assert all(s.layers == "1x1 conv, 3x3 conv x3" for s in blocks)

    def test_channel_bookkeeping(self):
        cfg = DenseNetConfig(variant="plain", depth=22, blocks=3, growth_rate=12)
        table = plan_architecture(cfg)
        blocks = [s for s in table.stages if s.kind == "dense-block"]
        for stage in blocks:
            assert stage.out_channels == stage.in_channels + 6 * 12

    def test_too_many_blocks_for_geometry(self):
        with pytest.raises(ConfigError):
            plan_architecture(DenseNetConfig(variant="plain", depth=13, blocks=6,
                                             input_height=11, input_width=11))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["plain", "BC"]), st.integers(1, 4000), st.integers(1, 64),
           st.integers(1, 2000))
    def test_block_params_match_a_per_unit_count(self, variant, units, growth, channels):
        bc = variant == "BC"
        cfg = DenseNetConfig(variant=variant, depth=(2 if bc else 1) * units + 2, blocks=1,
                             growth_rate=growth, compression=0.5 if bc else 1.0,
                             first_conv_channels=channels)
        (block,) = [s for s in plan_architecture(cfg).stages if s.kind == "dense-block"]
        squeeze = 4 * growth
        want = 0
        for n in range(1, units + 1):  # bn1, then the convs (and bn2) of unit n
            c = block_input_channels(channels, growth, n)
            if bc:
                want += 2 * c + c * squeeze + 2 * squeeze + 9 * squeeze * growth
            else:
                want += 2 * c + 9 * c * growth
        assert block.param_count == want

    def test_planning_takes_no_time_per_unit(self):
        # a trillion units would take days if planning visited each
        table = plan_architecture(DenseNetConfig(depth=10**12, blocks=1))
        (block,) = [s for s in table.stages if s.kind == "dense-block"]
        units = 10**12 - 2
        assert block.param_count == (2 + 9 * 12) * (units * 16 + 12 * units * (units - 1) // 2)


def random_config(r) -> DenseNetConfig:
    variant = r.choice(["plain", "C", "BC"])
    blocks = int(r.integers(1, 4))
    units = int(r.integers(1, 5))
    layers = units * 2 if variant == "BC" else units
    depth = blocks * layers + blocks + 1
    compression = 1.0 if variant == "plain" else float(r.choice([0.4, 0.5, 0.8]))
    return DenseNetConfig(
        variant=variant, depth=depth, blocks=blocks,
        growth_rate=int(r.integers(4, 17)), compression=compression,
        num_classes=int(r.integers(5, 41)),
        first_conv_channels=int(r.integers(8, 25)),
    )


BACKWARD_STATE = ("_cache",)


def backward_state(model) -> dict:
    """(layer path, field) -> value of every backward-state field in the model,
    found by walking each stage's layer attributes and unit lists."""
    found = {}

    def walk(obj, path):
        for field in BACKWARD_STATE:
            if field in vars(obj):
                found[(path, field)] = vars(obj)[field]
        for name, value in vars(obj).items():
            children = value if isinstance(value, list) else [value]
            for i, child in enumerate(children):
                if hasattr(child, "forward") and hasattr(child, "backward"):
                    walk(child, f"{path}.{name}.{i}")

    for name, stage in model.stages():
        walk(stage, name)
    return found


class TestModel:
    def test_realized_shapes_match_plan(self):
        r = rng(1)
        for _ in range(5):
            cfg = random_config(r)
            table = plan_architecture(cfg)
            model = build_model(cfg, seed=0)
            x = r.standard_normal((3, 2, 11, 40)).astype(np.float32)
            trace = []
            for name, stage in model.stages():
                x = stage.forward(x, False)
                trace.append((name, x.shape))
            assert len(trace) == len(table.stages)
            for (name, shape), stage in zip(trace, table.stages):
                assert name == stage.name
                if stage.kind == "classifier":
                    assert shape == (2, cfg.num_classes)
                else:
                    assert shape == (stage.out_channels, 2, *stage.out_size)

    def test_same_seed_same_parameters(self):
        cfg = DenseNetConfig(variant="C", depth=13, blocks=3, compression=0.5,
                             num_classes=10)
        a = build_model(cfg, seed=42)
        b = build_model(cfg, seed=42)
        for name, tensor in a.named_tensors().items():
            np.testing.assert_array_equal(tensor, b.named_tensors()[name])

    def test_different_seed_differs(self):
        cfg = DenseNetConfig(variant="plain", depth=7, blocks=3, num_classes=10)
        a = build_model(cfg, seed=0)
        b = build_model(cfg, seed=1)
        assert any(
            not np.array_equal(t, b.named_params()[n])
            for n, t in a.named_params().items()
        )

    def test_depth41_four_block_structure(self):
        cfg = DenseNetConfig(variant="C", depth=41, blocks=4, compression=0.5,
                             num_classes=10)
        model = build_model(cfg, seed=0)
        names = [name for name, _ in model.stages()]
        assert names == ["initial_conv", "block1", "transition1", "block2",
                         "transition2", "block3", "transition3", "block4",
                         "classifier"]
        assert all(len(block.units) == 9 for block in model.blocks)

    def test_counts_match_plan_for_random_configs(self):
        r = rng(7)
        for _ in range(20):
            cfg = random_config(r)
            table = plan_architecture(cfg)
            counts = count_parameters(build_model(cfg, seed=3))
            assert counts.total == table.total_params
            assert counts.per_stage == table.stage_params()

    def test_block_input_channels_walked(self):
        cfg = DenseNetConfig(variant="plain", depth=22, blocks=3, growth_rate=12)
        model = build_model(cfg, seed=0)
        for block in model.blocks:
            for n, unit in enumerate(block.units, 1):
                expected = block_input_channels(block.in_channels, 12, n)
                assert unit.bn1.num_channels == expected
                assert unit.conv3x3.in_channels == expected

    def test_wiring_edges(self):
        for num_units in range(1, 8):
            block = DenseBlock(8, 4, num_units, bottleneck=False, rng=rng(),
                               dtype=np.float32)
            assert block.wiring_edge_count() == block_connection_count(num_units)

    def test_parameter_names_unique(self):
        cfg = DenseNetConfig(variant="BC", depth=22, blocks=3, compression=0.5,
                             num_classes=10)
        model = build_model(cfg, seed=0)
        names = []
        for stage_name, stage in model.stages():
            for key in named_arrays([(stage_name, stage)], "PARAMS"):
                names.append(key)
            for key in named_arrays([(stage_name, stage)], "STATE"):
                names.append(key)
        assert len(names) == len(set(names))
        assert len(model.named_tensors()) == len(names)

    def test_identical_rows_identical_logits(self):
        # infer mode takes no product across frames, so at any batch size and
        # either precision every copy of one frame gets bitwise equal logits
        cfg = DenseNetConfig(variant="C", depth=13, blocks=3, compression=0.5,
                             num_classes=10)
        for dtype in (np.float32, np.float64):
            model = build_model(cfg, seed=0, dtype=dtype)
            frame = rng(2).standard_normal((1, 3, 11, 40)).astype(dtype)
            for batch in (2, 37, 256):
                logits = model.forward(np.repeat(frame, batch, axis=0), train=False)
                assert logits.shape == (batch, 10)
                first = logits[0].tobytes()
                differing = [i for i, row in enumerate(logits) if row.tobytes() != first]
                assert differing == [], (dtype.__name__, batch, differing)

    def test_finite_logits_and_normalized_softmax(self):
        from damnet.layers import softmax

        cfg = DenseNetConfig(variant="C", depth=13, blocks=3, compression=0.5,
                             num_classes=10)
        model = build_model(cfg, seed=0)
        logits = model.forward(rng(3).standard_normal((4, 3, 11, 40)).astype(np.float32))
        assert np.all(np.isfinite(logits))
        np.testing.assert_allclose(softmax(logits).sum(axis=1), 1.0, atol=1e-6)

    def test_gradient_reaches_input_through_dense_wiring(self):
        from damnet.layers import softmax_cross_entropy

        cfg = DenseNetConfig(variant="plain", depth=13, blocks=3, num_classes=5)
        model = build_model(cfg, seed=0)
        x = rng(4).standard_normal((2, 3, 11, 40)).astype(np.float32)
        logits = model.forward(x, train=True)
        _, dlogits = softmax_cross_entropy(logits, np.array([0, 1]))
        dx = model.backward(dlogits)
        assert dx.shape == x.shape
        assert np.abs(dx).max() > 0
        for name, grad in model.named_grads().items():
            assert grad is not None and np.abs(grad).max() > 0, name

    def test_geometry_mismatch(self):
        from damnet.exceptions import ShapeError

        model = build_model(DenseNetConfig(variant="plain", depth=7, blocks=3,
                                           num_classes=5), seed=0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 3, 11, 39), dtype=np.float32))

    @pytest.mark.parametrize("variant,depth,blocks,compression,seed", [
        ("plain", 7, 2, 1.0, 0),   # covers transitions and multi-block wiring
        ("BC", 6, 1, 0.5, 5),      # covers the bottleneck unit chain
    ])
    def test_whole_model_gradient_matches_finite_differences(
            self, variant, depth, blocks, compression, seed):
        from damnet.gradcheck import finite_diff_check
        from damnet.layers import softmax_cross_entropy

        cfg = DenseNetConfig(variant=variant, depth=depth, blocks=blocks,
                             growth_rate=2, compression=compression,
                             input_channels=1, input_height=6, input_width=8,
                             num_classes=3, first_conv_channels=2)
        model = build_model(cfg, seed=seed, dtype=np.float64)
        r = rng(seed)
        x = r.standard_normal((2, 1, 6, 8))
        labels = np.array([0, 2])
        eps = 1e-5

        # central differences are only valid away from ReLU kinks: this
        # seed gives every pre-activation, a batchnorm's xhat * gamma + beta
        # (a ReLU follows each), a margin far above eps
        model.forward(x, train=True)
        margins = [np.abs(layer._cache[0] * layer.gamma[:, None, None, None]
                          + layer.beta[:, None, None, None]).min()
                   for _, stage in model.stages() for _, layer in walk(stage)
                   if isinstance(layer, BatchNorm)]
        assert min(margins) > 50 * eps, "seed lands too close to a ReLU kink"

        def objective():
            return softmax_cross_entropy(model.forward(x, train=True), labels)[0]

        logits = model.forward(x, train=True)
        _, dlogits = softmax_cross_entropy(logits, labels)
        dx = model.backward(dlogits)
        tensors = {"x": x, **model.named_params()}
        analytic = {"x": dx, **{k: g.copy() for k, g in model.named_grads().items()}}
        assert finite_diff_check(objective, tensors, analytic, eps=eps) < 1e-4

    def test_infer_forward_leaves_backward_state_alone(self):
        from damnet.layers import softmax_cross_entropy

        cfg = DenseNetConfig(variant="BC", depth=16, blocks=3, growth_rate=4,
                             compression=0.5, num_classes=5, first_conv_channels=8)
        model = build_model(cfg, seed=0)
        x = rng(6).standard_normal((4, 3, 11, 40)).astype(np.float32)
        fields = backward_state(model)
        assert {field for _, field in fields} == set(BACKWARD_STATE)
        model.forward(x, train=False)
        for key, value in backward_state(model).items():
            assert value is None, key

        logits = model.forward(x, train=True)
        model.backward(softmax_cross_entropy(logits, np.arange(4))[1])
        after_step = backward_state(model)
        assert all(value is not None for value in after_step.values())
        model.forward(x[:2], train=False)
        for key, value in backward_state(model).items():
            assert value is after_step[key], key


    def test_blocks_keep_one_normalization_and_units_no_relu_mask(self):
        from damnet.layers import softmax_cross_entropy

        configs = [DenseNetConfig(variant="plain", depth=13, blocks=3, growth_rate=4,
                                  num_classes=5, first_conv_channels=8),
                   DenseNetConfig(variant="BC", depth=16, blocks=3, growth_rate=4,
                                  compression=0.5, num_classes=5, first_conv_channels=8)]
        for cfg in configs:
            model = build_model(cfg, seed=0)
            x = rng(6).standard_normal((4, 3, 11, 40)).astype(np.float32)
            model.backward(softmax_cross_entropy(model.forward(x, train=True), np.arange(4))[1])
            state = backward_state(model)
            for name, block in model.stages():
                if not isinstance(block, DenseBlock):
                    continue
                xhat, inv = state[(name, "_cache")]
                assert xhat.shape[0] == inv.shape[0] == block.out_channels
                in_units = {path: value for (path, _), value in state.items()
                            if path.startswith(f"{name}.units.")}
                # a unit keeps its conv grids, a bn1 view of the block's
                # xhat and a BC unit bn2's own xhat, and no ReLU mask
                kinds = {path.split(".")[-2] for path in in_units}
                assert kinds == ({"bn1", "conv1x1", "bn2", "conv3x3"} if cfg.bottleneck
                                 else {"bn1", "conv3x3"}), kinds
                for path, value in in_units.items():
                    if ".bn1." in path:
                        assert value[0].base is not None and np.shares_memory(value[0], xhat), path
                    elif ".bn2." in path:
                        assert value[0].base is None and value[0].shape[0] == 4 * 4, path
                        assert not np.shares_memory(value[0], xhat), path

    def test_heads_keep_no_normalization_or_mask_of_their_own(self):
        # a transition's and the classifier's batchnorm and pool keep views
        # of the block's xhat; the pool recomputes the ReLU mask from it
        from damnet.layers import softmax_cross_entropy

        cfg = DenseNetConfig(variant="BC", depth=16, blocks=3, growth_rate=4,
                             compression=0.5, num_classes=5, first_conv_channels=8)
        model = build_model(cfg, seed=0)
        x = rng(6).standard_normal((4, 3, 11, 40)).astype(np.float32)
        model.backward(softmax_cross_entropy(model.forward(x, train=True), np.arange(4))[1])
        state, stages = backward_state(model), model.stages()
        heads = [(head_name, block) for (_, block), (head_name, _) in zip(stages, stages[1:])
                 if isinstance(block, DenseBlock)]
        assert [name for name, _ in heads] == ["transition1", "transition2", "classifier"]
        for head_name, block in heads:
            xhat = block._cache[0]
            in_head = {path: value for (path, _), value in state.items()
                       if path.startswith(f"{head_name}.")}
            assert sorted(in_head) == sorted(f"{head_name}.{layer}.0" for layer in (
                "bn", "pool", "conv" if head_name != "classifier" else "fc"))
            for layer in ("bn", "pool"):
                kept = in_head[f"{head_name}.{layer}.0"][0]
                assert kept.shape == xhat.shape and np.shares_memory(kept, xhat), layer
            assert in_head[f"{head_name}.bn.0"][0].base is not None


    def test_conv_grids_are_unpadded(self):
        # each 3x3 conv keeps a view of its block's normalization, not a
        # grid of its own; a panel's GEMM input, its ReLU output, is a
        # C-contiguous (C, images*H*W) grid with no padding around its images
        from damnet.layers import softmax_cross_entropy

        cfg = DenseNetConfig(variant="plain", depth=13, blocks=3, growth_rate=4,
                             num_classes=5, first_conv_channels=8)
        model = build_model(cfg, seed=0)
        x = rng(6).standard_normal((6, 3, 11, 40)).astype(np.float32)
        model.backward(softmax_cross_entropy(model.forward(x, train=True), np.arange(6) % 5)[1])
        extents = set()
        for block in model.blocks:
            for unit in block.units:
                kept, gamma, beta = unit.conv3x3._cache
                c, n, h, w = kept.shape
                assert kept.base is not None and np.shares_memory(kept, block._cache[0])
                assert gamma is unit.bn1.gamma and beta is unit.bn1.beta
                grid = unit.conv3x3._columns(unit.conv3x3._images(kept, gamma, beta, slice(2, 5)))
                assert grid.shape == (c, 3 * h * w) and grid.flags.c_contiguous
                relu = np.maximum(kept[:, 2:5] * gamma[:, None, None, None]
                                  + beta[:, None, None, None], 0)
                np.testing.assert_array_equal(grid, relu.reshape(c, -1))
                extents.add((h, w))
        assert extents == {(9, 38), (4, 19), (2, 9)}

    @pytest.mark.parametrize("cfg", [
        DenseNetConfig(variant="plain", depth=13, blocks=3, growth_rate=4, num_classes=5,
                       first_conv_channels=8),
        DenseNetConfig(variant="BC", depth=16, blocks=3, growth_rate=4, compression=0.5,
                       num_classes=5, first_conv_channels=8),
    ], ids=["plain", "BC"])
    def test_step_state_bytes_match_the_shapes(self, cfg):
        # each block's xhat, each bn2's xhat, the inputs that the initial
        # conv and the transitions' convs keep by reference (the caller's
        # batch and the pools' outputs), and the small arrays beside them:
        # the inverse deviations, an array of C values, that the blocks and
        # bn2s keep, and the classifier's (N, C) features
        from damnet.layers import softmax_cross_entropy

        model = build_model(cfg, seed=0)
        n, item = 6, 4
        assert model.step_state_bytes() == 0
        x = rng(6).standard_normal((n, 3, 11, 40)).astype(np.float32)
        model.backward(softmax_cross_entropy(model.forward(x, train=True), np.arange(n) % 5)[1])
        want = 0
        for stage in plan_architecture(cfg).stages:
            pixels = n * stage.in_size[0] * stage.in_size[1]
            if stage.kind == "initial-conv":
                want += stage.in_channels * pixels
            elif stage.kind == "dense-block":
                want += stage.out_channels * (pixels + 1)
                if cfg.bottleneck:
                    want += cfg.units_per_block() * 4 * cfg.growth_rate * (pixels + 1)
            elif stage.kind == "transition":
                want += stage.in_channels * n * stage.out_size[0] * stage.out_size[1]
            else:
                want += stage.in_channels * n
        assert model.step_state_bytes() == want * item
        # a conv given a scale keeps the batchnorm's xhat before it, and
        # gamma and beta in the parameter arena: no memory of its own
        for block in model.blocks:
            for unit in block.units:
                pairs = [(unit.bn1, unit._order[1])]
                if cfg.bottleneck:
                    pairs.append((unit.bn2, unit.conv3x3))
                for bn, conv in pairs:
                    kept, gamma, beta = conv._cache
                    assert kept.shape == bn._cache[0].shape and np.shares_memory(kept, bn._cache[0])
                    assert gamma is bn.gamma and beta is bn.beta and gamma.base is model.tensors

    def test_step_state_bytes_count_a_sliced_input_as_its_own_frames(self):
        # the initial conv keeps a view of the batch; a batch sliced from a
        # larger array counts its own frames, as a copy of it does
        from damnet.layers import softmax_cross_entropy

        cfg = DenseNetConfig(variant="plain", depth=13, blocks=3, growth_rate=4, num_classes=5,
                             first_conv_channels=8)
        x = rng(6).standard_normal((40, 3, 11, 40)).astype(np.float32)
        counts = []
        for batch in (x[1:], x[1:].copy()):
            model = build_model(cfg, seed=0)
            logits = model.forward(batch, train=True)
            model.backward(softmax_cross_entropy(logits, np.arange(39) % 5)[1])
            counts.append(model.step_state_bytes())
        assert counts[0] == counts[1]

    def test_convs_without_batchnorm_keep_their_inputs_by_reference(self):
        # the initial conv keeps a view of the caller's batch, whose panels
        # it reads into patch matrices, and each transition's conv keeps its
        # pool's output: neither copies its input
        from damnet.layers import _panels, softmax_cross_entropy

        cfg = DenseNetConfig(variant="C", depth=13, blocks=3, growth_rate=4, compression=0.5,
                             num_classes=5, first_conv_channels=8)
        model = build_model(cfg, seed=0)
        n = 16 + 3
        x = rng(6).standard_normal((n, 3, 11, 40)).astype(np.float32)
        model.backward(softmax_cross_entropy(model.forward(x, train=True), np.arange(n) % 5)[1])
        stages = dict(model.stages())
        conv = stages["initial_conv"]
        kept, scale, shift = conv._cache
        assert kept.base is x and kept.shape == (3, n, 11, 40) and scale is shift is None
        frames = _panels(n, 9 * 38)[-1]
        assert frames == slice(16, n)
        images = conv._images(kept, None, None, frames)
        assert np.shares_memory(images, x)
        # row (c*3 + i)*3 + j: channel c's pixels that tap (i, j) reads
        patches = np.stack([x[frames, :, i : i + 9, j : j + 38]
                            for i in range(3) for j in range(3)], axis=1)
        np.testing.assert_array_equal(conv._columns(images),
                                      patches.transpose(2, 1, 0, 3, 4).reshape(27, -1))
        for name in ("transition1", "transition2"):
            head = stages[name]
            assert head.conv._cache[0] is head.pool._cache[3], name
            assert head.conv._cache[1:] == (None, None), name


class TestParameterArena:
    def test_named_views_share_the_arenas(self):
        cfg = DenseNetConfig(variant="BC", depth=16, blocks=3, growth_rate=4,
                             compression=0.5, num_classes=5, first_conv_channels=8)
        model = build_model(cfg, seed=0)
        params, state = model.named_params(), model.named_state()
        assert model.params.base is model.tensors
        assert model.params.size == sum(p.size for p in params.values())
        assert model.tensors.size == model.params.size + sum(s.size for s in state.values())
        assert model.grads.shape == model.params.shape
        for name, tensor in {**params, **state}.items():
            assert np.shares_memory(tensor, model.tensors), name
        for name, grad in model.named_grads().items():
            assert grad.shape == params[name].shape
            assert np.shares_memory(grad, model.grads), name
        # the arena holds the named tensors back to back, in named_tensors() order
        flat = np.concatenate([t.ravel() for t in model.named_tensors().values()])
        assert flat.tobytes() == model.tensors.tobytes()


    def test_planned_arena_size_is_the_built_arena(self):
        r = rng(7)
        for _ in range(20):
            cfg = random_config(r)
            assert plan_architecture(cfg).arena_size == build_model(cfg, seed=0).tensors.size, cfg

    def test_an_arena_past_the_checkpoint_limit_is_refused(self, monkeypatch):
        cfg = DenseNetConfig(variant="BC", depth=16, growth_rate=4, compression=0.5,
                             num_classes=5, first_conv_channels=8)
        size = plan_architecture(cfg).arena_size
        monkeypatch.setattr(model_module, "CHECKPOINT_VALUES", size)
        assert build_model(cfg, seed=0).tensors.size == size
        monkeypatch.setattr(model_module, "CHECKPOINT_VALUES", size - 1)
        with pytest.raises(ConfigError, match=f"needs {size} values"):
            build_model(cfg, seed=0)

    @pytest.mark.parametrize("key, value", [("num_classes", 10**12), ("growth_rate", 100_000)])
    def test_oversized_models_are_refused_before_any_tensor(self, key, value):
        # 2.3e14 and 1.6e13 planned values; a u32 value count holds 2^32 - 1
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="more than the 4294967295 a checkpoint holds"):
                build_model(DenseNetConfig(**{key: value}), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestParameterTables:
    def test_hand_counted_conv_bn_stack(self):
        conv = Conv2d(3, 16, 3)
        bn = BatchNorm(16)
        walked = sum(p.size for p in named_arrays([("conv", conv)], "PARAMS").values())
        walked += sum(p.size for p in named_arrays([("bn", bn)], "PARAMS").values())
        assert walked == 3 * 3 * 3 * 16 + 2 * 16 == 464

    def test_depth41_table_ordering(self):
        totals = {}
        for key, (variant, blocks, compression) in {
            "plain3": ("plain", 3, 1.0), "c3": ("C", 3, 0.5),
            "c4": ("C", 4, 0.5), "bc3": ("BC", 3, 0.5),
        }.items():
            cfg = DenseNetConfig(variant=variant, depth=41, blocks=blocks,
                                 growth_rate=12, compression=compression,
                                 num_classes=1500, first_conv_channels=16)
            totals[key] = plan_architecture(cfg).total_params
        assert totals["plain3"] > totals["c3"] > totals["c4"] > totals["bc3"]

    def test_total_nondecreasing_in_compression(self):
        totals = []
        for tenths in range(1, 10):
            cfg = DenseNetConfig(variant="C", depth=22, blocks=3,
                                 compression=tenths / 10.0, num_classes=100)
            totals.append(plan_architecture(cfg).total_params)
        cfg = DenseNetConfig(variant="plain", depth=22, blocks=3, num_classes=100)
        totals.append(plan_architecture(cfg).total_params)
        assert totals == sorted(totals)

    def test_spatial_invariance_and_halving(self):
        r = rng(9)
        for _ in range(5):
            cfg = random_config(r)
            table = plan_architecture(cfg)
            for stage in table.stages:
                if stage.kind == "dense-block":
                    assert stage.in_size == stage.out_size
                elif stage.kind == "transition":
                    assert stage.out_size == (stage.in_size[0] // 2, stage.in_size[1] // 2)
