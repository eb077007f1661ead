"""Executable densely-connected model realizing the planned architecture.

``Model`` builds one stage per ``plan_architecture`` record. Every dense
unit, transition and the classifier is a ``Chain`` of named primitives,
run in order forward and in reverse backward: a pre-activation BN -> ReLU,
then the convolutions of a unit (a BC unit's with a second BN -> ReLU
between them), the pool and 1x1 conv of a transition, or the global pool
and fc layer of the classifier. A chain's keywords name its tensors, as in
``transition1.conv.weight``, and so fix the checkpoint layout. Each
BN -> ReLU runs inside the conv or pool after it (``Chain``).

``Model.forward`` takes (N, C, H, W) frames and every stage passes on
channel-major (C, N, H, W) activations (see ``layers``): ``forward`` hands
the stages a transposed view of its input, the initial conv copies it into
its own grid, and ``backward`` returns the input gradient transposed back.
Each dense block keeps its features in one (C_out, N, H, W) buffer: unit n
reads the prefix ``features[:width]`` holding the block input and the n-1
prior unit outputs, and writes its growth_rate channels after it, so the
prefix and each unit's slab are contiguous. Backward runs the units in
reverse, adding each one's input gradient into the prefix of one gradient
buffer, so a unit's output gradient is complete when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .builder import (
    BOTTLENECK_FACTOR,
    DenseNetConfig,
    block_input_channels,
    plan_architecture,
)
from .exceptions import ShapeError
from .layers import (
    AvgPool2d,
    BatchNorm,
    Conv2d,
    GlobalAvgPool,
    Linear,
    normalize,
    project,
    scratch,
    step_state,
)


def walk(layer, name: str = ""):
    """Yield (name, layer) for ``layer`` and every layer under it, depth first
    in attribute order. A child's name is its parent's plus ``.attribute``;
    the n-th layer of a list (a dense block's units) is ``.layer{n}``."""
    yield name, layer
    for key, value in vars(layer).items():
        if isinstance(value, list):
            children = [(f"layer{n}", child) for n, child in enumerate(value, 1)]
        else:
            children = [(key, value)]
        for child_name, child in children:
            if hasattr(child, "backward"):
                yield from walk(child, f"{name}.{child_name}")


def named_arrays(stages, kind: str, prefix: str = "") -> dict[str, np.ndarray]:
    """Every tensor that the layers under ``stages``, a list of (name, layer),
    declare in ``kind`` ("PARAMS" or "STATE"), by dotted name in walk order.
    ``prefix="grad_"`` gives the gradients of the parameters instead."""
    return {f"{name}.{key}": getattr(layer, prefix + key)
            for stage_name, stage in stages
            for name, layer in walk(stage, stage_name)
            for key in getattr(layer, kind, ())}


class Chain:
    """A pre-activation BN -> ReLU and the layers after it, run in order by
    ``forward`` and in reverse by ``backward``.

    Each layer becomes an attribute under its keyword, so ``walk`` names its
    tensors ``<stage>.<keyword>.<tensor>``; a batchnorm comes first. The
    layer after a batchnorm applies its scale and shift and the ReLU (see
    ``BatchNorm``). The first batchnorm's input is already normalized in
    train mode, by the dense block before it (``DenseBlock``), so only a
    later one runs its ``forward``. ``backward`` runs a transition's or the
    classifier's: its pool sets the batchnorm's gradients and returns that
    of the block's ``xhat``. The order is fixed here: later attributes (such
    as wrappers a profiler sets) are never run as layers.
    """

    def __init__(self, **layers):
        for name, layer in layers.items():
            setattr(self, name, layer)
        self._order = tuple(layers.values())

    def forward(self, x, train=False):
        bn, *rest = self._order
        for layer in rest:
            if isinstance(layer, BatchNorm):
                bn, x = layer, layer.forward(x, train)
            else:
                fused = () if bn is None else (bn.gamma, bn.beta) if train else bn.folded()
                bn, x = None, layer.forward(x, train, *fused)
        return x

    def backward(self, dout):
        bn, first, *rest = self._order
        for layer in reversed(rest):
            dout = layer.backward(dout)
        return first.backward(dout, bn.grad_gamma, bn.grad_beta)


class DenseUnit(Chain):
    """One dense-block layer: BN -> ReLU -> 3x3 conv (pad 1) producing
    growth_rate maps, preceded in the BC variant by BN -> ReLU -> 1x1
    conv producing 4 * growth_rate maps.

    ``backward`` stops at ``bn1``'s ReLU output; the block runs ``bn1``'s
    backward. ``bn2`` reads its ReLU mask back from the 3x3 conv's grid.
    """

    def __init__(self, in_channels: int, growth_rate: int, bottleneck: bool, rng, dtype):
        layers, width = {}, in_channels
        if bottleneck:
            width = BOTTLENECK_FACTOR * growth_rate
            layers.update(conv1x1=Conv2d(in_channels, width, 1, rng=rng, dtype=dtype),
                          bn2=BatchNorm(width, dtype=dtype))
        super().__init__(bn1=BatchNorm(in_channels, dtype=dtype), **layers,
                         conv3x3=Conv2d(width, growth_rate, 3, pad=1, rng=rng, dtype=dtype))

    def backward(self, dout):
        dout = self.conv3x3.backward(dout)
        if hasattr(self, "bn2"):
            dout = self.conv1x1.backward(self.bn2.backward(dout, self.conv3x3.kept_input()))
        return dout


class DenseBlock:
    """Dense units with full concatenation wiring over one feature buffer;
    unit n reads the first ``widths[n-1]`` channels.

    A channel's batch statistics are the same for every layer that reads
    it, so in train mode the block normalizes each slab of channels once,
    before the first reader, into one ``xhat``, the train output, that every
    unit's bn1 and the batchnorm after the block (``_head``, set by
    ``Model``) keep views of. In backward, from the gradient of ``xhat``,
    each reader adds ``gamma * dh``; once every reader of a slab has run,
    its batchnorm backward is finished for all of them at once.
    """

    def __init__(self, in_channels: int, growth_rate: int, num_units: int,
                 bottleneck: bool, rng, dtype):
        self.in_channels = in_channels
        self.growth_rate = growth_rate
        self.widths = tuple(block_input_channels(in_channels, growth_rate, n)
                            for n in range(1, num_units + 1))
        self.units = [DenseUnit(width, growth_rate, bottleneck, rng, dtype)
                      for width in self.widths]
        self._head = ()  # (the batchnorm after the block,); a tuple, so walk skips it
        self._cache = None

    @property
    def out_channels(self) -> int:
        return self.in_channels + len(self.units) * self.growth_rate

    def wiring_edge_count(self) -> int:
        # a unit reading the block input and k prior outputs has k + 1 sources
        return sum(1 + (width - self.in_channels) // self.growth_rate for width in self.widths)

    def _slabs(self):
        """(start, width, unit), the unit the first to read channels start..width"""
        return zip((0, *self.widths[:-1]), self.widths, self.units)

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[0] != self.in_channels:
            raise ShapeError(f"dense block expects ({self.in_channels}, N, H, W), got {x.shape}")
        shape = (self.out_channels, *x.shape[1:])
        features = scratch("block", shape, x.dtype) if train else np.empty(shape, x.dtype)
        features[: self.in_channels] = x
        if train:
            xhat = step_state(self._cache[0] if self._cache else None, shape, x.dtype)
            stats = np.empty((3, shape[0]), x.dtype)  # mean, var, inv
            self._cache = (xhat, stats[2])

        def normalize_slab(start, width):
            stats[:, start:width] = normalize(features[start:width], xhat[start:width])

        for start, width, unit in self._slabs():
            if train:
                normalize_slab(start, width)
                unit.bn1.keep_batch(xhat[:width], *stats[:, :width])
            source = xhat if train else features
            features[width : width + self.growth_rate] = unit.forward(source[:width], train)
        if not train:
            return features
        normalize_slab(self.widths[-1], shape[0])
        for bn in self._head:
            bn.keep_batch(xhat[:], *stats)  # a view, which its own forward never reuses
        return xhat

    def backward(self, dout):
        xhat, inv = self._cache
        grad = scratch("block", dout.shape, dout.dtype)
        grad[...] = dout  # no copy when the head's pool wrote it there
        if self._head:  # its pool summed gamma * dh and gamma * dh * xhat already
            (bn,) = self._head
            sums = bn.gamma * np.stack((bn.grad_beta, bn.grad_gamma))
        else:
            sums = np.stack((np.einsum("cnhw->c", dout), np.einsum("cnhw,cnhw->c", dout, xhat)))
        last = self.widths[-1]
        project(grad[last:], xhat[last:], inv[last:], sums[:, last:])
        for start, width, unit in reversed(list(self._slabs())):
            bn, d = unit.bn1, unit.backward(grad[width : width + self.growth_rate])
            bn.backward(d, unit._order[1].kept_input(), grad[:width])
            sums[:, :width] += bn.gamma * np.stack((bn.grad_beta, bn.grad_gamma))
            project(grad[start:width], xhat[start:width], inv[start:width], sums[:, start:width])
        return grad[: self.in_channels]


def transition(in_channels: int, out_channels: int, rng, dtype) -> Chain:
    """BN -> ReLU -> 2x2 avg pool -> 1x1 conv to the compressed width. Pooling
    first equals the planned conv-then-pool exactly in real arithmetic (both
    are linear, the conv acts per position) and runs the conv on 4x fewer rows."""
    return Chain(bn=BatchNorm(in_channels, dtype=dtype), pool=AvgPool2d(),
                 conv=Conv2d(in_channels, out_channels, 1, rng=rng, dtype=dtype))


def classifier_head(in_channels: int, num_classes: int, rng, dtype) -> Chain:
    """BN -> ReLU -> global average pool -> fully-connected logits."""
    return Chain(bn=BatchNorm(in_channels, dtype=dtype), pool=GlobalAvgPool(),
                 fc=Linear(in_channels, num_classes, rng=rng, dtype=dtype))


class Model:
    """Ordered parameterized layer graph with dense-block wiring.

    Infer-mode forwards are pure: they read the weights and running
    statistics, write nothing and allocate what they compute, so they may
    run concurrently on one model, and a frame's logits never depend on the
    rest of its batch. Train-mode forwards update the batchnorm running
    statistics and keep each layer's backward state in that layer, reusing
    its memory while the batch shape repeats, so train forwards and
    backwards must be serialized, and ``backward`` needs a train-mode
    forward before it. Everything else a train step computes lives in
    per-thread scratch (``layers.scratch``), shared by every model that
    trains in the thread, so models may train in turn or in separate
    threads.

    Every tensor is a view of one flat arena, ``tensors``: first the
    trainable ones, then the batchnorm running statistics, each group in
    ``named_tensors()`` order, which is also the checkpoint's. ``params`` is
    the leading, trainable slice of ``tensors``, and ``grads`` holds the
    gradients, laid out like ``params``, that ``backward`` overwrites.
    ``named_params()``, ``named_state()`` and ``named_grads()`` return
    shaped views into them.
    """

    def __init__(self, config: DenseNetConfig, seed: int, dtype=np.float32):
        plan = plan_architecture(config)  # validates, and rejects collapsing geometries
        self.config = config
        self.seed = seed
        self.dtype = dtype
        rng = np.random.default_rng(seed)

        def build(stage):
            cin, cout = stage.in_channels, stage.out_channels
            if stage.kind == "initial-conv":
                return Conv2d(cin, cout, 3, rng=rng, dtype=dtype)
            if stage.kind == "dense-block":
                return DenseBlock(cin, config.growth_rate, config.units_per_block(),
                                  config.bottleneck, rng, dtype)
            if stage.kind == "transition":
                return transition(cin, cout, rng, dtype)
            return classifier_head(cin, cout, rng, dtype)

        self._stages = [(stage.name, build(stage)) for stage in plan.stages]
        self.blocks = [stage for _, stage in self._stages if isinstance(stage, DenseBlock)]
        for (_, stage), (_, head) in zip(self._stages, self._stages[1:]):
            if isinstance(stage, DenseBlock):
                stage._head = (head.bn,)

        # move every tensor, and point every gradient, into a view of its arena
        layers = [layer for _, stage in self._stages for _, layer in walk(stage)]
        params = [(layer, key) for layer in layers for key in getattr(layer, "PARAMS", ())]
        slots = params + [(layer, key) for layer in layers for key in getattr(layer, "STATE", ())]
        self.tensors = np.empty(sum(getattr(layer, key).size for layer, key in slots), dtype)
        self.params = self.tensors[: sum(getattr(layer, key).size for layer, key in params)]
        self.grads = np.zeros_like(self.params)
        offset = 0
        for layer, key in slots:
            value = getattr(layer, key)
            end = offset + value.size
            slot = self.tensors[offset:end].reshape(value.shape)
            slot[...] = value
            setattr(layer, key, slot)
            if end <= self.params.size:
                setattr(layer, "grad_" + key, self.grads[offset:end].reshape(value.shape))
            offset = end

    def stages(self) -> list[tuple[str, object]]:
        return list(self._stages)

    def _check_input(self, x):
        expected = (self.config.input_channels, self.config.input_height,
                    self.config.input_width)
        if x.ndim != 4 or x.shape[1:] != expected:
            raise ShapeError(
                f"model expects (N, {expected[0]}, {expected[1]}, {expected[2]}), got {x.shape}"
            )

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Logits (N, num_classes) for the (N, C, H, W) input, in a new array."""
        self._check_input(x)
        x = x.transpose(1, 0, 2, 3)
        for _, stage in self._stages:
            x = stage.forward(x, train)
        return x

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        """Overwrite ``grads`` from the last train forward's state and return
        the (N, C, H, W) input gradient: a transposed view of scratch memory,
        valid until the next train-mode call in this thread."""
        d = dlogits
        for _, stage in reversed(self._stages):
            d = stage.backward(d)
        return d.transpose(1, 0, 2, 3)

    def named_params(self) -> dict[str, np.ndarray]:
        return named_arrays(self._stages, "PARAMS")

    def named_grads(self) -> dict[str, np.ndarray]:
        return named_arrays(self._stages, "PARAMS", "grad_")

    def named_state(self) -> dict[str, np.ndarray]:
        return named_arrays(self._stages, "STATE")

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Parameters plus running statistics, in a stable order."""
        return {**self.named_params(), **self.named_state()}


@dataclass(frozen=True)
class ParameterCount:
    per_stage: dict[str, int]
    total: int


def build_model(config: DenseNetConfig, seed: int, dtype=np.float32) -> Model:
    """Construct a model; identical seed and config give bitwise-identical
    parameters."""
    return Model(config, seed, dtype=dtype)


def count_parameters(model: Model) -> ParameterCount:
    """Per-stage and total trainable parameter counts from walking the
    realized graph (running statistics excluded)."""
    per_stage = {name: 0 for name, _ in model.stages()}
    for name, param in model.named_params().items():
        per_stage[name.split(".")[0]] += param.size
    return ParameterCount(per_stage=per_stage, total=sum(per_stage.values()))
