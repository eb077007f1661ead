"""Architecture arithmetic: from hyperparameters to a planned stage table.

The planner works purely on integers (no tensors are allocated) and
produces the per-stage layer list, output sizes, channel counts and
parameter counts. ``model.Model`` is built from this plan, one stage per
record with the record's name and channel counts; tests hold the realized
stage output shapes and parameter counts to the plan.

Network shape: one 3x3 convolution (stride 1, no padding), then
``blocks`` dense blocks separated by transitions (1x1 convolution to
floor(compression * channels) maps followed by 2x2 average pooling),
and finally batchnorm -> ReLU -> global average pool -> fully-connected.
Every dense-block layer is batchnorm -> ReLU -> 3x3 convolution (pad 1)
producing ``growth_rate`` new maps; the BC variant prepends a
batchnorm -> ReLU -> 1x1 convolution producing 4 * growth_rate maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exceptions import ConfigError
from .formats import check_ranges, ranged
from .layers import conv_output_size, pool_output_size

VARIANTS = ("plain", "C", "BC")

# Width of the 1x1 bottleneck convolutions, in units of the growth rate.
BOTTLENECK_FACTOR = 4


def layers_per_block(depth: int, blocks: int) -> int:
    """Convolution layers per dense block for a given total depth.

    The initial convolution, the ``blocks - 1`` transitions and the
    classifier consume ``blocks + 1`` depth units; the rest is divided
    evenly (floor) across the blocks.
    """
    check_ranges(DenseNetConfig, blocks=blocks)
    if depth <= blocks + 1:
        raise ConfigError(f"depth {depth} must exceed blocks + 1 = {blocks + 1}")
    result = (depth - blocks - 1) // blocks
    if result < 1:
        raise ConfigError(
            f"depth {depth} with {blocks} blocks leaves no layers per block"
        )
    return result


def effective_depth(depth: int, blocks: int) -> int:
    """Depth actually realized after flooring the per-block layer count."""
    return blocks * layers_per_block(depth, blocks) + blocks + 1


def bottleneck_pairs_per_block(depth: int, blocks: int) -> int:
    """Pairs of (1x1 bottleneck, 3x3 conv) per block in the BC variant."""
    layers = layers_per_block(depth, blocks)
    if layers % 2:
        raise ConfigError(
            f"BC variant needs an even layer count per block, got {layers}"
        )
    return layers // 2


def block_input_channels(base_channels: int, growth_rate: int, layer_index: int) -> int:
    """Channels consumed by the n-th layer of a block whose input has
    ``base_channels`` maps: growth_rate * (n - 1) + base_channels."""
    if layer_index < 1:
        raise ConfigError(f"layer index must be >= 1, got {layer_index}")
    return growth_rate * (layer_index - 1) + base_channels


def transition_output_channels(channels: int, compression: float) -> int:
    """floor(compression * channels) output maps for a transition.

    The factor is taken at its decimal face value (0.7 means 7/10), so
    binary rounding of the float cannot pull the product below an exact
    integer: floor(0.7 * 90) is 63, not 62.
    """
    if channels < 1:
        raise ConfigError(f"channel count must be >= 1, got {channels}")
    check_ranges(DenseNetConfig, compression=compression)
    result = int(Fraction(str(compression)) * channels)
    if result < 1:
        raise ConfigError(
            f"compression {compression} of {channels} channels leaves none (over-compression)"
        )
    return result


def block_connection_count(num_layers: int) -> int:
    """Directed connections in a dense block, the block input included
    as a source: L(L+1)/2."""
    if num_layers < 1:
        raise ConfigError(f"layer count must be >= 1, got {num_layers}")
    return num_layers * (num_layers + 1) // 2


@dataclass(frozen=True)
class DenseNetConfig:
    """All architecture hyperparameters.

    ``compression`` must be 1.0 for the plain variant and < 1.0 for the
    C and BC variants. ``input_height`` is the context-window length and
    ``input_width`` the number of filterbank bins.
    """

    variant: str = "plain"
    depth: int = ranged(22, "1..inf")
    blocks: int = ranged(3, "1..inf")
    growth_rate: int = ranged(12, "1..inf")
    compression: float = ranged(1.0, "(0, 1]")
    input_channels: int = ranged(3, "1..inf")
    input_height: int = ranged(11, "1..inf")
    input_width: int = ranged(40, "1..inf")
    num_classes: int = ranged(1500, "2..inf")
    first_conv_channels: int = ranged(16, "1..inf")

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got '{self.variant}'")
        check_ranges(DenseNetConfig, **vars(self))
        if self.variant == "plain" and self.compression != 1.0:
            raise ConfigError(
                f"plain variant requires compression=1.0, got {self.compression}"
            )
        if self.variant in ("C", "BC") and self.compression >= 1.0:
            raise ConfigError(
                f"variant {self.variant} requires compression < 1.0, got {self.compression}"
            )
        layers_per_block(self.depth, self.blocks)
        if self.variant == "BC":
            bottleneck_pairs_per_block(self.depth, self.blocks)

    @property
    def bottleneck(self) -> bool:
        return self.variant == "BC"

    def units_per_block(self) -> int:
        """Dense units per block: bottleneck pairs for BC, single 3x3
        layers otherwise."""
        if self.bottleneck:
            return bottleneck_pairs_per_block(self.depth, self.blocks)
        return layers_per_block(self.depth, self.blocks)


@dataclass(frozen=True)
class StageRecord:
    name: str              # initial_conv, block1, transition1, ..., classifier
    kind: str              # initial-conv | dense-block | transition | classifier
    layers: str            # human-readable stage contents
    in_size: tuple[int, int]
    out_size: tuple[int, int]
    in_channels: int
    out_channels: int
    param_count: int
    mid_size: tuple[int, int] | None = None  # transition size before pooling


@dataclass(frozen=True)
class ArchitectureTable:
    """Planned per-stage layer list with sizes, channels and parameter
    counts per stage."""

    config: DenseNetConfig
    effective_depth: int
    layers_per_block: int
    stages: tuple[StageRecord, ...]

    @property
    def total_params(self) -> int:
        return sum(s.param_count for s in self.stages)

    def stage_params(self) -> dict[str, int]:
        return {s.name: s.param_count for s in self.stages}


def _dense_block_params(in_channels: int, growth_rate: int, units: int, bottleneck: bool) -> int:
    """A dense block's parameters in closed form, from S, the sum of its units'
    input channels c (``block_input_channels``): no time per unit."""
    inputs = units * in_channels + growth_rate * units * (units - 1) // 2  # S
    squeeze = BOTTLENECK_FACTOR * growth_rate
    if bottleneck:  # bn1 2c, 1x1 conv c*squeeze, bn2 2*squeeze, 3x3 conv 9*squeeze*g
        return (2 + squeeze) * inputs + units * (2 + 9 * growth_rate) * squeeze
    return (2 + 9 * growth_rate) * inputs  # bn1 2c, 3x3 conv 9*c*g


def plan_architecture(config: DenseNetConfig) -> ArchitectureTable:
    """Lay out every stage with its output size, channels and parameter
    count, raising ConfigError if the geometry collapses to zero."""
    config.validate()
    layers = layers_per_block(config.depth, config.blocks)
    units = config.units_per_block()
    growth = config.growth_rate

    stages: list[StageRecord] = []
    h, w = config.input_height, config.input_width
    oh, ow = conv_output_size(h, 3, 0), conv_output_size(w, 3, 0)
    if oh < 1 or ow < 1:
        raise ConfigError(f"input {h}x{w} too small for the initial 3x3 convolution")
    stages.append(StageRecord(
        name="initial_conv", kind="initial-conv", layers="3x3 conv",
        in_size=(h, w), out_size=(oh, ow),
        in_channels=config.input_channels, out_channels=config.first_conv_channels,
        param_count=9 * config.input_channels * config.first_conv_channels,
    ))
    h, w = oh, ow
    channels = config.first_conv_channels

    for b in range(1, config.blocks + 1):
        if config.bottleneck:
            description = f"1x1 conv, 3x3 conv x{units}"
        else:
            description = f"3x3 conv x{units}"
        out_channels = channels + units * growth
        stages.append(StageRecord(
            name=f"block{b}", kind="dense-block", layers=description,
            in_size=(h, w), out_size=(h, w),
            in_channels=channels, out_channels=out_channels,
            param_count=_dense_block_params(channels, growth, units, config.bottleneck),
        ))
        channels = out_channels
        if b < config.blocks:
            if h < 2 or w < 2:
                raise ConfigError(
                    f"spatial size {h}x{w} too small to pool after block {b}; "
                    "too many blocks for the input geometry"
                )
            reduced = transition_output_channels(channels, config.compression)
            ph, pw = pool_output_size(h), pool_output_size(w)
            stages.append(StageRecord(
                name=f"transition{b}", kind="transition",
                layers=f"1x1 conv {channels}->{reduced}; 2x2 avg pool",
                in_size=(h, w), out_size=(ph, pw), mid_size=(h, w),
                in_channels=channels, out_channels=reduced,
                param_count=2 * channels + channels * reduced,
            ))
            channels = reduced
            h, w = ph, pw

    stages.append(StageRecord(
        name="classifier", kind="classifier",
        layers=f"global avg pool; fc {channels}->{config.num_classes}",
        in_size=(h, w), out_size=(1, 1),
        in_channels=channels, out_channels=config.num_classes,
        param_count=2 * channels + channels * config.num_classes + config.num_classes,
    ))
    return ArchitectureTable(
        config=config,
        effective_depth=effective_depth(config.depth, config.blocks),
        layers_per_block=layers,
        stages=tuple(stages),
    )
