"""Spans recorded from outside the damnet package, and the per-layer metrics
computed from them.

The tracer wraps public functions and methods: the ``forward``/``backward``
of each model stage, dense unit and layer primitive (as attributes set on
the instances, so the classes stay untouched), and the module-level
functions the library looks up at call time. Spans live in memory with a
link to their parent and are written out when the run ends. Every span also
carries the scope it ran in (an operation, a set-up or input generation),
so a metric is a per-operation total, taken as the median over operations.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

STAGES = ("initial_conv", "block1", "transition1", "block2", "transition2",
          "block3", "classifier")
BLOCKS = ("block1", "block2", "block3")
PRIMITIVES = ("conv3x3", "conv1x1", "batchnorm", "relu", "avgpool", "linear")
CONVS = ("conv3x3", "conv1x1")
FEATURE_SPANS = ("read_wav", "logmel", "deltas", "write_archive", "read_archive",
                 "cmvn", "splice")

# Layer classes by name; anything else (such as the global average pool) is
# timed as part of the stage that holds it.
_PRIMITIVE_CLASSES = {"BatchNorm": "batchnorm", "ReLU": "relu",
                      "AvgPool2d": "avgpool", "Linear": "linear"}

MB = float(1 << 20)


class Tracer:
    """In-memory span recorder; records nothing while ``active`` is false."""

    def __init__(self):
        self.active = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._scope = None
        self._undo = []

    @contextmanager
    def scope(self, kind: str, index: int):
        previous, self._scope = self._scope, (kind, index)
        try:
            yield
        finally:
            self._scope = previous

    def call(self, name, fn, *args, **kwargs):
        return self._run(name, fn, args, kwargs, None)

    def _run(self, name, fn, args, kwargs, cost):
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                "scope": self._scope}
        self.spans.append(span)
        self._stack.append(index)
        span["start"] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
        if cost is not None:
            span.update(cost(args, result))
        return result

    def wrap_method(self, obj, method: str, name: str, cost=None):
        original = getattr(obj, method)
        had_own = method in vars(obj)

        def traced(*args, **kwargs):
            return self._run(name, original, args, kwargs, cost)

        setattr(obj, method, traced)
        self._undo.append(lambda: setattr(obj, method, original) if had_own
                          else delattr(obj, method))

    def wrap_function(self, module, attr: str, name: str):
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self._run(name, original, args, kwargs, None)

        setattr(module, attr, traced)
        self._undo.append(lambda: setattr(module, attr, original))

    def restore(self):
        """Remove every wrapper, newest first."""
        while self._undo:
            self._undo.pop()()

    def write(self, path):
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **span}) + "\n")


def instrument_library(tracer: Tracer, damnet) -> None:
    """Wrap the module-level functions damnet looks up by name at call time."""
    trainer, features = damnet.trainer, damnet.features
    tracer.wrap_function(trainer, "sgd_update", "trainer.sgd_update")
    tracer.wrap_function(trainer, "softmax_cross_entropy", "layers.softmax_xent")
    tracer.wrap_function(trainer, "splice_context", "features.splice")
    tracer.wrap_function(trainer, "apply_cmvn", "features.cmvn")
    tracer.wrap_function(features, "read_wav", "features.read_wav")
    tracer.wrap_function(features, "compute_logmel", "features.logmel")
    tracer.wrap_function(features, "append_deltas", "features.deltas")


def instrument_model(tracer: Tracer, model) -> None:
    """Wrap the model, each stage, each dense unit and each primitive."""
    tracer.wrap_method(model, "forward", "model.forward")
    tracer.wrap_method(model, "backward", "model.backward")
    for stage_name, stage in model.stages():
        _instrument_parts(tracer, stage)
        tracer.wrap_method(stage, "forward", f"model.{stage_name}.fwd")
        tracer.wrap_method(stage, "backward", f"model.{stage_name}.bwd")


def _instrument_parts(tracer: Tracer, obj) -> None:
    cls = type(obj).__name__
    if cls == "Conv2d":
        kind = f"conv{obj.kernel_size}x{obj.kernel_size}"
        tracer.wrap_method(obj, "forward", f"layers.{kind}.fwd", _conv_forward_cost(obj))
        tracer.wrap_method(obj, "backward", f"layers.{kind}.bwd", _conv_backward_cost(obj))
        return
    if cls in _PRIMITIVE_CLASSES:
        kind = _PRIMITIVE_CLASSES[cls]
        tracer.wrap_method(obj, "forward", f"layers.{kind}.fwd")
        tracer.wrap_method(obj, "backward", f"layers.{kind}.bwd")
        return
    for value in vars(obj).values():
        if isinstance(value, list):
            # a dense block's units: their spans let the block's self time
            # isolate the concatenation wiring
            for unit in value:
                if hasattr(unit, "forward") and hasattr(unit, "backward"):
                    _instrument_parts(tracer, unit)
                    tracer.wrap_method(unit, "forward", "model.unit.fwd")
                    tracer.wrap_method(unit, "backward", "model.unit.bwd")
        elif hasattr(value, "forward") and hasattr(value, "backward"):
            _instrument_parts(tracer, value)


# Conv costs are computed from the shapes that cross the call, not measured:
# forward is 2 * outputs * (C_in * k * k) flops reading the input and weights
# and writing the output; backward computes dW and dX at twice that, reading
# dout, the input and the weights and writing dX and dW.
def _conv_forward_cost(conv):
    def cost(args, out):
        per_output = conv.weight.size // conv.weight.shape[0]
        return {"flop": 2 * out.size * per_output,
                "bytes": args[0].nbytes + conv.weight.nbytes + out.nbytes}
    return cost


def _conv_backward_cost(conv):
    def cost(args, dx):
        per_output = conv.weight.size // conv.weight.shape[0]
        return {"flop": 4 * args[0].size * per_output,
                "bytes": args[0].nbytes + 2 * dx.nbytes + 2 * conv.weight.nbytes}
    return cost


def per_layer_names() -> list[str]:
    """Every metric ``layer_metrics`` returns, in BENCHMARK.json order."""
    names = []
    for stage in STAGES:
        names += [f"model.{stage}.fwd_ms", f"model.{stage}.bwd_ms"]
    for block in BLOCKS:
        names += [f"model.{block}.wiring_fwd_ms", f"model.{block}.wiring_bwd_ms"]
    for kind in PRIMITIVES:
        names += [f"layers.{kind}.fwd_ms", f"layers.{kind}.bwd_ms", f"layers.{kind}.calls"]
    names.append("layers.softmax_xent_ms")
    for kind in CONVS:
        names += [f"layers.{kind}.gflop", f"layers.{kind}.mb_moved", f"layers.{kind}.gflops"]
    names += ["model.infer_retained_mb", "model.train_step_peak_mb",
              "trainer.sgd_update_ms", "trainer.step_self_ms", "trainer.evaluate_self_ms",
              "trainer.build_frame_dataset_ms", "trainer.dataset_bytes_per_frame"]
    names += [f"features.{name}_ms" for name in FEATURE_SPANS]
    names += ["checkpoint.save_ms", "checkpoint.load_ms", "checkpoint.bytes",
              "trace.overhead_ratio"]
    return names


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Span-derived metrics: per-operation totals, median over operations.

    A span name that never occurs inside an operation is summed per set-up
    instead (checkpoint loads, dataset builds of the model workloads), and
    failing that per input generation (the checkpoint save). Names that
    occur nowhere read 0: that layer does no work on this workload.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        span["dur"] = span["end"] - span["start"]
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["dur"]
    for span, child_time in zip(spans, covered):
        span["self"] = span["dur"] - child_time
        span["calls"] = 1

    groups: dict[tuple, list[dict]] = {}
    for span in spans:
        if span["scope"] is not None:
            groups.setdefault(tuple(span["scope"]), []).append(span)

    def total(name: str, field: str) -> float:
        for kind in ("op", "setup", "generate"):
            scoped = [g for key, g in groups.items() if key[0] == kind]
            if any(s["name"] == name for g in scoped for s in g):
                return statistics.median(
                    sum(s.get(field, 0) for s in g if s["name"] == name) for g in scoped)
        return 0.0

    def ms(name: str, field: str = "dur") -> float:
        return 1e3 * total(name, field)

    out = {}
    for stage in STAGES:
        out[f"model.{stage}.fwd_ms"] = ms(f"model.{stage}.fwd")
        out[f"model.{stage}.bwd_ms"] = ms(f"model.{stage}.bwd")
    for block in BLOCKS:
        out[f"model.{block}.wiring_fwd_ms"] = ms(f"model.{block}.fwd", "self")
        out[f"model.{block}.wiring_bwd_ms"] = ms(f"model.{block}.bwd", "self")
    for kind in PRIMITIVES:
        out[f"layers.{kind}.fwd_ms"] = ms(f"layers.{kind}.fwd")
        out[f"layers.{kind}.bwd_ms"] = ms(f"layers.{kind}.bwd")
        out[f"layers.{kind}.calls"] = total(f"layers.{kind}.fwd", "calls")
    out["layers.softmax_xent_ms"] = ms("layers.softmax_xent")
    for kind in CONVS:
        gflop = (total(f"layers.{kind}.fwd", "flop") + total(f"layers.{kind}.bwd", "flop")) / 1e9
        seconds = (out[f"layers.{kind}.fwd_ms"] + out[f"layers.{kind}.bwd_ms"]) / 1e3
        out[f"layers.{kind}.gflop"] = gflop
        out[f"layers.{kind}.mb_moved"] = (total(f"layers.{kind}.fwd", "bytes")
                                          + total(f"layers.{kind}.bwd", "bytes")) / MB
        out[f"layers.{kind}.gflops"] = gflop / seconds if seconds else 0.0
    out["trainer.sgd_update_ms"] = ms("trainer.sgd_update")
    out["trainer.step_self_ms"] = ms("trainer.train_epoch", "self")
    out["trainer.evaluate_self_ms"] = ms("trainer.evaluate", "self")
    out["trainer.build_frame_dataset_ms"] = ms("trainer.build_frame_dataset")
    for name in FEATURE_SPANS:
        out[f"features.{name}_ms"] = ms(f"features.{name}")
    out["checkpoint.save_ms"] = ms("checkpoint.save")
    out["checkpoint.load_ms"] = ms("checkpoint.load")
    return out
