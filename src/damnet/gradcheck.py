"""Central finite-difference verification of analytic gradients.

All checks run in float64. An element's relative error is its absolute
error, less the rounding noise of its central difference, over
max(|analytic|, |numeric|, 1e-8): the objective's rounding error divided by
eps would otherwise fail a correct gradient element below about 2e-6.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError, NumericError
from .layers import (
    BN_EPSILON,
    AvgPool2d,
    BatchNorm,
    Conv2d,
    GlobalAvgPool,
    Linear,
    softmax_cross_entropy,
)

REL_ERR_FLOOR = 1e-8
# a central difference's rounding noise, in ulps of the objective over eps:
# over 40 report seeds, elements below 1e-4 erred by at most 5.6 such units
NOISE_ULPS = 32
DEFAULT_EPS = 1e-5
GRADCHECK_TOLERANCE = 1e-4


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, noise=0.0) -> float:
    """The worst element's error beyond its ``noise``, relative to the element."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_ERR_FLOOR)
    return float(np.max(np.maximum(np.abs(a - n) - noise, 0.0) / denom))


def finite_diff_check(objective, tensors: dict, analytic: dict, eps: float = DEFAULT_EPS) -> float:
    """Compare analytic gradients against central differences.

    ``objective`` is a zero-argument callable returning a scalar; it is
    re-evaluated after each in-place perturbation of the arrays in
    ``tensors``. Returns the worst relative error over all elements.
    """
    if not 1e-7 <= eps <= 1e-4:
        raise ConfigError(f"finite-difference eps must be in [1e-7, 1e-4], got {eps}")
    worst = 0.0
    for name, tensor in tensors.items():
        if tensor.dtype != np.float64:
            raise ConfigError(f"finite differences need float64 arrays, '{name}' is {tensor.dtype}")
        grad = np.array(analytic[name], dtype=np.float64)
        numeric, noise = np.empty(tensor.size), np.empty(tensor.size)
        for i in range(tensor.size):
            original = tensor.flat[i]
            tensor.flat[i] = original + eps
            upper = objective()
            tensor.flat[i] = original - eps
            lower = objective()
            tensor.flat[i] = original
            if not (np.isfinite(upper) and np.isfinite(lower)):
                raise NumericError(f"non-finite objective while perturbing '{name}'")
            numeric[i] = (upper - lower) / (2.0 * eps)
            noise[i] = NOISE_ULPS * np.spacing(max(abs(upper), abs(lower))) / eps
        worst = max(worst, max_relative_error(grad.ravel(), numeric, noise))
    return worst


def check_layer(layer, x: np.ndarray, *, rng=None, scale=None, shift=None, bn=None) -> float:
    """Finite-difference check of one layer's input and parameter gradients.

    Every forward runs in train mode, which backward needs. The scalar
    objective is sum(forward(x) * R) for a fixed random projection R, so
    its gradient w.r.t. the output is exactly R. A pool needs ``scale`` and
    ``shift``, the batchnorm scale and shift before its ReLU
    (``layers._Pool``), and their gradients are checked too. Given a
    batchnorm ``bn``, a conv runs after it, applying its gamma and beta and
    the ReLU, and writing their gradients, and the batchnorm's gradients
    are checked too.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    fused = () if scale is None else (scale, shift)
    applied = fused if bn is None else (bn.gamma, bn.beta)

    def forward():
        return layer.forward(x if bn is None else bn.forward(x, True), True, *applied)

    projection = rng.standard_normal(forward().shape)

    def objective():
        return float((forward() * projection).sum())

    # objective() reruns train forwards, which may reuse the memory dx is in
    fused_grads = [np.zeros_like(t) for t in fused]
    dx = layer.backward(projection, *(fused_grads if bn is None else (bn.grad_gamma, bn.grad_beta)))
    dx = np.array(dx if bn is None else bn.backward(dx))
    tensors = {"x": x, **dict(zip(("scale", "shift"), fused))}
    analytic = {"x": dx, **dict(zip(("scale", "shift"), fused_grads))}
    for part in (layer, bn):
        for key in getattr(part, "PARAMS", ()):
            tensors[f"param:{key}"] = getattr(part, key)
            analytic[f"param:{key}"] = np.array(getattr(part, "grad_" + key))
    return finite_diff_check(objective, tensors, analytic)


def gradcheck_report(seed: int = 0, instances: int = 10) -> dict[str, float]:
    """Max relative finite-difference error per layer primitive.

    Each primitive is checked on ``instances`` randomized small inputs, a
    pool always after its batchnorm's scale and shift and the ReLU, as a
    model runs it; the reported value is the worst error seen.
    """
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    def record(name, err):
        results[name] = max(results.get(name, 0.0), err)

    def after_batchnorm(pre, k):
        """Check a k x k conv after a batchnorm whose gamma and beta undo its
        normalization, so the ReLU between them takes the samples ``pre``."""
        c = pre.shape[0]
        bn = BatchNorm(c, dtype=np.float64)
        bn.gamma[...] = np.sqrt(pre.var(axis=(1, 2, 3)) + BN_EPSILON)
        bn.beta[...] = pre.mean(axis=(1, 2, 3))
        conv = Conv2d(c, 2, k, pad=k // 2, rng=rng, dtype=np.float64)
        return check_layer(conv, pre, rng=rng, bn=bn)

    for i in range(instances):
        x = rng.standard_normal((3, 2, 5, 6))
        conv = Conv2d(3, 4, 3, pad=i % 2, rng=rng, dtype=np.float64)
        record("conv2d_3x3", check_layer(conv, x, rng=rng))

        x = rng.standard_normal((5, 2, 4, 6))
        conv = Conv2d(5, 3, 1, rng=rng, dtype=np.float64)
        record("conv2d_1x1", check_layer(conv, x, rng=rng))

        # a batchnorm, the ReLU and a conv, the ReLU's inputs all > 0 (linear), then of
        # either sign, away from the kink so central differences hold; a batchnorm's
        # mean terms can cancel near 0 at a masked input, so those shapes are small
        record("batchnorm", after_batchnorm(rng.uniform(0.2, 1.5, size=(3, 8, 2, 2)), 1))
        x = rng.uniform(0.2, 1.5, size=(2, 2, 3, 4)) * rng.choice([-1.0, 1.0], size=(2, 2, 3, 4))
        record("relu", after_batchnorm(x, 3))

        # a pool after its batchnorm scale and shift and ReLU, whose inputs
        # keep away from the kink
        for name, pool, shape in (("avgpool2d", AvgPool2d(), (3, 2, 5, 7)),
                                  ("global_avgpool", GlobalAvgPool(), (4, 2, 2, 9))):
            scale = rng.uniform(0.5, 1.5, shape[0]) * rng.choice([-1.0, 1.0], shape[0])
            shift = rng.normal(0.0, 0.5, shape[0])
            pre = rng.uniform(0.2, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)
            x = (pre - shift[:, None, None, None]) / scale[:, None, None, None]
            record(name, check_layer(pool, x, rng=rng, scale=scale, shift=shift))

        x = rng.standard_normal((4, 7))
        record("linear", check_layer(Linear(7, 5, rng=rng, dtype=np.float64), x, rng=rng))

        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)

        def objective():
            return softmax_cross_entropy(logits, labels)[0]

        _, grad = softmax_cross_entropy(logits, labels)
        record("softmax_cross_entropy",
               finite_diff_check(objective, {"logits": logits}, {"logits": grad.copy()}))
    return results
