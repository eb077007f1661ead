"""Layer primitives with explicit forward and backward passes.

Every layer takes and returns arrays of logical NCHW shape (batch,
channels, height, width), whatever their memory layout. The model stores
its activations channel-major: (C, N, H, W) memory seen through
``.transpose(1, 0, 2, 3)`` (see ``channel_major``), so a convolution's
GEMMs run on one flat (C, N*H*W) grid and a dense block's channel slices
are contiguous. Elementwise layers keep their input's layout because
ufunc outputs do; the pools' backward passes allocate channel-major.
Training runs in float32; gradient checking builds float64 layers because
central differences are unreliable in single precision. A layer class
names its tensors once: ``PARAMS`` the trainable ones and ``STATE`` the
non-trainable ones (batchnorm running statistics). ``__init__`` allocates
each, plus a ``grad_<name>`` array per parameter that ``backward()``
overwrites in place, so a ``Model`` can rebind them all to views of its
flat arenas and a standalone layer still works.

``forward(x, train=False)`` is pure: it reads the parameters and running
statistics and writes nothing, so infer-mode forwards may run concurrently
on one layer. No infer-mode forward mixes frames: every product runs per
image or per frame, so a frame's output never depends on its batch.
``forward(x, train=True)`` keeps what ``backward()`` needs (``_cache``,
``_mask``, ``_shape``) and updates batchnorm running statistics, so a
train forward and its backward must be serialized, and backward needs a
train-mode forward before it.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError, DataError, ShapeError

BN_EPSILON = 1e-5
# Running statistics update: new = BN_MOMENTUM * old + (1 - BN_MOMENTUM) * batch.
BN_MOMENTUM = 0.9


def he_normal(rng, shape, fan_in: int, dtype) -> np.ndarray:
    """Zero-mean init scaled by sqrt(2 / fan_in), the ReLU-friendly choice."""
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


def conv_output_size(extent: int, kernel: int, pad: int) -> int:
    return extent + 2 * pad - kernel + 1


def pool_output_size(extent: int) -> int:
    # 2x2 / stride-2 average pooling; the trailing odd row/column is dropped.
    return extent // 2


def channel_major(shape, dtype, alloc=np.empty) -> np.ndarray:
    """An (N, C, H, W) array over (C, N, H, W) memory, from ``np.empty`` or ``np.zeros``."""
    n, c, h, w = shape
    return alloc((c, n, h, w), dtype=dtype).transpose(1, 0, 2, 3)


class Conv2d:
    """2-D stride-1 convolution without bias; batchnorm always follows it.

    Shifted GEMM over the whole batch: the input is zero-padded once into a
    channel-major (C_in, N, Hp, Wp) grid of row pitch Wp = W + 2*pad, seen
    flat as (C_in, N*Hp*Wp). A product with the weights as (k*k*C_out, C_in)
    gives every tap at every grid position, and output q = y*Wp + x of an
    image sums tap (i, j)'s row at q + i*Wp + j; the shift-adds run once over
    the flat batch. A kept output (y < H_out, x < W_out) reads at most
    q + (k-1)*(Wp+1) <= Hp*Wp - 1, inside its own image's grid. Reads that
    spill past a row end, or past one image's grid into the next, belong to
    outputs with x >= W_out or y >= H_out, which the crop drops. Backward
    places ``dout`` on the same grid, shifts it once per tap into a
    (k*k*C_out, N*Hp*Wp) matrix and gets dW and dX from one GEMM each.

    Train mode runs each direction as one GEMM over the whole batch:
    batchnorm already makes every train-mode frame depend on its batch.
    BLAS rounds a GEMM's columns differently by their position in it, so
    infer mode runs one GEMM per image, on strided (C_in, Hp*Wp) views of
    the grid, and no frame's infer output depends on the rest of its batch.
    The output is a channel-major view; a 1x1 conv's is contiguous.
    """

    PARAMS = ("weight",)

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 pad: int = 0, *, rng=None, dtype=np.float32):
        if kernel_size < 1:
            raise ConfigError(f"conv kernel size must be >= 1, got {kernel_size}")
        if pad < 0:
            raise ConfigError(f"conv pad must be >= 0, got {pad}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.pad = pad
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        fan_in = in_channels * kernel_size * kernel_size
        if rng is None:
            self.weight = np.zeros(shape, dtype=dtype)
        else:
            self.weight = he_normal(rng, shape, fan_in, dtype)
        self.grad_weight = np.zeros(shape, dtype=dtype)
        self._cache = None

    def _taps(self, pitch: int):
        """(k*k*C_out, C_in) weights, row t*C_out + o for tap t = i*k + j; tap shifts."""
        k = self.kernel_size
        matrix = self.weight.transpose(2, 3, 0, 1).reshape(-1, self.in_channels)
        return matrix, [i * pitch + j for i in range(k) for j in range(k)]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(f"conv2d expects (N, {self.in_channels}, H, W), got {x.shape}")
        (n, c, h, w), k, p, co = x.shape, self.kernel_size, self.pad, self.out_channels
        oh, ow = conv_output_size(h, k, p), conv_output_size(w, k, p)
        if oh < 1 or ow < 1:
            raise ShapeError(f"conv2d: {h}x{w} input is smaller than a {k}x{k} kernel with pad {p}")
        hp, wp = h + 2 * p, w + 2 * p
        if p:
            grid = np.zeros((c, n, hp, wp), dtype=x.dtype)
            grid[:, :, p : p + h, p : p + w] = x.transpose(1, 0, 2, 3)
        else:
            grid = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
        grid = grid.reshape(c, -1)
        matrix, shifts = self._taps(wp)
        if train:
            self._cache = (x.shape, grid)
            per_tap = matrix @ grid
        else:
            per_tap = np.empty((k * k * co, grid.shape[1]), dtype=np.result_type(matrix, grid))
            np.matmul(matrix, grid.reshape(c, n, -1).transpose(1, 0, 2),
                      out=per_tap.reshape(k * k * co, n, -1).transpose(1, 0, 2))
        if k == 1:
            out = per_tap
        else:
            span = grid.shape[1] - shifts[-1]
            out = np.empty((co, grid.shape[1]), dtype=per_tap.dtype)
            out[:, :span] = per_tap[:co, :span]
            for t, shift in enumerate(shifts[1:], 1):
                out[:, :span] += per_tap[t * co : (t + 1) * co, shift : shift + span]
        return out.reshape(co, n, hp, wp)[:, :, :oh, :ow].transpose(1, 0, 2, 3)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        (n, c, h, w), grid = self._cache
        (oh, ow), k, p, co = dout.shape[2:], self.kernel_size, self.pad, self.out_channels
        hp, wp = h + 2 * p, w + 2 * p
        matrix, shifts = self._taps(wp)
        if k == 1:
            shifted = np.ascontiguousarray(dout.transpose(1, 0, 2, 3)).reshape(co, -1)
        else:
            placed = np.zeros((co, n, hp, wp), dtype=dout.dtype)
            placed[:, :, :oh, :ow] = dout.transpose(1, 0, 2, 3)
            placed = placed.reshape(co, -1)
            span = placed.shape[1] - shifts[-1]
            shifted = np.zeros((k * k, co, placed.shape[1]), dtype=dout.dtype)
            for t, shift in enumerate(shifts):
                shifted[t, :, shift : shift + span] = placed[:, :span]
            shifted = shifted.reshape(k * k * co, -1)
        grad = shifted @ grid.T
        self.grad_weight[...] = grad.reshape(k, k, co, c).transpose(2, 3, 0, 1)
        dgrid = (matrix.T @ shifted).reshape(c, n, hp, wp)
        return dgrid[:, :, p : p + h, p : p + w].transpose(1, 0, 2, 3)


class BatchNorm:
    """Per-channel batch normalization with running statistics.

    Train mode normalizes with batch statistics over (batch, height,
    width), updates the running estimates in place and keeps the
    normalized input for backward. Infer mode folds the running estimates
    into one per-channel ``x * scale + shift`` and writes nothing.
    """

    PARAMS = ("gamma", "beta")
    STATE = ("running_mean", "running_var")

    def __init__(self, num_channels: int, dtype=np.float32):
        self.num_channels = num_channels
        self.gamma = np.ones(num_channels, dtype=dtype)
        self.beta = np.zeros(num_channels, dtype=dtype)
        self.running_mean = np.zeros(num_channels, dtype=dtype)
        self.running_var = np.ones(num_channels, dtype=dtype)
        self.grad_gamma = np.zeros(num_channels, dtype=dtype)
        self.grad_beta = np.zeros(num_channels, dtype=dtype)
        self._cache = None

    def _per_channel(self, arr):
        return arr.reshape(1, self.num_channels, 1, 1)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ShapeError(
                f"batchnorm expects (N, {self.num_channels}, H, W), got {x.shape}"
            )
        if not train:
            scale = self.gamma / np.sqrt(self.running_var + BN_EPSILON)
            out = x * self._per_channel(scale)
            out += self._per_channel(self.beta - self.running_mean * scale)
            return out
        samples_per_channel = x.shape[0] * x.shape[2] * x.shape[3]
        if samples_per_channel < 2:
            raise DataError(
                f"degenerate batch: {samples_per_channel} sample per channel, need >= 2"
            )
        mean = np.einsum("nchw->c", x) / samples_per_channel
        xhat = x - self._per_channel(mean)
        # centred second moment: no cancellation from E[x^2] - E[x]^2
        var = np.einsum("nchw,nchw->c", xhat, xhat) / samples_per_channel
        self.running_mean[...] = BN_MOMENTUM * self.running_mean + (1.0 - BN_MOMENTUM) * mean
        self.running_var[...] = BN_MOMENTUM * self.running_var + (1.0 - BN_MOMENTUM) * var
        inv = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat *= self._per_channel(inv)
        self._cache = (xhat, inv)
        out = xhat * self._per_channel(self.gamma)
        out += self._per_channel(self.beta)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        xhat, inv = self._cache
        self.grad_gamma[...] = np.einsum("nchw,nchw->c", dout, xhat)
        self.grad_beta[...] = np.einsum("nchw->c", dout)
        scale = self._per_channel(self.gamma * inv)
        # gamma * inv * (dout - mean(dout) - xhat * mean(dout * xhat))
        count = dout.size // self.num_channels
        dx = xhat * self._per_channel(-self.grad_gamma / count)
        dx += dout
        dx -= self._per_channel(self.grad_beta / count)
        dx *= scale
        return dx


class ReLU:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0."""

    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if not train:
            return np.maximum(x, 0)
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self._mask


class AvgPool2d:
    """2x2 average pooling with stride 2; trailing odd row/column dropped."""

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        if h < 2 or w < 2:
            raise ShapeError(f"avgpool2d needs spatial extents >= 2, got {h}x{w}")
        if train:
            self._cache = x.shape
        oh, ow = pool_output_size(h), pool_output_size(w)
        rows = x[:, :, 0 : 2 * oh : 2, : 2 * ow] + x[:, :, 1 : 2 * oh : 2, : 2 * ow]
        out = rows[:, :, :, 0::2] + rows[:, :, :, 1::2]
        out *= 0.25
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        (oh, ow), quarter = dout.shape[2:], dout * 0.25
        dx = channel_major(self._cache, dout.dtype, np.zeros)
        for i, j in np.ndindex(2, 2):
            dx[:, :, i : 2 * oh : 2, j : 2 * ow : 2] = quarter
        return dx


class GlobalAvgPool:
    """Mean over all spatial positions, one value per channel."""

    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[2] < 1 or x.shape[3] < 1:
            raise ShapeError(f"global_avgpool expects (N, C, H, W), got {x.shape}")
        if train:
            self._shape = x.shape
        return x.mean(axis=(2, 3), keepdims=True)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dx = channel_major(self._shape, dout.dtype)
        dx[...] = dout / (self._shape[2] * self._shape[3])
        return dx


class Linear:
    """Affine map y = x @ W.T + b on flattened features.

    One product per frame, ``W @ x[i]``, not one GEMM over the batch: BLAS
    rounds a GEMM's rows differently by their position in it, and a logit
    must not depend on the batch.
    """

    PARAMS = ("weight", "bias")

    def __init__(self, in_features: int, out_features: int, *, rng=None, dtype=np.float32):
        self.in_features = in_features
        self.out_features = out_features
        if rng is None:
            self.weight = np.zeros((out_features, in_features), dtype=dtype)
        else:
            self.weight = he_normal(rng, (out_features, in_features), in_features, dtype)
        self.bias = np.zeros(out_features, dtype=dtype)
        self.grad_weight = np.zeros((out_features, in_features), dtype=dtype)
        self.grad_bias = np.zeros(out_features, dtype=dtype)
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"linear expects (N, {self.in_features}), got {x.shape}")
        if train:
            self._cache = x
        return np.matmul(self.weight, x[:, :, None])[:, :, 0] + self.bias

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x = self._cache
        self.grad_weight[...] = dout.T @ x
        self.grad_bias[...] = dout.sum(axis=0)
        return dout @ self.weight


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    Stabilized by max-subtraction; the gradient is (softmax - onehot)
    divided by the batch size.
    """
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (N, classes), got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ShapeError(f"labels must be ({logits.shape[0]},), got {labels.shape}")
    n, num_classes = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DataError(f"label out of range [0, {num_classes})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    rows = np.arange(n)
    loss = float(-log_probs[rows, labels].mean())
    grad = np.exp(log_probs)
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad
