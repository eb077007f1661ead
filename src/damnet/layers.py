"""Layer primitives with explicit forward and backward passes.

Every layer takes and returns arrays of logical NCHW shape (batch,
channels, height, width), whatever their memory layout. The model stores
its activations channel-major: (C, N, H, W) memory seen through
``.transpose(1, 0, 2, 3)`` (see ``channel_major``), so a convolution's
GEMMs run on one flat (C, N*H*W) grid and a dense block's channel slices
are contiguous. Every train-mode result is channel-major, whatever the
input's layout; infer-mode ufunc outputs follow their input's layout.
Training runs in float32; gradient checking builds float64 layers because
central differences are unreliable in single precision. A layer class
names its tensors once: ``PARAMS`` the trainable ones and ``STATE`` the
non-trainable ones (batchnorm running statistics). ``__init__`` allocates
each, plus a ``grad_<name>`` array per parameter that ``backward()``
overwrites in place, so a ``Model`` can rebind them all to views of its
flat arenas and a standalone layer still works.

``forward(x, train=False)`` is pure: it reads the parameters and running
statistics, writes nothing and allocates its results, so infer-mode
forwards may run concurrently on one layer. No infer-mode forward mixes
frames: every product runs per image or per frame, so a frame's output
never depends on its batch.
``forward(x, train=True)`` keeps what ``backward()`` needs in one field,
``_cache``, and updates batchnorm running statistics, so a
train forward and its backward must be serialized, and backward needs a
train-mode forward before it.

Train mode gives every large array a fixed lifetime, so a training step
reuses the memory of the last one instead of allocating it again:

- *Step state*, what a train forward keeps for backward (the conv's padded
  grid, batchnorm's normalized input, the ReLU mask), lives in the layer's
  ``_cache``. It is reused while the shape and dtype repeat, and
  replaced when they change, as on an epoch's last partial batch. A layer
  copies what it keeps, except ``Linear``, which keeps its small input.
- *Scratch* holds everything else: a train-mode result of ``forward`` or
  ``backward`` (apart from the small global-pool and linear outputs) is a
  view into per-thread buffers (``scratch``), valid until the next
  train-mode call in the same thread. A caller that keeps one across train
  calls must copy it. The buffers live as long as their thread does (about
  160 MB for plain-22 at batch 256) and are shared by every model that
  trains in it.
"""

from __future__ import annotations

import math
import threading

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


def _shaped(flat, shape, channel_major: bool) -> np.ndarray:
    if channel_major:
        n, c, h, w = shape
        return flat.reshape(c, n, h, w).transpose(1, 0, 2, 3)
    return flat.reshape(shape)


def channel_major(shape, dtype) -> np.ndarray:
    """A new (N, C, H, W) array over (C, N, H, W) memory."""
    return _shaped(np.empty(math.prod(shape), dtype=dtype), shape, True)


class _Scratch(threading.local):
    """One thread's scratch: byte buffers by name, and the pair buffer handed out last."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}
        self.last_pair = 1


_SCRATCH = _Scratch()


def scratch(name: str, shape, dtype, channel_major: bool = False) -> np.ndarray:
    """This thread's scratch buffer ``name`` seen as a ``shape`` array of
    ``dtype``, channel-major or C-order; it grows when a request does not fit.

    The buffers hold bytes, so one serves every dtype. Train mode uses three:
    ``"taps"`` (a conv's per-tap products and shifted output gradient, the
    pool's row sums), ``"block"`` (a dense block's features, then their
    gradient) and ``"pair"``, which names two buffers handed out in turn. A
    layer's pair result thus never overwrites the pair array it was given.
    """
    state = _SCRATCH
    if name == "pair":
        state.last_pair ^= 1
        name = f"pair{state.last_pair}"
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buffer = state.buffers.get(name)
    if buffer is None or buffer.size < nbytes:
        buffer = state.buffers[name] = np.empty(nbytes, np.uint8)
    return _shaped(buffer[:nbytes].view(dtype), shape, channel_major)


def step_state(kept, shape, dtype, channel_major: bool = False, alloc=np.empty) -> np.ndarray:
    """``kept`` again if it has this shape and dtype; else a new array from ``alloc``."""
    if kept is not None and kept.shape == tuple(shape) and kept.dtype == dtype:
        return kept
    return _shaped(alloc(math.prod(shape), dtype=dtype), shape, channel_major)


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
        if train:
            # only the interior is ever written, so the halo stays zero
            grid = self._cache = step_state(self._cache, (c, n, hp, wp), x.dtype, alloc=np.zeros)
            grid[:, :, p : p + h, p : p + w] = x.transpose(1, 0, 2, 3)
        elif p:
            grid = np.zeros((c, n, hp, wp), dtype=x.dtype)
            grid[:, :, p : p + h, p : p + w] = x.transpose(1, 0, 2, 3)
        else:
            grid = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
        grid = grid.reshape(c, -1)
        matrix, shifts = self._taps(wp)
        dtype = np.result_type(matrix, grid)
        if train:
            per_tap = np.matmul(matrix, grid, out=scratch("taps", (k * k * co, grid.shape[1]), dtype))
        else:
            per_tap = np.empty((k * k * co, grid.shape[1]), dtype=dtype)
            np.matmul(matrix, grid.reshape(c, n, -1).transpose(1, 0, 2),
                      out=per_tap.reshape(k * k * co, n, -1).transpose(1, 0, 2))
        if k == 1:
            out = per_tap
        else:
            span = grid.shape[1] - shifts[-1]
            out = (scratch("pair", (co, grid.shape[1]), dtype) if train
                   else np.empty((co, grid.shape[1]), dtype=dtype))
            out[:, :span] = per_tap[:co, :span]
            for t, shift in enumerate(shifts[1:], 1):
                out[:, :span] += per_tap[t * co : (t + 1) * co, shift : shift + span]
        return out.reshape(co, n, hp, wp)[:, :, :oh, :ow].transpose(1, 0, 2, 3)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        grid = self._cache
        (c, n, hp, wp), k, p, co = grid.shape, self.kernel_size, self.pad, self.out_channels
        grid = grid.reshape(c, -1)
        oh, ow = dout.shape[2:]
        matrix, shifts = self._taps(wp)
        if k == 1:
            shifted = np.ascontiguousarray(dout.transpose(1, 0, 2, 3)).reshape(co, -1)
        else:
            placed = scratch("pair", (co, n, hp, wp), dout.dtype)
            placed[:, :, :oh, :ow] = dout.transpose(1, 0, 2, 3)
            placed[:, :, :oh, ow:] = 0
            placed[:, :, oh:] = 0
            placed = placed.reshape(co, -1)
            span = placed.shape[1] - shifts[-1]
            shifted = scratch("taps", (k * k, co, placed.shape[1]), dout.dtype)
            for t, shift in enumerate(shifts):
                shifted[t, :, :shift] = 0
                shifted[t, :, shift : shift + span] = placed[:, :span]
                shifted[t, :, shift + span :] = 0
            shifted = shifted.reshape(k * k * co, -1)
        grad = shifted @ grid.T
        self.grad_weight[...] = grad.reshape(k, k, co, c).transpose(2, 3, 0, 1)
        dgrid = scratch("pair", (c, n, hp, wp), np.result_type(matrix, shifted))
        np.matmul(matrix.T, shifted, out=dgrid.reshape(c, -1))
        return dgrid[:, :, p : hp - p, p : wp - p].transpose(1, 0, 2, 3)


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
        kept = self._cache[0] if self._cache else None
        xhat = np.subtract(x, self._per_channel(mean),
                           out=step_state(kept, x.shape, x.dtype, channel_major=True))
        # centred second moment: no cancellation from E[x^2] - E[x]^2
        var = np.einsum("nchw,nchw->c", xhat, xhat) / samples_per_channel
        self.running_mean[...] = BN_MOMENTUM * self.running_mean + (1.0 - BN_MOMENTUM) * mean
        self.running_var[...] = BN_MOMENTUM * self.running_var + (1.0 - BN_MOMENTUM) * var
        inv = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat *= self._per_channel(inv)
        self._cache = (xhat, inv)
        out = scratch("pair", x.shape, np.result_type(xhat, self.gamma), channel_major=True)
        np.multiply(xhat, self._per_channel(self.gamma), out=out)
        out += self._per_channel(self.beta)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        xhat, inv = self._cache
        self.grad_gamma[...] = np.einsum("nchw,nchw->c", dout, xhat)
        self.grad_beta[...] = np.einsum("nchw->c", dout)
        scale = self._per_channel(self.gamma * inv)
        # gamma * inv * (dout - mean(dout) - xhat * mean(dout * xhat))
        count = dout.size // self.num_channels
        dx = scratch("pair", xhat.shape, np.result_type(xhat, self.grad_gamma), channel_major=True)
        np.multiply(xhat, self._per_channel(-self.grad_gamma / count), out=dx)
        dx += dout
        dx -= self._per_channel(self.grad_beta / count)
        dx *= scale
        return dx


class ReLU:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0."""

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if not train:
            return np.maximum(x, 0)
        mask = self._cache = step_state(self._cache, x.shape, bool, channel_major=True)
        np.greater(x, 0, out=mask)
        return np.multiply(x, mask, out=scratch("pair", x.shape, x.dtype, channel_major=True))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        out = scratch("pair", dout.shape, dout.dtype, channel_major=True)
        return np.multiply(dout, self._cache, out=out)


class AvgPool2d:
    """2x2 average pooling with stride 2; trailing odd row/column dropped."""

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        if h < 2 or w < 2:
            raise ShapeError(f"avgpool2d needs spatial extents >= 2, got {h}x{w}")
        oh, ow = pool_output_size(h), pool_output_size(w)
        rows = out = None
        if train:
            self._cache = x.shape
            rows = scratch("taps", (n, c, oh, 2 * ow), x.dtype, channel_major=True)
            out = scratch("pair", (n, c, oh, ow), x.dtype, channel_major=True)
        rows = np.add(x[:, :, 0 : 2 * oh : 2, : 2 * ow], x[:, :, 1 : 2 * oh : 2, : 2 * ow], out=rows)
        out = np.add(rows[:, :, :, 0::2], rows[:, :, :, 1::2], out=out)
        out *= 0.25
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        oh, ow = dout.shape[2:]
        dx = scratch("pair", self._cache, dout.dtype, channel_major=True)
        for i, j in np.ndindex(2, 2):
            np.multiply(dout, 0.25, out=dx[:, :, i : 2 * oh : 2, j : 2 * ow : 2])
        # the dropped odd row and column get no gradient
        dx[:, :, 2 * oh :] = 0
        dx[:, :, :, 2 * ow :] = 0
        return dx


class GlobalAvgPool:
    """Mean over all spatial positions, one value per channel: (N, C, H, W) -> (N, C)."""

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[2] < 1 or x.shape[3] < 1:
            raise ShapeError(f"global_avgpool expects (N, C, H, W), got {x.shape}")
        if train:
            self._cache = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        n, c, h, w = self._cache
        dx = scratch("pair", self._cache, dout.dtype, channel_major=True)
        dx[...] = dout.reshape(n, c, 1, 1) / (h * w)
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
