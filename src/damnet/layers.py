"""Layer primitives with explicit forward and backward passes.

Every layer takes and returns channel-major arrays of shape (channels,
batch, height, width), so a convolution's GEMMs run on flat (C, N*H*W)
grids and a channel chunk ``x[ch]`` or a dense block's prefix is one
contiguous slab; only ``GlobalAvgPool`` leaves this order, for the (N, C)
features that ``Linear`` takes. A train-mode (C, N, H, W) result is
C-contiguous, or a crop of C-contiguous memory from a convolution.
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

Train mode splits the large primitives into work items fixed by shape: a
convolution runs per panel of ``PANEL_FRAMES`` whole images, batchnorm and
ReLU per chunk of at least ``CHANNEL_CHUNK`` channels. ``fan_out`` runs the
items of one call on a pool of one thread per usable core, with numpy's
bundled OpenBLAS held at one thread (``one_blas_thread``), or in the calling
thread. Each item writes its own slice of the results and any partial sums
are added in item order, so a train step run inside ``one_blas_thread``, as
``trainer.train_epoch`` runs each, gives the same bits on any number of
cores and under any OpenBLAS thread count.

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
  110 MB in the calling thread for plain-22 at batch 256, plus a
  panel-sized 4 MB in each pool thread) and are shared by every model that
  trains in it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, DataError, ShapeError

BN_EPSILON = 1e-5
# Running statistics update: new = BN_MOMENTUM * old + (1 - BN_MOMENTUM) * batch.
BN_MOMENTUM = 0.9

# Train-mode work items: whole images per convolution panel, and channels per
# batchnorm or ReLU chunk, raised until a chunk holds ITEM_ELEMENTS values, so
# small batches do not pay for many tiny items. They depend on the shapes only.
PANEL_FRAMES = 16
CHANNEL_CHUNK = 8
ITEM_ELEMENTS = 1 << 18


def he_normal(rng, shape, fan_in: int, dtype) -> np.ndarray:
    """Zero-mean init scaled by sqrt(2 / fan_in), the ReLU-friendly choice."""
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


def conv_output_size(extent: int, kernel: int, pad: int) -> int:
    return extent + 2 * pad - kernel + 1


def pool_output_size(extent: int) -> int:
    # 2x2 / stride-2 average pooling; the trailing odd row/column is dropped.
    return extent // 2


class _Scratch(threading.local):
    """One thread's scratch: byte buffers by name, and the pair buffer handed out last."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}
        self.last_pair = 1


_SCRATCH = _Scratch()


def scratch(name: str, shape, dtype) -> np.ndarray:
    """This thread's scratch buffer ``name`` seen as a C-order ``shape`` array
    of ``dtype``; it grows when a request does not fit.

    The buffers hold bytes, so one serves every dtype. Train mode uses four:
    ``"taps"`` (a conv panel's per-tap products and shifted output gradient,
    the pool's row sums), ``"partials"`` (a conv's per-panel weight
    gradients), ``"block"`` (a dense block's features, then their gradient)
    and ``"pair"``, which names two buffers handed out in turn. A layer's pair
    result thus never overwrites the pair array it was given.
    """
    state = _SCRATCH
    if name == "pair":
        state.last_pair ^= 1
        name = f"pair{state.last_pair}"
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buffer = state.buffers.get(name)
    if buffer is None or buffer.size < nbytes:
        buffer = state.buffers[name] = np.empty(nbytes, np.uint8)
    return buffer[:nbytes].view(dtype).reshape(shape)


def step_state(kept, shape, dtype, alloc=np.empty) -> np.ndarray:
    """``kept`` again if it has this shape and dtype; else a new array from ``alloc``."""
    if kept is not None and kept.shape == tuple(shape) and kept.dtype == dtype:
        return kept
    return alloc(shape, dtype=dtype)


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS if it exports its thread-count functions, else None."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"):
        lib = ctypes.CDLL(str(path))
        if (hasattr(lib, "scipy_openblas_get_num_threads64_")
                and hasattr(lib, "scipy_openblas_set_num_threads64_")):
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            return lib
    return None


class _PoolThread(threading.local):
    inside = False  # set in the pool's own threads


_BLAS_LOCK = threading.RLock()
_POOL_THREAD = _PoolThread()
_pool = None  # created by the first fan-out that runs in parallel


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread, restoring the previous
    count on exit, also on an exception. Threads serialize here, so no caller
    restores another's count; one thread may nest it. In a pool thread it does
    nothing, as the fan-out that runs the thread's item holds it."""
    blas = _openblas()
    if blas is None or _POOL_THREAD.inside:
        yield
        return
    with _BLAS_LOCK:
        saved = blas.scipy_openblas_get_num_threads64_()
        blas.scipy_openblas_set_num_threads64_(1)
        try:
            yield
        finally:
            blas.scipy_openblas_set_num_threads64_(saved)


def _mark_pool_thread():
    _POOL_THREAD.inside = True


def fan_out(work, count: int) -> None:
    """Run ``work(0)``, ..., ``work(count - 1)``, each at most once, in any
    order and on any thread, and return when all are done. If an item raises,
    items not yet taken may be skipped, and the first exception is raised
    once no item runs any more.

    With two or more items, two or more usable cores and numpy's bundled
    OpenBLAS, ``min(count, cores)`` pool threads take items in turn while
    the calling thread waits inside ``one_blas_thread``. Otherwise the items
    run in the calling thread, and always in a pool thread: its caller may
    hold the guard while it waits for the pool. The layers' train-mode items call
    numpy only, never a layer's public ``forward`` or ``backward``, which a
    profiler may wrap with state that is not per thread.
    """
    workers = min(count, usable_cores()) if count > 1 else 1
    if workers < 2 or _POOL_THREAD.inside or _openblas() is None:
        for i in range(count):
            work(i)
        return
    global _pool
    with one_blas_thread():
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # kept out of import time
            _pool = ThreadPoolExecutor(os.cpu_count() or 1, thread_name_prefix="damnet",
                                       initializer=_mark_pool_thread)
        items = iter(range(count))  # handed out one at a time under the GIL

        def drain():
            for i in items:
                work(i)

        helpers = [_pool.submit(drain) for _ in range(workers)]
        for helper in helpers:
            helper.exception()  # wait for every helper, failed or not
        for helper in helpers:
            helper.result()


def _chunks(count: int, size: int):
    """Slices of ``range(count)`` of ``size`` each, the last one shorter."""
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def _channel_chunks(shape):
    """Channel slices of a (C, N, H, W) train-mode array, one per work item."""
    return _chunks(shape[0], max(CHANNEL_CHUNK, -(-ITEM_ELEMENTS // math.prod(shape[1:]))))


class Conv2d:
    """2-D stride-1 convolution without bias; batchnorm always follows it.

    Shifted GEMM: the input is zero-padded into a channel-major
    (C_in, N, Hp, Wp) grid of row pitch Wp = W + 2*pad, seen flat as
    (C_in, N*Hp*Wp). A product with the weights as (k*k*C_out, C_in) gives
    every tap at every grid position, and output q = y*Wp + x of an image
    sums tap (i, j)'s row at q + i*Wp + j. A kept output (y < H_out,
    x < W_out) reads at most q + (k-1)*(Wp+1) <= Hp*Wp - 1, inside its own
    image's grid. Reads that spill past a row end, or past one image's grid
    into the next, belong to outputs with x >= W_out or y >= H_out, which the
    crop drops. Backward places ``dout`` on the same grid, shifts it once per
    tap into a (k*k*C_out, columns) matrix and gets dW and dX from one GEMM
    each.

    Train mode runs both directions per panel of ``PANEL_FRAMES`` whole
    images (``fan_out``): a panel fills its images' grid, runs its own GEMMs
    and shift-adds into its own output columns, and needs no halo. Its kept
    outputs read only their own images, by the argument above; in backward,
    a shifted ``dout`` column before a panel's first would read the previous
    image's last rows and columns, which are cropped outputs and so zero.
    Each panel writes its dX columns and a dW partial, and the partials are
    summed in panel order. BLAS rounds a GEMM's columns differently by their
    position in it, so infer mode runs one GEMM per image, on strided
    (C_in, Hp*Wp) views of the grid, and no frame's infer output depends on
    the rest of its batch. The output is a crop of a C-contiguous
    (C_out, N, Hp, Wp) array; a 1x1 conv's is contiguous.
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

    def _shift_add(self, per_tap, out, shifts):
        """out[:, q] = sum over taps t of per_tap's tap-t rows at q + shifts[t],
        for every q whose reads stay inside ``per_tap``."""
        co = self.out_channels
        span = per_tap.shape[1] - shifts[-1]
        out[:, :span] = per_tap[:co, :span]
        for t, shift in enumerate(shifts[1:], 1):
            out[:, :span] += per_tap[t * co : (t + 1) * co, shift : shift + span]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[0] != self.in_channels:
            raise ShapeError(f"conv2d expects ({self.in_channels}, N, H, W), got {x.shape}")
        (c, n, h, w), k, p, co = x.shape, self.kernel_size, self.pad, self.out_channels
        oh, ow = conv_output_size(h, k, p), conv_output_size(w, k, p)
        if oh < 1 or ow < 1:
            raise ShapeError(f"conv2d: {h}x{w} input is smaller than a {k}x{k} kernel with pad {p}")
        hp, wp = h + 2 * p, w + 2 * p
        matrix, shifts = self._taps(wp)
        dtype = np.result_type(matrix, x)
        if train:
            # only the interior is ever written, so the border stays zero
            grid = self._cache = step_state(self._cache, (c, n, hp, wp), x.dtype, alloc=np.zeros)
            out = scratch("pair", (co, n, hp, wp), dtype)
            flat_grid, flat_out, image = grid.reshape(c, -1), out.reshape(co, -1), hp * wp
            panels = _chunks(n, PANEL_FRAMES)

            def panel(i):
                frames = panels[i]
                grid[:, frames, p : p + h, p : p + w] = x[:, frames]
                columns = slice(frames.start * image, frames.stop * image)
                if k == 1:
                    np.matmul(matrix, flat_grid[:, columns], out=flat_out[:, columns])
                    return
                per_tap = scratch("taps", (k * k * co, columns.stop - columns.start), dtype)
                np.matmul(matrix, flat_grid[:, columns], out=per_tap)
                self._shift_add(per_tap, flat_out[:, columns], shifts)

            fan_out(panel, len(panels))
        else:
            if p:
                grid = np.zeros((c, n, hp, wp), dtype=x.dtype)
                grid[:, :, p : p + h, p : p + w] = x
            else:
                grid = np.ascontiguousarray(x)
            per_tap = np.empty((k * k * co, n * hp * wp), dtype=dtype)
            np.matmul(matrix, grid.reshape(c, n, -1).transpose(1, 0, 2),
                      out=per_tap.reshape(k * k * co, n, -1).transpose(1, 0, 2))
            out = per_tap
            if k > 1:
                out = np.empty((co, n * hp * wp), dtype=dtype)
                self._shift_add(per_tap, out, shifts)
        return out.reshape(co, n, hp, wp)[:, :, :oh, :ow]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        grid = self._cache
        (c, n, hp, wp), k, p, co = grid.shape, self.kernel_size, self.pad, self.out_channels
        oh, ow = dout.shape[2:]
        matrix, shifts = self._taps(wp)
        dtype = np.result_type(matrix, dout)
        flat_grid, image = grid.reshape(c, -1), hp * wp
        if k == 1:
            dout = dout.reshape(co, -1)
        panels = _chunks(n, PANEL_FRAMES)
        # not from "pair": a second pair request would hand out the one holding ``dout``
        partials = scratch("partials", (len(panels), k * k * co, c), dtype)
        dgrid = scratch("pair", (c, n, hp, wp), dtype)
        flat_dgrid = dgrid.reshape(c, -1)

        def panel(i):
            frames = panels[i]
            columns = slice(frames.start * image, frames.stop * image)
            if k == 1:
                shifted = dout[:, columns]
            else:
                width = columns.stop - columns.start
                shifted = scratch("taps", (k * k, co, width), dout.dtype)
                # tap 0 has shift 0: it is ``dout`` placed on the panel's grid
                placed = shifted[0].reshape(co, -1, hp, wp)
                placed[:, :, :oh, :ow] = dout[:, frames]
                placed[:, :, :oh, ow:] = 0
                placed[:, :, oh:] = 0
                span = width - shifts[-1]
                for t, shift in enumerate(shifts[1:], 1):
                    shifted[t, :, :shift] = 0
                    shifted[t, :, shift : shift + span] = shifted[0, :, :span]
                    shifted[t, :, shift + span :] = 0
                shifted = shifted.reshape(k * k * co, width)
            np.matmul(shifted, flat_grid[:, columns].T, out=partials[i])
            np.matmul(matrix.T, shifted, out=flat_dgrid[:, columns])

        fan_out(panel, len(panels))
        grad = partials.sum(axis=0).reshape(k, k, co, c)
        self.grad_weight[...] = grad.transpose(2, 3, 0, 1)
        return dgrid[:, :, p : hp - p, p : wp - p]


class BatchNorm:
    """Per-channel batch normalization with running statistics.

    Train mode normalizes with batch statistics over (batch, height,
    width), updates the running estimates in place and keeps the
    normalized input for backward. Each chunk of channels (``fan_out``)
    does all of this for its own channels, as no channel reads another's.
    Infer mode folds the running estimates into one per-channel
    ``x * scale + shift`` and writes nothing.
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

    @staticmethod
    def _per_channel(arr):
        return arr.reshape(-1, 1, 1, 1)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[0] != self.num_channels:
            raise ShapeError(
                f"batchnorm expects ({self.num_channels}, N, H, W), got {x.shape}"
            )
        if not train:
            scale = self.gamma / np.sqrt(self.running_var + BN_EPSILON)
            out = x * self._per_channel(scale)
            out += self._per_channel(self.beta - self.running_mean * scale)
            return out
        samples_per_channel = x[0].size
        if samples_per_channel < 2:
            raise DataError(
                f"degenerate batch: {samples_per_channel} sample per channel, need >= 2"
            )
        kept = self._cache[0] if self._cache else None
        xhat = step_state(kept, x.shape, x.dtype)
        inv = np.empty(self.num_channels, dtype=x.dtype)
        out = scratch("pair", x.shape, np.result_type(xhat, self.gamma))
        chunks = _channel_chunks(x.shape)

        def chunk(i):
            ch = chunks[i]
            mean = np.einsum("cnhw->c", x[ch]) / samples_per_channel
            centred = np.subtract(x[ch], self._per_channel(mean), out=xhat[ch])
            # centred second moment: no cancellation from E[x^2] - E[x]^2
            var = np.einsum("cnhw,cnhw->c", centred, centred) / samples_per_channel
            self.running_mean[ch] = BN_MOMENTUM * self.running_mean[ch] + (1.0 - BN_MOMENTUM) * mean
            self.running_var[ch] = BN_MOMENTUM * self.running_var[ch] + (1.0 - BN_MOMENTUM) * var
            inv[ch] = 1.0 / np.sqrt(var + BN_EPSILON)
            centred *= self._per_channel(inv[ch])
            np.multiply(centred, self._per_channel(self.gamma[ch]), out=out[ch])
            out[ch] += self._per_channel(self.beta[ch])

        fan_out(chunk, len(chunks))
        self._cache = (xhat, inv)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        xhat, inv = self._cache
        count = dout.size // self.num_channels
        dx = scratch("pair", xhat.shape, np.result_type(xhat, self.grad_gamma))
        chunks = _channel_chunks(dout.shape)

        def chunk(i):
            ch = chunks[i]
            grad_gamma = self.grad_gamma[ch]
            grad_gamma[...] = np.einsum("cnhw,cnhw->c", dout[ch], xhat[ch])
            self.grad_beta[ch] = np.einsum("cnhw->c", dout[ch])
            # gamma * inv * (dout - mean(dout) - xhat * mean(dout * xhat))
            part = np.multiply(xhat[ch], self._per_channel(-grad_gamma / count), out=dx[ch])
            part += dout[ch]
            part -= self._per_channel(self.grad_beta[ch] / count)
            part *= self._per_channel(self.gamma[ch] * inv[ch])

        fan_out(chunk, len(chunks))
        return dx


class ReLU:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0. Train mode
    runs per chunk of ``CHANNEL_CHUNK`` channels."""

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if not train:
            return np.maximum(x, 0)
        mask = self._cache = step_state(self._cache, x.shape, bool)
        out = scratch("pair", x.shape, x.dtype)
        chunks = _channel_chunks(x.shape)

        def chunk(i):
            ch = chunks[i]
            np.greater(x[ch], 0, out=mask[ch])
            np.multiply(x[ch], mask[ch], out=out[ch])

        fan_out(chunk, len(chunks))
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        out = scratch("pair", dout.shape, dout.dtype)
        chunks = _channel_chunks(dout.shape)

        def chunk(i):
            np.multiply(dout[chunks[i]], self._cache[chunks[i]], out=out[chunks[i]])

        fan_out(chunk, len(chunks))
        return out


class AvgPool2d:
    """2x2 average pooling with stride 2; trailing odd row/column dropped."""

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        c, n, h, w = x.shape
        if h < 2 or w < 2:
            raise ShapeError(f"avgpool2d needs spatial extents >= 2, got {h}x{w}")
        oh, ow = pool_output_size(h), pool_output_size(w)
        rows = out = None
        if train:
            self._cache = x.shape
            rows = scratch("taps", (c, n, oh, 2 * ow), x.dtype)
            out = scratch("pair", (c, n, oh, ow), x.dtype)
        rows = np.add(x[:, :, 0 : 2 * oh : 2, : 2 * ow], x[:, :, 1 : 2 * oh : 2, : 2 * ow], out=rows)
        out = np.add(rows[:, :, :, 0::2], rows[:, :, :, 1::2], out=out)
        out *= 0.25
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        oh, ow = dout.shape[2:]
        dx = scratch("pair", self._cache, dout.dtype)
        for i, j in np.ndindex(2, 2):
            np.multiply(dout, 0.25, out=dx[:, :, i : 2 * oh : 2, j : 2 * ow : 2])
        # the dropped odd row and column get no gradient
        dx[:, :, 2 * oh :] = 0
        dx[:, :, :, 2 * ow :] = 0
        return dx


class GlobalAvgPool:
    """Mean over all spatial positions, one value per channel: (C, N, H, W) -> (N, C)."""

    def __init__(self):
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[2] < 1 or x.shape[3] < 1:
            raise ShapeError(f"global_avgpool expects (C, N, H, W), got {x.shape}")
        if train:
            self._cache = x.shape
        return x.mean(axis=(2, 3)).T

    def backward(self, dout: np.ndarray) -> np.ndarray:
        c, n, h, w = self._cache
        dx = scratch("pair", self._cache, dout.dtype)
        dx[...] = dout.T.reshape(c, n, 1, 1) / (h * w)
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
