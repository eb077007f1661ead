"""Layer primitives with explicit forward and backward passes.

Every layer takes and returns channel-major arrays of shape (channels,
batch, height, width), so a convolution's GEMMs run on flat (C, N*H*W)
grids and a channel chunk ``x[ch]`` or a dense block's prefix is one
contiguous slab; only ``GlobalAvgPool`` leaves this order, for the (N, C)
features that ``Linear`` takes. A train-mode (C, N, H, W) result is
C-contiguous, or a crop of C-contiguous memory from a pad-0 3x3 convolution.
Training runs in float32; gradient checking builds float64 layers because
central differences are unreliable in single precision. A layer class
names its tensors once: ``PARAMS`` the trainable ones and ``STATE`` the
non-trainable ones (batchnorm running statistics). ``__init__`` allocates
each, plus a ``grad_<name>`` array per parameter that ``backward()``
overwrites in place, so a ``Model`` can rebind them all to views of its
flat arenas and a standalone layer still works.

``forward(x, train=False)`` is pure: it reads the parameters and running
statistics, writes nothing and allocates its results, so infer-mode
forwards may run concurrently on one layer (their convolution panels
serialize on the pool, as below). No infer-mode forward mixes frames: every
product runs per image or per frame, so a frame's output never depends on
its batch.
``forward(x, train=True)`` keeps what ``backward()`` needs in one field,
``_cache``, and updates batchnorm running statistics, so a
train forward and its backward must be serialized, and backward needs a
train-mode forward before it.

The large primitives run as work items fixed by shape: a convolution, in
both modes, per panel of ``PANEL_FRAMES`` whole images, a pool, in both
modes, and train-mode batchnorm per chunk of at least ``CHANNEL_CHUNK``
channels.
``fan_out`` runs the items of one call on a pool of one thread per usable
core, with numpy's bundled OpenBLAS held at one thread
(``one_blas_thread``), or in the calling thread. Each item writes its own
slice of the results and any partial sums are added in item order, so a
train step run inside ``one_blas_thread``, as ``trainer.train_epoch`` runs
each, gives the same bits on any number of cores and under any OpenBLAS
thread count.

Train mode gives every large array a fixed lifetime, so a training step
reuses the memory of the last one instead of allocating it again:

- *Step state*, what a train forward keeps for backward (the conv's
  grid, batchnorm's normalized input), lives in the layer's ``_cache``. It
  is reused while the shape and dtype repeat, and replaced when they
  change, as on an epoch's last partial batch. A layer copies what it
  keeps, except ``Linear``, which keeps its small input. A dense block
  keeps one normalized copy of its features, which its units' ``bn1`` and
  the batchnorm and pool after the block keep views of. Every ReLU runs
  inside the conv or pool after a batchnorm and keeps no mask: the conv's
  grid holds the ReLU output, and the pool recomputes the mask. For
  plain-22 at batch 256 the step state is about 223 MiB.
- *Scratch* holds everything else: a train-mode result of ``forward`` or
  ``backward`` (apart from the small global-pool and linear outputs) is a
  view into per-thread buffers (``scratch``), valid until the next
  train-mode call in the same thread. A caller that keeps one across train
  calls must copy it. The buffers live as long as their thread does (about
  79 MiB in the calling thread for plain-22 at batch 256, plus about 10 MiB
  of panel- and chunk-sized buffers in each pool thread) and are shared by
  every model that trains in it.
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

# Work items: whole images per convolution panel, and channels per train-mode
# batchnorm or pool chunk, raised until a chunk holds ITEM_ELEMENTS values, so
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

    The buffers hold bytes, so one serves every dtype. Train mode uses
    ``"taps"`` (a conv panel's per-tap products and shifted output gradient,
    a pool chunk's row sums and their gradient), ``"placed"`` (a pad-0 conv
    panel's output gradient on its input's pixels), ``"act"`` (a pool
    chunk's batchnorm output in backward), ``"partials"`` (a conv's
    per-panel weight gradients), ``"chunk"`` and ``"mask"`` (a channel
    chunk's terms of a batchnorm's backward, a pool chunk's ReLU output and
    mask), ``"block"`` (a dense block's features, then
    their gradient, which a pool writes) and ``"pair"``, which names two
    buffers handed out in turn. A layer's pair result thus never overwrites
    the pair array it was given.
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


def step_state(kept, shape, dtype) -> np.ndarray:
    """``kept`` again if it has this shape and dtype; else a new, uninitialized array."""
    if kept is not None and kept.shape == tuple(shape) and kept.dtype == dtype:
        return kept
    return np.empty(shape, dtype=dtype)


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

    With two or more usable cores the items run inside ``one_blas_thread``,
    a lone item too, so that it rounds as it would on the pool. With two or
    more items and numpy's bundled OpenBLAS, ``min(count, cores)`` pool
    threads take them in turn while the calling thread waits. Otherwise the
    items run in the calling thread, and always in a pool thread: its caller
    may hold the guard while it waits for the pool. The layers' items call
    numpy only, never a layer's public ``forward`` or ``backward``, which a
    profiler may wrap with state that is not per thread.
    """
    cores = usable_cores()
    workers = min(count, cores)
    global _pool
    with one_blas_thread() if cores > 1 else contextlib.nullcontext():
        if workers < 2 or _POOL_THREAD.inside or _openblas() is None:
            for i in range(count):
                work(i)
            return
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

    Shifted GEMM on an unpadded grid, the C-contiguous (C_in, N*H*W) input:
    a product with the weights as (k*k*C_out, C_in) gives every tap's
    product at every pixel, and output pixel q, at column m*H*W + y*W + x
    of image m, sums tap (i, j)'s product at q + (i-p)*W + (j-p), the pixel
    it reads. A read that crosses an image's edge, which zero padding would
    make, lands in another row or image instead; the pixels that a tap (i,
    j) reads only so are whole rows and columns of every image, the first
    i-p rows for i > p or the last p-i for i < p, and likewise the columns.
    Those are zeroed in the tap's product before the shift-add, so an
    edge-crossing read adds zero, as padding would, and no output reads
    another image. A panel's products sit between zeroed margins as wide as
    the largest shifts, so a read past its first or last image is zero too,
    and every output sums all k*k taps in tap order. Outputs are computed at
    every input pixel, which covers the H+2p-k+1 output rows only when
    ``2*pad <= k-1`` (``ConfigError`` otherwise); a smaller output, a pad-0
    conv's, is a crop. Backward shifts ``dout`` once per tap into a
    (k*k*C_out, columns) matrix, input pixel q taking output pixel q minus
    the tap's shift, applies the same zeroing and gets dW and dX from one
    GEMM each. A same-size conv reads ``dout`` in place: each column it
    cannot read there, before the batch or after it, is edge-crossing and
    zeroed. A cropped conv first places a panel's ``dout`` on the input's
    pixels, zero where it has no output.

    Forward, in both modes, and backward run per panel of ``PANEL_FRAMES``
    whole images (``fan_out``). Each panel writes its own grid, output and
    dX columns and a dW partial, and the partials are summed in panel
    order. BLAS rounds a GEMM's columns differently by their position in
    it, so an infer panel runs one GEMM per image, and no frame's infer
    output depends on the rest of its batch. Grid, output and dX are
    C-contiguous, apart from a cropped output.

    Given a per-channel ``scale`` and ``shift``, the grid holds ``max(x *
    scale + shift, 0)``, a batchnorm and ReLU before the conv, and the
    ReLU's mask is ``kept_input() > 0``. The grid is filled per channel
    chunk, before the panels: a panel's run of a channel is short, and at
    (200, 256, 4, 19) a 1x1 conv's train forward took 14.3 ms so against
    19.8 filling per panel (2 vCPUs).
    """

    PARAMS = ("weight",)

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 pad: int = 0, *, rng=None, dtype=np.float32):
        if kernel_size < 1:
            raise ConfigError(f"conv kernel size must be >= 1, got {kernel_size}")
        if not 0 <= 2 * pad <= kernel_size - 1:
            raise ConfigError(f"conv pad must be in [0, (k-1)/2], got {pad} with kernel {kernel_size}")
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
        self._cache = None  # (grid, input shape)

    def _taps(self, w: int):
        """(k*k*C_out, C_in) weights, row t*C_out + o for tap t = i*k + j;
        tap shifts (i-p)*w + j-p."""
        k, p = self.kernel_size, self.pad
        matrix = self.weight.transpose(2, 3, 0, 1).reshape(-1, self.in_channels)
        return matrix, [(i - p) * w + j - p for i in range(k) for j in range(k)]

    def _cancel_edges(self, per_tap, h: int, w: int) -> None:
        """Zero, in the (k*k*rows, images*h*w) ``per_tap``, each tap's pixels
        that it reads only across an image's edge."""
        k, p = self.kernel_size, self.pad
        taps = per_tap.reshape(k, k, -1, per_tap.shape[1] // (h * w), h, w, copy=False)
        for i in range(k):
            d = i - p
            taps[i, :, :, :, slice(max(h + d, 0), h) if d < 0 else slice(min(d, h))] = 0
            taps[:, i, :, :, :, slice(max(w + d, 0), w) if d < 0 else slice(min(d, w))] = 0

    def forward(self, x: np.ndarray, train: bool = False, scale=None, shift=None) -> np.ndarray:
        if x.ndim != 4 or x.shape[0] != self.in_channels:
            raise ShapeError(f"conv2d expects ({self.in_channels}, N, H, W), got {x.shape}")
        (c, n, h, w), k, p, co = x.shape, self.kernel_size, self.pad, self.out_channels
        oh, ow = conv_output_size(h, k, p), conv_output_size(w, k, p)
        if oh < 1 or ow < 1:
            raise ShapeError(f"conv2d: {h}x{w} input is smaller than a {k}x{k} kernel with pad {p}")
        image = h * w
        matrix, shifts = self._taps(w)
        left, right = -shifts[0], shifts[-1]
        dtype = np.result_type(matrix, x)
        if train:
            kept = self._cache[0] if self._cache and self._cache[1] == x.shape else None
            grid = step_state(kept, (c, n * image), x.dtype)
            self._cache = (grid, x.shape)
            out = scratch("pair", (co, n * image), dtype)
        else:
            # the input itself, unless the grid holds its ReLU output
            grid = x.reshape(c, -1) if scale is None else np.empty((c, n * image), x.dtype)
            out = np.empty((co, n * image), dtype=dtype)
        images, fills = grid.reshape(x.shape), _channel_chunks(x.shape)

        def fill_chunk(i):  # the ReLU output, or the train input's copy
            ch = fills[i]
            if scale is None:
                images[ch] = x[ch]
                return
            np.multiply(x[ch], _per_channel(scale[ch]), out=images[ch])
            images[ch] += _per_channel(shift[ch])
            np.maximum(images[ch], 0, out=images[ch])

        if train or scale is not None:
            fan_out(fill_chunk, len(fills))
        panels = _chunks(n, PANEL_FRAMES)

        def panel(i):
            frames = panels[i]
            own = slice(frames.start * image, frames.stop * image)  # its columns
            width = own.stop - own.start
            if k == 1:
                products = out[:, own]
            else:
                shape = (k * k * co, left + width + right)
                per_tap = scratch("taps", shape, dtype) if train else np.empty(shape, dtype)
                per_tap[:, :left], per_tap[:, left + width :] = 0, 0
                products = per_tap[:, left : left + width]
            if train:
                np.matmul(matrix, grid[:, own], out=products)
            else:  # one GEMM per image
                np.matmul(matrix, grid[:, own].reshape(c, -1, image).transpose(1, 0, 2),
                          out=products.reshape(k * k * co, -1, image).transpose(1, 0, 2))
            if k == 1:
                return
            self._cancel_edges(products, h, w)
            dest = out[:, own]
            dest[...] = per_tap[:co, :width]  # tap 0's shift is -left
            for t, s in enumerate(shifts[1:], 1):
                dest += per_tap[t * co : (t + 1) * co, left + s : left + s + width]

        fan_out(panel, len(panels))
        return out.reshape(co, n, h, w)[:, :, :oh, :ow]

    def kept_input(self) -> np.ndarray:
        """The last train forward's input, as its grid holds it."""
        grid, shape = self._cache
        return grid.reshape(shape)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        grid, shape = self._cache
        (c, n, h, w), k, co = shape, self.kernel_size, self.out_channels
        image = h * w
        oh, ow = dout.shape[2:]
        matrix, shifts = self._taps(w)
        dtype = np.result_type(matrix, dout)
        same = (oh, ow) == (h, w)
        if same:
            dout = dout.reshape(co, -1)
        panels = _chunks(n, PANEL_FRAMES)
        # not from "pair": a second pair request would hand out the one holding ``dout``
        partials = scratch("partials", (len(panels), k * k * co, c), dtype)
        dx = scratch("pair", (c, n * image), dtype)

        def panel(i):
            frames = panels[i]
            own = slice(frames.start * image, frames.stop * image)  # its columns
            width = own.stop - own.start
            if k == 1:
                shifted = dout[:, own]
            else:
                source, first = dout, own.start
                if not same:  # this panel's ``dout`` on its input pixels
                    source, first = scratch("placed", (co, width), dout.dtype), 0
                    cells = source.reshape(co, -1, h, w)
                    cells[:, :, :oh, :ow] = dout[:, frames]
                    cells[:, :, :oh, ow:], cells[:, :, oh:] = 0, 0
                shifted = scratch("taps", (k * k * co, width), dout.dtype)
                for t, s in enumerate(shifts):
                    lo = first - s
                    a, b = max(lo, 0), min(lo + width, source.shape[1])
                    shifted[t * co : (t + 1) * co, a - lo : b - lo] = source[:, a:b]
                # also zeroes the columns left unwritten, all edge-crossing
                self._cancel_edges(shifted, h, w)
            np.matmul(shifted, grid[:, own].T, out=partials[i])
            np.matmul(matrix.T, shifted, out=dx[:, own])

        fan_out(panel, len(panels))
        grad = partials.sum(axis=0).reshape(k, k, co, c)
        self.grad_weight[...] = grad.transpose(2, 3, 0, 1)
        return dx.reshape(shape)


def _per_channel(arr):
    return arr.reshape(-1, 1, 1, 1)


def normalize(x: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Batch statistics of a (C, N, H, W) array over (N, H, W), each chunk
    of channels its own item (``fan_out``), as no channel reads another's:
    writes ``xhat = (x - mean) * inv`` with ``inv = 1 / sqrt(var + eps)``
    and returns the (3, C) rows mean, var, inv."""
    count = x[0].size
    if count < 2:
        raise DataError(f"degenerate batch: {count} sample per channel, need >= 2")
    stats = np.empty((3, x.shape[0]), x.dtype)
    chunks = _channel_chunks(x.shape)

    def chunk(i):
        ch = chunks[i]
        mean = np.einsum("cnhw->c", x[ch]) / count
        centred = np.subtract(x[ch], _per_channel(mean), out=xhat[ch])
        # centred second moment: no cancellation from E[x^2] - E[x]^2
        var = np.einsum("cnhw,cnhw->c", centred, centred) / count
        inv = 1.0 / np.sqrt(var + BN_EPSILON)
        centred *= _per_channel(inv)
        stats[:, ch] = mean, var, inv

    fan_out(chunk, len(chunks))
    return stats


def _read_relu(dh, act, xhat, gamma, dgamma, dbeta) -> None:
    """One channel chunk of a batchnorm's backward through the ReLU after it,
    up to ``project``: mask ``dh``, the ReLU output's gradient, where its
    input ``act`` is > 0, write ``dgamma = sum(dh * xhat)`` and ``dbeta =
    sum(dh)``, and scale ``dh`` by ``gamma``, to D, the gradient of ``xhat``."""
    # masked in place, not in a copy: 0.50 against 0.74 ms at 8 x 256 x 9 x 38, one core
    dh *= np.greater(act, 0, out=scratch("mask", dh.shape, bool))
    dgamma[...] = np.einsum("cnhw,cnhw->c", dh, xhat)
    dbeta[...] = np.einsum("cnhw->c", dh)
    dh *= _per_channel(gamma)


def project(dx: np.ndarray, xhat: np.ndarray, inv: np.ndarray, sums: np.ndarray) -> None:
    """Turn D, the gradient of ``xhat`` in ``dx``, into batchnorm's input
    gradient ``inv * (D - mean(D) - xhat * mean(D * xhat))`` in place, given
    ``sums`` of D and D * xhat per channel. Every batchnorm's input gradient
    is finished here: a BC unit's ``bn2`` by its ``BatchNorm.backward``, the
    rest by their dense block, once every reader of a slab has run."""
    means = sums / xhat[0].size
    chunks = _channel_chunks(dx.shape)

    def chunk(i):
        ch = chunks[i]
        part = np.multiply(xhat[ch], _per_channel(means[1, ch]),
                           out=scratch("chunk", xhat[ch].shape, dx.dtype))
        part += _per_channel(means[0, ch])
        dx[ch] -= part
        dx[ch] *= _per_channel(inv[ch])

    fan_out(chunk, len(chunks))


class BatchNorm:
    """Per-channel batch normalization with running statistics, whose scale,
    shift and ReLU the conv or pool after it applies (``Conv2d``, ``_Pool``):
    in train mode ``gamma`` and ``beta`` to the normalized input, in infer
    mode ``folded()`` to the raw input.

    Train mode normalizes with batch statistics over (batch, height, width)
    (``normalize``), updates the running estimates in place and keeps the
    normalized input for backward (``keep_batch``). The batchnorm of a dense
    unit's first layer, a transition or the classifier keeps a view of the
    ``xhat`` of the block before it instead (see ``DenseBlock``), which
    ``forward`` never writes.
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

    def folded(self):
        """Infer mode's per-channel (scale, shift)."""
        scale = self.gamma / np.sqrt(self.running_var + BN_EPSILON)
        return scale, self.beta - self.running_mean * scale

    def keep_batch(self, xhat, mean, var, inv):
        """Fold a train batch's statistics into the running estimates, and
        keep its ``xhat`` and ``inv`` (see ``normalize``) for backward."""
        self.running_mean[...] = BN_MOMENTUM * self.running_mean + (1.0 - BN_MOMENTUM) * mean
        self.running_var[...] = BN_MOMENTUM * self.running_var + (1.0 - BN_MOMENTUM) * var
        self._cache = (xhat, inv)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """What the next layer scales, shifts and ReLUs: the kept ``xhat``
        in train mode, ``x`` itself in infer mode."""
        if x.ndim != 4 or x.shape[0] != self.num_channels:
            raise ShapeError(
                f"batchnorm expects ({self.num_channels}, N, H, W), got {x.shape}"
            )
        if not train:
            return x
        # a view is a dense block's xhat (``keep_batch``), not this layer's to overwrite
        kept = self._cache[0] if self._cache and self._cache[0].base is None else None
        xhat = step_state(kept, x.shape, x.dtype)
        self.keep_batch(xhat, *normalize(x, xhat))
        return xhat

    def backward(self, dout: np.ndarray, relu_out: np.ndarray, dx=None) -> np.ndarray:
        """Backward through this batchnorm and the ReLU after it, given that
        ReLU's output ``relu_out`` and output gradient ``dout``: sets the
        gamma and beta gradients, overwrites ``dout`` with D, the gradient of
        ``xhat`` (``_read_relu``), and returns ``dout`` made the input
        gradient by ``project``. Given ``dx``, adds D into ``dx`` and returns
        it instead, for its dense block to project."""
        xhat, inv = self._cache
        chunks = _channel_chunks(dout.shape)

        def chunk(i):
            ch = chunks[i]
            _read_relu(dout[ch], relu_out[ch], xhat[ch], self.gamma[ch],
                      self.grad_gamma[ch], self.grad_beta[ch])
            if dx is not None:
                dx[ch] += dout[ch]

        fan_out(chunk, len(chunks))
        if dx is not None:
            return dx
        project(dout, xhat, inv, self.gamma * np.stack((self.grad_beta, self.grad_gamma)))
        return dout


class _Pool:
    """A pooling layer, run per channel chunk (``fan_out``). Given a
    per-channel ``scale`` and ``shift``, it pools ``max(x * scale + shift,
    0)``, the batchnorm and ReLU before it, in the same items and with
    nothing stored: on a dense block's ``xhat`` with gamma and beta in train
    mode, on its features with ``BatchNorm.folded()`` in infer mode.
    Backward returns the input gradient in scratch ``"block"``; given a
    ``scale``, it recomputes the ReLU's input, writes the gradients of
    ``scale`` and ``shift`` into ``dscale`` and ``dshift`` and leaves D, the
    gradient of ``xhat`` (``_read_relu``), for the block's ``project``."""

    def __init__(self):
        self._cache = None  # (input, scale, shift)

    def forward(self, x: np.ndarray, train: bool = False, scale=None, shift=None) -> np.ndarray:
        out = self._output(x, train)
        chunks = _channel_chunks(x.shape)

        def chunk(i):
            ch, act = chunks[i], x[chunks[i]]
            if scale is not None:
                act = np.multiply(act, _per_channel(scale[ch]),
                                  out=scratch("chunk", act.shape, x.dtype) if train else None)
                act += _per_channel(shift[ch])
                np.maximum(act, 0, out=act)
            self._pool(act, out[ch], train)

        fan_out(chunk, len(chunks))
        if train:
            self._cache = (x, scale, shift)
        return out

    def backward(self, dout: np.ndarray, dscale=None, dshift=None) -> np.ndarray:
        x, scale, shift = self._cache
        dx = scratch("block", x.shape, dout.dtype)
        chunks = _channel_chunks(x.shape)

        def chunk(i):
            ch, dh = chunks[i], dx[chunks[i]]
            self._spread(dout, ch, dh)
            if scale is not None:  # act > 0 is the mask of max(act, 0) > 0
                act = np.multiply(x[ch], _per_channel(scale[ch]), out=scratch("act", dh.shape, x.dtype))
                act += _per_channel(shift[ch])
                _read_relu(dh, act, x[ch], scale[ch], dscale[ch], dshift[ch])

        fan_out(chunk, len(chunks))
        return dx


class AvgPool2d(_Pool):
    """2x2 average pooling with stride 2; trailing odd row/column dropped."""

    def _output(self, x, train):
        c, n, h, w = x.shape
        if h < 2 or w < 2:
            raise ShapeError(f"avgpool2d needs spatial extents >= 2, got {h}x{w}")
        shape = (c, n, pool_output_size(h), pool_output_size(w))
        return scratch("pair", shape, x.dtype) if train else np.empty(shape, x.dtype)

    def _pool(self, x, out, train):
        oh, ow = out.shape[2:]
        shape = (*x.shape[:2], oh, 2 * ow)
        rows = np.add(x[:, :, 0 : 2 * oh : 2, : 2 * ow], x[:, :, 1 : 2 * oh : 2, : 2 * ow],
                      out=scratch("taps", shape, x.dtype) if train else None)
        np.add(rows[:, :, :, 0::2], rows[:, :, :, 1::2], out=out)
        out *= 0.25

    def _spread(self, dout, ch, dx):
        # the adjoint of _pool: each value twice along a row, then each row twice
        oh, ow = dout.shape[2:]
        rows = scratch("taps", (*dx.shape[:2], oh, 2 * ow), dx.dtype)
        np.multiply(dout[ch], 0.25, out=rows[:, :, :, 0::2])
        rows[:, :, :, 1::2] = rows[:, :, :, 0::2]
        dx[:, :, 0 : 2 * oh : 2, : 2 * ow] = rows
        dx[:, :, 1 : 2 * oh : 2, : 2 * ow] = rows
        # the dropped odd row and column get no gradient
        dx[:, :, 2 * oh :] = 0
        dx[:, :, :, 2 * ow :] = 0


class GlobalAvgPool(_Pool):
    """Mean over all spatial positions, one value per channel: (C, N, H, W) -> (N, C)."""

    def forward(self, x: np.ndarray, train: bool = False, scale=None, shift=None) -> np.ndarray:
        return super().forward(x, train, scale, shift).T

    def _output(self, x, train):
        if x.ndim != 4 or x.shape[2] < 1 or x.shape[3] < 1:
            raise ShapeError(f"global_avgpool expects (C, N, H, W), got {x.shape}")
        return np.empty(x.shape[:2], x.dtype)

    def _pool(self, x, out, train):
        np.mean(x, axis=(2, 3), out=out)

    def _spread(self, dout, ch, dx):
        h, w = dx.shape[2:]
        dx[...] = dout.T[ch, :, None, None] / (h * w)


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
