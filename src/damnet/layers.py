"""Layer primitives with explicit forward and backward passes.

Every layer takes and returns channel-major arrays of shape (channels,
batch, height, width), so a convolution's GEMMs run on flat (C, N*H*W)
grids and a channel chunk ``x[ch]`` or a dense block's prefix is one
contiguous slab; only ``GlobalAvgPool`` leaves this order, for the (N, C)
features that ``Linear`` takes. A train-mode (C, N, H, W) result is
C-contiguous.
Training runs in float32; gradient checking builds float64 layers because
central differences are unreliable in single precision. A layer class
names its tensors once: ``PARAMS`` the trainable ones and ``STATE`` the
non-trainable ones (batchnorm running statistics). ``__init__`` allocates
each, plus a ``grad_<name>`` array per parameter that ``backward()``
overwrites in place, so a ``Model`` can rebind them all to views of its
flat arenas and a standalone layer still works.

``forward(x, train=False)`` is pure: it reads the parameters and running
statistics, allocates its results and writes only per-thread scratch
(``"grid"`` and ``"patches"``), so infer-mode forwards may run concurrently
on one layer (their convolution panels serialize on the pool, as below).
No infer-mode forward mixes frames: every product runs per image or per
frame, so a frame's output never depends on its batch.
``forward(x, train=True)`` keeps what ``backward()`` needs in one field,
``_cache``, and updates batchnorm running statistics, so a
train forward and its backward must be serialized, and backward needs a
train-mode forward before it.

The large primitives run as work items fixed by shape: a convolution, in
both modes, per panel of whole images that reach ``PANEL_COLUMNS`` columns
(``_panels``), a pool, in both modes, and train-mode batchnorm per chunk of
at least ``CHANNEL_CHUNK`` channels (``_fan_out_chunks``).
``fan_out`` runs the items of one call on a pool of one thread per usable
core, with numpy's bundled OpenBLAS held at one thread
(``one_blas_thread``), or in the calling thread. Each item writes its own
slice of the results and any partial sums are added in item order, so a
train step run inside ``one_blas_thread``, as ``trainer.train_epoch`` runs
each, gives the same bits on any number of cores and under any OpenBLAS
thread count.

Train mode gives every large array a fixed lifetime, so a training step
reuses the memory of the last one instead of allocating it again:

- *Step state*, what a train forward keeps for backward, lives in the
  layer's ``_cache``. It is reused while the shape and dtype repeat, and
  replaced when they change, as on an epoch's last partial batch. A dense
  block keeps only the normalization of its features, written straight
  from the layer that made each slab, and its units' ``bn1`` and the
  batchnorm and pool after the block keep views of it; a BC unit's ``bn2``
  keeps its own normalized input. Every ReLU runs inside the conv or pool
  after a batchnorm and keeps nothing: that layer keeps references to the
  normalized input and to gamma and beta, and recomputes the ReLU output in
  backward, the conv per panel and the pool per channel chunk. The other
  convs keep their inputs by reference too: the initial conv the model's
  input, a transition's conv its pool's output, the pool's step state.
  ``Linear`` keeps its small input. So the step state grows linearly with
  depth: for plain-22 at batch 256 it is about 56 MiB
  (``Model.step_state_bytes``).
- *Scratch* holds everything else: a train-mode result of ``forward`` or
  ``backward`` (apart from the pools' and the linear outputs) is a view
  into per-thread buffers (``scratch``), valid until the next train-mode
  call in the same thread. A caller that keeps one across train calls must
  copy it. Every conv's train output, and its input gradient when it is
  given no destination, is one buffer, ``"out"``, valid until the next
  conv call in the thread: a batchnorm or a pool always sits between two
  convs. A dense unit's first conv adds its input gradient into its
  block's gradient buffer a panel at a time, so no unit's full-batch input
  gradient is in scratch. The buffers live as long as their thread does
  (about 37.3 MiB in the calling thread for plain-22 at batch 256 and
  46.6 MiB for BC-41, plus about 10.1 MiB of panel- and chunk-sized
  buffers in each pool thread, 1.9 MiB of it a panel's ReLU output and
  1.9 MiB a panel's input gradient) and are shared by every model that
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

# Work items: a convolution panel's columns, reached with whole images
# (``_panels``), and channels per train-mode batchnorm or pool chunk, raised
# until a chunk holds ITEM_ELEMENTS values, so small batches and images do not
# pay for many tiny items. They depend on the shapes only.
PANEL_COLUMNS = 2048
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


_SCRATCH = threading.local()  # its ``buffers``: one thread's byte buffers by name


def scratch(name: str, shape, dtype) -> np.ndarray:
    """This thread's scratch buffer ``name`` seen as a C-order ``shape`` array
    of ``dtype``; it grows when a request does not fit.

    The buffers hold bytes, so one serves every dtype. Infer mode uses
    ``"grid"`` (a conv panel's BN -> ReLU output) and ``"patches"`` (a pad-0
    conv panel's patch matrix), as train mode does in both directions.
    Train mode also uses ``"taps"`` (a conv panel's per-tap products and
    shifted output gradient, a pad-0 conv panel's per-tap rows of its input
    gradient, a pool chunk's row sums and their gradient), ``"partials"``
    (a conv's per-panel gradients of its weights, scale and shift),
    ``"panel"`` (a conv panel's input gradient, which the conv adds into
    the caller's destination),
    ``"chunk"`` (a channel chunk's terms of a batchnorm's ``project``, a
    pool chunk's ReLU output, or its ReLU input in backward), ``"mask"``
    (the ReLU mask of a conv panel's or a pool chunk's backward),
    ``"block"`` (the gradient of a dense block's normalized features, which
    the pool after the block writes) and ``"out"`` (a conv's train output,
    and its input gradient when the caller passes no destination: the
    initial conv's, a transition's conv's and a BC unit's 3x3 conv's).
    """
    if not hasattr(_SCRATCH, "buffers"):  # the thread's first request
        _SCRATCH.buffers = {}
    buffers = _SCRATCH.buffers
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buffer = buffers.get(name)
    if buffer is None or buffer.size < nbytes:
        # free the smaller buffer first, so the allocator can reuse its
        # memory for the larger one
        buffers.pop(name, None)
        del buffer
        buffer = buffers[name] = np.empty(nbytes, np.uint8)
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

    Called from a pool thread, its first step runs the items there in turn:
    the caller may hold the guard while it waits for the pool, and a nested
    call, such as a panel's or a layer's in a ``Model.forward`` infer shard,
    pays for no affinity lookup or guard. Otherwise, with two or more usable
    cores the items run inside ``one_blas_thread``, a lone item too, so that
    it rounds as it would on the pool. With two or more items and numpy's
    bundled OpenBLAS, ``min(count, cores)`` pool threads take them in turn
    while the calling thread waits; else the calling thread runs them. The
    layers' items call numpy only; the infer shards and panels of
    ``Model.forward`` call the stages' ``forward``, and the corpus items of
    ``features`` and ``trainer`` module functions by name, such as
    ``compute_logmel``, so a profiler that wraps those runs in pool threads.
    """
    if _POOL_THREAD.inside:
        for i in range(count):
            work(i)
        return
    cores = usable_cores()
    workers = min(count, cores)
    global _pool
    with one_blas_thread() if cores > 1 else contextlib.nullcontext():
        if workers < 2 or _openblas() is None:
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


def _panels(count: int, image: int):
    """A convolution's panels of ``count`` images of ``image`` output pixels
    each (``_chunks``): the fewest images, a power of two from 16 up, whose
    columns reach ``PANEL_COLUMNS``. So 16 at 9x38 and 11x40, 32 at 4x19 and
    128 at 2x9: a batch of 256 has two panels or more at every size."""
    frames = 16
    while frames * image < PANEL_COLUMNS:
        frames *= 2
    return _chunks(count, frames)


def _fan_out_chunks(shape, work) -> None:
    """Run ``work(ch)`` for each channel slice ``ch`` of a (C, N, H, W) array
    as one ``fan_out`` item; the slices depend on the shape only."""
    per_channel = max(1, math.prod(shape[1:]))  # the product is 0 for an empty batch
    chunks = _chunks(shape[0], max(CHANNEL_CHUNK, -(-ITEM_ELEMENTS // per_channel)))
    fan_out(lambda i: work(chunks[i]), len(chunks))


class Conv2d:
    """2-D stride-1 convolution without bias; batchnorm always follows it.

    Its output is as large as its input at pad (k-1)/2, and smaller at pad
    0; any other pad is ``ConfigError``. The pad picks the side of the GEMM
    that is shifted, which in this network also suits the channel counts
    (Vasudevan et al., arXiv:1704.04428): a same-size conv, whose C_in is
    about C_out or more, shifts its outputs, and a pad-0 conv with k > 1,
    the initial conv with its 3 input channels, its inputs. At k = 1 the
    two are the same GEMM.

    A same-size conv runs a shifted GEMM on an unpadded grid, the
    C-contiguous (C_in, images*H*W) pixels of its input: a product
    with the weights as (k*k*C_out, C_in) gives every tap's product at every
    pixel, and output pixel q, at column m*H*W + y*W + x of image m, sums
    tap (i, j)'s product at q + (i-p)*W + (j-p), the pixel it reads. A read
    that crosses an image's edge, which zero padding would make, lands in
    another row or image instead; the pixels that a tap (i, j) reads only
    so are whole rows and columns of every image, the first i-p rows for i
    > p or the last p-i for i < p, and likewise the columns. Those are
    zeroed in the tap's product before the shift-add, so an edge-crossing
    read adds zero, as padding would, and no output reads another image. A
    panel's products sit between zeroed margins as wide as the largest
    shifts, so a read past its first or last image is zero too, and every
    output sums all k*k taps in tap order. Backward shifts ``dout``, read
    in place, once per tap into a (k*k*C_out, columns) matrix, input pixel
    q taking output pixel q minus the tap's shift, applies the same zeroing
    (each column it cannot read, before the batch or after it, is
    edge-crossing too) and gets dW and dX from one GEMM each.

    A pad-0 conv copies each tap's window of its panel's images, the input
    pixels that the tap reads, into a (C_in*k*k, images*OH*OW) patch matrix
    in this thread's scratch ``"patches"``, and one GEMM with the weights as
    (C_out, C_in*k*k) writes its output. Backward builds the patches again
    for dW and adds each tap's rows of ``W.T @ dout`` onto its window of dX,
    in tap order.

    Forward, in both modes, and backward run per panel of whole images
    (``_panels``, on ``fan_out``). Each panel writes its own output and dX
    columns and a dW partial, and the partials are summed in panel order.
    BLAS rounds a GEMM's columns differently by their position in it, so
    an infer panel runs one GEMM per image, and no frame's infer output
    depends on the rest of its batch. Output and dX are C-contiguous.

    A panel reads its images of ``x`` in place, in both modes and in
    backward (``_images``). Given a per-channel ``scale`` and ``shift``,
    the conv reads ``max(x * scale + shift, 0)``, a batchnorm and ReLU
    before it: each panel writes its images' ReLU output into this thread's
    scratch ``"grid"`` just before its GEMM, and backward writes it again
    before the dW GEMM. While the panel's dX is in cache, backward masks it
    with that output and runs ``_read_relu`` on it, whose scale and shift
    gradient partials are summed in panel order like dW's, so dX becomes
    the gradient of ``x``, as in ``_Pool.backward``. Each panel adds its dX
    into a destination that the caller passes, such as the prefix of a
    dense block's gradient buffer, from a panel-sized scratch ``"panel"``,
    so no full-batch dX exists; without one it writes dX into scratch
    ``"out"``, as a train forward its output (``_output``). A train forward
    keeps references to ``x``, ``scale`` and ``shift``, which must not
    change before its backward, and no grid or copy, so step state grows
    linearly with depth, not with its square, for 4-12% of a train step's
    time (plain-22 and BC-41 at batch 256, one and two cores of a 2-vCPU
    Xeon).
    """

    PARAMS = ("weight",)

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 pad: int = 0, *, rng=None, dtype=np.float32):
        if kernel_size < 1:
            raise ConfigError(f"conv kernel size must be >= 1, got {kernel_size}")
        if pad != 0 and 2 * pad != kernel_size - 1:
            raise ConfigError(f"conv pad must be 0 or (k-1)/2, got {pad} with kernel {kernel_size}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.pad = pad
        self.same_size = 2 * pad == kernel_size - 1  # else shift the inputs
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        fan_in = in_channels * kernel_size * kernel_size
        if rng is None:
            self.weight = np.zeros(shape, dtype=dtype)
        else:
            self.weight = he_normal(rng, shape, fan_in, dtype)
        self.grad_weight = np.zeros(shape, dtype=dtype)
        self._cache = None  # (input, scale, shift)

    def _matrix(self) -> np.ndarray:
        """The weights as the GEMM takes them: (k*k*C_out, C_in), row
        t*C_out + o for tap t = i*k + j, for a same-size conv; (C_out,
        C_in*k*k), the weights' own layout, for a pad-0 one."""
        if self.same_size:
            return self.weight.transpose(2, 3, 0, 1).reshape(-1, self.in_channels)
        return self.weight.reshape(self.out_channels, -1)

    def _shifts(self, w: int) -> list[int]:
        """A same-size conv's tap shifts (i-p)*w + j-p, in tap order."""
        k, p = self.kernel_size, self.pad
        return [(i - p) * w + j - p for i in range(k) for j in range(k)]

    def _cancel_edges(self, per_tap, h: int, w: int) -> None:
        """Zero, in the (k*k*rows, images*h*w) ``per_tap``, each tap's pixels
        that it reads only across an image's edge."""
        k, p = self.kernel_size, self.pad
        taps = per_tap.reshape(k, k, -1, per_tap.shape[1] // (h * w), h, w, copy=False)
        for i in range(k):
            d = i - p
            taps[i, :, :, :, slice(max(h + d, 0), h) if d < 0 else slice(min(d, h))] = 0
            taps[:, i, :, :, :, slice(max(w + d, 0), w) if d < 0 else slice(min(d, w))] = 0

    def _windows(self, cells) -> list[np.ndarray]:
        """Each tap's window of the (C, images, H, W) ``cells`` of a pad-0
        conv, in tap order: the input pixels that the tap reads."""
        k, (h, w) = self.kernel_size, cells.shape[2:]
        return [cells[:, :, i : i + h - k + 1, j : j + w - k + 1]
                for i in range(k) for j in range(k)]

    @staticmethod
    def _images(x, scale, shift, frames) -> np.ndarray:
        """The images ``frames`` of ``x``: a view or, given ``scale`` and
        ``shift``, ``max(x * scale + shift, 0)`` in this thread's ``"grid"``."""
        images = x[:, frames]
        if scale is not None:
            images = _activate(images, scale, shift, scratch("grid", images.shape, x.dtype))
        return images

    def _columns(self, images) -> np.ndarray:
        """The GEMM input of (C_in, images, H, W) ``images``: their
        (C_in, images*H*W) pixels for a same-size conv, a view or a copy if
        they are not contiguous; a pad-0 conv's (C_in*k*k, images*OH*OW)
        patches, row (c*k + i)*k + j channel c's window of tap (i, j), in
        this thread's ``"patches"``."""
        c = images.shape[0]
        if self.same_size:
            return images.reshape(c, -1)
        windows = self._windows(images)
        patches = scratch("patches", (c, len(windows), *windows[0].shape[1:]), images.dtype)
        for t, window in enumerate(windows):
            patches[:, t] = window
        return patches.reshape(c * len(windows), -1)

    def forward(self, x: np.ndarray, train: bool = False, scale=None, shift=None) -> np.ndarray:
        if x.ndim != 4 or x.shape[0] != self.in_channels:
            raise ShapeError(f"conv2d expects ({self.in_channels}, N, H, W), got {x.shape}")
        if scale is not None or shift is not None:
            _check_activation("conv2d", x, scale, shift)
        (c, n, h, w), k, p, co = x.shape, self.kernel_size, self.pad, self.out_channels
        oh, ow = conv_output_size(h, k, p), conv_output_size(w, k, p)
        if oh < 1 or ow < 1:
            raise ShapeError(f"conv2d: {h}x{w} input is smaller than a {k}x{k} kernel with pad {p}")
        image = oh * ow
        matrix = self._matrix()
        dtype = np.result_type(matrix, x)
        out = _output((co, n * image), dtype, x) if train else np.empty((co, n * image), dtype)
        if train:
            self._cache = (x, scale, shift)
        panels = _panels(n, image)
        shifts = self._shifts(w)
        left, right = -shifts[0], shifts[-1]

        def gemm(columns, products):
            if train:
                np.matmul(matrix, columns, out=products)
            else:  # one GEMM per image
                np.matmul(matrix, columns.reshape(columns.shape[0], -1, image).transpose(1, 0, 2),
                          out=products.reshape(len(products), -1, image).transpose(1, 0, 2))

        def panel(i):
            frames = panels[i]
            dest = out[:, frames.start * image : frames.stop * image]  # its columns
            columns = self._columns(self._images(x, scale, shift, frames))
            if k == 1 or not self.same_size:
                gemm(columns, dest)
                return
            width = dest.shape[1]
            shape = (k * k * co, left + width + right)
            per_tap = scratch("taps", shape, dtype) if train else np.empty(shape, dtype)
            per_tap[:, :left], per_tap[:, left + width :] = 0, 0
            products = per_tap[:, left : left + width]
            gemm(columns, products)
            self._cancel_edges(products, h, w)
            dest[...] = per_tap[:co, :width]  # tap 0's shift is -left
            for t, s in enumerate(shifts[1:], 1):
                dest += per_tap[t * co : (t + 1) * co, left + s : left + s + width]

        fan_out(panel, len(panels))
        return out.reshape(co, n, oh, ow)

    def backward(self, dout: np.ndarray, dscale=None, dshift=None, dx=None) -> np.ndarray:
        """Write ``grad_weight`` and return the gradient of ``x``: added into
        ``dx`` if given, which is returned, else written to scratch
        ``"out"``. After a ``scale`` and ``shift``, also write their
        gradients into ``dscale`` and ``dshift``."""
        x, scale, shift = self._cache
        (c, n, h, w), k, co = x.shape, self.kernel_size, self.out_channels
        oh, ow = dout.shape[2:]
        image = oh * ow
        matrix = self._matrix()
        dtype = np.result_type(matrix, dout)
        dout = dout.reshape(co, -1)
        panels = _panels(n, image)
        shifts = self._shifts(w)
        # a panel's dW partial, then those of dscale and dshift
        size = matrix.size
        partials = scratch("partials", (len(panels), size + 2 * c * (scale is not None)), dtype)
        fresh = None if dx is not None else _output((c, n * h * w), dtype, x, dout)

        def panel(i):
            frames = panels[i]
            own = dout[:, frames.start * image : frames.stop * image]  # its output columns
            width = own.shape[1]
            images = self._images(x, scale, shift, frames)
            columns = self._columns(images)
            grad = (fresh[:, frames.start * h * w : frames.stop * h * w] if dx is None
                    else scratch("panel", (c, images[0].size), dtype))
            shifted = own
            if self.same_size and k > 1:
                first = frames.start * image
                shifted = scratch("taps", (k * k * co, width), dout.dtype)
                for t, s in enumerate(shifts):  # each tap its own rows
                    lo = first - s
                    a, b = max(lo, 0), min(lo + width, dout.shape[1])
                    shifted[t * co : (t + 1) * co, a - lo : b - lo] = dout[:, a:b]
                # also zeroes the columns left unwritten, all edge-crossing
                self._cancel_edges(shifted, h, w)
            np.matmul(shifted, columns.T, out=partials[i, :size].reshape(matrix.shape))
            if self.same_size:
                np.matmul(matrix.T, shifted, out=grad)
            else:  # each tap's rows of W.T @ dout onto its window, in tap order
                cells = grad.reshape(images.shape)
                cells[...] = 0
                windows = self._windows(cells)
                taps = scratch("taps", (c, len(windows), *windows[0].shape[1:]), dtype)
                np.matmul(matrix.T, own, out=taps.reshape(size // co, width))
                for t, window in enumerate(windows):
                    window += taps[:, t]
            if scale is not None:  # on through the ReLU and the scale, while ``grad`` is in cache
                _mask_relu(grad, images.reshape(c, -1))
                _read_relu(grad, x[:, frames].reshape(c, -1), scale, *partials[i, size:].reshape(2, c))
            if dx is not None:
                dx[:, frames] += grad.reshape(images.shape)

        fan_out(panel, len(panels))
        totals = partials.sum(axis=0)
        if self.same_size:
            self.grad_weight[...] = totals[:size].reshape(k, k, co, c).transpose(2, 3, 0, 1)
        else:
            self.grad_weight[...] = totals[:size].reshape(self.weight.shape)
        if scale is not None:
            dscale[...], dshift[...] = totals[size:].reshape(2, c)
        return fresh.reshape(x.shape) if dx is None else dx


def _output(shape, dtype, *reads) -> np.ndarray:
    """This thread's scratch ``"out"``, unless one of the arrays ``reads`` lies in it."""
    out = scratch("out", shape, dtype)
    if any(np.may_share_memory(out, array) for array in reads):
        raise ShapeError("conv2d would overwrite an array it reads: copy a train-mode "
                         "result before passing it to another train-mode call")
    return out


def _per_channel(arr):
    return arr.reshape(-1, 1, 1, 1)


def _check_activation(layer: str, x, scale, shift) -> None:
    """Raise ``ShapeError`` unless ``x`` is (C, N, H, W) and ``scale`` and ``shift`` hold C values."""
    if x.ndim != 4 or not np.shape(scale) == np.shape(shift) == x.shape[:1]:
        raise ShapeError(f"{layer} expects (C, N, H, W) and C-value scale and shift, got "
                         f"{x.shape}, {np.shape(scale)} and {np.shape(shift)}")


def _activate(x, scale, shift, out):
    """A batchnorm's scale and shift and its ReLU, ``max(x * scale + shift,
    0)`` per channel, into ``out`` (a new array if None), which is returned."""
    out = np.multiply(x, _per_channel(scale), out=out)
    out += _per_channel(shift)
    return np.maximum(out, 0, out=out)


def normalize(x: np.ndarray, xhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch statistics of a (C, N, H, W) array over (N, H, W), each chunk
    of channels its own item (``fan_out``), as no channel reads another's:
    writes ``xhat = (x - mean) * inv`` with ``inv = 1 / sqrt(var + eps)``
    and returns the (2, C) rows mean, var and the C values inv, an array
    of its own: a layer keeps ``inv`` for backward, and nothing more."""
    count = x[0].size
    if count < 2:
        raise DataError(f"degenerate batch: {count} sample per channel, need >= 2")
    moments, inv = np.empty((2, x.shape[0]), x.dtype), np.empty(x.shape[0], x.dtype)

    def chunk(ch):
        mean = np.einsum("cnhw->c", x[ch]) / count
        centred = np.subtract(x[ch], _per_channel(mean), out=xhat[ch])
        # centred second moment: no cancellation from E[x^2] - E[x]^2
        var = np.einsum("cnhw,cnhw->c", centred, centred) / count
        inv[ch] = 1.0 / np.sqrt(var + BN_EPSILON)
        centred *= _per_channel(inv[ch])
        moments[:, ch] = mean, var

    _fan_out_chunks(x.shape, chunk)
    return moments, inv


def _mask_relu(dh, act) -> None:
    """Turn ``dh``, a ReLU output's gradient, into its input's in place: zero
    it where ``act``, the ReLU's input or output, is not > 0."""
    # masked in place, not in a copy: 0.50 against 0.74 ms at 8 x 256 x 9 x 38, one core
    dh *= np.greater(act, 0, out=scratch("mask", act.shape, bool))


def _read_relu(dh, xhat, gamma, dgamma, dbeta) -> None:
    """A batchnorm's backward up to ``project`` on one work item, a conv
    panel's (C, columns) or a pool's (C, N, H, W) channel chunk, given
    ``dh``, the gradient of the ReLU input after it (``_mask_relu``), and
    ``xhat`` of the same shape: write ``dgamma = sum(dh * xhat)`` and
    ``dbeta = sum(dh)`` per channel, and scale ``dh`` by ``gamma``, to D,
    the gradient of ``xhat``."""
    axes = list(range(dh.ndim))  # channel first
    dgamma[...] = np.einsum(dh, axes, xhat, axes, [0])
    dbeta[...] = np.einsum(dh, axes, [0])
    dh *= gamma.reshape(-1, *(1,) * (dh.ndim - 1))


def _project(dx, xhat, inv, sums) -> None:
    """Turn D, the gradient of ``xhat`` in ``dx``, into batchnorm's input
    gradient ``inv * (D - mean(D) - xhat * mean(D * xhat))`` in place, given
    ``sums`` of D and D * xhat per channel: one channel chunk's step."""
    means = sums / xhat[0].size
    part = np.multiply(xhat, _per_channel(means[1]), out=scratch("chunk", xhat.shape, dx.dtype))
    part += _per_channel(means[0])
    dx -= part
    dx *= _per_channel(inv)


def project(dx: np.ndarray, xhat: np.ndarray, inv: np.ndarray, sums: np.ndarray) -> None:
    """``_project`` on every channel chunk. A dense block finishes its
    batchnorms' input gradients here, once every reader of a slab has run;
    a BC unit's ``bn2`` does in its own ``BatchNorm.backward``."""
    _fan_out_chunks(dx.shape, lambda ch: _project(dx[ch], xhat[ch], inv[ch], sums[:, ch]))


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
    ``forward`` never writes. The conv or pool after it reads the ReLU's
    gradient and writes the gamma and beta gradients (``_read_relu``), so
    ``backward`` is ``project`` alone; the dense block runs that step for
    its units' ``bn1`` itself, once per slab.
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

    def keep_batch(self, xhat, moments, inv):
        """Fold a train batch's statistics, the mean and var ``moments``, into
        the running estimates, and keep its ``xhat`` and ``inv`` (see
        ``normalize``) for backward."""
        mean, var = moments
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

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Finish this batchnorm's backward in place and return ``dout``,
        which holds D, the gradient of ``xhat``, and becomes the input
        gradient (``project``). The conv after it wrote D and the gamma and
        beta gradients already (``Conv2d.backward``)."""
        xhat, inv = self._cache
        project(dout, xhat, inv, self.gamma * np.stack((self.grad_beta, self.grad_gamma)))
        return dout


class _Pool:
    """A pooling layer after a batchnorm and ReLU: it pools ``max(x * scale
    + shift, 0)`` per channel chunk, storing no ReLU output, on a dense
    block's ``xhat`` with gamma and beta in train mode, on its features with
    ``BatchNorm.folded()`` in infer mode. Backward returns the input
    gradient in scratch ``"block"``: it recomputes the ReLU's input, writes
    the gradients of ``scale`` and ``shift`` into ``dscale`` and ``dshift``
    and leaves D, the gradient of ``xhat`` (``_read_relu``), for the
    block's ``project``."""

    def __init__(self):
        self._cache = None  # (input, scale, shift, output)

    def forward(self, x: np.ndarray, train: bool, scale, shift) -> np.ndarray:
        _check_activation(type(self).__name__.lower(), x, scale, shift)
        out = self._output(x, train)

        def chunk(ch):
            act = scratch("chunk", x[ch].shape, x.dtype) if train else None
            self._pool(_activate(x[ch], scale[ch], shift[ch], act), out[ch], train)

        _fan_out_chunks(x.shape, chunk)
        if train:
            self._cache = (x, scale, shift, out)
        return out

    def backward(self, dout: np.ndarray, dscale, dshift) -> np.ndarray:
        x, scale, shift, _ = self._cache
        dx = scratch("block", x.shape, dout.dtype)

        def chunk(ch):
            dh = dx[ch]
            self._spread(dout, ch, dh)
            # act > 0 is the mask of max(act, 0) > 0
            act = np.multiply(x[ch], _per_channel(scale[ch]), out=scratch("chunk", dh.shape, x.dtype))
            act += _per_channel(shift[ch])
            _mask_relu(dh, act)
            _read_relu(dh, x[ch], scale[ch], dscale[ch], dshift[ch])

        _fan_out_chunks(x.shape, chunk)
        return dx


class AvgPool2d(_Pool):
    """2x2 average pooling with stride 2; trailing odd row/column dropped.
    A train output is step state, which the conv after it keeps."""

    def _output(self, x, train):
        c, n, h, w = x.shape
        if h < 2 or w < 2:
            raise ShapeError(f"avgpool2d needs spatial extents >= 2, got {h}x{w}")
        shape = (c, n, pool_output_size(h), pool_output_size(w))
        return step_state(self._cache[3] if train and self._cache else None, shape, x.dtype)

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

    def forward(self, x: np.ndarray, train: bool, scale, shift) -> np.ndarray:
        return super().forward(x, train, scale, shift).T

    def _output(self, x, train):
        if x.shape[2] < 1 or x.shape[3] < 1:
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
