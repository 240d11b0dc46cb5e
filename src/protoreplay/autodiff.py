"""Dense 64-bit tensors with tape-free reverse-mode automatic differentiation.

Each operation builds a node that remembers its parents and a backward
closure; calling ``backward()`` on a scalar output walks the graph in
reverse topological order and accumulates gradients additively into every
leaf that has ``requires_grad`` set; an interior node's gradient is freed as
soon as it has been passed on to its parents. Inside ``no_grad()`` no node
is built, so a forward-only pass keeps nothing alive for a backward that
never runs. The grad-enabled flag is per thread: ``no_grad()`` in one thread
leaves tracking in every other thread as it was, and a new thread starts
with tracking on. ``usable_cpus()`` and ``beside()`` are the package's one
CPU probe and one helper-thread primitive; the noise producer and the
convolutions' image loops run on them. ``conv_block`` fuses a convolution
with its bias, ReLU and 2x2 max pool, a few images at a time. The op set is
intentionally small: just enough for a convolutional / fully-connected
encoder and the distance-softmax losses built on top of it.
"""

from __future__ import annotations

import contextlib
import os
import threading

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to an operation's rule."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A dense float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar output, got shape {self.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _grad_buffer(t: Tensor):
    """``t``'s gradient buffer, allocated on first use; None if ``t`` takes
    no gradient. Indexing ops add into it in place."""
    if not t.requires_grad:
        return None
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _accumulate(t: Tensor, grad: np.ndarray):
    buf = _grad_buffer(t)
    if buf is not None:
        buf += _unbroadcast(grad, t.data.shape)


class _GradMode(threading.local):
    enabled = True              # each thread starts tracked


_mode = _GradMode()


def grad_enabled() -> bool:
    """Whether ops in the calling thread build nodes (False inside ``no_grad()``)."""
    return _mode.enabled


@contextlib.contextmanager
def no_grad():
    """Run the block untracked in the calling thread: every op returns a
    tensor with no parents and no backward closure. The previous state comes
    back on exit, also on an exception."""
    saved, _mode.enabled = _mode.enabled, False
    try:
        yield
    finally:
        _mode.enabled = saved


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one (Linux), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def beside(work, name: str):
    """Run ``work()`` on one daemon thread named ``name`` while the block
    runs. The thread is joined on exit, also on an exception; an exception
    raised in it is then raised here, unless the block raised its own."""
    failed = []

    def run():
        try:
            work()
        except BaseException as exc:        # raised again in the calling thread
            failed.append(exc)

    thread = threading.Thread(target=run, name=name, daemon=True)
    thread.start()
    try:
        yield
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _tracked(parents) -> bool:
    """Whether an op on ``parents`` builds a node; an op whose backward
    needs extra forward state builds it only then. A node's ``requires_grad``
    is set exactly when it has a backward."""
    return _mode.enabled and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents, backward) -> Tensor:
    tracked = _tracked(parents)
    out = Tensor(data, requires_grad=tracked)
    if tracked:
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementwise ops (with numpy broadcasting)

def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)
    return _node(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, g)
        _accumulate(b, -g)
    return _node(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)
    return _node(a.data * b.data, (a, b), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data)
    return _node(out_data, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, g / a.data)
    return _node(np.log(a.data), (a,), backward)


def scale(a: Tensor, alpha: float) -> Tensor:
    alpha = float(alpha)

    def backward(g):
        _accumulate(a, g * alpha)
    return _node(a.data * alpha, (a,), backward)


def square(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, g * 2.0 * a.data)
    return _node(a.data * a.data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def backward(g):
        # denominator clamped so a zero-distance forward value stays finite
        _accumulate(a, g * 0.5 / np.maximum(out_data, 1e-150))
    return _node(out_data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0 if _tracked((a,)) else None

    def backward(g):
        _accumulate(a, g * mask)
    return _node(np.maximum(a.data, 0.0), (a,), backward)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    mask = (a.data >= lo) & (a.data <= hi) if _tracked((a,)) else None

    def backward(g):
        _accumulate(a, g * mask)
    return _node(np.clip(a.data, lo, hi), (a,), backward)


# ---------------------------------------------------------------------------
# reductions and shape ops

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape))
    return _node(out_data, (a,), backward)


def mean_over_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    n = a.data.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def tmean(a: Tensor) -> Tensor:
    return scale(tsum(a), 1.0 / a.data.size)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def backward(g):
        _accumulate(a, g.reshape(old))
    return _node(a.data.reshape(shape), (a,), backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(g):
        buf = _grad_buffer(a)
        if buf is not None:
            buf[idx] += g
    return _node(a.data[idx].copy(), (a,), backward)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        parts = np.split(g, len(tensors), axis=axis)
        for t, part in zip(tensors, parts):
            _accumulate(t, np.squeeze(part, axis=axis))
    return _node(out_data, tuple(tensors), backward)


def take_rows(a: Tensor, rows) -> Tensor:
    """Gather ``a[rows]`` along axis 0; a repeated row gets its gradients summed."""
    rows = np.asarray(rows, dtype=np.intp)

    def backward(g):
        buf = _grad_buffer(a)
        if buf is not None:
            np.add.at(buf, rows, g)
    return _node(a.data[rows], (a,), backward)


def take_class(a: Tensor, labels) -> Tensor:
    """Select ``a[q, ..., labels[q]]`` along the last axis, per leading row."""
    labels = np.asarray(labels, dtype=np.intp)
    if a.data.ndim < 2 or labels.shape != a.data.shape[:1]:
        raise ShapeError(
            f"take_class: labels shape {labels.shape} vs tensor shape {a.data.shape}")
    # each leading row reads one class, so the fancy-index += below repeats no index
    idx = (np.arange(a.data.shape[0]), Ellipsis, labels)

    def backward(g):
        buf = _grad_buffer(a)
        if buf is not None:
            buf[idx] += g
    return _node(a.data[idx], (a,), backward)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-sum-exp; the shift is a constant w.r.t. grads."""
    m = a.data.max(axis=axis, keepdims=True)
    shifted = sub(a, Tensor(m))
    lse = log(tsum(exp(shifted), axis=axis))
    return add(lse, Tensor(np.squeeze(m, axis=axis)))


# ---------------------------------------------------------------------------
# linear algebra and spatial ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def backward(g):        # each product only for an operand that takes it
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)
    return _node(a.data @ b.data, (a, b), backward)


_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))     # row-major in a 2x2 block
_UNROUTED = 4            # pool route of a block output that takes no gradient
# Images a conv block pools together, after one GEMM each. Pooling one image
# at a time made so many short numpy calls that two threads passing the
# interpreter lock back and forth ran the pooling slower than one thread.
_GROUP = 4


def _on_images(B: int, run):
    """``run(groups)`` over ``range(B)`` cut into consecutive slices of
    ``_GROUP`` images. With at least two usable CPUs the calling thread takes
    the even groups and one ``beside`` worker the odd ones; each image writes
    only its own rows, so the result is byte-equal at any CPU count."""
    groups = [slice(lo, min(lo + _GROUP, B)) for lo in range(0, B, _GROUP)]
    if len(groups) > 1 and usable_cpus() >= 2:
        with beside(lambda: run(groups[1::2]), "conv-images"):
            run(groups[0::2])
    else:
        run(groups)


def _pool(x: np.ndarray, out: np.ndarray, route=None):
    """2x2 max of ``x`` (..., H, W) into ``out`` (..., H/2, W/2): the max of
    each top pair and each bottom pair, then of the two. With ``route``, also
    write the corner (an index into ``_CORNERS``) each output came from; a
    later corner wins only where strictly larger, so ties go to the first in
    row-major order."""
    pairs = x.reshape(x.shape[:-1] + (x.shape[-1] // 2, 2))
    half = np.maximum(pairs[..., 0], pairs[..., 1])         # (..., H, W/2)
    rows = half.reshape(half.shape[:-2] + (half.shape[-2] // 2, 2, half.shape[-1]))
    np.maximum(rows[..., 0, :], rows[..., 1, :], out=out)
    if route is not None:
        right = pairs[..., 1] > pairs[..., 0]
        right = right.reshape(rows.shape)
        low = rows[..., 1, :] > rows[..., 0, :]
        route[...] = np.where(low, right[..., 1, :] + 2, right[..., 0, :])


def _unpool(g: np.ndarray, route: np.ndarray) -> np.ndarray:
    """Route each output's ``g`` to the corner ``route`` names, as a
    (..., H/2, 2, W/2, 2) array. It is done on the bits, so every other slot,
    and each slot of an ``_UNROUTED`` output, holds +0.0 whatever g holds."""
    h, w = route.shape[-2:]
    gx = np.empty(route.shape[:-2] + (h, 2, w, 2))
    gi, gxi = g.view(np.int64), gx.view(np.int64)
    for c, (i, j) in enumerate(_CORNERS):
        np.multiply(gi, route == c, out=gxi[..., i, :, j])
    return gx


def conv_block(x: Tensor, w: Tensor, b: Tensor, padding: int = 0) -> Tensor:
    """``maxpool2x2(relu(conv2d(x, w, padding) + b))``, a few images at a time.

    x: (B, Cin, H, W), w: (Cout, Cin, k, k), b: (Cout,); the convolution's
    output must have even height and width. One GEMM per image lands in a
    small reused buffer of ``_GROUP`` images, where the bias, the pooling
    and the ReLU run in that order while it is in cache, tracked or not;
    ReLU is monotone, so pooling before it gives the separate ops' values.
    The output and the gradients are byte-equal to the chain of separate
    ops. The graph keeps the padded input and one pool route per output
    element, not the pre-activation or any mask. The block runs through
    ``conv2d``, so a wrapper around ``conv2d`` sees it too.
    """
    return conv2d(x, w, padding, block_bias=b)


def conv2d(x: Tensor, w: Tensor, padding: int = 0, block_bias: Tensor = None) -> Tensor:
    """2D convolution (cross-correlation), stride 1, zero padding.

    x: (B, Cin, H, W), w: (Cout, Cin, k, k). Given ``block_bias`` (Cout,),
    this is ``conv_block``. The image loop, and the input gradient's share
    of the backward (the weight gradient's when the input takes none), run
    on two threads when two CPUs are usable.
    """
    block = block_bias is not None
    op = "conv_block" if block else "conv2d"        # errors name the op that runs
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"{op}: need 4-D input and kernel, got {x.shape} and {w.shape}")
    B, ci, H, W = x.data.shape
    co, ci2, kh, kw = w.data.shape
    if ci != ci2 or kh != kw:
        raise ShapeError(f"{op}: incompatible shapes {x.shape} and {w.shape}")
    k, p = kh, int(padding)
    ho, wo = H + 2 * p - k + 1, W + 2 * p - k + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"{op}: kernel {k} too large for input {x.shape} with padding {p}")
    if block and block_bias.shape != (co,):
        raise ShapeError(f"conv_block: bias shape {block_bias.shape}, want ({co},)")
    if block and (ho % 2 or wo % 2):
        raise ShapeError(f"conv_block: conv output {ho}x{wo} of input {x.shape} "
                         f"must have even height and width to pool")
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    # channel-major im2col: row (c, i, j) of an image's (ci*k*k, ho*wo) block
    # is padded channel c shifted by (i, j), copied one image row at a time.
    # Blocks are built one image at a time in one reused buffer per thread,
    # small enough to stay in cache; the graph keeps only xp, and the
    # backward rebuilds them.
    win = np.lib.stride_tricks.sliding_window_view(xp, (ho, wo), axis=(2, 3))
    K = ci * k * k
    wm = w.data.reshape(co, K)

    def columns(buf, b):
        np.copyto(buf, win[b])
        return buf.reshape(K, ho * wo)

    parents = (x, w, block_bias) if block else (x, w)
    out_data = np.empty((B, co, ho // 2, wo // 2) if block else (B, co, ho, wo))
    route = np.empty(out_data.shape, np.uint8) if block and _tracked(parents) else None

    def run(groups):
        cols = np.empty((ci, k, k, ho, wo))
        pre = np.empty((_GROUP, co, ho, wo)) if block else None
        for group in groups:
            # one GEMM per image into the group's buffer: the block's small
            # reused one, or the plain op's slice of the output
            target = pre[:group.stop - group.start] if block else out_data[group]
            for i, b in enumerate(range(group.start, group.stop)):
                np.matmul(wm, columns(cols, b), out=target[i].reshape(co, ho * wo))
            if not block:
                continue
            pooled = out_data[group]
            target += block_bias.data.reshape(co, 1, 1)
            _pool(target, pooled, None if route is None else route[group])
            np.maximum(pooled, 0.0, out=pooled)
            if route is not None:
                # the ReLU passes no gradient where the pooled value is not positive
                np.copyto(route[group], _UNROUTED, where=~(pooled > 0))
    _on_images(B, run)

    def backward(g):
        if block:
            g = _unpool(g, route).reshape(B, co, ho, wo)
            # a whole-batch sum, in the order the separate bias add's would take
            _accumulate(block_bias, g.sum(axis=(0, 2, 3)))
        gm = g.reshape(B, co, ho * wo)
        gxp = np.zeros(xp.shape) if x.requires_grad else None

        def weight_grad():
            # per-image products added in batch order, so gw rounds as a sum
            # over the batch axis would
            cols = np.empty((ci, k, k, ho, wo))
            gw, part = np.zeros((co, K)), np.empty((co, K))
            for b in range(B):
                np.matmul(gm[b], columns(cols, b).T, out=part if b else gw)
                if b:
                    gw += part
            return gw.reshape(co, ci, k, k)

        def weight_grad_on_images():
            # weight_grad's products on _on_images, one buffer per image, then
            # its sum in batch order on the calling thread
            parts = np.zeros((max(B, 1), co, K))

            def run(groups):
                cols = np.empty((ci, k, k, ho, wo))
                for group in groups:
                    for b in range(group.start, group.stop):
                        np.matmul(gm[b], columns(cols, b).T, out=parts[b])
            _on_images(B, run)
            gw = parts[0]
            for part in parts[1:]:
                gw += part
            return gw.reshape(co, ci, k, k)

        def input_grads(images):
            # col2im: row (c, i, j) adds back onto channel c at shift (i, j)
            gcols = np.empty((K, ho * wo))
            slabs = gcols.reshape(ci, k, k, ho, wo)
            for b in images:
                np.matmul(wm.T, gm[b], out=gcols)
                for i in range(k):
                    for j in range(k):
                        gxp[b, :, i:i + ho, j:j + wo] += slabs[:, i, j]

        gw = None
        if gxp is None:
            # no input gradient (a first layer): the weight gradient alone is split
            gw = weight_grad_on_images() if w.requires_grad else None
        elif usable_cpus() >= 2:
            # the worker takes three images in four; the caller takes gw, then the rest
            with beside(lambda: input_grads([b for b in range(B) if b % 4 != 3]),
                        "conv-images"):
                gw = weight_grad() if w.requires_grad else None
                input_grads(range(3, B, 4))
        else:
            gw = weight_grad() if w.requires_grad else None
            input_grads(range(B))
        if gw is not None:
            _accumulate(w, gw)
        if gxp is not None:
            _accumulate(x, gxp[:, :, p:p + H, p:p + W] if p else gxp)
    return _node(out_data, parents, backward)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; ties route to the first index in row-major order."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2x2: need 4-D input, got {x.shape}")
    B, C, H, W = x.data.shape
    if H % 2 or W % 2:
        raise ShapeError(f"maxpool2x2: spatial dims must be even, got {x.shape}")
    out_data = np.empty((B, C, H // 2, W // 2))
    route = np.empty(out_data.shape, np.uint8) if _tracked((x,)) else None
    _pool(x.data, out_data, route)

    def backward(g):
        _accumulate(x, _unpool(g, route).reshape(B, C, H, W))
    return _node(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# the op table, its gradient-check cases, and gradient checking

# kind -> op for forward_op and the gradient suite; the engine calls ops as attributes
OPS = {
    "matmul": matmul, "conv2d": conv2d, "conv_block": conv_block,
    "maxpool2x2": maxpool2x2, "relu": relu,
    "add": add, "sub": sub, "elementwise_mul": mul, "exp": exp, "log": log,
    "scale": scale, "square": square, "sqrt": sqrt, "clip": clip,
    "sum": tsum, "mean_over_axis": mean_over_axis, "reshape": reshape,
    "narrow": narrow, "stack": lambda *tensors, axis=0: stack(tensors, axis),
    "take_rows": take_rows, "take_class": take_class, "logsumexp": logsumexp,
}

# (label, kind, attrs, input shapes, input range). check_case differentiates
# sum(square(op(inputs))), so each backward gets a gradient that is not all ones.
GRAD_CASES = [
    ("matmul", "matmul", {}, [(3, 4), (4, 2)], (-1, 1)),
    ("conv2d", "conv2d", {"padding": 1}, [(1, 2, 4, 4), (3, 2, 3, 3)], (-1, 1)),
    ("conv2d k=5 pad=2", "conv2d", {"padding": 2}, [(2, 3, 6, 6), (4, 3, 5, 5)], (-1, 1)),
    ("conv_block", "conv_block", {"padding": 2}, [(2, 2, 4, 4), (3, 2, 5, 5), (3,)], (-1, 1)),
    ("maxpool2x2", "maxpool2x2", {}, [(1, 2, 4, 4)], (-1, 1)),
    ("relu", "relu", {}, [(7,)], (-1, 1)),
    ("add", "add", {}, [(3, 4), (4,)], (-1, 1)),
    ("sub", "sub", {}, [(3, 4), (3, 1)], (-1, 1)),
    ("elementwise_mul", "elementwise_mul", {}, [(2, 3), (2, 3)], (-1, 1)),
    ("exp", "exp", {}, [(4,)], (-1, 1)),
    ("log", "log", {}, [(4,)], (0.5, 1.5)),
    ("scale", "scale", {"alpha": 2.5}, [(4,)], (-1, 1)),
    ("square", "square", {}, [(4,)], (-1, 1)),
    ("sqrt", "sqrt", {}, [(4,)], (0.5, 1.5)),
    ("clip", "clip", {"lo": -0.5, "hi": 0.5}, [(7,)], (-1, 1)),
    ("sum", "sum", {}, [(3, 3)], (-1, 1)),
    ("mean_over_axis", "mean_over_axis", {"axis": 0, "keepdims": True}, [(3, 3)], (-1, 1)),
    ("reshape", "reshape", {"shape": (2, 6)}, [(3, 4)], (-1, 1)),
    ("narrow", "narrow", {"axis": 1, "start": 1, "length": 2}, [(3, 4)], (-1, 1)),
    ("narrow axis -1", "narrow", {"axis": -1, "start": 1, "length": 2}, [(2, 3, 3)], (-1, 1)),
    ("stack", "stack", {}, [(4,), (4,)], (-1, 1)),
    ("take_rows", "take_rows", {"rows": [2, 0, 2, 1, 2]}, [(3, 2)], (-1, 1)),
    ("take_class", "take_class", {"labels": [2, 0, 2]}, [(3, 2, 4)], (-1, 1)),
    ("logsumexp", "logsumexp", {"axis": -1}, [(3, 4)], (-1, 1)),
]


def forward_op(kind: str, inputs, attrs=None) -> Tensor:
    """Apply ``OPS[kind]`` with ``attrs`` as keyword arguments; an attr the
    op does not take raises a TypeError."""
    if kind not in OPS:
        raise ValueError(f"unknown operation kind {kind!r}")
    return OPS[kind](*inputs, **(attrs or {}))


def check_case(case, epsilon: float = 1e-5) -> float:
    """grad_check of one GRAD_CASES entry, on inputs drawn from seed 0."""
    _, kind, attrs, shapes, (lo, hi) = case
    rng = np.random.default_rng(0)
    return grad_check(lambda *xs: tsum(square(forward_op(kind, xs, attrs))),
                      [Tensor(rng.uniform(lo, hi, s)) for s in shapes], epsilon)


def grad_check(f, points, epsilon: float = 1e-5) -> float:
    """Compare analytic gradients of scalar-valued ``f`` to central differences.

    ``points`` is a Tensor or a list of Tensors; ``f`` is called with them
    positionally and must return a scalar Tensor. The central differences
    run under ``no_grad()``. Returns the max over all coordinates of
    |analytic - numeric| / max(1, |numeric|).
    """
    if isinstance(points, Tensor):
        points = [points]
    for p in points:
        p.requires_grad = True
        p.grad = None
    out = f(*points)
    if out.data.size != 1:
        raise ShapeError(f"grad_check: f returned non-scalar of shape {out.shape}")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in points]

    max_err = 0.0
    with no_grad():                 # the differences need only forward values
        for p, ana in zip(points, analytic):
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                hi = f(*points).item()
                flat[i] = orig - epsilon
                lo = f(*points).item()
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * epsilon)
                err = abs(ana.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
                max_err = max(max_err, err)
    return max_err
