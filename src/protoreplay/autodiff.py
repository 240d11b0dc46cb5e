"""Dense 64-bit tensors with tape-free reverse-mode automatic differentiation.

Each operation builds a node that remembers its parents and a backward
closure; calling ``backward()`` on a scalar output walks the graph in
reverse topological order and accumulates gradients additively into every
leaf that has ``requires_grad`` set; an interior node's gradient is freed as
soon as it has been passed on to its parents. The op set is intentionally
small: just enough for a convolutional / fully-connected encoder and the
distance-softmax losses built on top of it.
"""

from __future__ import annotations

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

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

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
    if not t.requires_grad and t._backward is None:
        return None
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _accumulate(t: Tensor, grad: np.ndarray):
    buf = _grad_buffer(t)
    if buf is not None:
        buf += _unbroadcast(grad, t.data.shape)


def _node(data: np.ndarray, parents, backward) -> Tensor:
    tracked = any(p.requires_grad or p._backward is not None for p in parents)
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
    mask = a.data > 0

    def backward(g):
        _accumulate(a, g * mask)
    return _node(np.maximum(a.data, 0.0), (a,), backward)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    mask = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        _accumulate(a, g * mask)
    return _node(np.clip(a.data, lo, hi), (a,), backward)


# ---------------------------------------------------------------------------
# reductions and shape ops

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.data.shape))
            return
        if not keepdims:
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

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)
    return _node(a.data @ b.data, (a, b), backward)


def conv2d(x: Tensor, w: Tensor, padding: int = 0) -> Tensor:
    """2D convolution (cross-correlation), stride 1, zero padding.

    x: (B, Cin, H, W), w: (Cout, Cin, k, k).
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: need 4-D input and kernel, got {x.shape} and {w.shape}")
    B, ci, H, W = x.data.shape
    co, ci2, kh, kw = w.data.shape
    if ci != ci2 or kh != kw:
        raise ShapeError(f"conv2d: incompatible shapes {x.shape} and {w.shape}")
    k, p = kh, int(padding)
    ho, wo = H + 2 * p - k + 1, W + 2 * p - k + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"conv2d: kernel {k} too large for input {x.shape} with padding {p}")
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    # channel-major im2col: row (c, i, j) of an image's (ci*k*k, ho*wo) block
    # is padded channel c shifted by (i, j), copied one image row at a time
    cols = np.lib.stride_tricks.sliding_window_view(xp, (ho, wo), axis=(2, 3)) \
        .reshape(B, ci * k * k, ho * wo)
    wm = w.data.reshape(co, ci * k * k)
    out_data = np.matmul(wm, cols).reshape(B, co, ho, wo)

    def backward(g):
        gm = g.reshape(B, co, ho * wo)
        if w.requires_grad or w._backward is not None:
            gw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0)
            _accumulate(w, gw.reshape(co, ci, k, k))
        if x.requires_grad or x._backward is not None:
            # col2im: row (c, i, j) adds back onto channel c at shift (i, j)
            gcols = np.matmul(wm.T, gm).reshape(B, ci, k, k, ho, wo)
            gxp = np.zeros((B, ci, H + 2 * p, W + 2 * p))
            for i in range(k):
                for j in range(k):
                    gxp[:, :, i:i + ho, j:j + wo] += gcols[:, :, i, j]
            _accumulate(x, gxp[:, :, p:p + H, p:p + W] if p else gxp)
    return _node(out_data, (x, w), backward)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; ties route to the first index in row-major order."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2x2: need 4-D input, got {x.shape}")
    B, C, H, W = x.data.shape
    if H % 2 or W % 2:
        raise ShapeError(f"maxpool2x2: spatial dims must be even, got {x.shape}")
    xr = x.data.reshape(B, C, H // 2, 2, W // 2, 2)
    corners = ((0, 0), (0, 1), (1, 0), (1, 1))           # row-major in a block
    quads = [xr[:, :, :, i, :, j] for i, j in corners]
    out_data = np.maximum(np.maximum(quads[0], quads[1]), np.maximum(quads[2], quads[3]))

    def backward(g):
        gx = np.zeros(xr.shape)
        free = np.ones(out_data.shape, dtype=bool)      # output not yet routed
        for (i, j), q in zip(corners, quads):
            hit = q == out_data
            hit &= free
            np.copyto(gx[:, :, :, i, :, j], g, where=hit)
            free ^= hit
        _accumulate(x, gx.reshape(B, C, H, W))
    return _node(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# generic dispatch + gradient checking

_OPS = {
    "matmul": lambda inputs, attrs: matmul(*inputs),
    "conv2d": lambda inputs, attrs: conv2d(inputs[0], inputs[1],
                                           padding=attrs.get("padding", 0)),
    "maxpool2x2": lambda inputs, attrs: maxpool2x2(inputs[0]),
    "relu": lambda inputs, attrs: relu(inputs[0]),
    "add": lambda inputs, attrs: add(*inputs),
    "sub": lambda inputs, attrs: sub(*inputs),
    "elementwise_mul": lambda inputs, attrs: mul(*inputs),
    "exp": lambda inputs, attrs: exp(inputs[0]),
    "scale": lambda inputs, attrs: scale(inputs[0], attrs["alpha"]),
    "sum": lambda inputs, attrs: tsum(inputs[0], axis=attrs.get("axis")),
    "mean_over_axis": lambda inputs, attrs: mean_over_axis(inputs[0], attrs["axis"]),
    "square": lambda inputs, attrs: square(inputs[0]),
    "sqrt": lambda inputs, attrs: sqrt(inputs[0]),
}


def forward_op(kind: str, inputs, attrs=None) -> Tensor:
    """Apply a named operation; the dispatch table is the supported op set."""
    if kind not in _OPS:
        raise ValueError(f"unknown operation kind {kind!r}")
    return _OPS[kind](list(inputs), attrs or {})


def grad_check(f, points, epsilon: float = 1e-5) -> float:
    """Compare analytic gradients of scalar-valued ``f`` to central differences.

    ``points`` is a Tensor or a list of Tensors; ``f`` is called with them
    positionally and must return a scalar Tensor. Returns the max over all
    coordinates of |analytic - numeric| / max(1, |numeric|).
    """
    if isinstance(points, Tensor):
        points = [points]
    for p in points:
        p.requires_grad = True
        p.zero_grad()
    out = f(*points)
    if out.data.size != 1:
        raise ShapeError(f"grad_check: f returned non-scalar of shape {out.shape}")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in points]

    max_err = 0.0
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
