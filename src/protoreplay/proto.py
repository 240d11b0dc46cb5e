"""Variational prototype math: averaging, latent sampling, distances, losses.

Every image is encoded as a latent Gaussian (mean, log-variance). A class
prototype is the elementwise average of its members' means and log-variances.
Classification samples latents from queries and prototypes by
reparameterization and takes a softmax over (optionally variance-weighted)
L2 distances; replay regresses re-encoded stored exemplars onto prototypes
frozen at earlier tasks. Both run one batched loss,
``mixed_classification_loss``, which is itself the fused autodiff node, fed
by each online prototype's own tensors; ``class_posterior`` is its distance
kernel with arrays in and out. The loss forms its gradient in its forward,
so a tracked loss keeps its input gradients ((Q, D) for the queries, a (D,)
row per online prototype tensor), not its samples, until ``backward()``.

Noise-draw order is part of the contract so results are reproducible from a
seeded generator: each loss first draws prototype noise of shape (Z, C, D)
with classes in ascending class_id order, then query noise of shape (Q, Z, D)
with queries in the order given. It asks for both in one request of
Z*C*D + Q*Z*D normals and reads the two as views of it; draws concatenate,
so every value is the one the two requests would give. ``NoiseStream`` may
draw ahead on a second thread, a whole loss request ahead, without changing
which values each request gets.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import queue
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def check_type(name: str, value, kind):
    """Raise a ValueError naming ``name`` unless ``value`` is a ``kind``,
    numbers.Integral or numbers.Real, and finite; bool is neither."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a real number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_field_types(config, counts, rates):
    """check_type on each field of ``config`` named in ``counts`` (integers)
    or ``rates`` (real numbers), in that order."""
    for names, kind in ((counts, numbers.Integral), (rates, numbers.Real)):
        for name in names:
            check_type(name, getattr(config, name), kind)


class NoiseStream:
    """A seeded Generator's standard normals, optionally drawn ahead.

    ``standard_normal(size)`` returns exactly what the wrapped Generator's
    would: its draws concatenate across calls, so reading them from blocks
    drawn earlier changes no value. Inside ``ahead()`` one producer thread
    (``autodiff.beside``) fills a ring of ``BLOCK``-normal blocks while the
    caller computes. The ring is two queues: blank blocks, and filled
    ``(generator state before, block)`` pairs in draw order, which requests
    copy from. It grows to the blocks of the largest request seen plus one,
    so that a request starting inside a block can still be drawn whole
    before it is made; a loss makes one request (see the module docstring),
    so the producer can be a whole loss call ahead. On exit the
    draws not yet read are given back, by resetting the generator to the
    first of them, and the ring is freed, so outside ``ahead()`` the stream
    is the plain Generator. With fewer than two usable CPUs ``ahead()``
    starts no thread.
    """

    BLOCK = 1 << 16

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._blank = None              # queue of blank blocks, inside ahead()
        self._filled = None             # queue of (state, block), inside ahead()
        self._ring = 0                  # blocks in the ring: the largest request's plus one
        self._head = None               # the (state, block) being read
        self._pos = 0                   # normals read from it
        self._stop = False              # set on exit: the producer takes no new block

    def standard_normal(self, size) -> np.ndarray:
        if self._filled is None:
            return self._gen.standard_normal(size)
        out = np.empty(size)
        flat = out.reshape(-1)
        ring = -(-flat.size // self.BLOCK) + 1
        self._add_blank(ring - self._ring)
        self._ring = max(self._ring, ring)
        done = 0
        while done < flat.size:
            if self._head is None:
                self._head, self._pos = self._filled.get(), 0
            block = self._head[1]
            k = min(self.BLOCK - self._pos, flat.size - done)
            flat[done:done + k] = block[self._pos:self._pos + k]
            done += k
            self._pos += k
            if self._pos == self.BLOCK:
                self._blank.put(block)
                self._head = None
        return out

    def _add_blank(self, blocks: int):
        for _ in range(blocks):
            self._blank.put(np.empty(self.BLOCK))

    def _produce(self):
        while (block := self._blank.get()) is not None and not self._stop:
            state = self._gen.bit_generator.state
            self._gen.standard_normal(out=block)
            self._filled.put((state, block))

    @contextlib.contextmanager
    def ahead(self):
        """Draw ahead on one producer thread for the block; it is joined on
        exit, also on an exception. A nested ``ahead()`` adds no thread."""
        if self._filled is not None or ad.usable_cpus() < 2:
            yield
            return
        self._blank, self._filled, self._stop = queue.Queue(), queue.Queue(), False
        self._add_blank(self._ring)
        try:
            with ad.beside(self._produce, "noise-ahead"):
                try:
                    yield
                finally:
                    self._stop = True
                    self._blank.put(None)   # wakes a producer that has no blank block
        finally:
            # reset the generator to the first unread draw, and free the ring
            if self._head is not None:
                self._gen.bit_generator.state = self._head[0]
                self._gen.standard_normal(self._pos)    # the part already read
            elif not self._filled.empty():
                self._gen.bit_generator.state = self._filled.get()[0]
            self._blank = self._filled = self._head = None


@dataclass
class SamplingConfig:
    Z: int = 50
    tau: float = 1.0
    D: int = 500
    weighted: bool = True

    def __post_init__(self):
        check_field_types(self, ("Z", "D"), ("tau",))
        if not isinstance(self.weighted, bool):
            raise ValueError(f"weighted must be True or False, got {self.weighted!r}")
        if self.Z < 1:
            raise ValueError(f"sample count Z must be >= 1, got {self.Z}")
        if self.tau <= 0:
            raise ValueError(f"temperature tau must be positive, got {self.tau}")
        if self.D < 1:
            raise ValueError(f"latent dimension D must be >= 1, got {self.D}")


@dataclass
class VariationalPrototype:
    """Per-(task, class) latent Gaussian obtained by averaging embeddings."""
    task_id: int
    class_id: int
    mean: Tensor
    logvar: Tensor


def batch_prototype(task_id: int, class_id: int, mean: Tensor, logvar: Tensor,
                    rows) -> VariationalPrototype:
    """Average the given rows of an encoded (N, D) batch's means and
    log-variances elementwise (differentiable)."""
    return VariationalPrototype(task_id, class_id,
                                ad.mean_over_axis(ad.take_rows(mean, rows), axis=0),
                                ad.mean_over_axis(ad.take_rows(logvar, rows), axis=0))


def _centre(qs: np.ndarray, ps: np.ndarray) -> None:
    """Shift query and prototype samples in place by the prototypes' mean.

    Distances do not change, but the expansion in `_sq_distances` rounds
    relative to |qs|^2 + |ps|^2, so it must see samples near the origin.
    """
    ref = ps.mean(axis=(0, 1))
    qs -= ref
    ps -= ref


def _sq_distances(qs: np.ndarray, ps: np.ndarray, w: np.ndarray,
                  wps: Optional[np.ndarray] = None) -> np.ndarray:
    """Weighted squared distances sum_d w[c, d] * (qs[q, z, d] - ps[z, c, d])**2.

    qs: (Q, Z, D) query samples; ps: (Z, C, D) prototype samples; w: (C, D)
    per-class weights; wps: w * ps, if the caller keeps it. Expanded into one
    GEMM plus one Z-batched GEMM so that no (Q, Z, C, D) difference is
    formed; rounding below zero is clamped. The samples should be `_centre`d
    first. Returns (Q, Z, C).
    """
    Q, Z, D = qs.shape
    if wps is None:
        wps = w * ps
    d2 = ((qs * qs).reshape(Q * Z, D) @ w.T).reshape(Q, Z, -1)
    d2 -= 2.0 * np.matmul(qs.transpose(1, 0, 2), wps.transpose(0, 2, 1)).transpose(1, 0, 2)
    d2 += (wps * ps).sum(axis=-1)
    return np.maximum(d2, 0.0, out=d2)


def class_posterior(query_samples: np.ndarray, proto_samples: np.ndarray,
                    weight_logvar: Optional[np.ndarray], cfg: SamplingConfig) -> np.ndarray:
    """Distance-softmax posterior of one query's Z samples, on the loss's kernel.

    query_samples: (Z, D); proto_samples: (Z, C, D) in class order, sample z
    of the query paired with sample z of every class; weight_logvar: optional
    (C, D), weighting class c's squared distances by exp(-weight_logvar[c])
    when cfg.weighted. The inputs are not changed. Returns (Z, C) probabilities.
    """
    qs = np.array(query_samples, dtype=np.float64)[None]                   # (1, Z, D)
    ps = np.array(proto_samples, dtype=np.float64)                         # (Z, C, D)
    if ps.ndim != 3 or ps.shape[::2] != qs.shape[1:]:
        raise ValueError(f"prototype samples of shape {ps.shape} do not pair with "
                         f"query samples of shape {qs.shape[1:]}: want (Z, C, D), (Z, D)")
    w = np.ones(ps.shape[1:])
    if weight_logvar is not None and cfg.weighted:
        w = np.exp(-np.asarray(weight_logvar, dtype=np.float64))
    _centre(qs, ps)
    logits = -np.sqrt(_sq_distances(qs, ps, w)[0]) / cfg.tau              # (Z, C)
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def mixed_classification_loss(mean: Tensor, logvar: Tensor, labels: Sequence[int],
                              online: Sequence[VariationalPrototype],
                              frozen: Sequence[VariationalPrototype],
                              cfg: SamplingConfig, noise_stream) -> Tensor:
    """The distance-softmax cross-entropy of the classification and replay
    terms: the mean over queries and z of -log p(true class | sample).

    Row q of ``mean``/``logvar`` (Q, D) is a query of class ``labels[q]``. It
    is scored in one posterior over the ``online`` prototypes, which pass
    gradients, and the ``frozen`` ones, which are constant regression
    targets. Frozen entries are weighted by their own log-variance when
    cfg.weighted; online entries never are. Every label needs a prototype.
    With only online prototypes this is the classification loss; with only
    one past task's frozen prototypes, that task's replay loss.

    One autodiff node, forward and analytic gradient in plain BLAS, whose
    parents are the queries and each online prototype's ``mean`` and
    ``logvar``; frozen prototypes enter as arrays. The gradient is formed in
    the forward, at an upstream gradient of 1.0, while the samples are in
    cache; the node keeps only the (Q, D) query gradients and a (D,) row per
    online prototype tensor, and its backward adds ``g`` times each into its
    parent, so no (Q, Z, D) or (Z, C, D) sample outlives the call, and
    within it at most three (Q, Z, D) arrays live at once. An untracked call
    forms no gradient, and prototypes that take none get none formed.
    """
    entries = sorted([(p, False) for p in online] + [(p, True) for p in frozen],
                     key=lambda entry: entry[0].class_id)
    class_ids = [p.class_id for p, _ in entries]
    if len(set(class_ids)) != len(class_ids):
        raise ValueError(f"duplicate class ids among prototypes: {class_ids}")
    index = {c: i for i, c in enumerate(class_ids)}
    for label in labels:
        if label not in index:
            raise ValueError(f"query label {label} has no prototype")
    label_idx = np.array([index[label] for label in labels])
    Q, D = mean.shape
    C, Z = len(entries), cfg.Z
    pm, plv, w = np.empty((C, D)), np.empty((C, D)), np.ones((C, D))   # in class order
    for i, (p, fixed) in enumerate(entries):
        pm[i], plv[i] = p.mean.data, p.logvar.data
        if fixed and cfg.weighted:
            w[i] = np.exp(-p.logvar.data)
    noise = noise_stream.standard_normal(Z * C * D + Q * Z * D)
    pn = noise[:Z * C * D].reshape(Z, C, D)
    qn = noise[Z * C * D:].reshape(Q, Z, D)

    psd = np.exp(0.5 * plv)                                                # (C, D)
    qsd = np.exp(0.5 * logvar.data)[:, None, :]                            # (Q, 1, D)
    ps = np.multiply(psd, pn)                                              # (Z, C, D)
    ps += pm
    qs = np.multiply(qsd, qn)                                              # (Q, Z, D)
    qs += mean.data[:, None, :]
    _centre(qs, ps)                         # in place: the gradient uses the centred samples
    wps = w * ps
    dist = np.sqrt(_sq_distances(qs, ps, w, wps))                          # (Q, Z, C)
    logits = dist * (-1.0 / cfg.tau)
    top = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - top)
    total = e.sum(axis=-1)
    lse = np.log(total) + top[..., 0]                                      # (Q, Z)
    loss = (lse - logits[np.arange(Q), :, label_idx]).sum() * (1.0 / (Q * Z))

    tracked = ad.grad_enabled()
    query_takes = tracked and (mean.requires_grad or logvar.requires_grad)
    proto_takes = tracked and any(p.mean.requires_grad or p.logvar.requires_grad
                                  for p in online)
    grads = []                              # (parent, its gradient at g = 1.0)
    if query_takes or proto_takes:
        # h = dL/d(dist^2); an exactly zero distance passes no gradient, as
        # an exactly zero difference does through sqrt(sum(square(diff)))
        dlogits = e / total[..., None]
        dlogits[np.arange(Q), :, label_idx] -= 1.0
        h = dlogits * (1.0 / (Q * Z) * (-0.5 / cfg.tau))
        h /= np.maximum(dist, 1e-150)
        h[dist == 0.0] = 0.0
    if proto_takes:
        g_ps = np.matmul(h.transpose(1, 2, 0), qs.transpose(1, 0, 2))   # (Z, C, D)
        g_ps -= ps * h.sum(axis=0)[..., None]
        g_ps *= -2.0 * w
        g_pm = g_ps.sum(axis=0)
        g_plv = 0.5 * psd * (g_ps * pn).sum(axis=0)
        for i, (p, fixed) in enumerate(entries):
            if not fixed:
                grads += [(p.mean, g_pm[i]), (p.logvar, g_plv[i])]
    if query_takes:
        g_qs = (h.reshape(Q * Z, C) @ w).reshape(Q, Z, D)
        g_qs *= qs
        # qs is read for the last time above, so its buffer takes the (Z, Q, D) product
        np.matmul(h.transpose(1, 0, 2), wps, out=qs.transpose(1, 0, 2))
        g_qs -= qs
        g_qs *= 2.0
        grads.append((mean, g_qs.sum(axis=1)))
        g_qs *= qn                          # now the log-variance term's
        grads.append((logvar, 0.5 * qsd[:, 0] * g_qs.sum(axis=1)))

    def backward(g):
        # g is exactly 1.0 for an unscaled loss, and then changes no bit
        for parent, grad in grads:
            ad._accumulate(parent, g * grad)
    parents = (mean, logvar) + tuple(t for p in online for t in (p.mean, p.logvar))
    return ad._node(loss, parents, backward)


def logvar_match_loss(logvar: Tensor, labels: Sequence[int],
                      stored: Sequence[VariationalPrototype]) -> Tensor:
    """Variance-only recall: mean squared error between each row of the
    predicted ``logvar`` (Q, D) and the stored prototype log-variance of its
    class ``labels[q]``."""
    by_class = {p.class_id: p.logvar.data for p in stored}
    for label in labels:
        if label not in by_class:
            raise ValueError(f"exemplar class {label} absent from stored prototypes")
    target = Tensor(np.stack([by_class[label] for label in labels]))
    return ad.tmean(ad.square(ad.sub(logvar, target)))
