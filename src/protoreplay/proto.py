"""Variational prototype math: averaging, latent sampling, distances, losses.

Every image is encoded as a latent Gaussian (mean, log-variance). A class
prototype is the elementwise average of its members' means and log-variances.
Classification samples latents from queries and prototypes by
reparameterization and takes a softmax over (optionally variance-weighted)
L2 distances; replay regresses re-encoded stored exemplars onto prototypes
frozen at earlier tasks. Both run one batched loss,
``mixed_classification_loss``; the list-of-pairs losses are views of it.

Noise-draw order is part of the contract so results are reproducible from a
seeded generator: each loss first draws prototype noise of shape (Z, C, D)
with classes in ascending class_id order, then query noise of shape (Q, Z, D)
with queries in the order given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class SamplingConfig:
    Z: int = 50
    tau: float = 1.0
    D: int = 500
    weighted: bool = True

    def __post_init__(self):
        if self.Z < 1:
            raise ValueError(f"sample count Z must be >= 1, got {self.Z}")
        if self.tau <= 0:
            raise ValueError(f"temperature tau must be positive, got {self.tau}")
        if self.D < 1:
            raise ValueError(f"latent dimension D must be >= 1, got {self.D}")


@dataclass
class VariationalEmbedding:
    """Per-image latent Gaussian: mean and log-variance vectors of length D."""
    mean: Tensor
    logvar: Tensor


@dataclass
class VariationalPrototype:
    """Per-(task, class) latent Gaussian obtained by averaging embeddings."""
    task_id: int
    class_id: int
    mean: Tensor
    logvar: Tensor


@dataclass
class LatentSample:
    values: Tensor


def _as_tensor(x) -> Tensor:
    if isinstance(x, LatentSample):
        return x.values
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def batch_prototype(task_id: int, class_id: int, mean: Tensor, logvar: Tensor,
                    rows) -> VariationalPrototype:
    """Average the given rows of an encoded (N, D) batch's means and
    log-variances elementwise (differentiable)."""
    return VariationalPrototype(task_id, class_id,
                                ad.mean_over_axis(ad.take_rows(mean, rows), axis=0),
                                ad.mean_over_axis(ad.take_rows(logvar, rows), axis=0))


def compute_prototype(embeddings: Sequence[VariationalEmbedding],
                      task_id: int, class_id: int) -> VariationalPrototype:
    """Average member means and log-variances elementwise (differentiable)."""
    if not embeddings:
        raise ValueError("compute_prototype: empty embedding list")
    return batch_prototype(task_id, class_id, ad.stack([e.mean for e in embeddings]),
                           ad.stack([e.logvar for e in embeddings]), range(len(embeddings)))


def sample_latent(e, noise) -> LatentSample:
    """Reparameterized draw: mean + exp(0.5 * logvar) * noise."""
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != e.mean.data.shape:
        raise ad.ShapeError(
            f"sample_latent: noise shape {noise.shape} vs mean shape {e.mean.shape}")
    return LatentSample(ad.add(e.mean, ad.mul(ad.exp(ad.scale(e.logvar, 0.5)), Tensor(noise))))


def weighted_distance(s1, s2, logvar=None) -> Tensor:
    """L2 norm of exp(-0.5 * logvar) * (s1 - s2); plain L2 when logvar is None/0."""
    diff = ad.sub(_as_tensor(s1), _as_tensor(s2))
    if logvar is not None:
        diff = ad.mul(diff, Tensor(np.exp(-0.5 * _as_tensor(logvar).data)))
    return ad.sqrt(ad.tsum(ad.square(diff), axis=-1))


def _centre(qs: np.ndarray, ps: np.ndarray) -> None:
    """Shift query and prototype samples in place by the prototypes' mean.

    Distances do not change, but the expansion in `_sq_distances` rounds
    relative to |qs|^2 + |ps|^2, so it must see samples near the origin.
    """
    ref = ps.mean(axis=(0, 1))
    qs -= ref
    ps -= ref


def _sq_distances(qs: np.ndarray, ps: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted squared distances sum_d w[c, d] * (qs[q, z, d] - ps[z, c, d])**2.

    qs: (Q, Z, D) query samples; ps: (Z, C, D) prototype samples; w: (C, D)
    per-class weights. Expanded into one GEMM plus one Z-batched GEMM so that
    no (Q, Z, C, D) difference is formed; rounding below zero is clamped.
    The samples should be `_centre`d first. Returns (Q, Z, C).
    """
    Q, Z, D = qs.shape
    wps = w * ps
    d2 = ((qs * qs).reshape(Q * Z, D) @ w.T).reshape(Q, Z, -1)
    d2 -= 2.0 * np.matmul(qs.transpose(1, 0, 2), wps.transpose(0, 2, 1)).transpose(1, 0, 2)
    d2 += (wps * ps).sum(axis=-1)
    return np.maximum(d2, 0.0, out=d2)


def class_posterior(query_samples: Sequence[LatentSample],
                    proto_samples: dict,
                    weights: Optional[dict],
                    cfg: SamplingConfig):
    """Distance-softmax posterior for one query embedding's Z samples.

    ``proto_samples`` maps class_id -> list of Z LatentSamples; sample index z
    of the query is paired with sample index z of every class. Returns
    (probs of shape (Z, C), class_ids in ascending order).
    """
    class_ids = sorted(proto_samples)
    Z = len(query_samples)
    for c in class_ids:
        if len(proto_samples[c]) != Z:
            raise ValueError(
                f"class {c} supplied {len(proto_samples[c])} samples, expected Z={Z}")
    queries = np.stack([_as_tensor(s).data for s in query_samples])       # (Z, D)
    protos = np.stack([[_as_tensor(s).data for s in proto_samples[c]]
                       for c in class_ids], axis=1)                        # (Z, C, D)
    w = np.ones(protos.shape[1:])
    if weights is not None and cfg.weighted:
        for i, c in enumerate(class_ids):
            if c in weights:
                w[i] = np.exp(-_as_tensor(weights[c]).data)
    _centre(queries, protos)
    dists = np.sqrt(_sq_distances(queries[None], protos, w)[0])           # (Z, C)
    logits = -dists / cfg.tau
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True), class_ids


def _distance_softmax_ce(query_mean: Tensor, query_logvar: Tensor,
                         label_idx: np.ndarray,
                         proto_mean: Tensor, proto_logvar: Tensor,
                         weight_logvar: Optional[np.ndarray],
                         cfg: SamplingConfig, noise_stream) -> Tensor:
    """Shared core: mean over queries and z of -log p(true class | sample).

    query_mean/logvar: (Q, D); proto_mean/logvar: (C, D) in ascending class
    order; weight_logvar: optional constant (C, D) applied per class. One
    autodiff node: forward and the analytic backward are plain BLAS.
    """
    Q, D = query_mean.shape
    C = proto_mean.shape[0]
    Z = cfg.Z
    pn = noise_stream.standard_normal((Z, C, D))
    qn = noise_stream.standard_normal((Q, Z, D))

    psd = np.exp(0.5 * proto_logvar.data)                                  # (C, D)
    qsd = np.exp(0.5 * query_logvar.data)[:, None, :]                      # (Q, 1, D)
    ps = proto_mean.data + psd * pn                                        # (Z, C, D)
    qs = query_mean.data[:, None, :] + qsd * qn                            # (Q, Z, D)
    w = np.ones((C, D)) if weight_logvar is None else np.exp(-weight_logvar)
    _centre(qs, ps)                         # in place: the backward uses the centred samples
    dist = np.sqrt(_sq_distances(qs, ps, w))                               # (Q, Z, C)
    logits = dist * (-1.0 / cfg.tau)
    top = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - top)
    total = e.sum(axis=-1)
    lse = np.log(total) + top[..., 0]                                      # (Q, Z)
    loss = (lse - logits[np.arange(Q), :, label_idx]).sum() * (1.0 / (Q * Z))

    def backward(g):
        # h = dL/d(dist^2); an exactly zero distance passes no gradient, as
        # an exactly zero difference does through sqrt(sum(square(diff)))
        dlogits = e / total[..., None]
        dlogits[np.arange(Q), :, label_idx] -= 1.0
        h = dlogits * (float(g) / (Q * Z) * (-0.5 / cfg.tau))
        h /= np.maximum(dist, 1e-150)
        h[dist == 0.0] = 0.0
        g_qs = qs * (h.reshape(Q * Z, C) @ w).reshape(Q, Z, D)
        g_qs -= np.matmul(h.transpose(1, 0, 2), w * ps).transpose(1, 0, 2)
        g_qs *= 2.0
        g_ps = np.matmul(h.transpose(1, 2, 0), qs.transpose(1, 0, 2))   # (Z, C, D)
        g_ps -= ps * h.sum(axis=0)[..., None]
        g_ps *= -2.0 * w
        ad._accumulate(query_mean, g_qs.sum(axis=1))
        ad._accumulate(query_logvar, 0.5 * qsd[:, 0] * (g_qs * qn).sum(axis=1))
        ad._accumulate(proto_mean, g_ps.sum(axis=0))
        ad._accumulate(proto_logvar, 0.5 * psd * (g_ps * pn).sum(axis=0))
    return ad._node(loss, (query_mean, query_logvar, proto_mean, proto_logvar), backward)


def mixed_classification_loss(mean: Tensor, logvar: Tensor, labels: Sequence[int],
                              online: Sequence[VariationalPrototype],
                              frozen: Sequence[VariationalPrototype],
                              cfg: SamplingConfig, noise_stream) -> Tensor:
    """The distance-softmax cross-entropy; the list-of-pairs losses are views.

    Row q of ``mean``/``logvar`` (Q, D) is a query of class ``labels[q]``. It
    is scored in one posterior over the ``online`` prototypes, which pass
    gradients, and the ``frozen`` ones, which are constant regression
    targets. Frozen entries are weighted by their own log-variance when
    cfg.weighted; online entries never are. Every label needs a prototype.
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
    pm = ad.stack([Tensor(p.mean.data) if fixed else p.mean for p, fixed in entries])
    plv = ad.stack([Tensor(p.logvar.data) if fixed else p.logvar for p, fixed in entries])
    wlv = None
    if cfg.weighted and frozen:
        wlv = np.stack([p.logvar.data if fixed else np.zeros_like(p.logvar.data)
                        for p, fixed in entries])
    label_idx = np.array([index[label] for label in labels])
    return _distance_softmax_ce(mean, logvar, label_idx, pm, plv, wlv, cfg, noise_stream)


def _stack_pairs(pairs):
    """(mean, logvar, labels) of a list of (VariationalEmbedding, class_id)."""
    return (ad.stack([e.mean for e, _ in pairs]), ad.stack([e.logvar for e, _ in pairs]),
            [label for _, label in pairs])


def classification_loss(queries, prototypes: Sequence[VariationalPrototype],
                        cfg: SamplingConfig, noise_stream) -> Tensor:
    """Cross-entropy of the unweighted distance softmax over all C classes.

    ``queries`` is a list of (VariationalEmbedding, class_id) pairs; every
    label must have a prototype.
    """
    mean, logvar, labels = _stack_pairs(queries)
    return mixed_classification_loss(mean, logvar, labels, prototypes, [], cfg,
                                     noise_stream)


def replay_loss(exemplar_embeddings, stored: Sequence[VariationalPrototype],
                cfg: SamplingConfig, noise_stream) -> Tensor:
    """Cross-entropy of the variance-weighted softmax against one past task.

    Stored prototypes act as fixed regression targets: no gradient flows into
    them. Class c's distances are weighted by that prototype's stored
    log-variance when cfg.weighted.
    """
    tasks = {p.task_id for p in stored}
    if len(tasks) != 1:
        raise ValueError(f"stored prototypes span several tasks: {sorted(tasks)}")
    mean, logvar, labels = _stack_pairs(exemplar_embeddings)
    return mixed_classification_loss(mean, logvar, labels, [], stored, cfg, noise_stream)


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
