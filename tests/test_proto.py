"""Prototype math: averaging, sampling, distances, posteriors, losses."""

import contextlib
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import protoreplay.autodiff as ad
from protoreplay import proto as proto_module
from protoreplay.autodiff import Tensor
from protoreplay.proto import (NoiseStream, SamplingConfig, VariationalPrototype,
                               _centre, _sq_distances, batch_prototype, class_posterior,
                               logvar_match_loss, mixed_classification_loss)


def proto(c, mean, logvar=None, task=1):
    mean = np.asarray(mean, dtype=np.float64)
    lv = np.zeros_like(mean) if logvar is None else np.asarray(logvar, float)
    return VariationalPrototype(task, c, Tensor(mean), Tensor(lv))


def query_loss(queries, online, frozen, cfg, noise):
    """mixed_classification_loss on queries given as (mean, logvar, label)."""
    return mixed_classification_loss(Tensor(np.array([m for m, _, _ in queries], float)),
                                     Tensor(np.array([lv for _, lv, _ in queries], float)),
                                     [c for _, _, c in queries], online, frozen, cfg, noise)


# ---------------------------------------------------------------------------
# batch_prototype

def prototype_of(means, logvars, rows=None):
    """batch_prototype over the given rows (default: all) of (N, D) means and
    log-variances."""
    rows = range(len(means)) if rows is None else rows
    return batch_prototype(1, 0, Tensor(np.array(means, float)),
                           Tensor(np.array(logvars, float)), rows)


def test_prototype_of_single_embedding_is_identity():
    p = prototype_of([[1.0, -2.0]], [[0.3, 0.4]])
    assert np.array_equal(p.mean.data, [1.0, -2.0])
    assert np.array_equal(p.logvar.data, [0.3, 0.4])


def test_prototype_elementwise_average():
    p = prototype_of([[1.0, 3.0], [3.0, 5.0]], np.zeros((2, 2)))
    assert np.array_equal(p.mean.data, [2.0, 4.0])


def test_prototype_idempotent_on_copies():
    mean, logvar = [0.25, -0.5], [0.125, 1.0]
    p = prototype_of([mean], [logvar], rows=[0, 0, 0, 0])
    assert np.array_equal(p.mean.data, mean)
    assert np.array_equal(p.logvar.data, logvar)


def test_prototype_permutation_invariance():
    rng = np.random.default_rng(0)
    means, logvars = rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (6, 4))
    p1 = prototype_of(means, logvars)
    p2 = prototype_of(means, logvars, rows=range(5, -1, -1))
    assert np.all(np.abs(p1.mean.data - p2.mean.data) < 1e-15)
    assert np.all(np.abs(p1.logvar.data - p2.logvar.data) < 1e-15)


# ---------------------------------------------------------------------------
# the loss's reparameterized samples

class ConstantNoise:
    """A noise stream whose every normal is ``value``."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, size):
        return np.full(size, self.value)


def loss_samples(monkeypatch, mean, logvar, Z, noise):
    """The samples mixed_classification_loss draws for one query of class 0
    scored against a class-0 prototype of the same mean and log-variance:
    (query samples (Z, D), prototype samples (Z, D)), read before centring."""
    seen = []
    centre = proto_module._centre

    def spy(qs, ps):
        seen.append((qs[0].copy(), ps[:, 0].copy()))
        centre(qs, ps)
    monkeypatch.setattr(proto_module, "_centre", spy)
    mean, logvar = np.asarray(mean, float), np.asarray(logvar, float)
    query_loss([(mean, logvar, 0)], [proto(0, mean, logvar)], [],
               SamplingConfig(Z=Z, D=mean.size), noise)
    (samples,) = seen
    return samples


def test_loss_samples_with_zero_noise_are_the_means(monkeypatch):
    qs, ps = loss_samples(monkeypatch, [1.0, 2.0], [0.3, -0.2], 2, ConstantNoise(0.0))
    assert np.array_equal(qs, [[1.0, 2.0]] * 2)
    assert np.array_equal(ps, [[1.0, 2.0]] * 2)


def test_loss_samples_with_unit_noise_move_one_std(monkeypatch):
    qs, ps = loss_samples(monkeypatch, [0.0], [0.0], 1, ConstantNoise(1.0))
    assert np.array_equal(qs, [[1.0]])
    assert np.array_equal(ps, [[1.0]])


def test_loss_samples_monte_carlo_mean(monkeypatch):
    mean = np.array([0.7, -0.3])
    qs, ps = loss_samples(monkeypatch, mean, [0.2, -0.1], 10_000,
                          np.random.default_rng(42))
    assert np.all(np.abs(qs.mean(axis=0) - mean) < 0.05)
    assert np.all(np.abs(ps.mean(axis=0) - mean) < 0.05)


# ---------------------------------------------------------------------------
# the loss kernel's distance

def kernel_distance(a, b, logvar=None):
    """|exp(-logvar / 2) * (a - b)| for two D-vectors, by _sq_distances on
    _centre'd samples; unweighted when ``logvar`` is None."""
    qs = np.array(a, dtype=np.float64)[None, None]                  # (Q=1, Z=1, D)
    ps = np.array(b, dtype=np.float64)[None, None]                  # (Z=1, C=1, D)
    w = np.ones(ps.shape[1:]) if logvar is None else np.exp(-np.asarray(logvar))[None]
    _centre(qs, ps)
    return math.sqrt(_sq_distances(qs, ps, w)[0, 0, 0])


def test_kernel_distance_zero_for_equal_samples():
    assert kernel_distance([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_kernel_distance_logvar_zero_is_plain_l2():
    assert abs(kernel_distance([3.0, 0.0], [0.0, 4.0], np.zeros(2)) - 5.0) < 1e-12


def test_kernel_distance_hand_example():
    d = kernel_distance([1.0, 0.0], [0.0, 0.0], [2.0 * math.log(2.0), -7.0])
    assert abs(d - 0.5) < 1e-12


def test_kernel_distance_large_sigma_drops_coordinate():
    # sigma = +20 on a coordinate suppresses it: the weighted distance agrees
    # with a hand computation that omits the coordinate entirely
    d = kernel_distance([9.0, 1.0, -2.0], [0.0, 4.0, 2.0], [20.0, 0.0, 0.0])
    omitted = math.sqrt((1.0 - 4.0) ** 2 + (-2.0 - 2.0) ** 2)
    assert abs(d - omitted) < 1e-6


def test_weighted_loss_gradcheck():
    # the query's gradient through the variance-weighted distance of the fused
    # node, against central differences on a fixed noise draw
    cfg = SamplingConfig(Z=2, tau=1.0, D=3)
    frozen = [proto(0, [0.3, -0.4, 0.1], [0.2, -0.3, 0.5]),
              proto(1, [-0.6, 0.2, 0.4], [-0.1, 0.4, 0.3])]
    err = ad.grad_check(
        lambda m, lv: mixed_classification_loss(m, lv, [0], [], frozen, cfg,
                                                np.random.default_rng(5)),
        [Tensor(np.array([[1.0, 0.5, -0.2]])), Tensor(np.array([[0.1, -0.2, 0.3]]))],
        epsilon=1e-5)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# class_posterior

def test_posterior_single_class_is_one():
    cfg = SamplingConfig(Z=2, tau=1.0, D=2)
    probs = class_posterior([[0.0, 0.0], [1.0, 1.0]], [[[0.5, 0.5]], [[0.0, 1.0]]],
                            None, cfg)
    assert probs.shape == (2, 1)
    assert np.allclose(probs, 1.0)


def test_posterior_distance_zero_vs_one():
    cfg = SamplingConfig(Z=1, tau=1.0, D=1)
    probs = class_posterior([[0.0]], [[[0.0], [1.0]]], None, cfg)
    assert abs(probs[0][0] - 0.7311) < 1e-4
    assert abs(probs[0][1] - 0.2689) < 1e-4


def test_posterior_uniform_when_equidistant():
    cfg = SamplingConfig(Z=1, tau=2.0, D=2)
    probs = class_posterior([[0.0, 0.0]], [[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]],
                            None, cfg)
    assert np.all(np.abs(probs - 1.0 / 3.0) < 1e-12)


def test_posterior_rejects_wrong_sample_count():
    cfg = SamplingConfig(Z=2, tau=1.0, D=1)
    with pytest.raises(ValueError, match="do not pair"):
        class_posterior([[0.0], [1.0]], [[[0.0]]], None, cfg)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3),
       st.floats(0.2, 5.0), st.integers(0, 10_000))
def test_posterior_rows_sum_to_one(C, Z, D, tau, seed):
    rng = np.random.default_rng(seed)
    cfg = SamplingConfig(Z=Z, tau=tau, D=D)
    queries = rng.uniform(-1, 1, (Z, D))
    protos = rng.uniform(-1, 1, (Z, C, D))
    probs = class_posterior(queries, protos, None, cfg)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)


def test_weighted_posterior_matches_brute_force_loop():
    # class c's squared distance is weighted by exp(-logvar_c); class 1's
    # log-variance is zero, so it stays unweighted
    rng = np.random.default_rng(11)
    Z, D, tau = 3, 4, 0.7
    queries = np.array([rng.uniform(-1, 1, D) for _ in range(Z)])
    protos = np.stack([[rng.uniform(-1, 1, D) for _ in range(Z)] for c in range(3)], axis=1)
    logvars = np.stack([rng.uniform(-2, 2, D), np.zeros(D), rng.uniform(-2, 2, D)])
    probs = class_posterior(queries, protos, logvars, SamplingConfig(Z=Z, tau=tau, D=D))
    expected = np.empty((Z, 3))
    for z in range(Z):
        logits = []
        for c in range(3):
            d2 = sum(np.exp(-logvars[c][d]) * (queries[z][d] - protos[z][c][d]) ** 2
                     for d in range(D))
            logits.append(-np.sqrt(d2) / tau)
        e = np.exp(np.array(logits) - max(logits))
        expected[z] = e / e.sum()
    assert np.max(np.abs(probs - expected)) < 1e-12

    unweighted = SamplingConfig(Z=Z, tau=tau, D=D, weighted=False)
    ignored = class_posterior(queries, protos, logvars, unweighted)
    assert np.array_equal(ignored, class_posterior(queries, protos, None, unweighted))
    assert np.max(np.abs(ignored - probs)) > 1e-3


def test_posterior_translation_invariance():
    rng = np.random.default_rng(7)
    cfg = SamplingConfig(Z=2, tau=1.3, D=3)
    shift = rng.uniform(-5, 5, 3)
    queries = rng.uniform(-1, 1, (2, 3))
    protos = rng.uniform(-1, 1, (2, 3, 3))
    p1 = class_posterior(queries, protos, None, cfg)
    p2 = class_posterior(queries + shift, protos + shift, None, cfg)
    assert np.all(np.abs(p1 - p2) < 1e-12)


def test_posterior_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(12)
    queries, protos = rng.uniform(-1, 1, (2, 3)), rng.uniform(2, 3, (2, 4, 3))
    before = queries.copy(), protos.copy()
    class_posterior(queries, protos, None, SamplingConfig(Z=2, D=3))
    assert np.array_equal(queries, before[0]) and np.array_equal(protos, before[1])


def test_posterior_tau_softens_and_preserves_argmax():
    rng = np.random.default_rng(3)
    queries = rng.uniform(-1, 1, (1, 2))
    protos = rng.uniform(-1, 1, (1, 4, 2))
    maxima = []
    argmaxes = []
    for tau in (0.5, 1.0, 2.0, 4.0):
        cfg = SamplingConfig(Z=1, tau=tau, D=2)
        probs = class_posterior(queries, protos, None, cfg)
        maxima.append(probs[0].max())
        argmaxes.append(int(probs[0].argmax()))
    assert maxima == sorted(maxima, reverse=True)
    assert maxima[0] > maxima[-1]
    assert len(set(argmaxes)) == 1


# ---------------------------------------------------------------------------
# the loss on online prototypes only (the classification term)

def test_online_loss_near_zero_on_exact_match():
    cfg = SamplingConfig(Z=2, tau=1.0, D=2)
    protos = [proto(0, [0.0, 0.0], [-30.0, -30.0]),
              proto(1, [100.0, 100.0], [-30.0, -30.0])]
    queries = [([0.0, 0.0], [-30.0, -30.0], 0)]
    loss = query_loss(queries, protos, [], cfg, np.random.default_rng(0))
    assert loss.item() < 1e-6


def test_online_loss_uniform_is_ln2():
    # zero-variance queries and prototypes at equal distances
    cfg = SamplingConfig(Z=3, tau=1.0, D=2)
    protos = [proto(0, [1.0, 0.0], [-50.0, -50.0]),
              proto(1, [-1.0, 0.0], [-50.0, -50.0])]
    queries = [([0.0, 0.0], [-50.0, -50.0], 0),
               ([0.0, 5.0], [-50.0, -50.0], 1)]
    loss = query_loss(queries, protos, [], cfg, np.random.default_rng(1))
    assert abs(loss.item() - math.log(2.0)) < 1e-9


def test_classification_loss_rejects_missing_prototype():
    cfg = SamplingConfig(Z=1, tau=1.0, D=1)
    with pytest.raises(ValueError, match="query label 5 has no prototype"):
        query_loss([([0.0], [0.0], 5)], [proto(0, [0.0])], [], cfg,
                   np.random.default_rng(0))


def test_replay_loss_rejects_mixed_tasks_and_missing_class():
    # frozen prototypes of several tasks may be scored together, but not
    # two tasks' prototypes of one class
    cfg = SamplingConfig(Z=1, tau=1.0, D=1)
    with pytest.raises(ValueError, match="duplicate class ids"):
        query_loss([([0.0], [0.0], 0)], [],
                   [proto(0, [0.0], task=1), proto(0, [1.0], task=2)],
                   cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match="query label 9 has no prototype"):
        query_loss([([0.0], [0.0], 9)], [], [proto(0, [0.0], task=1)],
                   cfg, np.random.default_rng(0))


def brute_force_loss(query_params, proto_params, weight_logvars, cfg, seed):
    """Straight-line reimplementation of the distance-softmax cross-entropy.

    Replays the documented noise-draw order: prototype noise (Z, C, D) with
    classes ascending, then query noise (Q, Z, D).
    """
    rng = np.random.default_rng(seed)
    class_ids = sorted(proto_params)
    C, Z, D = len(class_ids), cfg.Z, cfg.D
    Q = len(query_params)
    pn = rng.standard_normal((Z, C, D))
    qn = rng.standard_normal((Q, Z, D))
    total = 0.0
    for qi, (qmean, qlogvar, label) in enumerate(query_params):
        for z in range(Z):
            logits = []
            for ci, c in enumerate(class_ids):
                pmean, plogvar = proto_params[c]
                ps = np.array(pmean) + np.exp(0.5 * np.array(plogvar)) * pn[z, ci]
                qsamp = (np.array(qmean)
                         + np.exp(0.5 * np.array(qlogvar)) * qn[qi, z])
                diff = qsamp - ps
                if weight_logvars is not None:
                    diff = diff * np.exp(-0.5 * np.array(weight_logvars[c]))
                logits.append(-math.sqrt(float(np.dot(diff, diff))) / cfg.tau)
            m = max(logits)
            lse = m + math.log(sum(math.exp(l - m) for l in logits))
            total += lse - logits[class_ids.index(label)]
    return total / (Q * Z)


def random_instance(rng):
    C = int(rng.integers(2, 4))
    Z = int(rng.integers(1, 5))
    D = int(rng.integers(1, 5))
    cfg = SamplingConfig(Z=Z, tau=float(rng.uniform(0.5, 2.0)), D=D)
    protos = {c: (rng.uniform(-1, 1, D), rng.uniform(-1, 1, D))
              for c in range(C)}
    Q = int(rng.integers(1, 4))
    queries = [(rng.uniform(-1, 1, D), rng.uniform(-1, 1, D),
                int(rng.integers(0, C))) for _ in range(Q)]
    return cfg, protos, queries


def assert_matches_oracle(rng_seed, loss_of, frozen_of):
    """100 random instances of ``loss_of(cfg, protos, queries, frozen, noise)``
    against ``brute_force_loss``. The classes in ``frozen_of(protos, rng)``
    are weighted by their own log-variance, the others by zeros."""
    rng = np.random.default_rng(rng_seed)
    for trial in range(100):
        cfg, protos, queries = random_instance(rng)
        seed = int(rng.integers(0, 2**31))
        frozen = frozen_of(protos, rng)
        weights = {c: lv if c in frozen else np.zeros_like(lv)
                   for c, (_, lv) in protos.items()}
        loss = loss_of(cfg, protos, queries, frozen, np.random.default_rng(seed))
        expected = brute_force_loss(queries, protos, weights, cfg, seed)
        assert abs(loss.item() - expected) < 1e-12, f"trial {trial}"


def test_online_loss_matches_brute_force_oracle():
    assert_matches_oracle(
        2024,
        lambda cfg, protos, queries, frozen, noise: query_loss(
            queries, [proto(c, m, lv) for c, (m, lv) in protos.items()], [], cfg, noise),
        lambda protos, rng: set())


def test_frozen_loss_matches_brute_force_oracle():
    assert_matches_oracle(
        77,
        lambda cfg, protos, queries, frozen, noise: query_loss(
            queries, [], [proto(c, m, lv, task=3) for c, (m, lv) in protos.items()],
            cfg, noise),
        lambda protos, rng: set(protos))


def test_mixed_classification_loss_matches_brute_force_oracle():
    # online and frozen classes share one posterior; both sets are nonempty
    def loss_of(cfg, protos, queries, frozen, noise):
        return mixed_classification_loss(
            Tensor(np.stack([m for m, _, _ in queries])),
            Tensor(np.stack([lv for _, lv, _ in queries])),
            [c for _, _, c in queries],
            [proto(c, m, lv, task=2) for c, (m, lv) in protos.items() if c not in frozen],
            [proto(c, m, lv) for c, (m, lv) in protos.items() if c in frozen],
            cfg, noise)

    assert_matches_oracle(
        5150, loss_of,
        lambda protos, rng: set(rng.permutation(len(protos))[
            :int(rng.integers(1, len(protos)))].tolist()))


# ---------------------------------------------------------------------------
# the loss on frozen prototypes only (one past task's replay term)

def test_frozen_loss_with_zero_logvar_equals_online_loss():
    rng = np.random.default_rng(5)
    cfg = SamplingConfig(Z=3, tau=1.0, D=3)
    protos = [proto(c, rng.uniform(-1, 1, 3), np.zeros(3), task=2)
              for c in range(3)]
    queries = [(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), c) for c in range(3)]
    r = query_loss(queries, [], protos, cfg, np.random.default_rng(9))
    c = query_loss(queries, protos, [], cfg, np.random.default_rng(9))
    assert abs(r.item() - c.item()) < 1e-12


def test_frozen_loss_exact_recall_near_zero():
    cfg = SamplingConfig(Z=2, tau=1.0, D=2)
    stored = [proto(0, [0.0, 0.0], [-40.0, -40.0], task=1),
              proto(1, [50.0, 50.0], [-40.0, -40.0], task=1)]
    exemplars = [([0.0, 0.0], [-40.0, -40.0], 0)]
    loss = query_loss(exemplars, [], stored, cfg, np.random.default_rng(0))
    assert loss.item() < 1e-6


def test_frozen_prototypes_get_no_gradient():
    cfg = SamplingConfig(Z=2, tau=1.0, D=2)
    stored = [proto(c, [float(c), 0.0], [0.1, 0.2], task=1) for c in range(2)]
    for p in stored:
        p.mean.requires_grad = True
        p.logvar.requires_grad = True
    mean = Tensor(np.array([[0.2, 0.3]]), requires_grad=True)
    logvar = Tensor(np.array([[0.0, 0.0]]), requires_grad=True)
    loss = mixed_classification_loss(mean, logvar, [0], [], stored, cfg,
                                     np.random.default_rng(4))
    loss.backward()
    assert mean.grad is not None and np.any(mean.grad != 0)
    for p in stored:
        assert p.mean.grad is None or np.all(p.mean.grad == 0)


def test_losses_are_non_negative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cfg, protos, queries = random_instance(rng)
        loss = query_loss(queries, [proto(c, m, lv) for c, (m, lv) in protos.items()], [],
                          cfg, np.random.default_rng(int(rng.integers(0, 1000))))
        assert loss.item() >= 0.0


# ---------------------------------------------------------------------------
# the fused loss node

def mixed_instance(rng, Q, C, D, shift=0.0):
    """Q queries over C classes: the even classes online (passing gradients),
    the odd ones frozen. ``shift`` moves every mean by the same amount."""
    mean = Tensor(shift + rng.uniform(-1, 1, (Q, D)), requires_grad=True)
    logvar = Tensor(rng.uniform(-0.5, 0.5, (Q, D)), requires_grad=True)
    protos = [VariationalPrototype(1, c, Tensor(shift + rng.uniform(-1, 1, D),
                                                requires_grad=True),
                                   Tensor(rng.uniform(-0.5, 0.5, D), requires_grad=True))
              for c in range(C)]
    labels = [q % C for q in range(Q)]
    return mean, logvar, labels, protos[0::2], protos[1::2]


def test_mixed_loss_peak_memory_stays_below_two_full_distance_tensors():
    Q, Z, C, D = 5, 50, 8, 500
    cfg = SamplingConfig(Z=Z, tau=1.0, D=D, weighted=True)
    mean, logvar, labels, online, frozen = mixed_instance(np.random.default_rng(3), Q, C, D)
    noise = np.random.default_rng(4)
    tracemalloc.start()
    try:
        loss = mixed_classification_loss(mean, logvar, labels, online, frozen, cfg, noise)
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.item())
    assert all(t.grad is not None for t in (mean, logvar, online[0].mean, online[0].logvar))
    assert peak < 2 * Q * Z * C * D * 8, f"peak {peak / 1e6:.1f} MB"


def test_the_loss_node_keeps_no_samples():
    # The node keeps its four input gradients, 0.45 MB here, and not the
    # (Q, Z, D) samples and noise (10 MB each) or any (Z, C, D) array.
    Q, Z, C, D = 50, 50, 6, 500
    cfg = SamplingConfig(Z=Z, tau=1.0, D=D)
    mean, logvar, labels, online, frozen = mixed_instance(np.random.default_rng(3), Q, C, D)
    tracemalloc.start()
    try:
        loss = mixed_classification_loss(mean, logvar, labels, online, frozen, cfg,
                                         np.random.default_rng(4))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss._backward is not None
    assert held / 1e6 < 1.0


def test_a_replay_term_holds_fewer_than_four_sample_arrays_at_once():
    # qn, qs and the query gradient, plus the (Z, C, D) prototype arrays; the
    # (Z, Q, D) product of the query gradient goes into qs's buffer
    Q, Z, C, D = 24, 50, 4, 500
    cfg = SamplingConfig(Z=Z, tau=1.0, D=D)
    mean, logvar, labels, online, frozen = mixed_instance(np.random.default_rng(5), Q, C, D)
    tracemalloc.start()
    try:
        mixed_classification_loss(mean, logvar, labels, [], online + frozen, cfg,
                                  np.random.default_rng(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * Q * Z * D * 8, f"peak {peak / (Q * Z * D * 8):.2f} (Q, Z, D) arrays"


def test_a_scaled_loss_scales_the_finished_gradients():
    cfg = SamplingConfig(Z=3, tau=0.7, D=3)
    rng = np.random.default_rng(13)
    mean, logvar, labels, online, frozen = mixed_instance(rng, 4, 4, 3)

    def loss_of(m, lv, pm, plv, factor):
        protos = [VariationalPrototype(1, 0, pm, plv)] + online[1:]
        loss = mixed_classification_loss(m, lv, labels, protos, frozen, cfg,
                                         np.random.default_rng(6))
        return loss if factor == 1.0 else ad.scale(loss, factor)

    points = [mean, logvar, online[0].mean, online[0].logvar]
    grads = []
    for factor in (1.0, 0.5):
        for t in points:
            t.grad = None
        loss_of(*points, factor).backward()
        grads.append([t.grad.copy() for t in points])
    for unit, half in zip(*grads):
        assert np.any(unit != 0) and half.tobytes() == (0.5 * unit).tobytes()
    assert ad.grad_check(lambda *xs: loss_of(*xs, 0.5), points) < 1e-6


def _matmul_calls(monkeypatch, run) -> int:
    """np.matmul calls made by ``run()``."""
    calls = []
    matmul = np.matmul

    def counting(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)
    monkeypatch.setattr(np, "matmul", counting)
    run()
    return len(calls)


@pytest.mark.parametrize("terms, tracked, gemms", [
    ("online", True, 3),        # distances, query gradient, prototype gradient
    ("frozen", True, 2),        # a replay term: no prototype gradient
    ("online", False, 1),       # no_grad(): distances only
])
def test_the_loss_forms_only_the_gradients_its_inputs_take(monkeypatch, terms, tracked,
                                                           gemms):
    cfg = SamplingConfig(Z=4, tau=1.0, D=5)
    mean, logvar, labels, online, frozen = mixed_instance(np.random.default_rng(2), 3, 2, 5)
    protos = online + frozen
    online, frozen = (protos, []) if terms == "online" else ([], protos)

    def run():
        with contextlib.nullcontext() if tracked else ad.no_grad():
            loss = mixed_classification_loss(mean, logvar, labels, online, frozen, cfg,
                                             np.random.default_rng(1))
        assert (loss._backward is not None) is tracked
        if tracked:
            loss.backward()
    assert _matmul_calls(monkeypatch, run) == gemms
    assert (mean.grad is not None) is tracked
    assert all(p.mean.grad is not None for p in online) is tracked
    assert all(p.mean.grad is None and p.logvar.grad is None for p in frozen)


def test_an_untracked_loss_has_the_tracked_value():
    cfg = SamplingConfig(Z=4, tau=1.0, D=5)
    mean, logvar, labels, online, frozen = mixed_instance(np.random.default_rng(7), 3, 4, 5)
    tracked = mixed_classification_loss(mean, logvar, labels, online, frozen, cfg,
                                        np.random.default_rng(8))
    with ad.no_grad():
        untracked = mixed_classification_loss(mean, logvar, labels, online, frozen, cfg,
                                              np.random.default_rng(8))
    assert untracked.data.tobytes() == tracked.data.tobytes()


def test_the_loss_node_is_fed_by_the_online_prototypes_own_tensors(monkeypatch):
    cfg = SamplingConfig(Z=3, tau=1.0, D=4)
    mean, logvar, labels, online, frozen = mixed_instance(np.random.default_rng(4), 5, 5, 4)

    def no_stack(*args, **kwargs):
        raise AssertionError("the loss copied its prototypes into a stack node")
    monkeypatch.setattr(ad, "stack", no_stack)
    loss = mixed_classification_loss(mean, logvar, labels, online, frozen, cfg,
                                     np.random.default_rng(0))
    want = [mean, logvar] + [t for p in online for t in (p.mean, p.logvar)]
    assert [id(t) for t in loss._parents] == [id(t) for t in want]
    loss.backward()
    assert all(t.grad is not None and t.grad.shape == t.shape for t in want)


def test_a_frozen_prototype_that_takes_gradients_gets_none():
    # frozen prototypes averaged from a tracked batch, as online ones are:
    # neither they nor the batch get a gradient, and the other gradients
    # are those of the same prototypes given as constants
    cfg = SamplingConfig(Z=3, tau=1.0, D=4)
    rng = np.random.default_rng(9)
    mean, logvar, labels, online, _ = mixed_instance(rng, 4, 4, 4)
    batch = [Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True) for _ in range(2)]
    frozen = [batch_prototype(1, c, *batch, [i]) for i, c in enumerate((1, 3))]
    constants = [proto(p.class_id, p.mean.data, p.logvar.data) for p in frozen]
    points = [mean, logvar] + [t for p in online for t in (p.mean, p.logvar)]
    grads = []
    for given in (constants, frozen):
        for t in points:
            t.grad = None
        mixed_classification_loss(mean, logvar, labels, online, given, cfg,
                                  np.random.default_rng(3)).backward()
        grads.append([t.grad.tobytes() for t in points])
    assert grads[0] == grads[1]
    assert all(t.grad is None for p in frozen for t in (p.mean, p.logvar))
    assert all(t.grad is None for t in batch)


def composed_loss(mean, logvar, labels, protos, cfg, noise, weight_logvar=None):
    """The distance-softmax cross-entropy as a graph of generic autodiff ops,
    for comparing gradients with the fused node. ``protos`` are in ascending
    class order; ``weight_logvar`` is an optional constant (C, D)."""
    Q, D = mean.shape
    C, Z = len(protos), cfg.Z
    pn = noise.standard_normal((Z, C, D))
    qn = noise.standard_normal((Q, Z, D))
    pm = ad.stack([p.mean for p in protos])
    plv = ad.stack([p.logvar for p in protos])
    ps = ad.add(pm, ad.mul(ad.exp(ad.scale(plv, 0.5)), Tensor(pn)))
    qs = ad.add(ad.reshape(mean, (Q, 1, D)),
                ad.mul(ad.exp(ad.scale(ad.reshape(logvar, (Q, 1, D)), 0.5)), Tensor(qn)))
    diff = ad.sub(ad.reshape(qs, (Q, Z, 1, D)), ps)
    if weight_logvar is not None:
        diff = ad.mul(diff, Tensor(np.exp(-0.5 * weight_logvar)))
    dist = ad.sqrt(ad.tsum(ad.square(diff), axis=-1))
    logits = ad.scale(dist, -1.0 / cfg.tau)
    return ad.tmean(ad.sub(ad.logsumexp(logits, axis=-1), ad.take_class(logits, labels)))


@pytest.mark.parametrize("shift", [0.0, 1e3])
def test_fused_gradients_match_composed_graph(shift):
    # the composed graph differences the samples directly, so it is exact
    # however far the latents sit from the origin; the fused node must be too
    rng = np.random.default_rng(21)
    for trial in range(20):
        Q, C, D = int(rng.integers(1, 5)), int(rng.integers(2, 6)), int(rng.integers(1, 7))
        cfg = SamplingConfig(Z=int(rng.integers(1, 5)), tau=float(rng.uniform(0.5, 2.0)), D=D)
        mean, logvar, labels, online, frozen = mixed_instance(rng, Q, C, D, shift)
        params = [mean, logvar] + [x for p in online for x in (p.mean, p.logvar)]
        fused = mixed_classification_loss(mean, logvar, labels, online, frozen, cfg,
                                          np.random.default_rng(trial))
        fused.backward()
        got = [t.grad for t in params]
        for t in params:
            t.grad = None
        frozen_ids = {p.class_id for p in frozen}
        protos = sorted(online + [VariationalPrototype(1, p.class_id, Tensor(p.mean.data),
                                                       Tensor(p.logvar.data))
                                  for p in frozen], key=lambda p: p.class_id)
        weights = np.stack([p.logvar.data if p.class_id in frozen_ids
                            else np.zeros(D) for p in protos])
        composed = composed_loss(mean, logvar, labels, protos, cfg,
                                 np.random.default_rng(trial), weights)
        composed.backward()
        assert abs(fused.item() - composed.item()) < 1e-12, f"trial {trial}"
        for g, t in zip(got, params):
            assert np.max(np.abs(g - t.grad)) < 1e-10, f"trial {trial}"


@pytest.mark.parametrize("C, D, Z", [(3, 6, 3), (8, 500, 5)])
def test_coincident_samples_give_finite_small_gradients(C, D, Z):
    # log-variances of -1500 make every sample equal its mean exactly; each
    # query sits on its class's online prototype, so those distances are 0
    # and pass no gradient, while the other classes' terms still do. The
    # fused node expands |q - p|^2 = |q|^2 - 2 q.p + |p|^2, which can round
    # a zero distance up to about sqrt(eps) |q|; the gradient that leaves is
    # of order sqrt(eps), hence the 1e-7 tolerance.
    rng = np.random.default_rng(8)
    cfg = SamplingConfig(Z=Z, tau=1.0, D=D, weighted=False)
    centers = rng.uniform(-1, 1, (C, D))
    labels = [0, 1, 2, 1]
    grads = []
    for loss_of in (
            lambda m, lv, ps: mixed_classification_loss(m, lv, labels, ps, [], cfg,
                                                         np.random.default_rng(0)),
            lambda m, lv, ps: composed_loss(m, lv, labels, ps, cfg,
                                            np.random.default_rng(0))):
        mean = Tensor(centers[labels], requires_grad=True)
        logvar = Tensor(np.full((len(labels), D), -1500.0), requires_grad=True)
        online = [VariationalPrototype(1, c, Tensor(centers[c].copy(), requires_grad=True),
                                       Tensor(np.full(D, -1500.0), requires_grad=True))
                  for c in range(C)]
        loss = loss_of(mean, logvar, online)
        loss.backward()
        assert np.isfinite(loss.item())
        grads.append([t.grad for t in [mean, logvar] +
                      [x for p in online for x in (p.mean, p.logvar)]])
    fused, composed = grads
    assert np.any(composed[0] != 0)
    for got, want in zip(fused, composed):
        assert np.all(np.isfinite(got)) and np.all(np.abs(got) < 1.0)
        assert np.max(np.abs(got - want)) < 1e-7


# ---------------------------------------------------------------------------
# input validation

@pytest.mark.parametrize("make, fragment", [
    (lambda: SamplingConfig(Z=0), "sample count Z"),
    (lambda: SamplingConfig(tau=0.0), "temperature tau"),
    (lambda: SamplingConfig(D=0), "latent dimension D"),
    (lambda: mixed_classification_loss(
        Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))), [0], [proto(0, [0.0, 0.0])],
        [proto(0, [1.0, 1.0])], SamplingConfig(Z=2, D=2), np.random.default_rng(0)),
     "duplicate class ids"),
    (lambda: logvar_match_loss(Tensor(np.zeros((1, 2))), [3], [proto(0, [0.0, 0.0])]),
     "exemplar class 3 absent"),
    (lambda: SamplingConfig(tau=float("inf")), "tau must be finite, got inf"),
    (lambda: SamplingConfig(tau=float("nan")), "tau must be finite, got nan"),
    (lambda: SamplingConfig(weighted="false"), "weighted must be True or False, got 'false'"),
    (lambda: SamplingConfig(weighted=0), "weighted must be True or False, got 0"),
])
def test_validation_errors_name_the_problem(make, fragment):
    with pytest.raises(ValueError, match=fragment):
        make()


# ---------------------------------------------------------------------------
# NoiseStream: draws ahead on a second thread, same values as the Generator

def _producers():
    return [t for t in threading.enumerate() if t.name == "noise-ahead"]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(block=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       steps=st.lists(st.tuples(st.lists(st.integers(1, 9), min_size=0, max_size=3),
                                st.booleans()), max_size=12))
def test_noise_stream_gives_the_generators_values(monkeypatch, block, seed, steps):
    # each step toggles ahead() on or off, then requests one shape; a small
    # block makes requests span blocks and stop inside one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    stream = NoiseStream(np.random.default_rng(seed))
    stream.BLOCK = block
    plain = np.random.default_rng(seed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)                     # interleave the two threads often
    try:
        with contextlib.ExitStack() as stack:
            inside = False
            for shape, toggle in steps:
                if toggle and inside:
                    stack.close()
                elif toggle:
                    stack.enter_context(stream.ahead())
                    assert len(_producers()) == 1
                inside ^= toggle
                got = stream.standard_normal(tuple(shape))
                assert got.shape == tuple(shape)
                assert got.tobytes() == plain.standard_normal(tuple(shape)).tobytes()
    finally:
        sys.setswitchinterval(interval)
    # left ahead(): the unread draws went back to the generator
    assert not _producers() and stream._blank is stream._filled is None
    assert stream.standard_normal(5).tobytes() == plain.standard_normal(5).tobytes()


def test_noise_stream_on_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    stream, plain = NoiseStream(np.random.default_rng(3)), np.random.default_rng(3)
    with stream.ahead():
        assert not _producers()
        got = [stream.standard_normal(s) for s in ((4, 70000), (3,), (2, 5, 7))]
        assert stream._blank is stream._filled is None
    for g, s in zip(got, ((4, 70000), (3,), (2, 5, 7))):
        assert g.tobytes() == plain.standard_normal(s).tobytes()


def test_noise_stream_nested_ahead_adds_no_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    stream, plain = NoiseStream(np.random.default_rng(9)), np.random.default_rng(9)
    with stream.ahead():
        first = stream.standard_normal(100000)
        with stream.ahead():
            assert len(_producers()) == 1
            second = stream.standard_normal(10)
        assert len(_producers()) == 1
    assert not _producers()
    assert first.tobytes() == plain.standard_normal(100000).tobytes()
    assert second.tobytes() == plain.standard_normal(10).tobytes()


class _RecordingStream:
    """A plain Generator's normals, recording the size of every request."""

    def __init__(self, seed):
        self.gen, self.sizes = np.random.default_rng(seed), []

    def standard_normal(self, size):
        self.sizes.append(size)
        return self.gen.standard_normal(size)


@pytest.mark.parametrize("online, frozen", [(2, 0), (0, 3), (2, 1)])
def test_a_loss_call_makes_one_noise_request(online, frozen):
    Q, Z, D = 4, 3, 5
    C = online + frozen
    rng = np.random.default_rng(C)
    protos = [proto(c, rng.normal(size=D), rng.normal(size=D)) for c in range(C)]
    stream = _RecordingStream(6)
    mixed_classification_loss(Tensor(rng.normal(size=(Q, D))), Tensor(rng.normal(size=(Q, D))),
                              [c % C for c in range(Q)], protos[:online], protos[online:],
                              SamplingConfig(Z=Z, D=D), stream)
    assert stream.sizes == [Z * C * D + Q * Z * D]


def _wait_for_blocks(stream, count):
    """Wait until the producer has filled ``count`` blocks ahead of the
    reader (the block being read counts as one)."""
    deadline = time.monotonic() + 10
    while stream._filled.qsize() + (stream._head is not None) < count:
        assert time.monotonic() < deadline, "the producer did not fill its ring"
        time.sleep(0.001)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_the_ring_holds_the_largest_request_plus_one_block(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    stream, plain = NoiseStream(np.random.default_rng(n)), np.random.default_rng(n)
    stream.BLOCK = 64
    ring = -(-n // 64) + 1
    with stream.ahead():
        got = [stream.standard_normal(n)]
        _wait_for_blocks(stream, ring)
        assert stream._ring == ring and stream._blank.empty()
        # the next request of n starts inside a block, or on a new one, and
        # is drawn whole before it is made
        ahead = stream._filled.qsize() * 64 + (64 - stream._pos if stream._head else 0)
        assert ahead >= n
        got += [stream.standard_normal(n), stream.standard_normal(1)]
        assert stream._ring == ring                 # a smaller request adds no block
    assert [g.tobytes() for g in got] == [plain.standard_normal(k).tobytes() for k in (n, n, 1)]
