"""Acceptance gate: one test per release criterion, each printing an
explicit PASS/FAIL line with its pinned tolerance.

Criteria 4, 5, and 7 are desk-scale property substitutes: the quantitative
results in the source material (50-task permuted MNIST, CIFAR100/ImageNet
curves, and the published ablation deltas of 1.2/1.0/0.5/0.7 percentage
points) require full-size datasets and GPU budgets and are documented as
not reproducible here; the assertions below pin the qualitative claims on
seeded synthetic protocols instead.
"""

import numpy as np
import pytest

from protoreplay import autodiff as ad
from protoreplay.analysis import (PrototypeHistoryLog, motion_similarity,
                                  pca_fit, pearson, summarize)
from protoreplay.autodiff import Tensor
from protoreplay.cli import main as cli_main
from protoreplay.data import (Image, incremental_class_plan, permuted_protocol,
                              split_protocol, synthetic_blobs)
from protoreplay.encoder import (baseline_head, init_encoder,
                                 reference_architecture)
from protoreplay.memory import (EpisodicMemory, memory_footprint, rebalance,
                                store_exemplars)
from protoreplay.proto import (SamplingConfig, VariationalPrototype, _centre,
                               _sq_distances, batch_prototype, class_posterior,
                               mixed_classification_loss)
from protoreplay.trainer import TrainerConfig, run_continual, train_baseline


@pytest.fixture
def report(capsys):
    def _report(criterion, label, ok, detail=""):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            suffix = f"  [{detail}]" if detail else ""
            print(f"\nACCEPTANCE {criterion} ({label}): {status}{suffix}")
        assert ok, f"criterion {criterion} ({label}): {detail}"
    return _report


# ---------------------------------------------------------------------------
# criterion 1: memory-accounting parity (exact integers)

def test_criterion_1_footprint_parity(report):
    enc = reference_architecture("cifar_like_32")
    ours = init_encoder(enc, 500, seed=0, zero=True)
    base = init_encoder(baseline_head(enc, 10), 500, seed=0, zero=True)
    mem = EpisodicMemory()
    for c in range(10):
        mem.exemplars[c] = [Image(np.zeros((3, 32, 32)), c)]
        mem.prototype_history[(1, c)] = VariationalPrototype(
            1, c, Tensor(np.zeros(500)), Tensor(np.zeros(500)))
    got = (memory_footprint(base, EpisodicMemory(), "baseline_sgd").total,
           memory_footprint(base, EpisodicMemory(), "baseline_regularizer").total,
           memory_footprint(ours, EpisodicMemory(), "ours").total,
           memory_footprint(ours, mem, "ours").total)
    want = (1_631_500, 3_263_000, 2_126_500, 2_167_220)
    report(1, "table-parity footprint", got == want, f"got {got}, want {want}")


# ---------------------------------------------------------------------------
# criterion 2: gradient suite (max relative error < 1e-4 at eps = 1e-5)

def test_criterion_2_gradient_suite(report, capsys):
    code = cli_main(["gradcheck"])
    out = capsys.readouterr().out
    ok = code == 0 and "all gradient checks passed" in out and "FAIL" not in out
    report(2, "gradient suite < 1e-4", ok, f"exit code {code}")


# ---------------------------------------------------------------------------
# criterion 3: brute-force oracle equivalence (100 instances, 1e-12)

def brute_force_classification_loss(qm, qlv, labels, pm, plv, cfg, seed):
    """Straight-line reimplementation of the distance-softmax cross-entropy,
    replaying the documented noise-draw order."""
    rng = np.random.default_rng(seed)
    Q, D = qm.shape
    C = pm.shape[0]
    pn = rng.standard_normal((cfg.Z, C, D))
    qn = rng.standard_normal((Q, cfg.Z, D))
    total = 0.0
    for q in range(Q):
        for z in range(cfg.Z):
            qs = qm[q] + np.exp(0.5 * qlv[q]) * qn[q, z]
            dists = np.array([np.linalg.norm(
                qs - (pm[c] + np.exp(0.5 * plv[c]) * pn[z, c]))
                for c in range(C)])
            logits = -dists / cfg.tau
            lse = np.log(np.exp(logits - logits.max()).sum()) + logits.max()
            total += lse - logits[labels[q]]
    return total / (Q * cfg.Z)


def test_criterion_3_oracle_equivalence(report):
    rng = np.random.default_rng(2024)
    worst_loss, worst_post = 0.0, 0.0
    for trial in range(100):
        C = int(rng.integers(2, 4))
        Z = int(rng.integers(1, 5))
        D = int(rng.integers(1, 5))
        Q = int(rng.integers(1, 4))
        cfg = SamplingConfig(Z=Z, tau=float(rng.uniform(0.3, 3.0)), D=D)
        qm = rng.uniform(-1, 1, (Q, D))
        qlv = rng.uniform(-1, 1, (Q, D))
        pm = rng.uniform(-1, 1, (C, D))
        plv = rng.uniform(-1, 1, (C, D))
        labels = rng.integers(0, C, Q)

        protos = [VariationalPrototype(1, c, Tensor(pm[c]), Tensor(plv[c]))
                  for c in range(C)]
        seed = 1000 + trial
        got = mixed_classification_loss(Tensor(qm), Tensor(qlv), labels.tolist(),
                                        protos, [], cfg,
                                        np.random.default_rng(seed)).item()
        want = brute_force_classification_loss(qm, qlv, labels, pm, plv,
                                               cfg, seed)
        worst_loss = max(worst_loss, abs(got - want))

        # posterior oracle on fixed per-sample noise
        nz = rng.standard_normal((Z, C + 1, D))
        qsamples = qm[0] + np.exp(0.5 * qlv[0]) * nz[:, 0]          # (Z, D)
        psamples = pm + np.exp(0.5 * plv) * nz[:, 1:]              # (Z, C, D)
        probs = class_posterior(qsamples, psamples, None, cfg)
        for z in range(Z):
            d = np.array([np.linalg.norm(qsamples[z] - psamples[z, c])
                          for c in range(C)])
            e = np.exp(-d / cfg.tau - (-d / cfg.tau).max())
            worst_post = max(worst_post, np.max(np.abs(probs[z] - e / e.sum())))
    ok = worst_loss < 1e-12 and worst_post < 1e-12
    report(3, "brute-force oracle agreement < 1e-12", ok,
           f"loss err {worst_loss:.2e}, posterior err {worst_post:.2e}")


# ---------------------------------------------------------------------------
# criterion 4: desk-scale incremental-class run

def class_setup():
    ds = synthetic_blobs(5, 20, 10, 40, separation=2.5, seed=123)
    schedule = split_protocol(ds, incremental_class_plan(5, 2, 1, 10), seed=0)
    arch = reference_architecture("synthetic_vector", latent_dim=16,
                                  input_dim=20)
    return ds, schedule, arch


def class_cfg(seed=0, replay_weight=1.0, **overrides):
    kwargs = dict(sampling=SamplingConfig(Z=10, tau=1.0, D=16),
                  learning_rate=0.1, epochs_per_task=20, batch_per_class=10,
                  per_class_quota=10, replay_weight=replay_weight, seed=seed)
    kwargs.update(overrides)
    return TrainerConfig(**kwargs)


def test_criterion_4_incremental_class_run(report):
    ds, schedule, arch = class_setup()
    ours, _ = run_continual(ds, schedule, arch, 16, class_cfg(seed=0))
    naive = train_baseline(ds, schedule, arch, class_cfg(seed=0))
    ours_avg = summarize(ours)["final_average"]
    naive_avg = summarize(naive)["final_average"]
    t1_final = ours.rows[-1][0]

    gap_ok = ours_avg >= naive_avg + 0.15
    report(4, "a: final average >= sgd_naive + 15 points", gap_ok,
           f"ours {ours_avg:.4f} vs sgd_naive {naive_avg:.4f}")
    t1_ok = t1_final > 0.2 + 0.20
    report(4, "b: task-1 accuracy after final task > 0.40", t1_ok,
           f"task-1 {t1_final:.4f}")

    diffs = []
    for seed in range(5):
        with_replay, _ = run_continual(ds, schedule, arch, 16,
                                       class_cfg(seed=seed))
        without, _ = run_continual(ds, schedule, arch, 16,
                                   class_cfg(seed=seed, replay_weight=0.0))
        diffs.append(with_replay.rows[-1][0] - without.rows[-1][0])
    report(4, "c: replay strictly improves task-1 retention (paired seeds)",
           all(d > 0 for d in diffs),
           "diffs " + ", ".join(f"{d:+.4f}" for d in diffs))


# ---------------------------------------------------------------------------
# criterion 5: desk-scale incremental-domain run

def test_criterion_5_incremental_domain_run(report):
    ds = synthetic_blobs(10, 25, 20, 20, separation=3.5, seed=321)
    schedule = permuted_protocol(ds, 5, seed=0)
    arch = reference_architecture("synthetic_vector", latent_dim=16,
                                  input_dim=25)
    cfg = TrainerConfig(sampling=SamplingConfig(Z=10, tau=1.0, D=16),
                        learning_rate=0.05, epochs_per_task=10,
                        batch_per_class=10, per_class_quota=10, seed=0)
    ours, _ = run_continual(ds, schedule, arch, 16, cfg)
    naive = train_baseline(ds, schedule, arch, cfg)
    ours_avg = summarize(ours)["final_average"]
    naive_avg = summarize(naive)["final_average"]
    drop = ours.rows[0][0] - ours.rows[-1][0]

    report(5, "a: final average >= sgd_naive", ours_avg >= naive_avg,
           f"ours {ours_avg:.4f} vs sgd_naive {naive_avg:.4f}")
    report(5, "b: task-1 accuracy drop <= 25 points", drop <= 0.25,
           f"post-task-1 {ours.rows[0][0]:.4f}, final {ours.rows[-1][0]:.4f}, "
           f"drop {drop:.4f}")


# ---------------------------------------------------------------------------
# criterion 6: invariant suite

def test_criterion_6_invariants(report):
    rng = np.random.default_rng(6)
    checks = {}

    # posterior normalization and tau argmax-invariance
    D, Z, C = 3, 4, 3
    cfg1 = SamplingConfig(Z=Z, tau=1.0, D=D)
    embs = [(rng.uniform(-1, 1, D), rng.uniform(-1, 1, D)) for c in range(C)]
    qm, qlv = rng.uniform(-1, 1, D), rng.uniform(-1, 1, D)
    noise = rng.standard_normal((Z, C + 1, D))
    qs = qm + np.exp(0.5 * qlv) * noise[:, 0]                       # (Z, D)
    ps = np.stack([m + np.exp(0.5 * lv) * noise[:, c + 1]
                   for c, (m, lv) in enumerate(embs)], axis=1)      # (Z, C, D)
    probs1 = class_posterior(qs, ps, None, cfg1)
    checks["posterior rows sum to 1 (1e-12)"] = \
        np.max(np.abs(probs1.sum(axis=1) - 1.0)) < 1e-12
    probs2 = class_posterior(qs, ps, None, SamplingConfig(Z=Z, tau=5.0, D=D))
    checks["tau preserves per-sample argmax"] = \
        np.array_equal(probs1.argmax(axis=1), probs2.argmax(axis=1))

    # translation invariance of the posterior
    shift = rng.uniform(-2, 2, D)
    probs_t = class_posterior(qs + shift, ps + shift, None, cfg1)
    checks["posterior translation invariance (1e-12)"] = \
        np.max(np.abs(probs_t - probs1)) < 1e-12

    # weighted-distance degenerations, on the loss's distance kernel
    a, b = rng.uniform(-1, 1, D), rng.uniform(-1, 1, D)

    def kernel_distance(logvar):
        qs, ps = a[None, None].copy(), b[None, None].copy()    # (1, 1, D) each
        _centre(qs, ps)
        return np.sqrt(_sq_distances(qs, ps, np.exp(-logvar)[None]))[0, 0, 0]
    plain = np.linalg.norm(a - b)
    checks["zero logvar weighting equals plain L2 (1e-12)"] = \
        abs(kernel_distance(np.zeros(D)) - plain) < 1e-12
    lv = np.zeros(D)
    lv[0] = 20.0
    dropped = np.linalg.norm(np.exp(-0.5 * lv)[1:] * (a - b)[1:])
    checks["sigma=20 effectively drops the coordinate (1e-6)"] = \
        abs(kernel_distance(lv) - dropped) < 1e-6

    # prototype idempotence
    e_mean, e_logvar = Tensor(rng.uniform(-1, 1, (1, D))), Tensor(rng.uniform(-1, 1, (1, D)))
    p1 = batch_prototype(1, 0, e_mean, e_logvar, [0])
    # 4 copies: dividing by a power of two keeps the average exact
    p2 = batch_prototype(1, 0, Tensor(p1.mean.data[None]), Tensor(p1.logvar.data[None]),
                         [0] * 4)
    checks["prototype idempotence (bitwise)"] = \
        np.array_equal(p1.mean.data, p2.mean.data) and \
        np.array_equal(p1.logvar.data, p2.logvar.data)

    # memory budget preservation
    mem = EpisodicMemory(budget_elements=6 * 4)
    store_exemplars(mem, {c: [Image(rng.uniform(0, 1, (1, 2, 2)), c,
                                    index=i) for i in range(8)]
                          for c in range(3)}, 8, np.random.default_rng(0))
    rebalance(mem, 3, np.random.default_rng(1))
    checks["budget invariant after store/rebalance"] = \
        mem.exemplar_elements() <= mem.budget_elements

    # full-run bitwise determinism
    ds, schedule, arch = class_setup()
    cfg = class_cfg(seed=0, epochs_per_task=3)
    rows_a, _ = run_continual(ds, schedule, arch, 16, cfg)
    rows_b, _ = run_continual(ds, schedule, arch, 16, cfg)
    checks["full-run bitwise determinism"] = rows_a.rows == rows_b.rows

    for label, ok in checks.items():
        report(6, label, ok)


# ---------------------------------------------------------------------------
# criterion 7: ablation switches complete the desk-scale protocol

def test_criterion_7_ablations(report):
    ds, schedule, _ = class_setup()
    variants = [("unweighted_distance",
                 dict(sampling=SamplingConfig(Z=10, tau=1.0, D=16, weighted=False)), 16),
                ("replay_order=backward", dict(replay_order="backward"), 16),
                ("replay_order=current_only", dict(replay_order="current_only"), 16),
                ("recall=mean_only", dict(recall="mean_only"), 16),
                ("recall=var_only", dict(recall="var_only"), 16)]
    variants += [(f"Z={z}", dict(sampling=SamplingConfig(Z=z, tau=1.0, D=16)), 16)
                 for z in (2, 50, 100)]
    variants += [(f"D={d}", dict(sampling=SamplingConfig(Z=10, tau=1.0, D=d)), d)
                 for d in (10, 500, 1000)]
    for label, overrides, D in variants:
        arch = reference_architecture("synthetic_vector", latent_dim=D,
                                      input_dim=20)
        cfg = class_cfg(seed=0, epochs_per_task=2, **overrides)
        matrix, _ = run_continual(ds, schedule, arch, D, cfg)
        ok = len(matrix.rows) == len(schedule.tasks) and \
            all(0.0 <= a <= 1.0 for row in matrix.rows for a in row)
        report(7, f"ablation completes: {label}", ok,
               f"final average {summarize(matrix)['final_average']:.4f}; "
               "published ablation deltas not asserted (not reproducible "
               "at desk scale)")


# ---------------------------------------------------------------------------
# criterion 8: Pearson/PCA oracles

def test_criterion_8_pearson_pca_oracles(report):
    rng = np.random.default_rng(8)

    X = rng.standard_normal((30, 6)) @ np.diag([6, 4, 2, 1, 0.5, 0.2])
    components, mean = pca_fit(X, k=3)
    C = np.cov((X - mean).T, bias=True)
    vals, vecs = np.linalg.eigh(C)
    top = vecs[:, np.argsort(vals)[::-1][:3]].T
    pca_err = max(np.max(np.abs(c - (r if c @ r > 0 else -r)))
                  for c, r in zip(components, top))
    ortho_err = np.max(np.abs(components @ components.T - np.eye(3)))
    report(8, "pca_fit matches eigendecomposition oracle (1e-8)",
           pca_err < 1e-8, f"err {pca_err:.2e}")
    report(8, "pca components orthonormal (1e-10)", ortho_err < 1e-10,
           f"err {ortho_err:.2e}")

    x, y = rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40)
    pearson_err = abs(pearson(x, y) - np.corrcoef(x, y)[0, 1])
    report(8, "pearson matches numpy corrcoef (1e-12)", pearson_err < 1e-12,
           f"err {pearson_err:.2e}")

    log = PrototypeHistoryLog()
    n = 4
    starts = rng.uniform(-1, 1, (n, 3))
    ends = rng.uniform(-1, 1, (n, 3))
    for c in range(n):
        log.add(1, c, starts[c])
        log.add(2, c, ends[c])
    F = rng.uniform(0, 1, (n, n))
    F = (F + F.T) / 2
    out = motion_similarity(log, F)
    motions = ends - starts
    dists = np.array([[np.linalg.norm(motions[i] - motions[j])
                       for j in range(n)] for i in range(n)])
    iu = np.triu_indices(n, k=1)
    want = np.corrcoef(F[iu], dists[iu])[0, 1]
    motion_err = abs(out["pearson_r"] - want)
    report(8, "motion_similarity matches brute-force oracle (1e-12)",
           motion_err < 1e-12, f"err {motion_err:.2e}")
