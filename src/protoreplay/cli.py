"""Command-line entry point.

Subcommands:
  run        execute a task protocol from a JSON config; writes accuracy.csv,
             manifest.json, prototype_history.csv, task1_latents.csv,
             encoder.npz and memory.bin into the output directory
  report     summarize an accuracy-matrix CSV
  footprint  print the memory-accounting parity report
  dynamics   project prototype trajectories and correlate motion against an
             externally supplied feature-similarity matrix
  gradcheck  run the finite-difference gradient suite

Exit codes: 0 success, 1 assertion failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import autodiff as ad
from .analysis import (AccuracyMatrix, PrototypeHistoryLog, motion_similarity,
                       pca_fit, prototype_trajectories, summarize)
from .autodiff import Tensor, grad_check
from .data import (Dataset, incremental_class_plan, load_idx, permuted_protocol,
                   split_protocol, synthetic_blobs, task_train_images)
from .encoder import init_encoder, param_count, reference_architecture, baseline_head
from .memory import EpisodicMemory, memory_footprint, save_memory
from .proto import (SamplingConfig, VariationalPrototype, batch_prototype,
                    mixed_classification_loss)
from .trainer import TrainerConfig, run_continual, _encode_images


class UsageError(Exception):
    pass


def _load_config(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}")


def _build_dataset(cfg: dict) -> Dataset:
    kind = cfg.get("kind", "synthetic")
    if kind == "synthetic":
        return synthetic_blobs(
            num_classes=cfg["num_classes"], dim=cfg["dim"],
            per_class_train=cfg["per_class_train"],
            per_class_test=cfg["per_class_test"],
            separation=cfg["separation"], seed=cfg.get("seed", 0),
            noise=cfg.get("noise", 1.0))
    if kind == "idx":
        train = load_idx(cfg["train_images"], cfg["train_labels"])
        test = load_idx(cfg["test_images"], cfg["test_labels"])
        subset = cfg.get("subset")
        if subset:
            train = train[:subset]
            test = test[:subset]
        classes = {img.label for img in train}
        missing = sorted(classes - {img.label for img in test})
        if missing:
            raise UsageError(f"dataset: the test split has no images of classes {missing}"
                             + (f" within the first {subset}" if subset else ""))
        return Dataset(train, test, num_classes=len(classes))
    raise UsageError(f"unknown dataset kind {kind!r}")


def _build_schedule(protocol: str, schedule_cfg: dict, dataset: Dataset, seed: int):
    if protocol == "incremental_domain":
        return permuted_protocol(dataset, schedule_cfg.get("num_tasks", 5), seed)
    if protocol == "incremental_class":
        if "kind" in schedule_cfg:
            return split_protocol(dataset, schedule_cfg["kind"],
                                  schedule_cfg.get("quota", 10), seed)
        plan = incremental_class_plan(
            dataset.num_classes,
            schedule_cfg.get("first_task_classes", 2),
            schedule_cfg.get("classes_per_task", 1),
            schedule_cfg.get("quota", 10))
        return split_protocol(dataset, plan, seed=seed)
    raise UsageError(f"unknown protocol {protocol!r}")


class _Section(dict):
    """One JSON object of a run config that records the keys the run reads.

    `check_read` then names every key that nothing read, in this section or
    in the ones taken with `section`: a misspelling, or a key that belongs
    to another dataset kind or schedule form.
    """

    def __init__(self, data, where: str):
        if not isinstance(data, dict):
            raise UsageError(f"{where} must be a JSON object")
        super().__init__(data)
        self.where = where
        self.read = set()
        self.parts = []

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def section(self, key) -> "_Section":
        part = _Section(self.get(key, {}), key)
        self.parts.append(part)
        return part

    def check_read(self):
        unread = sorted(set(self) - self.read)
        if unread:
            raise UsageError(f"unknown {self.where} key(s) {', '.join(map(repr, unread))}")
        for part in self.parts:
            part.check_read()


def _trainer_config(cfg: _Section) -> TrainerConfig:
    ablation = cfg.section("ablation")
    sampling = SamplingConfig(Z=cfg.get("samples", 50), tau=cfg.get("tau", 1.0),
                              D=cfg.get("latent_dim", 500))
    return TrainerConfig(
        sampling=sampling,
        learning_rate=cfg.get("learning_rate", 0.05),
        epochs_per_task=cfg.get("epochs_per_task", 20),
        batch_per_class=cfg.get("batch_per_class", 10),
        support_fraction=cfg.get("support_fraction", 0.5),
        replay_weight=cfg.get("replay_weight", 1.0),
        seed=cfg.get("seed", 0),
        per_class_quota=cfg.get("per_class_quota", 1),
        budget_elements=cfg.get("budget_elements"),
        unweighted_distance=ablation.get("unweighted_distance", False),
        replay_order=ablation.get("replay_order", "forward"),
        recall=ablation.get("recall", "mean_and_var"),
    )


def _architecture(cfg: dict, dataset: Dataset):
    arch = cfg.get("architecture", "synthetic_vector")
    D = cfg.get("latent_dim", 500)
    input_dim = dataset.train[0].pixels.size
    return reference_architecture(arch, latent_dim=D, input_dim=input_dim), D


def _save_encoder(params, path):
    arrays = {}
    for i, wb in enumerate(params.weights):
        if wb is None:
            continue
        arrays[f"w{i}"] = wb[0].data
        arrays[f"b{i}"] = wb[1].data
    layers = [{"kind": l.kind, "dims": list(l.dims), "padding": l.padding}
              for l in params.layers]
    arrays["layers_json"] = np.frombuffer(
        json.dumps({"layers": layers, "latent_dim": params.latent_dim}).encode(),
        dtype=np.uint8)
    np.savez(path, **arrays)


def cmd_run(args) -> int:
    import os
    cfg = _Section(_load_config(args.config), "config")
    tcfg = _trainer_config(cfg)
    dataset = _build_dataset(cfg.section("dataset"))
    schedule = _build_schedule(cfg.get("protocol", "incremental_class"),
                               cfg.section("schedule"), dataset,
                               cfg.get("seed", 0))
    layers, D = _architecture(cfg, dataset)
    cfg.check_read()
    os.makedirs(args.out, exist_ok=True)

    start = time.time()
    matrix, state = run_continual(dataset, schedule, layers, D, tcfg)
    wall = time.time() - start

    matrix.to_csv(os.path.join(args.out, "accuracy.csv"))

    log = PrototypeHistoryLog()
    for (t, c) in sorted(state.memory.prototype_history):
        log.add(t, c, state.memory.prototype_history[(t, c)].mean.data)
    log.to_csv(os.path.join(args.out, "prototype_history.csv"))

    # latent means of task-1 training images under the final encoder: the
    # basis source for the dynamics subcommand
    task1 = task_train_images(dataset, schedule.tasks[0])
    mean, _ = _encode_images(state.encoder, task1)
    with open(os.path.join(args.out, "task1_latents.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f"m{i}" for i in range(mean.data.shape[1])])
        for row in mean.data:
            writer.writerow([repr(float(v)) for v in row])

    _save_encoder(state.encoder, os.path.join(args.out, "encoder.npz"))
    save_memory(state.memory, os.path.join(args.out, "memory.bin"))

    report = memory_footprint(state.encoder, state.memory, "ours")
    manifest = {
        "config": cfg,
        "seed": cfg.get("seed", 0),
        "wall_time_seconds": wall,
        "footprint": {
            "network_params": report.network_params,
            "exemplar_elements": report.exemplar_elements,
            "prototype_elements": report.prototype_elements,
            "prototype_elements_full_history": report.prototype_elements_full_history,
            "total": report.total,
        },
        "final_average_accuracy": summarize(matrix)["final_average"],
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    print(f"run complete: final average accuracy "
          f"{manifest['final_average_accuracy']:.4f} ({wall:.1f}s)")
    return 0


def cmd_report(args) -> int:
    try:
        matrix = AccuracyMatrix.from_csv(args.matrix)
    except OSError as exc:
        raise UsageError(f"cannot read matrix {args.matrix}: {exc}")
    stats = summarize(matrix)
    for i, avg in enumerate(stats["average_accuracy"], start=1):
        print(f"after task {i}: average accuracy {avg:.4f}")
    print(f"final average accuracy: {stats['final_average']:.4f}")
    for j, fg in enumerate(stats["forgetting"], start=1):
        print(f"forgetting on task {j}: {fg:.4f}")
    return 0


def cmd_footprint(args) -> int:
    layers = reference_architecture(args.arch, latent_dim=args.latent_dim,
                                    input_dim=args.input_dim)
    if args.mode in ("baseline_sgd", "baseline_regularizer"):
        layers = baseline_head(layers, args.num_classes)
    params = init_encoder(layers, args.latent_dim or 500, seed=0, zero=True)
    memory = EpisodicMemory()
    if args.mode == "ours" and args.exemplars:
        from .data import Image
        shape = tuple(int(v) for v in args.exemplar_shape.split(","))
        D = args.latent_dim or 500
        for c in range(args.exemplars):
            memory.exemplars[c] = [Image(np.zeros(shape), c)]
            memory.prototype_history[(1, c)] = VariationalPrototype(
                1, c, Tensor(np.zeros(D)), Tensor(np.zeros(D)))
    report = memory_footprint(params, memory, args.mode)
    print(f"network parameters: {report.network_params:,}")
    if report.regularizer_params:
        print(f"regularizer parameters: {report.regularizer_params:,}")
    print(f"exemplar elements: {report.exemplar_elements:,}")
    print(f"prototype elements: {report.prototype_elements:,}")
    if report.prototype_elements_full_history != report.prototype_elements:
        print(f"prototype elements (full history): "
              f"{report.prototype_elements_full_history:,}")
    print(f"total: {report.total:,}")
    return 0


def _read_matrix_csv(path) -> np.ndarray:
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r]
    try:
        float(rows[0][0])
        data = rows
    except ValueError:
        data = rows[1:]
    return np.array([[float(v) for v in row] for row in data])


def cmd_dynamics(args) -> int:
    import os
    log = PrototypeHistoryLog.from_csv(args.history)
    if args.basis:
        vectors = _read_matrix_csv(args.basis)
    else:
        vectors = np.stack([m for _, _, m in log.records])
    components, mean = pca_fit(vectors, k=3)
    trajectories = prototype_trajectories(log, components, mean)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "trajectories.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["class_id", "task_id", "pc1", "pc2", "pc3"])
        for c in sorted(trajectories):
            for t, point in trajectories[c]:
                writer.writerow([c, t] + [repr(float(v)) for v in point])
    print(f"wrote trajectories for {len(trajectories)} classes")
    if args.similarity:
        F = _read_matrix_csv(args.similarity)
        result = motion_similarity(log, F)
        with open(os.path.join(args.out, "motion_distances.csv"), "w",
                  newline="") as f:
            writer = csv.writer(f)
            for row in result["motion_distance_matrix"]:
                writer.writerow([repr(float(v)) for v in row])
        print(f"pearson r (feature similarity vs motion distances): "
              f"{result['pearson_r']:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(0)
    tol = 1e-4
    failures = []

    def check(name, f, points):
        err = grad_check(f, points, epsilon=1e-5)
        status = "ok" if err < tol else "FAIL"
        print(f"{name:<26s} max relative error {err:.3e}  {status}")
        if err >= tol:
            failures.append(name)

    u = lambda *s: Tensor(rng.uniform(-1, 1, s))
    check("matmul", lambda a, b: ad.tsum(ad.matmul(a, b)), [u(3, 4), u(4, 2)])
    check("conv2d", lambda x, w: ad.tsum(ad.conv2d(x, w, padding=1)),
          [u(1, 2, 4, 4), u(3, 2, 3, 3)])
    check("maxpool2x2", lambda x: ad.tsum(ad.maxpool2x2(x)), [u(1, 2, 4, 4)])
    check("conv2d k=5 pad=2", lambda x, w: ad.tsum(ad.square(ad.conv2d(x, w, padding=2))),
          [u(2, 3, 6, 6), u(4, 3, 5, 5)])
    # as in the encoder, pooling follows a ReLU: a block with no positive
    # input ties all four corners at zero, and the ReLU passes no gradient
    # back from there, which keeps the central differences exact
    check("maxpool2x2 tied maxima", lambda x: ad.tsum(ad.maxpool2x2(ad.relu(x))),
          [Tensor(rng.uniform(-1, 0.5, (1, 2, 6, 6)))])
    check("relu", lambda x: ad.tsum(ad.relu(x)), [u(5)])
    check("add", lambda a, b: ad.tsum(ad.add(a, b)), [u(4), u(4)])
    check("sub", lambda a, b: ad.tsum(ad.sub(a, b)), [u(4), u(4)])
    check("elementwise_mul", lambda a, b: ad.tsum(ad.mul(a, b)), [u(4), u(4)])
    check("exp", lambda x: ad.tsum(ad.exp(x)), [u(4)])
    check("scale", lambda x: ad.tsum(ad.scale(x, 2.5)), [u(4)])
    check("sum", lambda x: ad.tsum(x), [u(3, 3)])
    check("mean_over_axis", lambda x: ad.tsum(ad.mean_over_axis(x, 0)), [u(3, 3)])
    check("square", lambda x: ad.tsum(ad.square(x)), [u(4)])
    check("sqrt", lambda x: ad.tsum(ad.sqrt(x)),
          [Tensor(rng.uniform(0.5, 1.5, 4))])

    check("take_rows", lambda x: ad.tsum(ad.square(ad.take_rows(x, [2, 0, 2, 1, 2]))),
          [u(3, 2)])

    # end-to-end losses on one encoded toy batch: rows 0-3 hold classes
    # 0, 0, 1, 1; rows 4-5 hold classes 2, 3, which only stored prototypes cover
    from .encoder import LayerSpec, encode_batch, init_encoder

    layers = [LayerSpec("flatten"), LayerSpec("fullyconnected", (6, 8)),
              LayerSpec("relu"), LayerSpec("fullyconnected", (8, 4))]
    params = init_encoder(layers, latent_dim=2, seed=1)
    pixels = rng.uniform(0, 1, (6, 1, 1, 6))
    scfg = SamplingConfig(Z=3, tau=1.0, D=2)
    stored = [VariationalPrototype(1, c, Tensor(rng.uniform(-1, 1, 2)),
                                   Tensor(rng.uniform(-0.5, 0.5, 2)))
              for c in (0, 1, 2, 3)]

    # (name, (class, row) of each online prototype's support, (class, row)
    # of each query, frozen prototypes, noise seed)
    cases = [("classification_loss", [(0, 0), (1, 2)], [(0, 1), (1, 3)], [], 7),
             ("replay_loss", [], [(0, 0), (0, 1), (1, 2), (1, 3)], stored[:2], 9),
             ("mixed_classification_loss", [(0, 0), (1, 2)],
              [(0, 1), (1, 3), (2, 4), (3, 5)], stored[2:], 11)]
    for name, support, queries, frozen, seed in cases:
        def loss(*weights):
            mean, logvar = encode_batch(params, pixels)
            online = [batch_prototype(1, c, mean, logvar, [i]) for c, i in support]
            rows = [i for _, i in queries]
            return mixed_classification_loss(
                ad.take_rows(mean, rows), ad.take_rows(logvar, rows), [c for c, _ in queries],
                online, frozen, scfg, np.random.default_rng(seed))
        check(name, loss, params.parameters())

    if failures:
        print(f"gradient check failed for: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("all gradient checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoreplay",
        description="Variational prototype replay continual-learning engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a protocol from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="summarize an accuracy-matrix CSV")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("footprint", help="memory accounting parity report")
    p.add_argument("--arch", required=True,
                   choices=["cifar_like_32", "mnist_like_28", "synthetic_vector"])
    p.add_argument("--mode", required=True,
                   choices=["ours", "baseline_sgd", "baseline_regularizer"])
    p.add_argument("--latent-dim", type=int, default=None)
    p.add_argument("--input-dim", type=int, default=None)
    p.add_argument("--num-classes", type=int, default=10)
    p.add_argument("--exemplars", type=int, default=0,
                   help="stored exemplar count (one per class)")
    p.add_argument("--exemplar-shape", default="3,32,32")
    p.set_defaults(func=cmd_footprint)

    p = sub.add_parser("dynamics", help="prototype trajectory analysis")
    p.add_argument("--history", required=True)
    p.add_argument("--basis", default=None,
                   help="CSV of task-1 latent vectors for the PCA basis")
    p.add_argument("--similarity", default=None,
                   help="class-by-class feature-similarity CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
