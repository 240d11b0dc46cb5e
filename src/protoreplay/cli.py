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
import ctypes
import glob
import json
import os
import sys
import time
from numbers import Integral, Real

import numpy as np

from . import autodiff as ad
from .analysis import (AccuracyMatrix, PrototypeHistoryLog, motion_similarity,
                       pca_fit, prototype_trajectories, read_csv, summarize, write_csv)
from .autodiff import Tensor, grad_check
from .data import (Dataset, Image, incremental_class_plan, load_idx, permuted_protocol,
                   split_protocol, synthetic_blobs, task_train_images)
from .encoder import (LayerSpec, baseline_head, encode_batch, init_encoder,
                      reference_architecture)
from .memory import EpisodicMemory, memory_footprint, save_memory
from .proto import (SamplingConfig, VariationalPrototype, batch_prototype, check_type,
                    mixed_classification_loss)
from .trainer import TrainerConfig, check_schedule, run_continual, _encode_images


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


def _build_dataset(cfg: "_Section") -> Dataset:
    kind = cfg.get("kind", "synthetic")
    if kind == "synthetic":
        count = lambda key: cfg.number(key, Integral, least=1)
        return synthetic_blobs(
            num_classes=count("num_classes"), dim=count("dim"),
            per_class_train=count("per_class_train"),
            per_class_test=count("per_class_test"),
            separation=cfg.number("separation", Real),
            seed=cfg.number("seed", Integral, 0, least=0),
            noise=cfg.number("noise", Real, 1.0))
    if kind == "idx":
        train = load_idx(cfg["train_images"], cfg["train_labels"])
        test = load_idx(cfg["test_images"], cfg["test_labels"])
        subset = cfg.number("subset", Integral, least=1) if "subset" in cfg else None
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


def _build_schedule(protocol: str, schedule_cfg: "_Section", dataset: Dataset, seed: int):
    count = lambda key, default, least=1: schedule_cfg.number(key, Integral, default, least)
    if protocol == "incremental_domain":
        return permuted_protocol(dataset, count("num_tasks", 5), seed)
    if protocol == "incremental_class":
        # a quota of 0 leaves a task without images, which check_schedule names
        quota = count("quota", 10, least=0)
        if "kind" in schedule_cfg:
            return split_protocol(dataset, schedule_cfg["kind"], quota, seed)
        plan = incremental_class_plan(dataset.num_classes, count("first_task_classes", 2),
                                      count("classes_per_task", 1), quota)
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
        if key not in self:
            raise UsageError(f"{self.where}.{key} is required")
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def number(self, key, kind, default=None, least=None):
        """``key``'s value, checked to be a ``kind`` (Integral or Real) and at
        least ``least``; a missing key takes ``default``, or is an error
        when there is none."""
        name = f"{self.where}.{key}"
        value = self[key] if default is None else self.get(key, default)
        check_type(name, value, kind)
        if least is not None and value < least:
            raise UsageError(f"{name} must be >= {least}, got {value}")
        return value

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
    """The run's TrainerConfig from the keys the config sets; the dataclasses
    hold every default."""
    def given(section, keys, fields=None):
        return {f: section[k] for k, f in zip(keys, fields or keys) if k in section}

    sampling = given(cfg, ("samples", "tau", "latent_dim"), ("Z", "tau", "D"))
    ablation = cfg.section("ablation")
    if "unweighted_distance" in ablation:
        unweighted = ablation["unweighted_distance"]
        if not isinstance(unweighted, bool):
            raise UsageError(f"ablation.unweighted_distance must be true or false, "
                             f"got {unweighted!r}")
        sampling["weighted"] = not unweighted
    return TrainerConfig(
        SamplingConfig(**sampling),
        **given(cfg, ("learning_rate", "epochs_per_task", "batch_per_class",
                      "support_fraction", "replay_weight", "seed", "per_class_quota",
                      "budget_elements")),
        **given(ablation, ("replay_order", "recall")))


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


def _blas_threads():
    """The thread count numpy's bundled OpenBLAS runs, or None where no
    OpenBLAS library with a thread-count query is found beside numpy."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _environment() -> dict:
    """What a run's bits depend on besides its config and seed: the numpy and
    BLAS builds, the BLAS thread setting and the thread count it gives, and
    the CPUs the process may use."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "usable_cpus": ad.usable_cpus(),
    }


def cmd_run(args) -> int:
    cfg = _Section(_load_config(args.config), "config")
    tcfg = _trainer_config(cfg)
    dataset = _build_dataset(cfg.section("dataset"))
    schedule = _build_schedule(cfg.get("protocol", "incremental_class"),
                               cfg.section("schedule"), dataset, tcfg.seed)
    D = tcfg.sampling.D
    arch, image = cfg.get("architecture", "synthetic_vector"), dataset.train[0].pixels
    layers = reference_architecture(arch, latent_dim=D, input_dim=image.size)
    cfg.check_read()
    try:        # one training image through the untrained network, before --out is made
        with ad.no_grad():
            encode_batch(init_encoder(layers, D, zero=True), image[None])
    except ad.ShapeError as exc:
        raise UsageError(f"architecture {arch!r} does not fit the dataset's {image.shape} "
                         f"images: {exc}") from None
    check_schedule(dataset, schedule, tcfg)
    made, path = [], os.path.abspath(args.out)     # the directories makedirs creates
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(args.out, exist_ok=True)

    start = time.time()
    try:
        # a diverging run's distances overflow before the finite-loss check
        # stops it; that check reports the fault, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            matrix, state = run_continual(dataset, schedule, layers, D, tcfg)
    except FloatingPointError:      # nothing is written to --out before this point
        for path in made:           # innermost first
            os.rmdir(path)
        raise
    wall = time.time() - start

    matrix.to_csv(os.path.join(args.out, "accuracy.csv"))

    log = PrototypeHistoryLog()
    for (t, c) in sorted(state.memory.prototype_history):
        log.add(t, c, state.memory.prototype_history[(t, c)].mean.data)
    log.to_csv(os.path.join(args.out, "prototype_history.csv"))

    # latent means of task-1 training images under the final encoder: the
    # basis source for the dynamics subcommand
    task1 = task_train_images(dataset, schedule.tasks[0])
    with ad.no_grad():
        mean, _ = _encode_images(state.encoder, task1)
    write_csv(os.path.join(args.out, "task1_latents.csv"),
              [f"m{i}" for i in range(mean.data.shape[1])], mean.data)

    _save_encoder(state.encoder, os.path.join(args.out, "encoder.npz"))
    save_memory(state.memory, os.path.join(args.out, "memory.bin"))

    report = memory_footprint(state.encoder, state.memory, "ours")
    manifest = {
        "config": cfg,
        "seed": tcfg.seed,
        "wall_time_seconds": wall,
        "footprint": {
            "network_params": report.network_params,
            "exemplar_elements": report.exemplar_elements,
            "prototype_elements": report.prototype_elements,
            "prototype_elements_full_history": report.prototype_elements_full_history,
            "total": report.total,
        },
        "final_average_accuracy": summarize(matrix)["final_average"],
        "environment": _environment(),
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


def _exemplar_shape(text: str) -> tuple:
    """``--exemplar-shape`` as a (C, H, W) tuple of positive integers."""
    try:
        shape = tuple(int(v) for v in text.split(","))
    except ValueError:
        shape = ()
    if len(shape) != 3 or min(shape) < 1:
        raise UsageError(
            f"--exemplar-shape must be three positive integers C,H,W, got {text!r}")
    return shape


def cmd_footprint(args) -> int:
    for flag, value, low in (("--latent-dim", args.latent_dim, 1),
                             ("--input-dim", args.input_dim, 1),
                             ("--exemplars", args.exemplars, 0)):
        if value is not None and value < low:
            raise UsageError(f"{flag} must be >= {low}, got {value}")
    shape = _exemplar_shape(args.exemplar_shape)
    layers = reference_architecture(args.arch, latent_dim=args.latent_dim,
                                    input_dim=args.input_dim)
    D = layers[-1].dims[1] // 2             # the latent width the network is built at
    if args.mode in ("baseline_sgd", "baseline_regularizer"):
        layers = baseline_head(layers, args.num_classes)
    params = init_encoder(layers, D, seed=0, zero=True)
    memory = EpisodicMemory()
    if args.mode == "ours" and args.exemplars:
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
    """The numeric rows of a CSV file as a matrix; a first row that does not
    start with a number is a header. Blank lines are skipped."""
    rows = [r for r in read_csv(path) if r]
    if rows:
        try:
            float(rows[0][0])
        except ValueError:
            rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: no numeric rows")
    if len({len(r) for r in rows}) > 1:
        raise ValueError(f"{path}: rows of different lengths")
    try:
        return np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_dynamics(args) -> int:
    log = PrototypeHistoryLog.from_csv(args.history)
    if args.basis:
        vectors = _read_matrix_csv(args.basis)
        if log.records and vectors.shape[1] != log.records[0][2].size:
            raise ValueError(f"{args.basis}: rows of {vectors.shape[1]} values, but the "
                             f"means in {args.history} have {log.records[0][2].size}")
    elif log.records:
        vectors = np.stack([m for _, _, m in log.records])
    else:
        raise ValueError(f"{args.history}: no prototype records to fit a basis on; "
                         "pass --basis")
    try:
        components, mean = pca_fit(vectors, k=3)
    except ValueError as exc:
        raise ValueError(f"{args.basis or args.history}: {exc}") from None
    trajectories = prototype_trajectories(log, components, mean)
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "trajectories.csv"),
              ["class_id", "task_id", "pc1", "pc2", "pc3"],
              [[c, t, *point] for c in sorted(trajectories) for t, point in trajectories[c]])
    print(f"wrote trajectories for {len(trajectories)} classes")
    if args.similarity:
        F = _read_matrix_csv(args.similarity)
        result = motion_similarity(log, F)
        write_csv(os.path.join(args.out, "motion_distances.csv"), None,
                  result["motion_distance_matrix"])
        print(f"pearson r (feature similarity vs motion distances): "
              f"{result['pearson_r']:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(0)
    errors = {case[0]: ad.check_case(case) for case in ad.GRAD_CASES}
    # as in the encoder, pooling follows a ReLU: a block with no positive
    # input ties all four corners at zero, and the ReLU passes no gradient
    # back from there, which keeps the central differences exact
    errors["maxpool2x2 tied maxima"] = grad_check(lambda x: ad.tsum(ad.maxpool2x2(ad.relu(x))),
                                                  Tensor(rng.uniform(-1, 0.5, (1, 2, 6, 6))))

    # end-to-end losses on one encoded toy batch: rows 0-3 hold classes
    # 0, 0, 1, 1; rows 4-5 hold classes 2, 3, which only stored prototypes cover
    layers = [LayerSpec("flatten"), LayerSpec("fullyconnected", (6, 8)),
              LayerSpec("relu"), LayerSpec("fullyconnected", (8, 4))]
    params = init_encoder(layers, latent_dim=2, seed=1)
    pixels = rng.uniform(0, 1, (6, 1, 1, 6))
    scfg = SamplingConfig(Z=3, tau=1.0, D=2)
    stored = [VariationalPrototype(1, c, Tensor(rng.uniform(-1, 1, 2)),
                                   Tensor(rng.uniform(-0.5, 0.5, 2))) for c in range(4)]

    # (name, (class, row) of each online prototype's support, (class, row)
    # of each query, frozen prototypes, noise seed)
    cases = [("loss, online prototypes", [(0, 0), (1, 2)], [(0, 1), (1, 3)], [], 7),
             ("loss, frozen prototypes", [], [(0, 0), (0, 1), (1, 2), (1, 3)], stored[:2], 9),
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
        errors[name] = grad_check(loss, params.parameters())

    failures = [name for name, err in errors.items() if err >= 1e-4]
    for name, err in errors.items():
        print(f"{name:<26s} max relative error {err:.3e}  {'FAIL' if name in failures else 'ok'}")
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
    except (UsageError, OSError, ValueError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
