"""Per-task training loop, SGD, evaluation, and the SGD/L2 baselines.

Task flow at task T: every batch scores new-class queries against online
new-class prototypes (plus stored previous-task prototypes in the
incremental-class setting, variance-weighted), adds one replay term per
previous task over the stored exemplars, and takes one SGD step. At task
end the new-class prototypes are recomputed from the full task data, the
old-class prototypes are recomputed from stored exemplars, and both are
stored under task T; exemplars are then stored and rebalanced to budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import autodiff as ad
from . import memory as mem
from .analysis import AccuracyMatrix
from .autodiff import Tensor
from .data import Dataset, Image, ProtocolSchedule, task_test_images, task_train_images
from .encoder import (EncoderParams, baseline_head, encode_batch, forward, grow_head,
                      init_encoder)
from .proto import (SamplingConfig, VariationalPrototype, batch_prototype,
                    logvar_match_loss, mixed_classification_loss)

REPLAY_ORDERS = ("forward", "backward", "current_only")
RECALL_MODES = ("mean_and_var", "mean_only", "var_only")


@dataclass
class TrainerConfig:
    sampling: SamplingConfig
    learning_rate: float = 0.05
    epochs_per_task: int = 20
    batch_per_class: int = 10
    support_fraction: float = 0.5
    replay_weight: float = 1.0
    seed: int = 0
    per_class_quota: int = 1
    budget_elements: Optional[int] = None
    unweighted_distance: bool = False
    replay_order: str = "forward"
    recall: str = "mean_and_var"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs_per_task < 1:
            raise ValueError("epochs_per_task must be >= 1")
        if self.batch_per_class < 2:
            raise ValueError("batch_per_class must be >= 2: each class batch is "
                             "split into a support and a query part")
        if not 0.0 < self.support_fraction < 1.0:
            raise ValueError("support_fraction must lie in (0, 1)")
        if self.replay_weight < 0:
            raise ValueError("replay weight must be non-negative")
        if self.replay_order not in REPLAY_ORDERS:
            raise ValueError(f"replay_order must be one of {REPLAY_ORDERS}")
        if self.recall not in RECALL_MODES:
            raise ValueError(f"recall must be one of {RECALL_MODES}")

    def effective_sampling(self) -> SamplingConfig:
        weighted = self.sampling.weighted and not self.unweighted_distance \
            and self.recall != "mean_only"
        return replace(self.sampling, weighted=weighted)


@dataclass
class TrainingState:
    encoder: EncoderParams
    memory: mem.EpisodicMemory
    rng: np.random.Generator
    noise: np.random.Generator
    current_task: int = 0
    classes_seen: Dict[int, int] = field(default_factory=dict)  # class -> intro task


def make_state(encoder: EncoderParams, cfg: TrainerConfig) -> TrainingState:
    return TrainingState(
        encoder=encoder,
        memory=mem.EpisodicMemory(budget_elements=cfg.budget_elements),
        rng=np.random.default_rng([cfg.seed, 1]),
        noise=np.random.default_rng([cfg.seed, 2]),
    )


def split_support_query(class_batch: List[Image], support_fraction: float,
                        rng) -> Tuple[List[Image], List[Image]]:
    """Disjoint covering partition; floor on the support size, at least one
    image on each side."""
    n = len(class_batch)
    if n < 2:
        raise ValueError("need at least 2 images per class to split; "
                         "use stored prototypes for singleton batches")
    n_support = min(max(1, int(n * support_fraction)), n - 1)
    order = rng.permutation(n)
    support = [class_batch[i] for i in order[:n_support]]
    query = [class_batch[i] for i in order[n_support:]]
    return support, query


def sgd_step(params: EncoderParams, learning_rate: float):
    """w <- w - lr * grad on every parameter, then clear gradients."""
    tensors = params.parameters()
    for t in tensors:
        if t.grad is None:
            raise ValueError("sgd_step: parameter has no gradient; run backward first")
    for t in tensors:
        t.data -= learning_rate * t.grad
        t.grad = None


def _sgd_update(params: EncoderParams, loss: Tensor, learning_rate: float,
                task_id: int, epoch: int, epochs: int, batch: int, batches: int):
    """One SGD step on ``loss``. A non-finite loss or gradient stops the run,
    naming where it happened, before any parameter moves."""
    where = f"task {task_id}, epoch {epoch + 1}/{epochs}, batch {batch + 1}/{batches}"
    if not np.isfinite(loss.item()):
        raise FloatingPointError(f"non-finite loss {loss.item()} at {where}")
    tensors = params.parameters()
    for p in tensors:
        p.grad = np.zeros_like(p.data)
    loss.backward()
    for i, p in enumerate(tensors):
        if not np.isfinite(p.grad).all():
            raise FloatingPointError(f"non-finite gradient in parameter {i} "
                                     f"(shape {p.shape}) at {where}")
    sgd_step(params, learning_rate)


def _encode_images(params: EncoderParams, images: List[Image]):
    pixels = np.stack([img.pixels for img in images])
    return encode_batch(params, pixels)


def _replay_task_order(previous_tasks: List[int], order: str) -> List[int]:
    if order == "forward":
        return sorted(previous_tasks)
    if order == "backward":
        return sorted(previous_tasks, reverse=True)
    return [max(previous_tasks)]


def _zeroed_logvars(protos: List[VariationalPrototype]) -> List[VariationalPrototype]:
    return [VariationalPrototype(p.task_id, p.class_id, Tensor(p.mean.data.copy()),
                                 Tensor(np.zeros_like(p.logvar.data)))
            for p in protos]


def _backing(memory: mem.EpisodicMemory, task_id: int, class_id: int,
             protocol: str) -> List[Image]:
    """The stored exemplars behind the (task, class) prototype; in the permuted-domain
    setting only that task's, since their pixels carry its permutation."""
    return [img for img in memory.exemplars.get(class_id, [])
            if protocol != "incremental_domain" or img.task == task_id]


def train_task(state: TrainingState, task_id: int, task_images: List[Image],
               cfg: TrainerConfig, protocol: str = "incremental_class") -> TrainingState:
    if cfg.sampling.D != state.encoder.latent_dim:
        raise ValueError(f"sampling D = {cfg.sampling.D} differs from the encoder's "
                         f"latent width {state.encoder.latent_dim}")
    by_class: Dict[int, List[Image]] = {}
    for img in task_images:
        by_class.setdefault(img.label, []).append(img)
    new_classes = sorted(by_class)
    if protocol == "incremental_class":
        repeated = [c for c in new_classes if c in state.classes_seen]
        if repeated:
            raise ValueError(
                f"incremental-class protocol: classes {repeated} repeat at task {task_id}")
    classes_after = len(set(state.classes_seen) | set(new_classes))
    quota = cfg.per_class_quota
    if state.memory.budget_elements is not None:
        quota = mem.budget_quota(state.memory, classes_after, task_images[0].elements)
    state.current_task = task_id
    scfg = cfg.effective_sampling()
    previous_tasks = sorted({t for (t, _) in state.memory.prototype_history})

    old_protos: List[VariationalPrototype] = []
    if protocol == "incremental_class" and previous_tasks:
        old_protos = [p for p in state.memory.task_prototypes(task_id - 1)
                      if p.class_id not in by_class]
        if cfg.recall == "mean_only":
            old_protos = _zeroed_logvars(old_protos)

    # Replay terms in replay order: (targets, exemplar rows, labels). Each
    # stored exemplar gets one row of the exemplar block, however many terms
    # use it; the memory does not change until the task ends.
    replay_terms = []
    exemplars: List[Image] = []
    row_of: Dict[int, int] = {}     # id(exemplar) -> its row in the block
    if previous_tasks and cfg.replay_weight > 0:
        for t in _replay_task_order(previous_tasks, cfg.replay_order):
            stored = state.memory.task_prototypes(t)
            rows = []
            for c in sorted({p.class_id for p in stored}):
                for img in _backing(state.memory, t, c, protocol):
                    if id(img) not in row_of:
                        row_of[id(img)] = len(exemplars)
                        exemplars.append(img)
                    rows.append(row_of[id(img)])
            if rows:
                targets = _zeroed_logvars(stored) if cfg.recall == "mean_only" else stored
                replay_terms.append((targets, rows, [exemplars[r].label for r in rows]))

    for epoch in range(cfg.epochs_per_task):
        chunks: Dict[int, List[List[Image]]] = {}
        n_batches = 0
        for c in new_classes:
            imgs = by_class[c]
            order = state.rng.permutation(len(imgs))
            shuffled = [imgs[i] for i in order]
            chunks[c] = [shuffled[i:i + cfg.batch_per_class]
                         for i in range(0, len(shuffled), cfg.batch_per_class)]
            n_batches = max(n_batches, len(chunks[c]))

        for b in range(n_batches):
            # one encoder pass: each class's support then query images, then
            # the exemplar block
            images: List[Image] = []
            splits = []                   # (class, support rows, query rows)
            for c in new_classes:
                if b >= len(chunks[c]) or len(chunks[c][b]) < 2:
                    continue
                support, query = split_support_query(
                    chunks[c][b], cfg.support_fraction, state.rng)
                n = len(images)
                images += support + query
                splits.append((c, range(n, n + len(support)),
                               range(n + len(support), len(images))))
            if not splits:
                continue
            mean, logvar = _encode_images(state.encoder, images + exemplars)

            online = [batch_prototype(task_id, c, mean, logvar, s) for c, s, _ in splits]
            rows = [r for _, _, q in splits for r in q]
            labels = [c for c, _, q in splits for _ in q]
            loss = mixed_classification_loss(ad.take_rows(mean, rows),
                                             ad.take_rows(logvar, rows), labels,
                                             online, old_protos, scfg, state.noise)
            replay_sum = None
            for targets, ex_rows, ex_labels in replay_terms:
                rows = [len(images) + r for r in ex_rows]
                if cfg.recall == "var_only":
                    term = logvar_match_loss(ad.take_rows(logvar, rows), ex_labels, targets)
                else:
                    term = mixed_classification_loss(
                        ad.take_rows(mean, rows), ad.take_rows(logvar, rows), ex_labels,
                        [], targets, scfg, state.noise)
                replay_sum = term if replay_sum is None else ad.add(replay_sum, term)
            if replay_sum is not None:
                loss = ad.add(loss, ad.scale(replay_sum, cfg.replay_weight))
            _sgd_update(state.encoder, loss, cfg.learning_rate, task_id,
                        epoch, cfg.epochs_per_task, b, n_batches)

    # End of task: freeze prototypes, all groups from one encoder pass. The
    # new classes' prototypes come from the full task data. Old-class ones
    # are refreshed from the replayed exemplars; with replay disabled those
    # images never pass through the network, so the stored prototypes stay
    # at their last coordinates. Class ids repeat across permuted-domain
    # tasks, so there each previous task's (task, class) entry is replaced
    # in place rather than re-stored under task_id.
    groups = [(task_id, c, by_class[c]) for c in new_classes]
    if cfg.replay_weight > 0:
        if protocol == "incremental_domain":
            keys = [(t, c) for t in previous_tasks for c in sorted(state.memory.exemplars)]
        else:
            keys = [(task_id, c) for c in sorted(state.memory.exemplars) if c not in by_class]
        groups += [(t, c, imgs) for t, c in keys
                   if (imgs := _backing(state.memory, t, c, protocol))]
    mean, logvar = _encode_images(state.encoder,
                                  [img for _, _, imgs in groups for img in imgs])
    ends = np.cumsum([len(imgs) for _, _, imgs in groups])
    protos = [batch_prototype(t, c, mean, logvar, range(end - len(imgs), end))
              for (t, c, imgs), end in zip(groups, ends)]
    mem.store_prototypes(state.memory, task_id, [p for p in protos if p.task_id == task_id])
    for p in protos:
        if p.task_id != task_id:
            state.memory.prototype_history[(p.task_id, p.class_id)] = VariationalPrototype(
                p.task_id, p.class_id, p.mean.detach(), p.logvar.detach())

    mem.store_exemplars(state.memory, task_id, by_class, quota, state.rng)
    mem.rebalance(state.memory, classes_after, state.rng)

    for c in new_classes:
        state.classes_seen.setdefault(c, task_id)
    return state


def evaluate(state: TrainingState, test_images: List[Image],
             cfg: TrainerConfig,
             prototype_scope: str = "latest") -> Tuple[float, Dict[int, float]]:
    """Deterministic nearest-prototype rule on mean vectors; ties go to the
    lowest class id. ``prototype_scope`` selects the candidate set: "latest"
    uses the most recent stored prototype per class; "history" uses every
    stored (task, class) prototype and predicts the class of the nearest one
    (the permuted-domain rule, where each task keeps its own coordinates).
    Distances are unweighted Euclidean, so the rule reads nothing from
    ``cfg``: a log-variance weighting would systematically shrink distances
    for high-variance classes at test time."""
    if prototype_scope not in ("latest", "history"):
        raise ValueError(f"unknown prototype_scope {prototype_scope!r}")
    if prototype_scope == "latest":
        latest = state.memory.latest_prototypes()
        protos = [latest[c] for c in sorted(latest)]
    else:
        protos = [state.memory.prototype_history[key]
                  for key in sorted(state.memory.prototype_history)]
    classes = sorted({p.class_id for p in protos})
    for img in test_images:
        if img.label not in classes:
            raise ValueError(f"test label {img.label} has no stored prototype")
    mean, _ = _encode_images(state.encoder, test_images)
    emb = mean.data
    dists = np.stack([np.linalg.norm(emb - p.mean.data, axis=1) for p in protos],
                     axis=1)                                        # (N, P)
    preds = np.array([p.class_id for p in protos])[dists.argmin(axis=1)]
    truth = np.array([img.label for img in test_images])
    hit = preds == truth
    per_class = {c: np.count_nonzero(hit[truth == c]) / np.count_nonzero(truth == c)
                 for c in classes if np.any(truth == c)}
    return np.count_nonzero(hit) / len(test_images), per_class


def run_continual(dataset: Dataset, schedule: ProtocolSchedule,
                  layers, latent_dim: int, cfg: TrainerConfig
                  ) -> Tuple[AccuracyMatrix, TrainingState]:
    """Train the full task sequence and fill the accuracy matrix."""
    encoder = init_encoder(layers, latent_dim, seed=cfg.seed)
    state = make_state(encoder, cfg)
    matrix = AccuracyMatrix()
    scope = "history" if schedule.kind == "incremental_domain" else "latest"
    for spec in schedule.tasks:
        train_task(state, spec.task_id, task_train_images(dataset, spec), cfg,
                   protocol=schedule.kind)
        row = []
        for past in schedule.tasks[:spec.task_id]:
            acc, _ = evaluate(state, task_test_images(dataset, past), cfg,
                              prototype_scope=scope)
            row.append(acc)
        matrix.add_row(row)
    return matrix, state


# ---------------------------------------------------------------------------
# baselines

def _softmax_ce_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    lse = ad.logsumexp(logits, axis=-1)
    true = ad.take_class(logits, labels)
    return ad.tmean(ad.sub(lse, true))


def _baseline_eval(params: EncoderParams, test_images: List[Image]) -> float:
    pixels = np.stack([img.pixels for img in test_images])
    logits = forward(params, Tensor(pixels)).data
    preds = logits.argmax(axis=1)
    labels = np.array([img.label for img in test_images])
    return float((preds == labels).mean())


def train_baseline(kind: str, dataset: Dataset, schedule: ProtocolSchedule,
                   encoder_layers, cfg: TrainerConfig,
                   l2_weight: float = 0.0) -> AccuracyMatrix:
    """SGD fine-tuning baselines over the same task stream.

    kind "sgd_naive": plain softmax cross-entropy per task. kind "l2": adds
    l2_weight * ||theta - theta_prev_task||^2 over parameters shared with the
    previous task (the head's newly added class columns are unconstrained).
    """
    if kind not in ("sgd_naive", "l2"):
        raise ValueError(f"unknown baseline {kind!r}")
    rng = np.random.default_rng([cfg.seed, 3])
    num_classes = len(schedule.tasks[0].class_ids)
    layers = baseline_head(encoder_layers, num_classes)
    params = init_encoder(layers, latent_dim=0, seed=cfg.seed)
    anchor = None           # previous task's parameters, aligned with parameters()
    matrix = AccuracyMatrix()

    for spec in schedule.tasks:
        if max(spec.class_ids) >= num_classes:
            num_classes = max(spec.class_ids) + 1
            params = grow_head(params, num_classes, seed=cfg.seed + spec.task_id)
        images = task_train_images(dataset, spec)
        pixels = np.stack([img.pixels for img in images])
        labels = np.array([img.label for img in images])
        batch = cfg.batch_per_class * len(spec.class_ids)
        starts = range(0, len(images), batch)
        for epoch in range(cfg.epochs_per_task):
            order = rng.permutation(len(images))
            for b, start in enumerate(starts):
                rows = order[start:start + batch]
                loss = _softmax_ce_logits(forward(params, Tensor(pixels[rows])), labels[rows])
                if kind == "l2" and anchor is not None and l2_weight > 0:
                    penalty = None
                    for p, prev in zip(params.parameters(), anchor):
                        # only the head grows, and only on its class axis
                        cur = p if p.shape == prev.shape else ad.narrow(p, -1, 0, prev.shape[-1])
                        term = ad.tsum(ad.square(ad.sub(cur, Tensor(prev))))
                        penalty = term if penalty is None else ad.add(penalty, term)
                    loss = ad.add(loss, ad.scale(penalty, l2_weight))
                _sgd_update(params, loss, cfg.learning_rate, spec.task_id,
                            epoch, cfg.epochs_per_task, b, len(starts))
        anchor = [p.data.copy() for p in params.parameters()]
        row = [_baseline_eval(params, task_test_images(dataset, past))
               for past in schedule.tasks[:spec.task_id]]
        matrix.add_row(row)
    return matrix
