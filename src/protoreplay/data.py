"""Datasets and task protocols.

Two protocol families are supported: incremental domain (a fixed label set
whose inputs get a fresh pixel permutation per task) and incremental class
(disjoint new classes per task, few-shot quotas). Real image data is read
from IDX files; a seeded Gaussian-blob generator provides desk-scale
substitutes.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


class FormatError(ValueError):
    """Raised for malformed input files."""


@dataclass
class Image:
    pixels: np.ndarray       # (C, H, W), float64
    label: int
    task: int = 0
    index: int = 0

    @property
    def elements(self) -> int:
        return int(self.pixels.size)


@dataclass
class Batch:
    """Images as arrays: ``pixels`` (N, C, H, W) and ``labels`` (N,)."""
    pixels: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def of(cls, images: List[Image]) -> "Batch":
        return cls(np.stack([img.pixels for img in images]),
                   np.array([img.label for img in images]))


@dataclass
class Dataset:
    train: List[Image]
    test: List[Image]
    num_classes: int


@dataclass
class TaskSpec:
    task_id: int
    class_ids: List[int]
    train_indices: Dict[int, List[int]]     # class -> indices into Dataset.train
    permutation: Optional[np.ndarray] = None  # flat pixel permutation, or None


@dataclass
class ProtocolSchedule:
    kind: str                 # incremental_domain | incremental_class
    tasks: List[TaskSpec]


# ---------------------------------------------------------------------------
# IDX loading

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_idx(path, magic: int, dims: int, what: str):
    """Read an IDX file of unsigned bytes: check its magic, then return its
    ``dims`` big-endian size fields and the payload they describe. Bytes
    past the payload are ignored."""
    with open(path, "rb") as f:
        n = 4 * (1 + dims)
        header = f.read(n)
        if len(header) < n:
            raise FormatError(f"{path}: truncated IDX header")
        found, *sizes = struct.unpack(f">{1 + dims}I", header)
        if found != magic:
            raise FormatError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
        size, left = math.prod(sizes), os.fstat(f.fileno()).st_size - n
        if size > left:
            raise FormatError(f"{path}: truncated {what} data: the header's sizes "
                              f"{tuple(sizes)} need {size} bytes, {left} follow")
        return sizes, f.read(size)


def load_idx(images_path, labels_path) -> List[Image]:
    """Read an IDX image/label file pair; pixels are scaled to [0, 1]."""
    (count, rows, cols), raw = _read_idx(images_path, _IDX_IMAGE_MAGIC, 3, "pixel")
    (n_labels,), labels = _read_idx(labels_path, _IDX_LABEL_MAGIC, 1, "label")
    if n_labels != count:
        raise FormatError(f"label count {n_labels} != image count {count}")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, 1, rows, cols)
    pixels = pixels.astype(np.float64) / 255.0
    return [Image(pixels[i], int(labels[i]), index=i) for i in range(count)]


# ---------------------------------------------------------------------------
# synthetic blobs

def synthetic_blobs(num_classes: int, dim: int, per_class_train: int,
                    per_class_test: int, separation: float, seed: int,
                    noise: float = 1.0) -> Dataset:
    """Isotropic Gaussian clusters at separation * u_c along fixed near-
    orthogonal unit directions; samples are stored as (1, 1, dim) vectors."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((num_classes, dim))
    for i in range(num_classes):     # Gram-Schmidt while rank allows
        for j in range(min(i, dim)):
            dirs[i] -= dirs[i] @ dirs[j] * dirs[j]
        n = np.linalg.norm(dirs[i])
        if n < 1e-9:
            dirs[i] = rng.standard_normal(dim)
            n = np.linalg.norm(dirs[i])
        dirs[i] /= n
    centers = separation * dirs

    def draw(n_per_class, offset):
        images = []
        for c in range(num_classes):
            pts = centers[c] + noise * rng.standard_normal((n_per_class, dim))
            for k in range(n_per_class):
                images.append(Image(pts[k].reshape(1, 1, dim), c, index=offset + k))
        return images

    return Dataset(draw(per_class_train, 0), draw(per_class_test, per_class_train),
                   num_classes)


# ---------------------------------------------------------------------------
# protocols

def _indices_by_class(images: List[Image]) -> Dict[int, List[int]]:
    by_class: Dict[int, List[int]] = {}
    for i, img in enumerate(images):
        by_class.setdefault(img.label, []).append(i)
    return by_class


def permuted_protocol(base: Dataset, num_tasks: int, seed: int) -> ProtocolSchedule:
    """Identity permutation for task 1, an independent fixed pixel permutation
    for each later task; all classes are active in every task."""
    if num_tasks < 1:
        raise ValueError(f"num_tasks must be >= 1, got {num_tasks}")
    rng = np.random.default_rng(seed)
    by_class = _indices_by_class(base.train)
    classes = sorted(by_class)
    n_pixels = base.train[0].pixels.size
    tasks = []
    for t in range(1, num_tasks + 1):
        perm = None if t == 1 else rng.permutation(n_pixels)
        tasks.append(TaskSpec(t, classes, {c: list(by_class[c]) for c in classes},
                              permutation=perm))
    return ProtocolSchedule("incremental_domain", tasks)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _plan_entry(t: int, entry):
    """Task ``t``'s plan entry as (class_ids, quota): a list of integer class
    ids and a non-negative integer or None, else a ValueError naming it."""
    if (isinstance(entry, (list, tuple)) and len(entry) == 2
            and isinstance(entry[0], (list, tuple)) and all(map(_is_int, entry[0]))
            and (entry[1] is None or _is_int(entry[1]) and entry[1] >= 0)):
        return entry
    raise ValueError(f"schedule plan entry {t} is {entry!r}, not a (class_ids, quota) pair "
                     "of integer class ids and a non-negative integer or null quota")


def split_protocol(base: Dataset, schedule_kind, few_shot_quota: int = 10,
                   seed: int = 0) -> ProtocolSchedule:
    """Disjoint-class task schedule with seeded few-shot subsampling.

    schedule_kind: "cifar_like" (2 classes then +1 per task, quota 10),
    "imagenet_like" (10 classes per task, 10 tasks, first-task quota 480,
    then 10), or a custom list of (class_ids, quota) pairs.
    """
    rng = np.random.default_rng(seed)
    by_class = _indices_by_class(base.train)
    classes = sorted(by_class)

    if schedule_kind == "cifar_like":
        if len(classes) < 3:
            raise ValueError(f"cifar_like needs >= 3 classes, got {len(classes)}")
        plan = [(classes[:2], few_shot_quota)]
        plan += [([c], few_shot_quota) for c in classes[2:]]
    elif schedule_kind == "imagenet_like":
        if len(classes) < 20:
            raise ValueError(f"imagenet_like needs >= 20 classes, got {len(classes)}")
        n_tasks = len(classes) // 10
        plan = [(classes[i * 10:(i + 1) * 10], 480 if i == 0 else few_shot_quota)
                for i in range(n_tasks)]
    elif isinstance(schedule_kind, str):
        raise ValueError(f"unknown schedule kind {schedule_kind!r}: the presets are "
                         "'cifar_like' and 'imagenet_like'")
    elif isinstance(schedule_kind, (list, tuple)):
        plan = schedule_kind
    else:
        raise ValueError(f"schedule kind {schedule_kind!r} is neither a preset name nor "
                         "a list of (class_ids, quota) pairs")

    tasks = []
    for t, entry in enumerate(plan, start=1):
        class_ids, quota = _plan_entry(t, entry)
        train_indices = {}
        for c in class_ids:
            if c not in by_class:
                raise ValueError(f"class {c} has no training images")
            idx = by_class[c]
            if quota is not None and quota < len(idx):
                chosen = rng.choice(len(idx), size=quota, replace=False)
                idx = [idx[i] for i in sorted(chosen)]
            train_indices[c] = list(idx)
        tasks.append(TaskSpec(t, list(class_ids), train_indices))
    seen = [c for spec in tasks for c in spec.class_ids]
    if len(set(seen)) != len(seen):
        raise ValueError("incremental-class schedule repeats a class across tasks")
    return ProtocolSchedule("incremental_class", tasks)


def incremental_class_plan(num_classes: int, first_task_classes: int,
                           classes_per_task: int, quota: int):
    """Custom plan helper: first task gets ``first_task_classes``, then
    ``classes_per_task`` new classes per task until exhausted."""
    if first_task_classes < 1 or classes_per_task < 1:
        raise ValueError(f"first_task_classes and classes_per_task must be >= 1, "
                         f"got {first_task_classes} and {classes_per_task}")
    plan = [(list(range(first_task_classes)), quota)]
    c = first_task_classes
    while c < num_classes:
        step = min(classes_per_task, num_classes - c)
        plan.append((list(range(c, c + step)), quota))
        c += step
    return plan


def _apply_perm(img: Image, perm: Optional[np.ndarray], task_id: int) -> Image:
    if perm is None:
        return Image(img.pixels, img.label, task_id, img.index)
    flat = img.pixels.reshape(-1)[perm]      # one permutation over C*H*W
    return Image(flat.reshape(img.pixels.shape), img.label, task_id, img.index)


def task_train_images(base: Dataset, spec: TaskSpec) -> List[Image]:
    out = []
    for c in spec.class_ids:
        for i in spec.train_indices[c]:
            out.append(_apply_perm(base.train[i], spec.permutation, spec.task_id))
    return out


_PERM_BLOCK = 64     # test rows permuted together in task_test_images


def task_test_images(base: Dataset, spec: TaskSpec) -> Batch:
    """The task's test images as one batch, its classes' rows only. A
    permuted task's rows pass ``_PERM_BLOCK`` at a time through one small
    buffer, and the permutation writes them straight into the batch."""
    active = set(spec.class_ids)
    rows = [img for img in base.test if img.label in active]
    if not rows:
        raise ValueError(f"task {spec.task_id}: classes {spec.class_ids} have no test images")
    perm = spec.permutation
    if perm is None:
        return Batch.of(rows)
    n, size, shape = len(rows), rows[0].pixels.size, rows[0].pixels.shape
    if len(perm) != size or perm.min() < 0 or perm.max() >= size:
        raise ValueError(f"task {spec.task_id}: the permutation does not index "
                         f"the {size} pixels of a {shape} image")
    pixels = np.empty((n, size))
    block = np.empty((min(n, _PERM_BLOCK), size))
    for lo in range(0, n, _PERM_BLOCK):
        part = rows[lo:lo + _PERM_BLOCK]
        src = np.stack([img.pixels.reshape(-1) for img in part], out=block[:len(part)])
        # every index is in range, so "clip" changes nothing and, unlike
        # "raise", writes into ``out`` without an intermediate buffer
        np.take(src, perm, axis=1, out=pixels[lo:lo + len(part)], mode="clip")
    return Batch(pixels.reshape((n,) + shape), np.array([img.label for img in rows]))
