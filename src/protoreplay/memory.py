"""Episodic memory: exemplar images, per-(task, class) prototype history,
budget-aware rebalancing, and exact footprint accounting.

Footprint parity with the published accounting counts one prototype per
class (the most recent), while the replay algorithm keeps the full
(task, class) history; both counts are reported.

Snapshot file layout (little-endian, for cross-implementation use):
  8 bytes   magic "VPRMEM1\\0"
  4 x int64 D, number of exemplar classes, number of prototypes,
            budget_elements (-1 when unset)
  per class: int64 class_id, int64 n_images, then per image
            int64 task, index, label, C, H, W followed by C*H*W float64
  per prototype: int64 task_id, class_id, then D float64 means and
            D float64 log-variances
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .autodiff import Tensor
from .data import Image
from .encoder import EncoderParams, param_count
from .proto import VariationalPrototype

_MAGIC = b"VPRMEM1\x00"


@dataclass
class EpisodicMemory:
    exemplars: Dict[int, List[Image]] = field(default_factory=dict)
    prototype_history: Dict[Tuple[int, int], VariationalPrototype] = field(default_factory=dict)
    budget_elements: int = None

    def exemplar_elements(self) -> int:
        return sum(img.elements for imgs in self.exemplars.values() for img in imgs)

    def latest_prototypes(self) -> Dict[int, VariationalPrototype]:
        """Most recent stored prototype per class."""
        latest: Dict[int, VariationalPrototype] = {}
        for (t, c), p in self.prototype_history.items():
            if c not in latest or t > latest[c].task_id:
                latest[c] = p
        return latest

    def task_prototypes(self, task_id: int) -> List[VariationalPrototype]:
        return [p for (t, _), p in self.prototype_history.items() if t == task_id]


@dataclass
class FootprintReport:
    network_params: int
    regularizer_params: int
    exemplar_elements: int
    prototype_elements: int
    total: int
    prototype_elements_full_history: int = 0


def store_exemplars(memory: EpisodicMemory, images_by_class: Dict[int, List[Image]],
                    per_class_quota: int, rng) -> EpisodicMemory:
    """Keep ``per_class_quota`` images per class, chosen uniformly without
    replacement (all, if fewer are available)."""
    if per_class_quota < 1:
        raise ValueError(f"per-class quota must be >= 1, got {per_class_quota}")
    for c in sorted(images_by_class):
        images = images_by_class[c]
        if not images:
            raise ValueError(f"class {c}: no images offered for storage")
        if per_class_quota < len(images):
            chosen = rng.choice(len(images), size=per_class_quota, replace=False)
            picked = [images[i] for i in sorted(chosen)]
        else:
            picked = list(images)
        memory.exemplars.setdefault(c, []).extend(picked)
    return memory


def store_prototypes(memory: EpisodicMemory, task_id: int,
                     prototypes: List[VariationalPrototype]) -> EpisodicMemory:
    """Insert detached prototype copies under (task_id, class_id)."""
    for p in prototypes:
        key = (task_id, p.class_id)
        if key in memory.prototype_history:
            raise ValueError(f"prototype for (task={task_id}, class={p.class_id}) "
                             f"already stored")
        memory.prototype_history[key] = VariationalPrototype(
            task_id, p.class_id,
            Tensor(np.array(p.mean.data, copy=True)),
            Tensor(np.array(p.logvar.data, copy=True)))
    return memory


def budget_quota(budget_elements: int, classes_seen: int, elements_per_image: int) -> int:
    """Exemplars per class when the element budget is split evenly over
    ``classes_seen`` classes; a budget that cannot hold one each raises."""
    quota = budget_elements // (classes_seen * elements_per_image)
    if quota < 1:
        raise ValueError(
            f"budget of {budget_elements} elements cannot hold one "
            f"{elements_per_image}-element exemplar for each of {classes_seen} classes")
    return quota


def rebalance(memory: EpisodicMemory, classes_seen: int, rng) -> EpisodicMemory:
    """Re-split the element budget evenly over classes and evict surplus
    exemplars uniformly at random; every class always keeps at least one."""
    if memory.budget_elements is None or not memory.exemplars:
        return memory
    quota = budget_quota(memory.budget_elements, classes_seen,
                         next(iter(memory.exemplars.values()))[0].elements)
    for c in sorted(memory.exemplars):
        imgs = memory.exemplars[c]
        if len(imgs) > quota:
            keep = rng.choice(len(imgs), size=quota, replace=False)
            memory.exemplars[c] = [imgs[i] for i in sorted(keep)]
    return memory


def memory_footprint(encoder: EncoderParams, memory: EpisodicMemory,
                     mode: str) -> FootprintReport:
    """Exact element counts. ``baseline_regularizer`` doubles the network
    count (the regularizer stores one importance value per parameter);
    ``ours`` adds exemplar pixels plus 2*D reals per stored class prototype
    (most recent per class), with the full history count reported alongside."""
    net = param_count(encoder.layers)
    if mode == "baseline_sgd":
        return FootprintReport(net, 0, 0, 0, net)
    if mode == "baseline_regularizer":
        return FootprintReport(net, net, 0, 0, 2 * net)
    if mode == "ours":
        ex = memory.exemplar_elements()
        latest = memory.latest_prototypes()
        proto = sum(p.mean.data.size + p.logvar.data.size for p in latest.values())
        full = sum(p.mean.data.size + p.logvar.data.size
                   for p in memory.prototype_history.values())
        return FootprintReport(net, 0, ex, proto, net + ex + proto, full)
    raise ValueError(f"unknown footprint mode {mode!r}")


# ---------------------------------------------------------------------------
# binary snapshot

def save_memory(memory: EpisodicMemory, path):
    """Write ``memory`` as a snapshot ``load_memory`` reads back. The layout
    holds one latent size, so a prototype whose mean and log-variance differ
    in size or are empty, or whose size differs from the others', raises
    ValueError before the file is opened, as does a negative budget (-1
    marks an unset one)."""
    if memory.budget_elements is not None and memory.budget_elements < 0:
        raise ValueError(f"budget_elements must be >= 0 or None, got {memory.budget_elements}")
    latent = None
    for (t, c), p in sorted(memory.prototype_history.items()):
        mean, logvar = p.mean.data.size, p.logvar.data.size
        if mean != logvar or mean < 1:
            raise ValueError(f"prototype (task={t}, class={c}): mean size {mean} and "
                             f"log-variance size {logvar} must be equal and at least 1")
        if latent is not None and mean != latent:
            raise ValueError(f"prototype (task={t}, class={c}): latent size {mean} != "
                             f"{latent} of the prototypes before it; a snapshot holds "
                             f"one latent size")
        latent = mean
    with open(path, "wb") as f:
        f.write(_MAGIC)
        budget = -1 if memory.budget_elements is None else memory.budget_elements
        f.write(struct.pack("<4q", latent or 0, len(memory.exemplars),
                            len(memory.prototype_history), budget))
        for c in sorted(memory.exemplars):
            imgs = memory.exemplars[c]
            f.write(struct.pack("<2q", c, len(imgs)))
            for img in imgs:
                C, H, W = img.pixels.shape
                f.write(struct.pack("<6q", img.task, img.index, img.label, C, H, W))
                f.write(img.pixels.astype("<f8").tobytes())
        for (t, c) in sorted(memory.prototype_history):
            p = memory.prototype_history[(t, c)]
            f.write(struct.pack("<2q", t, c))
            f.write(p.mean.data.astype("<f8").tobytes())
            f.write(p.logvar.data.astype("<f8").tobytes())


def load_memory(path) -> EpisodicMemory:
    """Read a snapshot written by ``save_memory``. A file that is not one,
    ends early, has bytes after its last record, holds a size field out of
    range (a class with no exemplar among them, or prototypes of latent
    size 0), stores an image under a class other than its label, or repeats
    a class id or a (task, class) key raises ValueError.
    Sizes are checked against the bytes left in the file before anything is
    read or allocated."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n: int) -> bytes:
            if n > size - f.tell():
                raise ValueError(f"{path}: truncated or corrupt memory snapshot: "
                                 f"{n} bytes wanted at offset {f.tell()}, "
                                 f"{size - f.tell()} left")
            return f.read(n)

        def check(what: str, values, least: int):
            if min(values) < least:
                raise ValueError(f"{path}: corrupt memory snapshot: {what} {values} "
                                 f"before offset {f.tell()} must each be >= {least}")

        if f.read(8) != _MAGIC:
            raise ValueError(f"{path}: not a memory snapshot (bad magic)")
        latent, n_classes, n_protos, budget = struct.unpack("<4q", read(32))
        check("latent size and counts", (latent, n_classes, n_protos), 0)
        if n_protos:
            check("latent size of the prototypes", (latent,), 1)
        memory = EpisodicMemory(budget_elements=None if budget < 0 else budget)
        for _ in range(n_classes):
            c, n_imgs = struct.unpack("<2q", read(16))
            check("image count", (n_imgs,), 1)
            if c in memory.exemplars:
                raise ValueError(f"{path}: corrupt memory snapshot: duplicate class id {c}")
            imgs = []
            for _ in range(n_imgs):
                task, index, label, C, H, W = struct.unpack("<6q", read(48))
                if label != c:
                    raise ValueError(f"{path}: corrupt memory snapshot: image labelled "
                                     f"{label} in class {c} before offset {f.tell()}")
                check("image shape", (C, H, W), 1)
                pixels = np.frombuffer(read(C * H * W * 8), dtype="<f8") \
                    .reshape(C, H, W).astype(np.float64)
                imgs.append(Image(pixels, label, task, index))
            memory.exemplars[c] = imgs
        for _ in range(n_protos):
            t, c = struct.unpack("<2q", read(16))
            if (t, c) in memory.prototype_history:
                raise ValueError(f"{path}: corrupt memory snapshot: duplicate "
                                 f"(task, class) key {(t, c)}")
            mean = np.frombuffer(read(latent * 8), dtype="<f8").astype(np.float64)
            logvar = np.frombuffer(read(latent * 8), dtype="<f8").astype(np.float64)
            memory.prototype_history[(t, c)] = VariationalPrototype(
                t, c, Tensor(mean), Tensor(logvar))
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the last memory "
                             f"snapshot record")
    return memory
