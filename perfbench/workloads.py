"""The benchmark's workloads and the set-up that builds their inputs.

Every input is generated here from the run's seed with protoreplay's public
builders: seeded Gaussian blobs from ``data.synthetic_blobs``, reshaped to
image shape, then ``split_protocol`` or ``permuted_protocol``. The engine
only ever sees the generated datasets and schedules.

Why each workload exists, and the layer it is predicted to load most:

- ``class_cifar32``: the reference conv encoder on 3x32x32 images. Every
  step re-encodes the stored exemplars once per previous task, so encoder
  forward and ``conv2d`` backward dominate and grow with the task count.
  Encoder and conv-kernel changes show here.
- ``class_vector_d500``: a 64->64->1000 vector encoder at D=500, Z=50. The
  encoder is about 1% of the time; the (Q, Z, C, D) distance-softmax
  tensors and their backward do the work. A fused loss shows here in time
  and in peak memory; a conv change should move nothing. Its element budget
  makes the memory evict exemplars, where the other two only append.
- ``domain_mnist28``: permuted 1x28x28 images over many small steps with a
  large history-scope evaluation. It weighs forward-only reads against
  training writes and per-call overhead (row ``narrow``s, per-image
  permutations) against kernel time. It is single-channel because
  ``permuted_protocol`` rejects multi-channel images.

The sizes are smaller than the engine's reference run so that one
repetition takes a few seconds and a run can report the median of several.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from protoreplay.data import (Dataset, Image, incremental_class_plan,
                              permuted_protocol, split_protocol,
                              synthetic_blobs)
from protoreplay.encoder import init_encoder, reference_architecture
from protoreplay.proto import SamplingConfig
from protoreplay.trainer import TrainerConfig


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str              # incremental_class | incremental_domain
    arch: str                  # a reference_architecture name
    image_shape: tuple
    num_classes: int
    latent_dim: int
    samples: int               # Z
    per_class_train: int
    per_class_test: int
    separation: float
    epochs: int
    acc_floor: float           # final average accuracy must exceed this
    first_task_classes: int = 2
    classes_per_task: int = 1
    few_shot_quota: Optional[int] = None
    num_tasks: int = 0         # incremental_domain only
    exemplars_per_class: int = 1
    budget_elements: Optional[int] = None
    # per-layer counters that must be non-zero: the boundaries this
    # workload exists to load (checked in the traced run)
    boundaries: tuple = ()


WORKLOADS = {w.name: w for w in (
    Workload("class_cifar32", "incremental_class", "cifar_like_32", (3, 32, 32),
             num_classes=6, latent_dim=500, samples=50, per_class_train=12,
             per_class_test=40, separation=48.0, epochs=2, acc_floor=0.6,
             few_shot_quota=10, exemplars_per_class=5,
             boundaries=("autodiff.conv2d.calls",)),
    Workload("class_vector_d500", "incremental_class", "synthetic_vector", (1, 1, 64),
             num_classes=8, latent_dim=500, samples=50, per_class_train=20,
             per_class_test=40, separation=6.0, epochs=2, acc_floor=0.7,
             classes_per_task=2, budget_elements=3200,
             boundaries=("memory.evicted",)),
    Workload("domain_mnist28", "incremental_domain", "mnist_like_28", (1, 28, 28),
             num_classes=10, latent_dim=50, samples=50, per_class_train=20,
             per_class_test=200, separation=20.0, epochs=2, acc_floor=0.8,
             num_tasks=6, exemplars_per_class=5,
             boundaries=("trainer.history_evals",)),
)}

# Smoke-test shapes: the same code paths and checks in well under a second each.
TINY = {
    "class_cifar32": replace(WORKLOADS["class_cifar32"], num_classes=3, latent_dim=8,
                             samples=4, per_class_train=4, per_class_test=4,
                             separation=300.0, epochs=1, acc_floor=0.5,
                             few_shot_quota=4, exemplars_per_class=2),
    "class_vector_d500": replace(WORKLOADS["class_vector_d500"], num_classes=4,
                                 latent_dim=8, samples=4, per_class_train=6,
                                 per_class_test=6, separation=40.0, epochs=1,
                                 acc_floor=0.5, budget_elements=512),
    "domain_mnist28": replace(WORKLOADS["domain_mnist28"], num_classes=3, latent_dim=8,
                              samples=4, per_class_train=4, per_class_test=6,
                              separation=150.0, epochs=1, acc_floor=0.5, num_tasks=2,
                              exemplars_per_class=2),
}


@dataclass
class Inputs:
    dataset: Dataset
    schedule: object
    layers: list
    cfg: TrainerConfig
    gen_s: float
    protocol_s: float
    encoder_s: float

    @property
    def setup_s(self) -> float:
        return self.gen_s + self.protocol_s + self.encoder_s


def _as_images(images, shape):
    return [Image(img.pixels.reshape(shape), img.label, img.task, img.index)
            for img in images]


def build_inputs(w: Workload, seed: int) -> Inputs:
    """Generate the workload's dataset, schedule and encoder from ``seed``,
    timing each part. The same seed gives the same inputs."""
    t0 = time.perf_counter()
    dim = 1
    for n in w.image_shape:
        dim *= n
    blobs = synthetic_blobs(w.num_classes, dim, w.per_class_train, w.per_class_test,
                            w.separation, seed)
    dataset = Dataset(_as_images(blobs.train, w.image_shape),
                      _as_images(blobs.test, w.image_shape), w.num_classes)
    t1 = time.perf_counter()
    if w.protocol == "incremental_domain":
        schedule = permuted_protocol(dataset, w.num_tasks, seed + 1)
    else:
        plan = incremental_class_plan(w.num_classes, w.first_task_classes,
                                      w.classes_per_task, w.few_shot_quota)
        schedule = split_protocol(dataset, plan, seed=seed + 1)
    t2 = time.perf_counter()
    layers = reference_architecture(w.arch, w.latent_dim, input_dim=dim)
    cfg = TrainerConfig(SamplingConfig(Z=w.samples, D=w.latent_dim),
                        epochs_per_task=w.epochs, seed=seed + 2,
                        per_class_quota=w.exemplars_per_class,
                        budget_elements=w.budget_elements)
    init_encoder(layers, w.latent_dim, seed=cfg.seed)
    t3 = time.perf_counter()
    return Inputs(dataset, schedule, layers, cfg, t1 - t0, t2 - t1, t3 - t2)
