"""Timing and tracing at protoreplay's layer boundaries, from outside the engine.

Each boundary is timed by replacing a public attribute of a protoreplay
module or class with a wrapper, and the original is put back on exit.
``trainer`` imports ``encode_batch``, the losses and the data helpers by
name, so those wrappers go into ``protoreplay.trainer``'s namespace; one
installed on the defining module would never be called and would silently
read zero. The boundary self-check in ``run.py`` catches such a mis-patch.

``TaskLog`` is always installed: it times ``train_task`` and ``evaluate``,
which run once per task. ``Tracer`` is installed only for the traced
repetition. It records one span (name, start, end, parent) per call at every
boundary, keeps them in memory, and computes each layer's self time from
them once the repetition ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, List

import numpy as np

from protoreplay import autodiff, memory, proto, trainer
from protoreplay.memory import EpisodicMemory

# The autodiff ops that encoder and proto call. logsumexp also calls
# sub/exp/tsum/add, so every op reports self time, not inclusive time.
AUTODIFF_OPS = ("conv2d", "maxpool2x2", "matmul", "relu", "add", "sub", "mul", "exp",
                "scale", "square", "sqrt", "tsum", "logsumexp", "take_class", "narrow",
                "stack", "reshape", "clip")
# Whichever of these trainer calls are traced; a missing one is skipped, so
# a later change that merges the losses keeps the benchmark running.
LOSS_ENTRY_POINTS = ("mixed_classification_loss", "classification_loss",
                     "replay_loss", "logvar_match_loss")
MEMORY_LOOKUPS = ("task_prototypes", "latest_prototypes")
DATA_HELPERS = ("task_train_images", "task_test_images")

# name -> (unit, better). autodiff.<op>.fwd_s/.bwd_s and trainer.eval_self_s are
# self times (child spans excluded); the other times include their children.
PER_LAYER = {
    "trainer.steps": ("count", "lower"),
    "trainer.step_ms_p50": ("ms", "lower"),
    "trainer.step_ms_tail": ("ms", "lower"),
    "trainer.step_tail_pct": ("pct", "higher"),
    "trainer.step_tail_beyond": ("count", "higher"),
    "trainer.sgd_s": ("s", "lower"),
    "trainer.eval_self_s": ("s", "lower"),
    "trainer.history_evals": ("count", "lower"),
    "encoder.calls": ("count", "lower"),
    "encoder.images": ("images", "lower"),
    "encoder.images_last_task": ("images", "lower"),
    "encoder.forward_s": ("s", "lower"),
    "encoder.mean_batch": ("images", "higher"),
    **{f"autodiff.{op}.{part}": (unit, "lower") for op in AUTODIFF_OPS
       for part, unit in (("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"))},
    "autodiff.backward_s": ("s", "lower"),
    "autodiff.nodes": ("count", "lower"),
    "autodiff.conv2d.flops": ("computed_flop", "lower"),
    "autodiff.conv2d.bytes": ("computed_B", "lower"),
    "autodiff.matmul.flops": ("computed_flop", "lower"),
    "autodiff.matmul.bytes": ("computed_B", "lower"),
    "proto.loss_calls": ("count", "lower"),
    "proto.loss_fwd_s": ("s", "lower"),
    "proto.dist_elems": ("elems", "lower"),
    "proto.dist_peak_bytes": ("B", "lower"),
    "memory.exemplars": ("images", "lower"),
    "memory.evicted": ("images", "lower"),
    "memory.footprint_elems": ("elems", "lower"),
    "memory.store_s": ("s", "lower"),
    "memory.lookup_calls": ("count", "lower"),
    "memory.snapshot_bytes": ("B", "lower"),
    "memory.save_s": ("s", "lower"),
    "memory.load_s": ("s", "lower"),
    "data.gen_s": ("s", "lower"),
    "data.protocol_s": ("s", "lower"),
    "data.task_images_s": ("s", "lower"),
    "data.images_materialized": ("images", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def _params_finite(state) -> bool:
    return all(np.isfinite(p.data).all() for p in state.encoder.parameters())


class TaskLog:
    """Per-task train and eval times plus failure accounting for one repetition."""

    def __init__(self):
        self.train_s: List[float] = []
        self.train_images = 0           # new-task images x epochs
        self.eval_s: List[float] = []
        self.eval_images = 0
        self.history_evals = 0
        self.failures: List[str] = []
        self.tasks_started = 0

    def replacements(self, tracer=None):
        train_task, evaluate = trainer.train_task, trainer.evaluate
        if tracer is not None:
            train_task = tracer.wrap("trainer.train_task", train_task,
                                     before=tracer.task_start, after=tracer.task_end)
            evaluate = tracer.wrap("trainer.evaluate", evaluate)

        def timed_train_task(state, task_id, task_images, cfg, *args, **kwargs):
            self.tasks_started += 1
            t0 = time.perf_counter()
            out = train_task(state, task_id, task_images, cfg, *args, **kwargs)
            self.train_s.append(time.perf_counter() - t0)
            self.train_images += len(task_images) * cfg.epochs_per_task
            if not _params_finite(out):
                self.failures.append(f"task {task_id}: non-finite encoder parameters")
            return out

        def timed_evaluate(state, test_images, cfg, *args, **kwargs):
            t0 = time.perf_counter()
            acc, per_class = evaluate(state, test_images, cfg, *args, **kwargs)
            self.eval_s.append(time.perf_counter() - t0)
            self.eval_images += len(test_images)
            if kwargs.get("prototype_scope", args[0] if args else "latest") == "history":
                self.history_evals += 1
            if not np.isfinite(acc):
                self.failures.append(f"task {state.current_task}: non-finite accuracy")
            return acc, per_class

        return [(trainer, "train_task", timed_train_task),
                (trainer, "evaluate", timed_evaluate)]


class Tracer:
    """Spans and counters for one traced repetition."""

    def __init__(self):
        self.spans = []                  # [name, start, end, parent index]
        self._open = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.task_images: List[int] = []  # images encoded per train_task
        self._loss_peak = 0

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` recording a span per call. ``before(args)`` runs
        first and its result goes to ``after(args, out, token)``; both run
        outside the span, so their cost lands in the parent's self time."""
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                open_.pop()
            if after is not None:
                after(args, out, token)
            return out
        return wrapper

    # -- hooks -------------------------------------------------------------

    def task_start(self, args):
        return self.counts["encoder.images"]

    def task_end(self, args, out, images_before):
        self.task_images.append(self.counts["encoder.images"] - images_before)

    def _op(self, op, fn):
        counts = self.counts

        def after(args, out, token):
            if out.data.nbytes > self._loss_peak:
                self._loss_peak = out.data.nbytes
            bwd_flops = bwd_bytes = 0
            if op in ("conv2d", "matmul"):
                a, b = args[0].data, args[1].data
                if op == "conv2d":
                    ci, k = b.shape[1], b.shape[2]
                    flops = 2 * out.data.size * ci * k * k
                else:
                    flops = 2 * out.data.size * a.shape[1]
                nbytes = 8 * (a.size + b.size + out.data.size)
                counts[f"autodiff.{op}.flops"] += flops
                counts[f"autodiff.{op}.bytes"] += nbytes
                # backward forms both operand gradients: twice the flops,
                # and reads or writes each operand and the output once more
                bwd_flops, bwd_bytes = 2 * flops, nbytes
            if out._backward is None:
                return
            counts["autodiff.nodes"] += 1

            def bwd_after(bargs, bout, btoken):
                if bwd_flops:
                    counts[f"autodiff.{op}.flops"] += bwd_flops
                    counts[f"autodiff.{op}.bytes"] += bwd_bytes
            out._backward = self.wrap(f"autodiff.{op}.bwd", out._backward,
                                      after=bwd_after)
        return self.wrap(f"autodiff.{op}", fn, after=after)

    def _loss(self, fn):
        counts = self.counts

        def before(args):
            self._loss_peak = 0
            cfg = next((a for a in args if isinstance(a, proto.SamplingConfig)), None)
            groups = [a for a in args if isinstance(a, (list, tuple))]
            if cfg is None or not groups:
                return 0
            # Q x Z x C x D: queries first, then every prototype list
            return len(groups[0]) * cfg.Z * sum(len(g) for g in groups[1:]) * cfg.D

        def after(args, out, dist_elems):
            counts["proto.dist_elems"] += dist_elems
            if dist_elems:
                counts["proto.dist_peak_bytes"] = max(counts["proto.dist_peak_bytes"],
                                                      self._loss_peak)
        return self.wrap("proto.loss", fn, before=before, after=after)

    def _encode(self, fn):
        def after(args, out, token):
            self.counts["encoder.images"] += args[1].shape[0]
        return self.wrap("encoder.encode_batch", fn, after=after)

    def _rebalance(self, fn):
        def held(args):
            return sum(len(v) for v in args[0].exemplars.values())

        def after(args, out, before_count):
            self.counts["memory.evicted"] += before_count - held(args)
        return self.wrap("memory.rebalance", fn, before=held, after=after)

    def _data(self, fn):
        def after(args, out, token):
            self.counts["data.images_materialized"] += len(out)
        return self.wrap("data.task_images", fn, after=after)

    def replacements(self):
        out = [(autodiff, op, self._op(op, getattr(autodiff, op))) for op in AUTODIFF_OPS]
        out.append((autodiff.Tensor, "backward",
                    self.wrap("autodiff.backward", autodiff.Tensor.backward)))
        out.append((trainer, "encode_batch", self._encode(trainer.encode_batch)))
        out.append((trainer, "sgd_step", self.wrap("trainer.sgd_step", trainer.sgd_step)))
        out += [(trainer, name, self._loss(getattr(trainer, name)))
                for name in LOSS_ENTRY_POINTS if hasattr(trainer, name)]
        out += [(trainer, name, self._data(getattr(trainer, name)))
                for name in DATA_HELPERS]
        out += [(memory, name, self.wrap("memory.store", getattr(memory, name)))
                for name in ("store_exemplars", "store_prototypes")]
        out.append((memory, "rebalance", self._rebalance(memory.rebalance)))
        out += [(EpisodicMemory, name, self.wrap("memory.lookup", getattr(EpisodicMemory, name)))
                for name in MEMORY_LOOKUPS]
        return out

    # -- results -----------------------------------------------------------

    def _times(self):
        """Per-name call count, inclusive time and self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - inner
        return calls, total, own

    def _step_ms(self) -> List[float]:
        """Wall time of each SGD step: from the end of the previous step (or
        the start of its train_task) to the end of its sgd_step call."""
        last_end = {}
        steps = []
        for name, start, end, parent in self.spans:
            if name != "trainer.sgd_step":
                continue
            begin = last_end.get(parent, self.spans[parent][1] if parent >= 0 else start)
            steps.append(1e3 * (end - begin))
            last_end[parent] = end
        return steps

    def metrics(self) -> Dict[str, float]:
        calls, total, own = self._times()
        c = self.counts
        steps = self._step_ms()
        n = len(steps)
        tail_pct = next((p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10), 50.0)
        enc_calls = calls["encoder.encode_batch"]
        m = {
            "trainer.steps": n,
            "trainer.step_ms_p50": float(np.percentile(steps, 50)) if n else 0.0,
            "trainer.step_ms_tail": float(np.percentile(steps, tail_pct)) if n else 0.0,
            "trainer.step_tail_pct": tail_pct,
            "trainer.step_tail_beyond": sum(s > np.percentile(steps, tail_pct)
                                            for s in steps) if n else 0,
            "trainer.sgd_s": total["trainer.sgd_step"],
            "trainer.eval_self_s": own["trainer.evaluate"],
            "encoder.calls": enc_calls,
            "encoder.images": int(c["encoder.images"]),
            "encoder.images_last_task": int(self.task_images[-1]) if self.task_images else 0,
            "encoder.forward_s": total["encoder.encode_batch"],
            "encoder.mean_batch": c["encoder.images"] / enc_calls if enc_calls else 0.0,
        }
        for op in AUTODIFF_OPS:
            m[f"autodiff.{op}.calls"] = calls[f"autodiff.{op}"]
            m[f"autodiff.{op}.fwd_s"] = own[f"autodiff.{op}"]
            m[f"autodiff.{op}.bwd_s"] = own[f"autodiff.{op}.bwd"]
        m.update({
            "autodiff.backward_s": total["autodiff.backward"],
            "autodiff.nodes": int(c["autodiff.nodes"]),
            "autodiff.conv2d.flops": int(c["autodiff.conv2d.flops"]),
            "autodiff.conv2d.bytes": int(c["autodiff.conv2d.bytes"]),
            "autodiff.matmul.flops": int(c["autodiff.matmul.flops"]),
            "autodiff.matmul.bytes": int(c["autodiff.matmul.bytes"]),
            "proto.loss_calls": calls["proto.loss"],
            "proto.loss_fwd_s": total["proto.loss"],
            "proto.dist_elems": int(c["proto.dist_elems"]),
            "proto.dist_peak_bytes": int(c["proto.dist_peak_bytes"]),
            "memory.evicted": int(c["memory.evicted"]),
            "memory.store_s": total["memory.store"] + total["memory.rebalance"]
            + total["memory.lookup"],
            "memory.lookup_calls": calls["memory.lookup"],
            "data.task_images_s": total["data.task_images"],
            "data.images_materialized": int(c["data.images_materialized"]),
            "trace.spans": len(self.spans),
        })
        return m


def memory_metrics(state) -> Dict[str, int]:
    """Exemplars held and the ``ours`` footprint at the end of a run."""
    mem = state.memory
    return {
        "memory.exemplars": sum(len(v) for v in mem.exemplars.values()),
        "memory.footprint_elems": memory.memory_footprint(state.encoder, mem, "ours").total,
    }
