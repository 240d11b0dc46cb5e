"""One benchmark run of one workload: set-up, timed repetitions, checks.

The load is one closed-loop caller in one process: ``run_continual`` runs
the workload's whole task sequence, then runs it again, until the run's
time is used up (at least twice). Each end-to-end timing is the median over
these repetitions. Set-up runs once before them and again after them, for a
thirtieth of the run's time and at least ``SETUP_REPEATS`` times in all; its
median is reported, so that work moved into set-up shows.

Every repetition is checked: the accuracy matrix is lower-triangular with
entries in [0, 1], its final average clears the workload's floor, every
task's parameters and accuracies are finite, and the accuracy matrix and
prototype history are bitwise equal to the first repetition's. The episodic
memory of the first repetition must survive ``save_memory``/``load_memory``
unchanged; that round trip runs outside every timed region.

A traced run adds one repetition with spans at every layer boundary (see
``tracing``), checks it like the others, and reports the per-layer metrics.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from protoreplay import trainer
from protoreplay.analysis import summarize
from protoreplay.memory import load_memory, save_memory

from .tracing import PER_LAYER, TaskLog, Tracer, memory_metrics, patched
from .workloads import Workload, build_inputs

SETUP_REPEATS = 5        # at least; more while SETUP_SHARE of the run is unspent
SETUP_SHARE = 1 / 30     # set-up takes milliseconds, so one sample alone is noise
TRACED_REP_COST = 1.5   # traced repetition time over an untraced one, upper estimate

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "train_samples_per_s": ("images/s", "higher"),
    "last_task_train_s": ("s", "lower"),
    "eval_images_per_s": ("images/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "final_avg_acc": ("fraction", "higher"),
    "avg_retention": ("fraction", "higher"),
}

# Counters every workload must drive above zero in the traced run. A wrapper
# installed where the engine does not look it up reads zero and fails here.
COMMON_BOUNDARIES = ("trainer.steps", "encoder.calls", "proto.loss_calls",
                     "proto.dist_elems", "autodiff.matmul.calls", "autodiff.nodes",
                     "memory.lookup_calls", "data.images_materialized")


@dataclass
class Rep:
    """One repetition of the workload's task sequence."""
    log: TaskLog
    run_s: float = 0.0
    matrix: object = None
    state: object = None
    fingerprint: str = ""
    error: str = ""


@dataclass
class Outcome:
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)


def _hash_history(h, history):
    for key in sorted(history):
        h.update(np.asarray(key, dtype=np.int64).tobytes())
        h.update(history[key].mean.data.tobytes())
        h.update(history[key].logvar.data.tobytes())


def _fingerprint(rows, state) -> str:
    """Digest of the accuracy matrix and the prototype history, bit for bit."""
    h = hashlib.sha256()
    for row in rows:
        h.update(np.asarray(row, dtype=np.float64).tobytes())
    _hash_history(h, state.memory.prototype_history)
    return h.hexdigest()


def _memory_digest(memory) -> str:
    """Digest of everything a memory snapshot stores, bit for bit."""
    h = hashlib.sha256(repr(memory.budget_elements).encode())
    for c in sorted(memory.exemplars):
        for img in memory.exemplars[c]:
            h.update(repr((c, img.task, img.index, img.label, img.pixels.shape)).encode())
            h.update(img.pixels.tobytes())
    _hash_history(h, memory.prototype_history)
    return h.hexdigest()


def _run_once(inputs, tracer: Optional[Tracer] = None) -> Rep:
    rep = Rep(TaskLog())
    replacements = rep.log.replacements(tracer)
    if tracer is not None:
        replacements += tracer.replacements()
    with patched(replacements):
        t0 = time.perf_counter()
        try:
            matrix, state = trainer.run_continual(
                inputs.dataset, inputs.schedule, inputs.layers,
                inputs.cfg.sampling.D, inputs.cfg)
        except Exception:                 # a failed task is counted, not fatal
            rep.error = traceback.format_exc()
            return rep
        rep.run_s = time.perf_counter() - t0
    rep.matrix, rep.state = matrix, state
    rep.fingerprint = _fingerprint(matrix.rows, state)
    return rep


def _check_rep(rep: Rep, reference: Rep, w: Workload) -> List[str]:
    if rep.error:
        return [f"task {rep.log.tasks_started} raised:\n{rep.error}"]
    problems = list(rep.log.failures)
    for i, row in enumerate(rep.matrix.rows):
        if len(row) != i + 1 or not all(0.0 <= a <= 1.0 for a in row):
            problems.append(f"accuracy row {i + 1} is not {i + 1} entries in [0, 1]: {row}")
    acc = summarize(rep.matrix)["final_average"]
    if not acc > w.acc_floor:
        problems.append(f"final average accuracy {acc} is not above {w.acc_floor}")
    if rep.fingerprint != reference.fingerprint:
        problems.append("accuracy matrix or prototype history differs from the "
                        "first repetition at the same seed")
    return problems


def _snapshot_round_trip(memory, workdir) -> Dict[str, float]:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workdir) as tmp:
        path = os.path.join(tmp, "memory.bin")
        t0 = time.perf_counter()
        save_memory(memory, path)
        t1 = time.perf_counter()
        loaded = load_memory(path)
        t2 = time.perf_counter()
        size = os.path.getsize(path)
    if _memory_digest(loaded) != _memory_digest(memory):
        raise ValueError("load_memory(save_memory(m)) differs from m")
    return {"memory.snapshot_bytes": size, "memory.save_s": t1 - t0,
            "memory.load_s": t2 - t1}


def _setup_medians(w: Workload, seed: int, seconds: float, first):
    """Medians of (set-up, generation, protocol) time over repeated set-ups.
    Called after the timed repetitions, so the garbage of the repeats can
    neither slow a repetition nor raise the peak RSS."""
    samples = [first]
    start = time.perf_counter()
    while (len(samples) < SETUP_REPEATS
           or time.perf_counter() - start < SETUP_SHARE * seconds):
        inputs = build_inputs(w, seed)
        samples.append((inputs.setup_s, inputs.gen_s, inputs.protocol_s))
    return [statistics.median(column) for column in zip(*samples)]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 workdir: str) -> Outcome:
    out = Outcome()
    inputs = build_inputs(w, seed)
    first_setup = (inputs.setup_s, inputs.gen_s, inputs.protocol_s)

    # a traced run keeps room for its traced repetition, which runs slower
    reserve = TRACED_REP_COST if trace else 0.0
    reps: List[Rep] = []
    start = time.perf_counter()
    while True:
        rep = _run_once(inputs)
        reps.append(rep)
        out.attempted += rep.log.tasks_started
        problems = _check_rep(rep, reps[0], w)
        out.failures += problems
        if problems:
            return out
        if len(reps) > 1:
            rep.state = None              # only the first is kept, for the snapshot
        elapsed = time.perf_counter() - start
        typical = statistics.median([r.run_s for r in reps])
        if len(reps) >= 2 and elapsed + (1.0 + reserve) * typical > seconds:
            break

    try:
        snapshot = _snapshot_round_trip(reps[0].state.memory, workdir)
    except ValueError as exc:
        out.failures.append(str(exc))
        return out

    untraced_run_s = statistics.median([r.run_s for r in reps])
    print(f"perfbench: {len(reps)} repetitions, run_s "
          + " ".join(f"{r.run_s:.3f}" for r in reps), file=sys.stderr)
    if not trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s, _, _ = _setup_medians(w, seed, seconds, first_setup)
        summary = summarize(reps[0].matrix)
        forgetting = summary["forgetting"]
        out.metrics = {
            "setup_s": setup_s,
            "run_s": untraced_run_s,
            "train_samples_per_s": statistics.median(
                [r.log.train_images / sum(r.log.train_s) for r in reps]),
            "last_task_train_s": statistics.median([r.log.train_s[-1] for r in reps]),
            "eval_images_per_s": statistics.median(
                [r.log.eval_images / sum(r.log.eval_s) for r in reps]),
            "peak_rss_mb": peak_rss_mb,
            "final_avg_acc": summary["final_average"],
            "avg_retention": 1.0 - (float(np.mean(forgetting)) if forgetting else 0.0),
        }
        return out

    tracer = Tracer()
    rep = _run_once(inputs, tracer)
    out.attempted += rep.log.tasks_started
    out.failures += _check_rep(rep, reps[0], w)
    if rep.error:
        return out
    _, gen_s, protocol_s = _setup_medians(w, seed, seconds, first_setup)
    m = tracer.metrics()
    m.update(memory_metrics(rep.state))
    m.update(snapshot)
    m.update({
        "trainer.history_evals": rep.log.history_evals,
        "data.gen_s": gen_s,
        "data.protocol_s": protocol_s,
        "trace.overhead_s": rep.run_s - untraced_run_s,
    })
    silent = [k for k in COMMON_BOUNDARIES + w.boundaries if not m[k] > 0]
    if silent:
        out.failures.append("boundary self-check: no calls recorded at " + ", ".join(silent))
    missing = set(PER_LAYER) - set(m)
    if missing:
        out.failures.append(f"per-layer metrics not computed: {sorted(missing)}")
    out.metrics = {k: m[k] for k in PER_LAYER if k in m}
    return out


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it can be found."""
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


def environment() -> Dict[str, object]:
    """Software and hardware the numbers were measured on."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }
