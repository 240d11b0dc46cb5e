"""Run metrics and prototype-dynamics analysis.

The accuracy matrix A[i][j] holds accuracy on task j's test set after
training task i (j <= i). Forgetting per task is the drop from best-ever
to final accuracy. Prototype dynamics: class prototype means across tasks
are projected into the top-3 principal components of the task-1 latent
space; per-class motion vectors (latest minus initial mean) are compared
against an externally supplied feature-similarity matrix via Pearson
correlation over upper-triangular entries.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np


def write_csv(path, header, rows):
    """Write ``header`` (unless None), then ``rows``. Integers are written as
    they are and every other number as ``repr(float(v))``, so the file reads
    back bit for bit."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, (int, np.integer)) else repr(float(v))
                             for v in row])


def read_csv(path) -> List[List[str]]:
    """Every row of a CSV file, as strings."""
    with open(path, newline="") as f:
        return list(csv.reader(f))


def read_data_rows(path, parse_row) -> None:
    """Call ``parse_row`` on each row of a CSV file after its header row. An
    empty file, or a row that ``parse_row`` rejects with a ValueError, raises
    a ValueError naming the file, the row and the problem."""
    rows = read_csv(path)
    if not rows:
        raise ValueError(f"{path}: empty file, expected a header row")
    for n, row in enumerate(rows[1:], start=2):
        try:
            parse_row(row)
        except ValueError as exc:
            raise ValueError(f"{path}, row {n}: {exc}") from None


@dataclass
class AccuracyMatrix:
    rows: List[List[float]] = field(default_factory=list)

    @property
    def num_tasks(self) -> int:
        return len(self.rows)

    def add_row(self, accuracies: List[float]):
        if len(accuracies) != len(self.rows) + 1:
            raise ValueError(
                f"row {len(self.rows) + 1} must have {len(self.rows) + 1} entries, "
                f"got {len(accuracies)}")
        for a in accuracies:
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"accuracy {a} outside [0, 1]")
        self.rows.append([float(a) for a in accuracies])

    def to_csv(self, path):
        write_csv(path, [f"task_{j + 1}" for j in range(self.num_tasks)], self.rows)

    @classmethod
    def from_csv(cls, path) -> "AccuracyMatrix":
        matrix = cls()
        read_data_rows(path, lambda row: matrix.add_row([float(v) for v in row if v != ""]))
        return matrix


def summarize(matrix: AccuracyMatrix) -> dict:
    """Row averages, final average, and per-task forgetting
    (best-ever accuracy minus final accuracy)."""
    rows = matrix.rows
    if not rows:
        raise ValueError("empty accuracy matrix")
    averages = [float(np.mean(row)) for row in rows]
    T = len(rows)
    forgetting = []
    for j in range(T - 1):
        best = max(rows[i][j] for i in range(j, T))
        forgetting.append(float(best - rows[T - 1][j]))
    return {
        "average_accuracy": averages,
        "final_average": averages[-1],
        "forgetting": forgetting,
    }


def pca_fit(vectors: np.ndarray, k: int = 3):
    """Top-k orthonormal principal directions of the rows, by explained
    variance; sign fixed so each component's largest-magnitude coordinate
    is positive. Returns (components (k, D), mean (D,))."""
    X = np.asarray(vectors, dtype=np.float64)
    mean = X.mean(axis=0)
    centered = X - mean
    rank = np.linalg.matrix_rank(centered)
    if rank < k:
        raise ValueError(f"need rank >= {k} for {k} components, got rank {rank}")
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k]
    for i in range(k):
        j = np.argmax(np.abs(components[i]))
        if components[i][j] < 0:
            components[i] = -components[i]
    return components, mean


@dataclass
class PrototypeHistoryLog:
    """Ordered (task_id, class_id, mean vector) records across a run."""
    records: List[Tuple[int, int, np.ndarray]] = field(default_factory=list)

    def add(self, task_id: int, class_id: int, mean: np.ndarray):
        if any(t == task_id and c == class_id for t, c, _ in self.records):
            raise ValueError(f"duplicate record for (task={task_id}, class={class_id})")
        mean = np.asarray(mean, dtype=np.float64)
        if self.records and mean.size != self.records[0][2].size:
            raise ValueError(f"mean of {mean.size} values, but the first record's "
                             f"has {self.records[0][2].size}")
        self.records.append((task_id, class_id, mean))

    def by_class(self) -> Dict[int, List[Tuple[int, np.ndarray]]]:
        out: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        for t, c, m in self.records:
            out.setdefault(c, []).append((t, m))
        for c in out:
            out[c].sort(key=lambda tm: tm[0])
        return out

    def to_csv(self, path):
        D = self.records[0][2].size if self.records else 0
        write_csv(path, ["task_id", "class_id"] + [f"m{i}" for i in range(D)],
                  [[t, c, *m] for t, c, m in self.records])

    @classmethod
    def from_csv(cls, path) -> "PrototypeHistoryLog":
        log = cls()

        def parse(row):
            if len(row) < 2:
                raise ValueError(f"{len(row)} field(s), expected task_id, class_id "
                                 "and the mean's values")
            log.add(int(row[0]), int(row[1]), np.array([float(v) for v in row[2:]]))
        read_data_rows(path, parse)
        return log


def prototype_trajectories(log: PrototypeHistoryLog, components: np.ndarray,
                           mean: np.ndarray) -> Dict[int, List[Tuple[int, np.ndarray]]]:
    """Project each class's prototype-mean sequence into the fixed basis."""
    out = {}
    for c, seq in log.by_class().items():
        out[c] = [(t, components @ (m - mean)) for t, m in seq]
    return out


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc, yc = x - x.mean(), y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0:
        return 0.0
    return float((xc * yc).sum() / denom)


def motion_similarity(log: PrototypeHistoryLog,
                      feature_similarity: np.ndarray) -> dict:
    """Per-class motion vectors (latest minus initial prototype mean),
    their pairwise-distance matrix, and the Pearson correlation against the
    supplied class-by-class feature matrix (upper triangle, off-diagonal)."""
    F = np.asarray(feature_similarity, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError(f"feature similarity must be square, got shape {F.shape}")
    if not np.allclose(F, F.T):
        raise ValueError("feature similarity matrix must be symmetric")
    by_class = log.by_class()
    classes = sorted(by_class)
    if len(classes) != F.shape[0]:
        raise ValueError(
            f"feature matrix covers {F.shape[0]} classes, log has {len(classes)}")
    motions = {c: by_class[c][-1][1] - by_class[c][0][1] for c in classes}
    n = len(classes)
    dists = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dists[i, j] = np.linalg.norm(motions[classes[i]] - motions[classes[j]])
    iu = np.triu_indices(n, k=1)
    return {
        "classes": classes,
        "motion_vectors": motions,
        "motion_distance_matrix": dists,
        "pearson_r": pearson(F[iu], dists[iu]),
    }
