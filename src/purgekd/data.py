"""Datasets, hierarchical shard/chunk/slice partitioning, and flat-file ingestion.

Partition coordinates are 1-based throughout: shard k in 1..N, chunk l in
1..c_k, slice j in 1..R_{k,l}. A plan's shape is the nested R_{k,l}, at
[k-1][l-1]; make_partition draws it from a seed and drops removed ids.

A Dataset is the only id -> row index (``rows_for``). A plan is laid out
over dataset rows and keeps per shard its rows in plan order plus the chunk
and slice boundaries. Every training round reads a prefix of its shard, so
it gathers by row index alone; point ids appear only at the API boundary
(locate and remove resolve them through the dataset; the id listings and
raw_slices read them off it).
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NotFoundError, ParseError, PartitionError


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a Gaussian-blob classification dataset."""

    num_classes: int
    points_per_class: int
    feature_dim: int
    class_center_spread: float = 3.0
    within_class_stddev: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.points_per_class < 1 or self.feature_dim < 1:
            raise ValueError("points_per_class and feature_dim must be positive")
        if self.class_center_spread <= 0 or self.within_class_stddev <= 0:
            raise ValueError("class_center_spread and within_class_stddev must be positive")


class Dataset:
    """Ordered classification points with stable integer ids.

    Ids are never reused; removing a point from a partition does not free its
    id for new points. ``rows_for`` is the package's one id -> row index.
    Its arrays are read-only, caller's arrays included, so digests stay valid.
    """

    def __init__(self, ids, features, labels, num_classes):
        self.ids = _frozen(np.asarray(ids, dtype=np.int64))
        self.features = _frozen(np.asarray(features, dtype=np.float64))
        self.labels = _frozen(np.asarray(labels, dtype=np.int64))
        if self.features.ndim != 2:
            raise DimensionError("features must be a 2-d array")
        if not (len(self.ids) == len(self.features) == len(self.labels)):
            raise ValueError("ids, features and labels must have equal length")
        if num_classes < 1:
            raise ValueError("num_classes must be positive")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= num_classes):
            raise ValueError("labels must lie in [0, num_classes)")
        self.num_classes = int(num_classes)
        self._order = np.argsort(self.ids, kind="stable")
        self._sorted = self.ids[self._order]
        if (self._sorted[1:] == self._sorted[:-1]).any():
            raise ValueError("point ids must be unique")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def _find(self, want: np.ndarray):
        """Positions into the sorted ids, and which of `want` are present."""
        if not len(self._sorted):
            return np.zeros(want.shape, dtype=np.intp), np.zeros(want.shape, dtype=bool)
        at = np.minimum(np.searchsorted(self._sorted, want), len(self._sorted) - 1)
        return at, self._sorted[at] == want

    def __contains__(self, point_id) -> bool:
        pid = int(point_id)  # an id beyond int64 is simply absent
        return -2**63 <= pid < 2**63 and bool(self._find(np.int64(pid))[1])

    def rows_for(self, point_ids) -> np.ndarray:
        """Rows of the given ids, in the given order."""
        try:
            want = np.asarray(point_ids, dtype=np.int64)
        except OverflowError:  # an id beyond int64 is simply absent
            raise NotFoundError("unknown point id beyond the int64 range") from None
        at, found = self._find(want)
        if not found.all():
            raise NotFoundError(f"unknown point id {int(want[~found][0])}")
        return self._order[at]

    def features_for(self, point_ids) -> np.ndarray:
        return self.features[self.rows_for(point_ids)]


def gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic Gaussian-blob dataset: one cluster per class, ids 0..n-1."""
    rng = np.random.default_rng(spec.seed)
    centers = rng.normal(0.0, spec.class_center_spread,
                         size=(spec.num_classes, spec.feature_dim))
    feats = []
    labels = []
    for c in range(spec.num_classes):
        pts = centers[c] + rng.normal(0.0, spec.within_class_stddev,
                                      size=(spec.points_per_class, spec.feature_dim))
        feats.append(pts)
        labels.append(np.full(spec.points_per_class, c, dtype=np.int64))
    n = spec.num_classes * spec.points_per_class
    return Dataset(np.arange(n), np.vstack(feats), np.concatenate(labels), spec.num_classes)


def load_csv(path, has_header: bool = False) -> Dataset:
    """Read ``id,label,f1,...,fd`` rows into a Dataset.

    num_classes is 1 + max(label), so gaps in the label range are preserved.
    """
    ids, labels, feats = [], [], []
    dim = None
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if has_header and lineno == 1:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 3:
                raise ParseError(f"{path}: line {lineno}: expected id,label,f1,...")
            try:
                pid = int(row[0])
                label = int(row[1])
                vec = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if label < 0:
                raise ParseError(f"{path}: line {lineno}: negative label {label}")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise DimensionError(
                    f"{path}: line {lineno}: expected {dim} features, got {len(vec)}")
            ids.append(pid)
            labels.append(label)
            feats.append(vec)
    if not ids:
        raise ParseError(f"{path}: no data rows")
    return Dataset(np.asarray(ids), np.asarray(feats), np.asarray(labels), max(labels) + 1)


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the load_csv format, losslessly (repr floats)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for i in range(len(dataset)):
            writer.writerow([int(dataset.ids[i]), int(dataset.labels[i])]
                            + [repr(float(v)) for v in dataset.features[i]])


def even_split_sizes(n: int, groups: int) -> list[int]:
    """Group sizes differing by at most one, remainder going to the lowest indices."""
    if groups < 1:
        raise PartitionError(f"need at least one group, got {groups}")
    if n < groups:
        raise PartitionError(f"cannot split {n} points into {groups} non-empty groups")
    q, rem = divmod(n, groups)
    return [q + 1 if i < rem else q for i in range(groups)]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class PartitionPlan:
    """Shard -> chunk -> slice hierarchy over the rows of one dataset.

    Built by make_partition: shards, chunks and slices take consecutive runs
    of a seeded uniform permutation of the dataset's rows, sized by
    even_split_sizes at each level of ``slice_counts`` (R_{k,l} at
    [k-1][l-1]). Afterwards mutated only by remove (single writer), which
    keeps the survivors' order and the shape, so a plan is fixed by its
    seed, shape and removed ids.

    Per shard k the plan keeps its dataset rows in plan order, and per chunk
    l the boundaries (start, end of slice 1, ..., end of slice R) into them.
    Round (l, j) of shard k trains on chunks 1..l-1 and slices 1..j of chunk
    l: the prefix ``shard_rows(k)[:chunk_bounds(k, l)[j]]``. A table gives
    each dataset row's (k, l, j), zeros once removed; ids are read off the
    dataset and resolved by ``Dataset.rows_for``. The shard arrays are
    read-only; remove replaces one, so copies share them safely.
    """

    def __init__(self, rows: np.ndarray, slice_counts, seed, dataset: Dataset):
        self.seed = seed
        self.dataset = dataset
        self._rows, self._bounds = [], []
        self._where = np.zeros((len(dataset), 3), dtype=np.int32)
        start = 0
        for k, (size, counts) in enumerate(
                zip(even_split_sizes(len(rows), len(slice_counts)), slice_counts), start=1):
            shard = rows[start:start + size]
            bounds, end = [], 0
            for l, (chunk_size, r) in enumerate(
                    zip(even_split_sizes(size, len(counts)), counts), start=1):
                chunk_bounds = [end]
                for j, width in enumerate(even_split_sizes(chunk_size, r), start=1):
                    self._where[shard[end:end + width]] = (k, l, j)
                    end += width
                    chunk_bounds.append(end)
                bounds.append(tuple(chunk_bounds))
            self._rows.append(_frozen(shard))
            self._bounds.append(bounds)
            start += size

    @property
    def num_shards(self) -> int:
        return len(self._rows)

    def chunks_in_shard(self, k: int) -> int:
        return len(self._bounds[k - 1])

    def slices_in_chunk(self, k: int, l: int) -> int:
        return len(self._bounds[k - 1][l - 1]) - 1

    def total_slices_in_shard(self, k: int) -> int:
        return sum(len(b) - 1 for b in self._bounds[k - 1])

    def chunk_bounds(self, k: int, l: int) -> tuple[int, ...]:
        """Offsets of chunk (k, l) into shard k's rows: its start, then the
        end of each of its slices."""
        return self._bounds[k - 1][l - 1]

    def chunk_slice(self, k: int, l: int) -> slice:
        """Chunk (k, l) as a range of shard k's rows."""
        b = self._bounds[k - 1][l - 1]
        return slice(b[0], b[-1])

    def shard_ids(self, k: int) -> list[int]:
        return self.dataset.ids[self._rows[k - 1]].tolist()

    def shard_rows(self, k: int) -> np.ndarray:
        """Read-only dataset rows of shard k, in plan order."""
        return self._rows[k - 1]

    def slice_ids(self, k: int, l: int, j: int) -> list[int]:
        b = self._bounds[k - 1][l - 1]
        return self.dataset.ids[self._rows[k - 1][b[j - 1]:b[j]]].tolist()

    def chunk_ids(self, k: int, l: int) -> list[int]:
        return self.dataset.ids[self._rows[k - 1][self.chunk_slice(k, l)]].tolist()

    def all_ids(self) -> list[int]:
        return self.dataset.ids[np.concatenate(self._rows)].tolist()

    def _row(self, point_id) -> int | None:
        """Dataset row of a point the plan holds, else None."""
        try:
            row = int(self.dataset.rows_for([point_id])[0])
        except NotFoundError:
            return None
        return row if self._where[row, 0] else None

    def __contains__(self, point_id) -> bool:
        return self._row(point_id) is not None

    def locate(self, point_id) -> tuple[int, int, int]:
        row = self._row(point_id)
        if row is None:
            raise NotFoundError(f"point {point_id} is not in the partition")
        k, l, j = self._where[row].tolist()
        return k, l, j

    def remove(self, point_id) -> int:
        """Drop one point; the survivors keep their order and rows. Returns
        the point's position in its shard's rows before the removal."""
        k, l, j = self.locate(point_id)
        row, rows = self._row(point_id), self._rows[k - 1]
        b = self._bounds[k - 1][l - 1]
        pos = b[j - 1] + int(np.flatnonzero(rows[b[j - 1]:b[j]] == row)[0])
        self._rows[k - 1] = _frozen(np.delete(rows, pos))
        self._bounds[k - 1] = [tuple(o - (o > pos) for o in chunk)
                               for chunk in self._bounds[k - 1]]
        self._where[row] = 0
        return pos

    def copy(self) -> "PartitionPlan":
        """Independent copy: shares the read-only shard arrays and the
        dataset, copies the per-shard lists and the location table."""
        dup = copy.copy(self)
        dup._rows, dup._bounds = list(self._rows), list(self._bounds)
        dup._where = self._where.copy()
        return dup

    def slice_counts(self) -> list[list[int]]:
        """R_{k,l} per shard and chunk: the plan's shape, which removals keep."""
        return [[len(b) - 1 for b in bounds] for bounds in self._bounds]

    def removed_ids(self) -> list[int]:
        """Sorted ids of the plan's dataset that the plan no longer holds."""
        return np.sort(np.delete(self.dataset.ids, np.concatenate(self._rows))).tolist()

    def raw_slices(self):
        """Nested id lists (copy): slice (k, l, j) at [k-1][l-1][j-1]."""
        ids = self.dataset.ids
        return [[[ids[rows[b[j - 1]:b[j]]].tolist() for j in range(1, len(b))]
                 for b in bounds]
                for rows, bounds in zip(self._rows, self._bounds)]


def make_partition(dataset: Dataset, slice_counts, seed: int,
                   removed=()) -> PartitionPlan:
    """Seeded uniform random split of the dataset into shards, chunks and
    slices of the nested shape slice_counts (R_{k,l} at [k-1][l-1]), minus
    the removed ids. A count below 1 fails in even_split_sizes."""
    plan = PartitionPlan(np.random.default_rng(seed).permutation(len(dataset)),
                         slice_counts, seed, dataset)
    for point_id in removed:
        plan.remove(point_id)
    return plan
