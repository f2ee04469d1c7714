"""Distilled student network trained incrementally against a growing teacher
subensemble.

Each constituent k owns shard k, split into c_k chunks, and is mapped to the
next c_k teachers, one per chunk; the mapping is read off the plan's shape.
Chunk l is soft-labeled by the subensemble of the first l teachers mapped to
k; chunks are further sliced, and the constituent trains on its cumulative
data (all earlier chunks plus slices 1..j of the current chunk) for the
per-slice epoch budget, checkpointing after every round.

Constituent k keeps its soft labels as one (n_k, K) array, ``labels[k]``,
whose row i labels ``plan.shard_rows(k)[i]``: a chunk is a range of rows
and its ids come from the plan, so the labels follow the plan's order by
construction. A removal deletes the point's row (``remove``); a relabel
writes its chunks' rows into a new array (``relabel``). Where a chunk keeps
its subensemble's exact member sum, ``sums`` holds it, row for row.

The network is the student role of the lifecycle in ``checkpoints``: it
supplies ``rounds``, each round's labels a prefix of ``labels[k]``, and
``run_round``, which is ``run_student_round`` on them;
``checkpoints.retrain`` runs initial training and verification,
constituents of one shape in lockstep; ``checkpoints.revert_and_replay``
runs unlearning, one constituent at a time. Two baseline labeling modes
share this path: naive_sisa labels every chunk with the full ensemble,
single_teacher chunk l with teacher l.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from . import model
from .checkpoints import CheckpointKey, CheckpointStore, gather_round, plan_rounds, retrain
from .costmodel import CostLedger
from .data import Dataset, PartitionPlan, even_split_sizes
from .errors import NotFoundError
from .model import (SEED_STUDENT, ModelArch, ModelState, SoftLabelChunk, TrainHyper,
                    subensemble_soft_labels, summed_soft_labels)
from .teacher import TrainBudget

MODES = ("purge", "naive_sisa", "single_teacher")


@dataclass(frozen=True)
class ConstituentMapping:
    """Teachers 1..M to constituents in consecutive runs: constituent k takes
    the next chunk_counts[k-1] teachers, one per chunk of its shard."""

    chunk_counts: tuple[int, ...]

    @property
    def assignment(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.teachers_for(k) for k in range(1, self.num_students + 1))

    @property
    def num_students(self) -> int:
        return len(self.chunk_counts)

    @property
    def num_teachers(self) -> int:
        return sum(self.chunk_counts)

    def teachers_for(self, k: int) -> tuple[int, ...]:
        start = sum(self.chunk_counts[:k - 1])
        return tuple(range(start + 1, start + self.chunk_counts[k - 1] + 1))

    def chunk_count(self, k: int) -> int:
        return self.chunk_counts[k - 1]

    def owner_of(self, m: int) -> tuple[int, int]:
        """(constituent k, chunk position l) of teacher member m."""
        for k, ms in enumerate(self.assignment, start=1):
            if m in ms:
                return k, ms.index(m) + 1
        raise NotFoundError(f"teacher {m} is not mapped to any constituent")


def build_mapping(num_teachers: int, num_students: int,
                  sizes=None) -> ConstituentMapping:
    """Assign teachers 1..M to constituents in index order, as evenly as
    possible (remainder to the lowest-index constituents), or by explicit
    per-constituent sizes."""
    if sizes is None:
        if num_students > num_teachers:
            raise ValueError("every constituent needs at least one teacher")
        sizes = even_split_sizes(num_teachers, num_students)
    else:
        sizes = list(sizes)
        if len(sizes) != num_students:
            raise ValueError("need one size per constituent")
        if any(s < 1 for s in sizes):
            raise ValueError("mapping sizes must be >= 1")
        if sum(sizes) != num_teachers:
            raise ValueError(f"mapping sizes sum to {sum(sizes)}, expected {num_teachers}")
    return ConstituentMapping(tuple(sizes))


def chunk_teacher_ids(mode: str, mapping: ConstituentMapping, k: int,
                      l: int) -> tuple[int, ...]:
    """Teacher member ids whose averaged outputs label chunk (k, l)."""
    mapped = mapping.teachers_for(k)
    if mode == "purge":
        return mapped[:l]
    if mode == "single_teacher":
        return (mapped[l - 1],)
    if mode == "naive_sisa":
        return tuple(range(1, mapping.num_teachers + 1))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class StudentNetwork:
    constituents: list[ModelState]
    plan: PartitionPlan
    dataset: Dataset
    mode: str
    labels: dict  # k -> (n_k, K) soft labels, row i for plan.shard_rows(k)[i]
    sums: dict  # (k, l) -> exact member sum (r, c) of chunk (k, l), where kept
    budget: TrainBudget
    arch: ModelArch
    hyper: TrainHyper
    seed: int
    role: ClassVar[str] = "student"
    seed_domain: ClassVar[int] = SEED_STUDENT

    @property
    def mapping(self) -> ConstituentMapping:
        """Teacher runs per constituent, read off the plan's chunk counts."""
        return ConstituentMapping(tuple(map(len, self.plan.slice_counts())))

    @property
    def provenance(self) -> dict:
        """(k, l) -> teacher member ids labeling chunk l of constituent k;
        fixed by the mode and the mapping."""
        mapping = self.mapping
        return {(k, l): chunk_teacher_ids(self.mode, mapping, k, l)
                for k in range(1, mapping.num_students + 1)
                for l in range(1, mapping.chunk_count(k) + 1)}

    @property
    def soft_labels(self) -> MappingProxyType:
        """Read-only (k, l) -> SoftLabelChunk view of the labels: each
        chunk's ids read off the plan, and its rows of labels[k] as a view."""
        view = {}
        for k, labels in self.labels.items():
            ids = self.dataset.ids.take(self.plan.shard_rows(k))
            for l in range(1, self.plan.chunks_in_shard(k) + 1):
                rows = self.plan.chunk_slice(k, l)
                view[(k, l)] = SoftLabelChunk(ids[rows], labels[rows])
        return MappingProxyType(view)

    def rounds(self, k):
        """Rounds (l, j) of constituent k, in order; each round's soft labels
        are a prefix of labels[k]."""
        return plan_rounds(self.plan, k, self.labels[k])

    def run_round(self, state, k, r, epochs, hyper_k, store, ledger, phase):
        """Round r of constituent k for ``checkpoints.replay``, on its soft
        labels."""
        return run_student_round(state, k, r.l, r.j, self.plan, self.dataset, r.targets,
                                 None, epochs, hyper_k, None, store, ledger, phase)

    def remove(self, point_id) -> None:
        """Drop a point from the plan, with its row of soft labels and of its
        chunk's kept member sum; the other rows keep their order and bits."""
        k, l, _ = self.plan.locate(point_id)
        pos = self.plan.remove(point_id)
        self.labels[k] = np.delete(self.labels[k], pos, axis=0)
        if (k, l) in self.sums:
            at = pos - self.plan.chunk_slice(k, l).start
            self.sums[(k, l)] = tuple(np.delete(a, at, axis=0) for a in self.sums[(k, l)])

    def relabel(self, teacher_members, member: int, old: ModelState) -> dict:
        """Relabel every chunk whose subensemble contains teacher member,
        which changed from state old to teacher_members[member - 1]
        (``relabel_chunk``), into one new array per constituent. Returns
        {(k, l): the chunk's teacher ids} of the chunks relabeled, in order."""
        done = {kl: ms for kl, ms in self.provenance.items() if member in ms}
        labels = {k: self.labels[k].copy() for k, _ in done}
        for k, l in done:
            probs, pair = relabel_chunk(self, teacher_members, k, l, member, old)
            labels[k][self.plan.chunk_slice(k, l)] = probs
            self.sums.pop((k, l), None)
            if pair is not None:
                self.sums[(k, l)] = pair
        self.labels.update(labels)
        return done


def run_student_round(state: ModelState, k: int, l: int, j: int,
                      plan: PartitionPlan, dataset: Dataset, soft_labels,
                      provenance, epochs: int, hyper_k: TrainHyper,
                      alpha, store: CheckpointStore | None, ledger: CostLedger,
                      phase: str):
    """One slice round of constituent k: train on the cumulative data
    (chunks 1..l-1 in full plus slices 1..j of chunk l, a prefix of shard
    k), account the steps and, unless store is None, store the checkpoint.
    Returns (state, steps).

    soft_labels is the round's own soft labels as one array, or the
    network's ``soft_labels`` view by chunk. provenance and alpha are
    unused (hyper_k carries the hard-label weight); they stay in the
    signature only because the benchmark under bench/ calls this function
    positionally, with the labels by chunk, until its next change drops
    them."""
    if isinstance(soft_labels, Mapping):
        soft_labels = np.concatenate([soft_labels[(k, i)].probs for i in range(1, l + 1)])[
            :plan.chunk_bounds(k, l)[j]]
    x, soft, hard = gather_round(plan, dataset, k, soft_labels)
    state = model.train(state, x, soft, hard, epochs, hyper_k)
    steps = len(x) * epochs
    ledger.add(phase, "student", k, steps)
    if store is not None:
        store.save(CheckpointKey("student", k, l, j), state)
    return state, steps


def _chunk_points(plan: PartitionPlan, k: int, l: int):
    """(point ids, features) of chunk (k, l), in plan order."""
    rows = plan.shard_rows(k)[plan.chunk_slice(k, l)]
    return plan.dataset.ids.take(rows), plan.dataset.features.take(rows, axis=0)


def generate_chunk_labels(mode: str, mapping: ConstituentMapping, teacher_members,
                          plan: PartitionPlan, k: int, l: int,
                          temperature: float) -> np.ndarray:
    """Soft labels for chunk (k, l) under the given labeling mode, one row
    per point in the chunk's plan order."""
    return subensemble_soft_labels(
        [teacher_members[m - 1] for m in chunk_teacher_ids(mode, mapping, k, l)],
        *_chunk_points(plan, k, l), temperature).probs


def student_labels(mode: str, teacher_members, plan: PartitionPlan, ks,
                   temperature: float) -> dict:
    """k -> the soft labels of shard k of plan, for each k in ks: its
    chunks' (``generate_chunk_labels``) joined in plan order."""
    mapping = ConstituentMapping(tuple(map(len, plan.slice_counts())))
    return {k: np.concatenate([generate_chunk_labels(mode, mapping, teacher_members, plan,
                                                     k, l, temperature)
                               for l in range(1, plan.chunks_in_shard(k) + 1)])
            for k in ks}


def relabel_chunk(net: StudentNetwork, teacher_members, k: int, l: int, member: int,
                  old: ModelState):
    """Soft labels for chunk (k, l) of net after teacher member changed
    from state old to teacher_members[member - 1], every other teacher
    unchanged since the chunk's labels were made. Returns (labels, sums):
    the chunk's rows in plan order, and its exact member sum (r, c) to keep
    for its next relabel, or None.

    A chunk that keeps its exact member sum has that member's term replaced
    (``model.replace_term``): two predictions instead of one per member.
    Otherwise, or when the replacement cannot be certified exact, the chunk
    is labeled in full like ``generate_chunk_labels``, keeping its sum when
    its subensemble has 3 or more members (with 2, a replacement costs as
    much as a full relabel)."""
    ids, x = _chunk_points(net.plan, k, l)
    x = np.ascontiguousarray(x.T).T  # class-major once, for every prediction below
    members = [teacher_members[m - 1] for m in chunk_teacher_ids(net.mode, net.mapping, k, l)]
    t, sums = net.hyper.temperature, net.sums.get((k, l))
    if sums is not None:
        sums = model.replace_term(*sums, model.predict_batch(old, x, t),
                                  model.predict_batch(teacher_members[member - 1], x, t))
        if sums is not None:
            return sums[0] / len(members), sums
    if len(members) >= 3:
        return summed_soft_labels(members, x, t)
    return subensemble_soft_labels(members, ids, x, t).probs, None


def train_student_network(plan: PartitionPlan, teacher_members, budget: TrainBudget,
                          arch: ModelArch, hyper: TrainHyper, store: CheckpointStore,
                          ledger: CostLedger, mode: str, seed: int) -> StudentNetwork:
    """Label every chunk of plan, whose shard k holds constituent k's data
    (``student_labels``), then train every constituent from scratch, those
    of one shape in lockstep (``checkpoints.retrain``)."""
    labels = student_labels(mode, teacher_members, plan, range(1, plan.num_shards + 1),
                            hyper.temperature)
    network = StudentNetwork([], plan, plan.dataset, mode, labels, {}, budget, arch,
                             hyper, seed)
    network.constituents = retrain(network, range(1, plan.num_shards + 1), store,
                                   ledger, "initial_train")
    return network


def evaluate_accuracy(states, dataset: Dataset) -> float:
    """Fraction of points whose argmax of the states' exact mean prediction
    (lowest index wins ties) equals the hard label."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate accuracy on an empty dataset")
    probs = model.aggregate_batch([model.predict_batch(s, dataset.features)
                                   for s in states])
    return float((np.argmax(probs, axis=1) == dataset.labels).mean())


def loss_trace(network: StudentNetwork, store: CheckpointStore, k: int):
    """Per-round (round index, mean distillation loss over that round's
    cumulative data at round end) for constituent k, read from the latest
    generation of each round checkpoint in store."""
    trace = []
    for n, r in enumerate(network.rounds(k), start=1):
        x, soft, hard = gather_round(network.plan, network.dataset, k, r.targets)
        state = store.load(CheckpointKey("student", k, r.l, r.j)).state
        trace.append((n, model.mean_distill_loss(state, x, soft, hard,
                                                 network.hyper.hard_label_weight)))
    return trace
