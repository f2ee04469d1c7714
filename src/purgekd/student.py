"""Distilled student network trained incrementally against a growing teacher
subensemble.

Each constituent k owns shard k, split into c_k chunks, and is mapped to the
next c_k teachers, one per chunk; the mapping is read off the plan's shape.
Chunk l is soft-labeled by the subensemble of the first l teachers mapped to
k; chunks are further sliced, and the constituent trains on its cumulative
data (all earlier chunks plus slices 1..j of the current chunk) for the
per-slice epoch budget, checkpointing after every round. The network is the
student role of the lifecycle in ``checkpoints``: it supplies ``rounds``
(which checks once per replay or retrain that the cached soft labels follow
the plan's order, then joins them into one array that every round slices)
and ``run_round``, which is ``run_student_round`` on the cached labels;
``checkpoints.retrain`` runs initial training and verification,
constituents of one shape in lockstep; ``checkpoints.revert_and_replay``
runs unlearning, one constituent at a time. Two baseline labeling modes
share this path: naive_sisa labels every chunk with the full ensemble,
single_teacher chunk l with teacher l.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import model
from .checkpoints import CheckpointKey, CheckpointStore, gather_round, plan_rounds, retrain
from .costmodel import CostLedger
from .data import Dataset, PartitionPlan, even_split_sizes, make_partition
from .errors import NotFoundError
from .model import (SEED_STUDENT, SEED_STUDENT_PLAN, ModelArch, ModelState,
                    SoftLabelChunk, TrainHyper, mix_seed, subensemble_soft_labels,
                    summed_soft_labels)
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
    soft_labels: dict  # (k, l) -> SoftLabelChunk
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

    def rounds(self, k):
        """Rounds (l, j) of constituent k, in order, once the cached soft
        labels of its chunks are checked to follow the plan's order: they
        are joined into one array for this call, and each round's soft
        labels are a prefix of it. Nothing keeps the array, so every call
        sees the labels as they are then."""
        ids = self.dataset.ids.take(self.plan.shard_rows(k))
        chunks = [self.soft_labels[(k, l)] for l in range(1, self.plan.chunks_in_shard(k) + 1)]
        for l, chunk in enumerate(chunks, start=1):
            bounds = self.plan.chunk_bounds(k, l)
            if not np.array_equal(chunk.ids, ids[bounds[0]:bounds[-1]]):
                raise ValueError(f"soft labels of chunk {k},{l} do not follow the "
                                 f"plan's order")
        return plan_rounds(self.plan, k, np.concatenate([c.probs for c in chunks]))

    def run_round(self, state, k, r, epochs, hyper_k, store, ledger, phase):
        """Round r of constituent k for ``checkpoints.replay``, on its soft
        labels."""
        return run_student_round(state, k, r.l, r.j, self.plan, self.dataset, r.targets,
                                 None, epochs, hyper_k, None, store, ledger, phase)


def run_student_round(state: ModelState, k: int, l: int, j: int,
                      plan: PartitionPlan, dataset: Dataset, soft_labels,
                      provenance, epochs: int, hyper_k: TrainHyper,
                      alpha, store: CheckpointStore | None, ledger: CostLedger,
                      phase: str):
    """One slice round of constituent k: train on the cumulative data
    (chunks 1..l-1 in full plus slices 1..j of chunk l, a prefix of shard
    k), account the steps and, unless store is None, store the checkpoint.
    Returns (state, steps).

    soft_labels is the round's own soft labels as one array, or the cached
    soft labels by chunk, (k, l) -> SoftLabelChunk in plan order. provenance
    and alpha are unused (hyper_k carries the hard-label weight); they stay
    in the signature only because the benchmark under bench/ calls this
    function positionally, with the labels by chunk, until its next change
    drops them."""
    if isinstance(soft_labels, dict):
        soft_labels = np.concatenate([soft_labels[(k, i)].probs for i in range(1, l + 1)])[
            :plan.chunk_bounds(k, l)[j]]
    x, soft, hard = gather_round(plan, dataset, k, soft_labels)
    state = model.train(state, x, soft, hard, epochs, hyper_k)
    steps = len(x) * epochs
    ledger.add(phase, "student", k, steps)
    if store is not None:
        store.save(CheckpointKey("student", k, l, j), state)
    return state, steps


def _chunk_points(plan: PartitionPlan, dataset: Dataset, k: int, l: int):
    """(point ids, features) of chunk (k, l), in plan order."""
    bounds = plan.chunk_bounds(k, l)
    rows = plan.shard_rows(k)[bounds[0]:bounds[-1]]
    return dataset.ids.take(rows), dataset.features.take(rows, axis=0)


def generate_chunk_labels(mode: str, mapping: ConstituentMapping,
                          teacher_members, plan: PartitionPlan, dataset: Dataset,
                          k: int, l: int, temperature: float) -> SoftLabelChunk:
    """Soft labels for chunk (k, l) under the given labeling mode, in the
    chunk's plan order."""
    return subensemble_soft_labels(
        [teacher_members[m - 1] for m in chunk_teacher_ids(mode, mapping, k, l)],
        *_chunk_points(plan, dataset, k, l), temperature)


def relabel_chunk(net: StudentNetwork, teacher_members, k: int, l: int, member: int,
                  old: ModelState) -> SoftLabelChunk:
    """Soft labels for chunk (k, l) of net after teacher member changed
    from state old to teacher_members[member - 1], every other teacher
    unchanged since the chunk's cached labels were made.

    A cached chunk that keeps its exact member sum has that member's term
    replaced (``SoftLabelChunk.replaced``): two predictions instead of one
    per member. Otherwise, or when the replacement cannot be certified
    exact, the chunk is labeled in full like ``generate_chunk_labels``,
    keeping its sum when its subensemble has 3 or more members (with 2, a
    replacement costs as much as a full relabel)."""
    ids, x = _chunk_points(net.plan, net.dataset, k, l)
    x = np.ascontiguousarray(x.T).T  # class-major once, for every prediction below
    members = [teacher_members[m - 1] for m in chunk_teacher_ids(net.mode, net.mapping, k, l)]
    t, cached = net.hyper.temperature, net.soft_labels[(k, l)]
    if cached.sums is not None:
        chunk = cached.replaced(model.predict_batch(old, x, t),
                                model.predict_batch(teacher_members[member - 1], x, t),
                                len(members))
        if chunk is not None:
            return chunk
    label = summed_soft_labels if len(members) >= 3 else subensemble_soft_labels
    return label(members, ids, x, t)


def student_structure(dataset: Dataset, slice_counts, seed: int, removed,
                      teacher_members, mode: str, temperature: float):
    """A student network's plan, drawn with seed in the shape slice_counts
    minus the removed ids, and every chunk's soft labels under the mapping
    that shape fixes. Returns (plan, soft_labels)."""
    plan = make_partition(dataset, slice_counts, seed, removed)
    mapping = ConstituentMapping(tuple(map(len, slice_counts)))
    soft_labels = {(k, l): generate_chunk_labels(mode, mapping, teacher_members, plan,
                                                 dataset, k, l, temperature)
                   for k in range(1, mapping.num_students + 1)
                   for l in range(1, mapping.chunk_count(k) + 1)}
    return plan, soft_labels


def train_student_network(dataset: Dataset, teacher_members, slice_counts,
                          budget: TrainBudget, arch: ModelArch, hyper: TrainHyper,
                          store: CheckpointStore, ledger: CostLedger, mode: str,
                          seed: int) -> StudentNetwork:
    """Build the structure in the nested shape slice_counts, whose row k
    holds R_{k,l} for each chunk of constituent k (student_structure), then
    train every constituent from scratch, those of one shape in lockstep
    (checkpoints.retrain)."""
    plan, soft_labels = student_structure(
        dataset, slice_counts, mix_seed(seed, SEED_STUDENT_PLAN), (),
        teacher_members, mode, hyper.temperature)
    network = StudentNetwork([], plan, dataset, mode, soft_labels,
                             budget, arch, hyper, seed)
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
