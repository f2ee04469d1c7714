"""Sharded teacher ensemble: per-member sliced incremental training with
checkpoints after every slice, and exact unlearning by checkpoint reversion
and replay.

Each member m trains only on shard m: one chunk, R_T slices, cumulative
slices 1..j for the per-slice epoch budget each round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import model
from .checkpoints import CheckpointKey, CheckpointStore, record_state, state_record
from .costmodel import CostLedger
from .data import Dataset, PartitionPlan, make_partition
from .model import (SEED_TEACHER, SEED_TEACHER_PLAN, ModelArch, ModelState,
                    TrainHyper, mix_seed, one_hot)


@dataclass(frozen=True)
class TrainBudget:
    """Total initial-training effort, expressed as equivalent full-data epochs."""

    e_prime: int

    def __post_init__(self):
        if self.e_prime < 1:
            raise ValueError("e_prime must be >= 1")

    def epochs_for(self, num_slices: int) -> int:
        """Per-slice-round epochs: ceil(2 e' / (num_slices + 1))."""
        if num_slices < 1:
            raise ValueError("num_slices must be >= 1")
        return math.ceil(2 * self.e_prime / (num_slices + 1))


@dataclass
class TeacherEnsemble:
    members: list[ModelState]
    plan: PartitionPlan
    dataset: Dataset
    budget: TrainBudget
    arch: ModelArch
    hyper: TrainHyper
    seed: int

    @property
    def member_count(self) -> int:
        return len(self.members)

    def member_hyper(self, m: int) -> TrainHyper:
        return model.stream_hyper(self.hyper, SEED_TEACHER, m)


def _gather_round(plan: PartitionPlan, dataset: Dataset, m: int, j: int):
    """Training arrays (x, hard) for round j of member m: slices 1..j, a
    prefix of shard m in plan order, read by row index."""
    rows = plan.shard_rows(m)[:plan.chunk_bounds(m, 1)[j]]
    return dataset.features[rows], dataset.labels[rows]


def _teacher_round(state: ModelState, m: int, j: int, plan: PartitionPlan,
                   dataset: Dataset, epochs: int, member_hyper: TrainHyper,
                   store: CheckpointStore, ledger: CostLedger,
                   phase: str):
    """One slice round: train on cumulative slices 1..j, checkpoint, account.
    Returns (state, steps)."""
    x, hard = _gather_round(plan, dataset, m, j)
    state = model.train(state, x, one_hot(hard, dataset.num_classes), hard,
                        epochs, member_hyper)
    steps = len(x) * epochs
    ledger.add(phase, "teacher", m, steps)
    store.save(CheckpointKey("teacher", m, 1, j), state_record(
        CheckpointKey("teacher", m, 1, j), state))
    return state, steps


def train_teacher_member(m: int, plan: PartitionPlan, dataset: Dataset,
                         budget: TrainBudget, arch: ModelArch, hyper: TrainHyper,
                         store: CheckpointStore, ledger: CostLedger,
                         seed: int) -> ModelState:
    """Train member m from scratch over its shard's cumulative slices."""
    r_t = plan.slices_in_chunk(m, 1)
    epochs = budget.epochs_for(r_t)
    state = model.init_model(arch, mix_seed(seed, SEED_TEACHER, m))
    store.save(CheckpointKey("teacher", m, 0, 0), state_record(
        CheckpointKey("teacher", m, 0, 0), state))
    member_hyper = model.stream_hyper(hyper, SEED_TEACHER, m)
    for j in range(1, r_t + 1):
        state, _ = _teacher_round(state, m, j, plan, dataset, epochs,
                                  member_hyper, store, ledger, "initial_train")
    return state


def train_teacher_ensemble(dataset: Dataset, members: int, slices_per_member: int,
                           budget: TrainBudget, arch: ModelArch, hyper: TrainHyper,
                           store: CheckpointStore, ledger: CostLedger,
                           seed: int) -> TeacherEnsemble:
    """Partition the dataset into one shard per member and train each member
    independently on its own shard."""
    plan = make_partition(dataset, members, [1] * members,
                          [[slices_per_member]] * members,
                          mix_seed(seed, SEED_TEACHER_PLAN))
    states = [train_teacher_member(m, plan, dataset, budget, arch, hyper,
                                   store, ledger, seed)
              for m in range(1, members + 1)]
    return TeacherEnsemble(states, plan, dataset, budget, arch, hyper, seed)


def teacher_unlearn(ensemble: TeacherEnsemble, point_id, store: CheckpointStore,
                    ledger: CostLedger):
    """Remove one point from its owning member's shard and replay training
    from the last checkpoint that never saw it.

    Returns (ensemble, member m, slice j the point sat in, data-point steps,
    reverted checkpoint description). Checkpoints from slice j onward are
    overwritten (generation bump); the other members are untouched.
    """
    m, _, j = ensemble.plan.locate(point_id)
    ensemble.plan.remove(point_id)
    r_t = ensemble.plan.slices_in_chunk(m, 1)
    revert_key = CheckpointKey("teacher", m, 0, 0) if j == 1 \
        else CheckpointKey("teacher", m, 1, j - 1)
    record = store.load(revert_key)
    state = record_state(record)
    epochs = ensemble.budget.epochs_for(r_t)
    member_hyper = ensemble.member_hyper(m)
    steps = 0
    for q in range(j, r_t + 1):
        state, n = _teacher_round(state, m, q, ensemble.plan, ensemble.dataset,
                                  epochs, member_hyper, store, ledger,
                                  "teacher_retrain")
        steps += n
    ensemble.members[m - 1] = state
    return ensemble, m, j, steps, f"{revert_key}@{record.generation}"
