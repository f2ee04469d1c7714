"""Sharded teacher ensemble: per-member sliced incremental training with
checkpoints after every slice, and exact unlearning by checkpoint reversion
and replay.

Each member m trains only on shard m: one chunk, R_T slices, cumulative
slices 1..j for the per-slice epoch budget each round. Its plan is
``make_partition`` of the shape [[R_T]] * M. The ensemble is the
teacher role of the lifecycle in ``checkpoints``: it supplies ``rounds``,
whose soft targets are the one-hot hard labels, and ``run_round``;
``checkpoints.retrain`` runs initial training and verification, members of
one shard size in lockstep; ``checkpoints.revert_and_replay`` runs
unlearning, one member at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from . import model
from .checkpoints import (CheckpointKey, CheckpointStore, gather_round, plan_rounds,
                          retrain, revert_and_replay)
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
    role: ClassVar[str] = "teacher"
    seed_domain: ClassVar[int] = SEED_TEACHER

    @property
    def member_count(self) -> int:
        return len(self.members)

    def rounds(self, m):
        """Rounds (1, j) of member m, in order, over the one-hot labels of
        shard m."""
        hard = self.dataset.labels.take(self.plan.shard_rows(m))
        return plan_rounds(self.plan, m, one_hot(hard, self.dataset.num_classes))

    def run_round(self, state, m, r, epochs, hyper_m, store, ledger, phase):
        """Round r of member m for ``checkpoints.replay``."""
        x, soft, hard = gather_round(self.plan, self.dataset, m, r.targets)
        state = model.train(state, x, soft, hard, epochs, hyper_m)
        ledger.add(phase, self.role, m, len(x) * epochs)
        if store is not None:
            store.save(CheckpointKey(self.role, m, r.l, r.j), state)
        return state, len(x) * epochs


def train_teacher_ensemble(dataset: Dataset, members: int, slices_per_member: int,
                           budget: TrainBudget, arch: ModelArch, hyper: TrainHyper,
                           store: CheckpointStore, ledger: CostLedger,
                           seed: int) -> TeacherEnsemble:
    """Partition the dataset into one shard per member and train each member
    on its own shard, in lockstep where shards are of one size
    (``checkpoints.retrain``)."""
    plan = make_partition(dataset, [[slices_per_member]] * members,
                          mix_seed(seed, SEED_TEACHER_PLAN))
    ensemble = TeacherEnsemble([], plan, dataset, budget, arch, hyper, seed)
    ensemble.members = retrain(ensemble, range(1, members + 1), store, ledger,
                               "initial_train")
    return ensemble


def teacher_unlearn(ensemble: TeacherEnsemble, point_id, store: CheckpointStore,
                    ledger: CostLedger):
    """Remove one point from its owning member's shard and replay training
    from the last checkpoint that never saw it.

    Returns (data-point steps, reverted checkpoint description). Checkpoints
    from the point's slice onward are overwritten (generation bump); the
    other members are untouched.
    """
    m, _, j = ensemble.plan.locate(point_id)
    ensemble.plan.remove(point_id)
    ensemble.members[m - 1], steps, reverted = revert_and_replay(
        ensemble, m, 1, j, store, ledger, "teacher_retrain")
    return steps, reverted
