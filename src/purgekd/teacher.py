"""Sharded teacher ensemble: per-member sliced incremental training with
checkpoints after every slice, and exact unlearning by checkpoint reversion
and replay.

Each member m trains only on shard m: one chunk, R_T slices, cumulative
slices 1..j for the per-slice epoch budget each round. One loop,
``replay_member``, runs the rounds from any j on: from 1 for initial
training and verification (which keeps no checkpoint), from the reverted
round for unlearning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import model
from .checkpoints import (CheckpointKey, CheckpointStore, record_state,
                          revert_key, state_record)
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


def _gather_round(plan: PartitionPlan, dataset: Dataset, m: int, j: int):
    """Training arrays (x, hard) for round j of member m: slices 1..j, a
    prefix of shard m in plan order, read by row index."""
    rows = plan.shard_rows(m)[:plan.chunk_bounds(m, 1)[j]]
    return dataset.features[rows], dataset.labels[rows]


def replay_member(state: ModelState, m: int, j: int, plan: PartitionPlan,
                  dataset: Dataset, budget: TrainBudget, hyper: TrainHyper,
                  store: CheckpointStore | None, ledger: CostLedger,
                  phase: str):
    """Run member m's slice rounds j..R_T from state, the state before round
    j: train on cumulative slices 1..q, account the steps and, unless store
    is None, checkpoint after each round q. Returns (state, steps)."""
    r_t = plan.slices_in_chunk(m, 1)
    epochs = budget.epochs_for(r_t)
    member_hyper = model.stream_hyper(hyper, SEED_TEACHER, m)
    steps = 0
    for q in range(j, r_t + 1):
        x, hard = _gather_round(plan, dataset, m, q)
        state = model.train(state, x, one_hot(hard, dataset.num_classes), hard,
                            epochs, member_hyper)
        n = len(x) * epochs
        ledger.add(phase, "teacher", m, n)
        steps += n
        if store is not None:
            key = CheckpointKey("teacher", m, 1, q)
            store.save(key, state_record(key, state))
    return state, steps


def train_teacher_member(m: int, plan: PartitionPlan, dataset: Dataset,
                         budget: TrainBudget, arch: ModelArch, hyper: TrainHyper,
                         store: CheckpointStore, ledger: CostLedger,
                         seed: int) -> ModelState:
    """Train member m from scratch: checkpoint its initial state, then
    replay every round."""
    state = model.init_model(arch, mix_seed(seed, SEED_TEACHER, m))
    key = CheckpointKey("teacher", m, 0, 0)
    store.save(key, state_record(key, state))
    return replay_member(state, m, 1, plan, dataset, budget, hyper, store,
                         ledger, "initial_train")[0]


def partition_members(dataset: Dataset, slice_counts, seed: int,
                      removed) -> PartitionPlan:
    """The teacher plan: member m's shard m has one chunk of
    slice_counts[m-1][0] slices, drawn with seed, minus the removed ids."""
    plan = make_partition(dataset, len(slice_counts), [1] * len(slice_counts),
                          slice_counts, seed)
    for point_id in removed:
        plan.remove(point_id)
    return plan


def train_teacher_ensemble(dataset: Dataset, members: int, slices_per_member: int,
                           budget: TrainBudget, arch: ModelArch, hyper: TrainHyper,
                           store: CheckpointStore, ledger: CostLedger,
                           seed: int) -> TeacherEnsemble:
    """Partition the dataset into one shard per member and train each member
    independently on its own shard."""
    plan = partition_members(dataset, [[slices_per_member]] * members,
                             mix_seed(seed, SEED_TEACHER_PLAN), ())
    states = [train_teacher_member(m, plan, dataset, budget, arch, hyper,
                                   store, ledger, seed)
              for m in range(1, members + 1)]
    return TeacherEnsemble(states, plan, dataset, budget, arch, hyper, seed)


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
    key = revert_key("teacher", ensemble.plan, m, 1, j)
    record = store.load(key)
    ensemble.members[m - 1], steps = replay_member(
        record_state(record), m, j, ensemble.plan, ensemble.dataset,
        ensemble.budget, ensemble.hyper, store, ledger, "teacher_retrain")
    return steps, f"{key}@{record.generation}"
