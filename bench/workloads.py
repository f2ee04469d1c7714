"""The benchmark's workloads: a fixed shape for each, the system it trains and
the request stream drawn from the run's seed.

Every stream is a fixed list of slots. A slot pins the structure of one
request (its kind, the constituent, chunk and slice it hits, or the teacher
member and slice), so every seed asks for the same amount of replay work.
The seed picks the concrete point inside each slot.

Student-side removals keep cached soft labels (``SoftLabelChunk.without``),
and label inference is not row-count invariant: a chunk's final rows get
other bits when the chunk is relabelled with one row fewer. Whether that
flips a verification depends on those rows' values. So the workloads with
student-side removals train a fixed system (their data seed is a constant),
never remove a point from the last ``TAIL_ROWS`` rows of a chunk, and keep
the teachers that label those chunks unchanged. The same requests then fail
verification on every run, whatever the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from purgekd import (CheckpointStore, ModelArch, SyntheticSpec, TrainHyper,
                     UnlearnRequest, gen_synthetic, train_system)

# Label inference differs between an n-row and an (n-1)-row call only in
# the last four rows (measured with single-threaded OpenBLAS); 32 leaves room.
TAIL_ROWS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    points_per_class: int
    num_classes: int
    feature_dim: int
    arch_kind: str
    hidden_units: int | None
    members: int           # M teachers
    teacher_slices: int    # R_T slices per teacher shard
    constituents: int      # N students
    slices_per_chunk: int  # r
    e_prime: int
    requests: int          # requests per round
    fixed_data_seed: int | None  # None: the system is drawn from --seed
    round_s: float  # wall time of one round, checks included, on a 2-core VM

    @property
    def arch(self) -> ModelArch:
        return ModelArch(self.arch_kind, self.feature_dim, self.num_classes,
                         self.hidden_units)

    def build(self, seed: int, store: CheckpointStore):
        """Dataset generation plus train_system: the timed set-up."""
        s = seed if self.fixed_data_seed is None else self.fixed_data_seed
        dataset = gen_synthetic(SyntheticSpec(self.num_classes, self.points_per_class,
                                              self.feature_dim, seed=s))
        return train_system(
            student_dataset=dataset, teacher_dataset=None,
            teacher_members=self.members, teacher_slices=self.teacher_slices,
            student_constituents=self.constituents,
            slices_per_chunk=self.slices_per_chunk, mode="purge",
            e_prime=self.e_prime, teacher_arch=self.arch, student_arch=self.arch,
            teacher_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=s + 1),
            student_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=s + 2),
            store=store, seed=s)


WORKLOADS = {
    # ROADMAP medium shape; all three removal paths.
    "mixed_medium": Workload("mixed_medium", 2000, 10, 32, "one_hidden_layer", 32,
                             members=16, teacher_slices=4, constituents=4,
                             slices_per_chunk=4, e_prime=10, requests=20,
                             fixed_data_seed=1, round_s=23.9),
    # Deep subensembles: each teacher request relabels up to 16 chunks.
    "teacher_deep": Workload("teacher_deep", 1000, 10, 32, "softmax_linear", None,
                             members=32, teacher_slices=4, constituents=2,
                             slices_per_chunk=2, e_prime=10, requests=20,
                             fixed_data_seed=None, round_s=16.5),
    # Many small, finely sliced constituents; requests never relabel. Short
    # rounds spread a run's set-ups and manifest samples over the machine's
    # fast and slow phases (see README, Steadiness).
    "student_fine": Workload("student_fine", 1000, 10, 16, "softmax_linear", None,
                             members=16, teacher_slices=2, constituents=8,
                             slices_per_chunk=16, e_prime=10, requests=10,
                             fixed_data_seed=2, round_s=5.0),
}


def _student_slot_points(system, k: int, l: int, j: int) -> list[int]:
    """Points of student slice (k, l, j), without the chunk's last TAIL_ROWS rows."""
    plan = system.student.plan
    tail = set(plan.chunk_ids(k, l)[-TAIL_ROWS:])
    return [p for p in plan.slice_ids(k, l, j) if p not in tail]


def _grid(i: int, rows: int, cols: int, stride: int) -> tuple[int, int]:
    """i-th cell of a rows x cols grid visited with a fixed stride (1-based)."""
    cell = (i * stride) % (rows * cols)
    return cell // cols + 1, cell % cols + 1


def _mixed_medium_slots(system, count: int):
    """Constituents 1-2 take the student-side removals that keep cached
    labels (student_point, misaligned simultaneous). Constituents 3-4 and their
    teachers 9-16 take every teacher-side update, whose relabelling renews
    whole chunks. The teachers that label constituents 1-2 never change."""
    net = system.student
    tplan = system.teacher.plan
    c, r, r_t = net.plan.chunks_in_shard(1), net.plan.slices_in_chunk(1, 1), \
        tplan.slices_in_chunk(1, 1)
    teacher_side = [m for k in (3, 4) for m in net.mapping.teachers_for(k)]
    slots = []
    for i in range(count):
        kind = ("student_point", "teacher_point", "aligned", "misaligned")[i % 4]
        n = i // 4  # slot number within its kind
        if kind == "student_point":
            l, j = _grid(n, c, r, 7)
            pool = _student_slot_points(system, 1 + n % 2, l, j)
        elif kind == "teacher_point":
            m = teacher_side[(n * 3) % len(teacher_side)]
            pool = tplan.slice_ids(m, 1, 1 + n % r_t)
        elif kind == "aligned":
            k, l = 3 + n % 2, 1 + (n * 3) % c
            m = net.mapping.teachers_for(k)[l - 1]
            pool = [p for p in net.plan.chunk_ids(k, l) if tplan.locate(p)[0] == m]
        else:
            l, j = _grid(n, c, r, 5)
            m = teacher_side[(n * 5 + 1) % len(teacher_side)]
            pool = [p for p in _student_slot_points(system, 1 + (n + 1) % 2, l, j)
                    if tplan.locate(p)[0] == m]
        slots.append((kind if kind.endswith("_point") else "simultaneous", pool))
    return slots


def _teacher_deep_slots(system, count: int):
    """Teacher requests whose owners sit at every chunk position in turn."""
    mapping = system.student.mapping
    tplan = system.teacher.plan
    c, r_t = mapping.chunk_count(1), tplan.slices_in_chunk(1, 1)
    slots = []
    for i in range(count):
        k, pos = 1 + i % 2, 1 + (i * 5) % c
        m = mapping.teachers_for(k)[pos - 1]
        slots.append(("teacher_point", tplan.slice_ids(m, 1, 1 + i % r_t)))
    return slots


def _student_fine_slots(system, count: int):
    """Student requests spread over every constituent, chunk and slice."""
    plan = system.student.plan
    n = plan.num_shards
    c, r = plan.chunks_in_shard(1), plan.slices_in_chunk(1, 1)
    slots = []
    for i in range(count):
        l, j = _grid(i, c, r, 11)
        slots.append(("student_point", _student_slot_points(system, 1 + i % n, l, j)))
    return slots


SLOTS = {"mixed_medium": _mixed_medium_slots, "teacher_deep": _teacher_deep_slots,
         "student_fine": _student_fine_slots}


def request_stream(workload: Workload, system, seed: int) -> list[UnlearnRequest]:
    """The round's requests: one uniformly drawn, not yet used point per slot."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    used: set[int] = set()
    requests = []
    for seq, (kind, pool) in enumerate(SLOTS[workload.name](system, workload.requests),
                                       start=1):
        pool = [p for p in pool if p not in used]
        if not pool:
            raise ValueError(f"{workload.name}: slot {seq} has no point left")
        pid = int(pool[int(rng.integers(len(pool)))])
        used.add(pid)
        requests.append(UnlearnRequest(seq, kind, pid))
    return requests
