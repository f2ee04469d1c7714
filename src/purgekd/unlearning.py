"""Unlearning request engine: one removal planner, one executor, and
scratch-retrain exactness verification.

Every request kind follows one rule: revert each affected model to the last
checkpoint that saw neither the removed point nor a relabeled chunk, then
replay. ``plan_removal`` reads the pre-removal system and names the teacher
member to update (teacher-side and simultaneous requests) and, per student
constituent, the first round to replay. ``apply_request`` carries the plan
out: it updates the owning teacher member, drops a student point from its
partition and cached labels, relabels only the chunks whose labeling
subensemble contains the updated member, and replays each affected
constituent once from its planned start. A relabel replaces the updated
member's term in the chunk's exact member sum, kept by the network since
the chunk's previous relabel (two predictions, not one per member), or
falls back to a full relabel, which keeps the sum for the next one when
the subensemble has 3 or more members; either gives the bits a full
relabel gives. Labels
of earlier chunks are byte-unchanged because their subensembles never
contained the updated member. Both roles revert and replay through the one
checkpointed lifecycle (``checkpoints.revert_and_replay``).
``verify_exactness`` takes the models it checks from the same plan and
retrains them from scratch through the same lifecycle
(``checkpoints.retrain``, one call per role, so models of one shape train
in lockstep), writing no checkpoint, and compares each retrained
constituent's cached labels with labels derived from the current teachers,
chunk by chunk.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, replace

import numpy as np

from .checkpoints import retrain, revert_and_replay
from .costmodel import CostLedger
from .errors import ConfigError, NotFoundError, ParseError
from .student import student_labels
from .teacher import teacher_unlearn

REQUEST_KINDS = ("student_point", "teacher_point", "simultaneous")
GENERATOR_KINDS = ("student_point", "teacher_point", "simultaneous",
                   "simultaneous_aligned", "simultaneous_misaligned")


@dataclass(frozen=True)
class UnlearnRequest:
    request_id: int
    kind: str
    point_id: int

    def __post_init__(self):
        if self.kind not in REQUEST_KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")


@dataclass
class UnlearnReport:
    request_id: int
    kind: str
    point_id: int
    affected_teacher_members: tuple[int, ...] = ()
    affected_student_constituents: tuple[int, ...] = ()
    reverted_to: tuple[str, ...] = ()
    chunks_relabeled: tuple[tuple[int, int], ...] = ()
    teacher_steps: int = 0
    student_steps: int = 0
    relabel_inference: int = 0
    wall_time: float = 0.0


def plan_removal(system, request: UnlearnRequest):
    """What a request will touch, read from the system before it changes.

    Returns (teacher member to update, or None for a student point;
    {constituent k: first round (l, j) to replay}). A teacher-side update
    replays each constituent from slice 1 of its first chunk whose labeling
    subensemble contains the member; a student point replays its own
    constituent from the round that first trained on it; a constituent hit
    by both replays once, from the earlier start. Raises NotFoundError,
    changing nothing, if the point is missing from a partition the request
    needs, or for a simultaneous request on a system whose teacher and
    student datasets differ (equal ids there name different points)."""
    pid = request.point_id
    if request.kind == "simultaneous":
        if not system.shared_dataset:
            raise NotFoundError(f"point {pid}: simultaneous removal needs a "
                                "shared teacher/student dataset")
        for side, plan in (("student", system.student.plan),
                           ("teacher", system.teacher.plan)):
            if pid not in plan:
                raise NotFoundError(f"point {pid} is not in the {side} partition")
    member = None
    starts: dict[int, tuple[int, int]] = {}
    if request.kind != "student_point":
        member, _, _ = system.teacher.plan.locate(pid)
        for (k, l), member_ids in system.student.provenance.items():
            if member in member_ids:
                starts[k] = min(starts.get(k, (l, 1)), (l, 1))
    if request.kind != "teacher_point":
        k, l, j = system.student.plan.locate(pid)
        starts[k] = min(starts.get(k, (l, j)), (l, j))
    return member, starts


def apply_request(system, request: UnlearnRequest):
    """Remove the request's point and replay what saw it.

    The teacher side SISA-updates the owning member; the student side drops
    the point from its partition and its soft labels. Every chunk whose
    subensemble contains the updated member is then relabeled
    (``StudentNetwork.relabel``): the member's term in the chunk's exact
    member sum is replaced, old prediction by new, or the chunk falls back
    to a full relabel. Each affected constituent then replays once from its
    planned start, in constituent order. Returns (system, report)."""
    t0 = time.perf_counter()
    member, starts = plan_removal(system, request)
    pid = request.point_id
    net = system.student
    report = UnlearnReport(request.request_id, request.kind, int(pid),
                           affected_student_constituents=tuple(sorted(starts)))
    reverted = []
    if member is not None:
        old = system.teacher.members[member - 1]
        report.teacher_steps, rev = teacher_unlearn(
            system.teacher, pid, system.store, system.ledger)
        report.affected_teacher_members = (member,)
        reverted.append(rev)
    if request.kind != "teacher_point":
        net.remove(pid)
    if member is not None:
        relabeled = net.relabel(system.teacher.members, member, old)
        report.chunks_relabeled = tuple(relabeled)
        for (k, l), member_ids in relabeled.items():
            rows = net.plan.chunk_slice(k, l)
            count = (rows.stop - rows.start) * len(member_ids)
            report.relabel_inference += count
            system.ledger.add("relabel_inference", "student", k, count)
    for k in sorted(starts):
        net.constituents[k - 1], steps, rev = revert_and_replay(
            net, k, *starts[k], system.store, system.ledger, "student_retrain")
        report.student_steps += steps
        reverted.append(rev)
    report.reverted_to = tuple(reverted)
    report.wall_time = time.perf_counter() - t0
    return system, report


def is_aligned(system, point_id) -> bool:
    """True when the point's student chunk is the one first labeled by the
    point's own teacher member."""
    k, l, _ = system.student.plan.locate(point_id)
    m, _, _ = system.teacher.plan.locate(point_id)
    return system.student.mapping.owner_of(m) == (k, l)


# ----------------------------------------------------------------------------
# Exactness verification
# ----------------------------------------------------------------------------

@dataclass
class VerificationVerdict:
    passed: bool
    max_param_diff: float
    checked_teacher_members: tuple[int, ...] = ()
    checked_student_constituents: tuple[int, ...] = ()
    failures: tuple[str, ...] = ()


def verify_exactness(system_before, request: UnlearnRequest,
                     system_after) -> VerificationVerdict:
    """Independently retrain every affected model from a fresh initial state
    on the post-removal data, keeping no checkpoints, and assert exact
    parameter equality with the updated system; non-targeted models must be
    byte-identical to before."""
    member, starts = plan_removal(system_before, request)
    t_ms = () if member is None else (member,)
    s_ks = tuple(sorted(starts))
    t, net = system_after.teacher, system_after.student
    failures = []
    for name, touched, before, after in (
            ("teacher", t_ms, system_before.teacher.members, t.members),
            ("constituent", s_ks, system_before.student.constituents, net.constituents)):
        failures += [f"non-targeted {name} {i} changed"
                     for i, (a, b) in enumerate(zip(before, after), start=1)
                     if i not in touched and not np.array_equal(a.params, b.params)]
    diffs = [0.0]

    def compare(name, scratch, updated):
        diffs.append(float(np.max(np.abs(scratch.params - updated.params), initial=0.0)))
        if diffs[-1] != 0.0:
            failures.append(f"{name}: scratch retrain differs by {diffs[-1]}")

    for m, scratch in zip(t_ms, retrain(t, t_ms, None, CostLedger(), "initial_train")):
        compare(f"teacher {m}", scratch, t.members[m - 1])
    labels = student_labels(net.mode, t.members, net.plan, s_ks, net.hyper.temperature)
    scratches = retrain(replace(net, labels=labels), s_ks, None, CostLedger(),
                        "initial_train")
    for k, scratch in zip(s_ks, scratches):
        compare(f"constituent {k}", scratch, net.constituents[k - 1])
        derived, cached = labels[k], net.labels[k]
        if len(cached) != len(derived):
            failures.append(f"constituent {k}: {len(cached)} cached label rows for "
                            f"{len(derived)} shard rows")
        for l in range(1, net.plan.chunks_in_shard(k) + 1):
            rows = net.plan.chunk_slice(k, l)
            if not np.array_equal(derived[rows], cached[rows]):
                failures.append(f"constituent {k}: cached labels of chunk {l} "
                                "do not match the current teachers")
    return VerificationVerdict(not failures, max(diffs), t_ms, s_ks, tuple(failures))


# ----------------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------------

def parse_request_stream(path) -> list[UnlearnRequest]:
    """Read a ``seq,target_kind,point_id`` CSV into requests."""
    requests = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1 and row[0].strip().lower() == "seq":
                continue
            if len(row) != 3:
                raise ParseError(f"{path}: line {lineno}: expected seq,target_kind,point_id")
            try:
                seq = int(row[0])
                pid = int(row[2])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            kind = row[1].strip()
            if kind not in REQUEST_KINDS:
                raise ParseError(f"{path}: line {lineno}: unknown target_kind {kind!r}")
            requests.append(UnlearnRequest(seq, kind, pid))
    return requests


def write_request_stream(path, requests) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seq", "target_kind", "point_id"])
        for r in requests:
            writer.writerow([r.request_id, r.kind, r.point_id])


def _allocate_counts(count: int, mix: dict) -> dict:
    """Largest-remainder allocation of `count` requests over mix weights."""
    weights = {k: float(v) for k, v in mix.items() if float(v) > 0}
    if not weights:
        raise ConfigError("requests.mix: at least one positive weight required")
    for kind in weights:
        if kind not in GENERATOR_KINDS:
            raise ConfigError(f"requests.mix: unknown kind {kind!r}")
    total = sum(weights.values())
    raw = {k: count * w / total for k, w in weights.items()}
    counts = {k: int(raw[k]) for k in weights}
    short = count - sum(counts.values())
    for k in sorted(weights, key=lambda k: (-(raw[k] - counts[k]), GENERATOR_KINDS.index(k))):
        if short == 0:
            break
        counts[k] += 1
        short -= 1
    return counts


def _candidate_pools(system, kinds) -> dict:
    """Point ids each generator kind may draw from, in plan order: one pool
    per kind, and one per teacher member ("teacher_point", m)."""
    student, teacher = system.student.plan, system.teacher.plan
    pools: dict = {}
    if "student_point" in kinds:
        pools["student_point"] = student.all_ids()
    if "teacher_point" in kinds:
        for m in range(1, system.teacher.member_count + 1):
            pools[("teacher_point", m)] = teacher.shard_ids(m)
    if not any(k.startswith("simultaneous") for k in kinds):
        return pools
    in_teacher = set(teacher.all_ids())
    shared = [p for p in student.all_ids() if p in in_teacher]
    if "simultaneous" in kinds:
        pools["simultaneous"] = list(shared)
    if {"simultaneous_aligned", "simultaneous_misaligned"} & set(kinds):
        # aligned: in teacher shard m and in the student chunk m labels first
        aligned, mapping = set(), system.student.mapping
        for m in range(1, teacher.num_shards + 1):
            aligned |= set(teacher.shard_ids(m)).intersection(
                student.chunk_ids(*mapping.owner_of(m)))
        pools["simultaneous_aligned"] = [p for p in shared if p in aligned]
        pools["simultaneous_misaligned"] = [p for p in shared if p not in aligned]
    return pools


def generate_requests(system, count: int, mix: dict, seed: int) -> list[UnlearnRequest]:
    """Deterministic request stream against a trained system.

    student_point draws a uniform random untargeted student point;
    teacher_point draws a uniform random teacher member, then a uniform
    untargeted point in its shard; the simultaneous kinds draw uniformly from
    the untargeted points whose locations realize the aligned or misaligned
    case. No point id is used twice within one stream."""
    counts = _allocate_counts(count, mix)
    if any(k.startswith("simultaneous") for k in counts) and not system.shared_dataset:
        raise ConfigError("simultaneous requests need a shared teacher/student dataset")
    rng = np.random.default_rng(seed)
    kinds = [k for k in GENERATOR_KINDS for _ in range(counts.get(k, 0))]
    order = rng.permutation(len(kinds))
    pools = _candidate_pools(system, kinds)
    requests = []
    for seq, ix in enumerate(order, start=1):
        kind = kinds[ix]
        if kind == "teacher_point":
            member = int(rng.integers(1, system.teacher.member_count + 1))
            pool = pools[(kind, member)]
        else:
            pool = pools[kind]
        if not pool:
            raise ConfigError(f"no untargeted points left for kind {kind!r}")
        pid = int(pool[int(rng.integers(0, len(pool)))])
        for ids in pools.values():
            if pid in ids:
                ids.remove(pid)
        stream_kind = kind if kind in REQUEST_KINDS else "simultaneous"
        requests.append(UnlearnRequest(seq, stream_kind, pid))
    return requests
