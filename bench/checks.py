"""Correctness checks that do not rely on the package's own bookkeeping.

Each check recomputes what the program should have produced (plans, step
counts, soft labels, parameters) with the benchmark's own numpy code and
returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import math
import re
import tempfile

import numpy as np

from purgekd import (CheckpointStore, CostLedger, init_model, mix_seed,
                     subensemble_soft_labels)
from purgekd.model import SEED_STUDENT, stream_hyper
from purgekd.student import run_student_round

STUDENT_SIDE = ("student_point", "simultaneous")
TEACHER_SIDE = ("teacher_point", "simultaneous")
LABEL_TOL = 1e-12
FAULT = "label inference is not row-count invariant"
# Rows at the end of a chunk where that fault shows (see workloads.TAIL_ROWS);
# a label mismatch anywhere else is another fault.
TAIL_CHECK_ROWS = 8


def _owner(mapping, m: int) -> tuple[int, int]:
    """(constituent, chunk position) of teacher m, read off the assignment."""
    for k, members in enumerate(mapping.assignment, start=1):
        if m in members:
            return k, members.index(m) + 1
    raise ValueError(f"teacher {m} is not mapped")


def _purge_provenance(mapping, k: int, l: int) -> tuple[int, ...]:
    """Purge mode labels chunk l of constituent k with its first l teachers."""
    return tuple(mapping.assignment[k - 1][:l])


def _shard_sizes(plan) -> list[int]:
    return [len(plan.shard_ids(k)) for k in range(1, plan.num_shards + 1)]


def _epochs(e_prime: int, slices: int) -> int:
    return math.ceil(2 * e_prime / (slices + 1))


def expected_effects(system, request) -> dict:
    """What the request must do, worked out from the system before it runs:
    where the point sits and from which round each side replays."""
    pid = request.point_id
    effects = {"teacher_sizes": _shard_sizes(system.teacher.plan),
               "student_sizes": _shard_sizes(system.student.plan),
               "teacher": None, "starts": {}}
    if request.kind in TEACHER_SIDE:
        m, _, j = system.teacher.plan.locate(pid)
        effects["teacher"] = (m, j)
        k, pos = _owner(system.student.mapping, m)
        effects["starts"][k] = (pos, 1)
    if request.kind in STUDENT_SIDE:
        k, l, j = system.student.plan.locate(pid)
        effects["student"] = k
        effects["starts"][k] = min(effects["starts"].get(k, (l, j)), (l, j))
    return effects


def teacher_replay_steps(system, m: int, j: int) -> int:
    plan = system.teacher.plan
    r_t = plan.slices_in_chunk(m, 1)
    sizes = [len(plan.slice_ids(m, 1, q)) for q in range(1, r_t + 1)]
    epochs = _epochs(system.budget.e_prime, r_t)
    return sum(epochs * sum(sizes[:q]) for q in range(j, r_t + 1))


def student_replay_steps(system, k: int, start: tuple[int, int]) -> int:
    """Cumulative-size sum of every round from `start` to the constituent's end."""
    plan = system.student.plan
    epochs = _epochs(system.budget.e_prime, plan.total_slices_in_shard(k))
    steps = 0
    done = 0  # points of the chunks before l
    for l in range(1, plan.chunks_in_shard(k) + 1):
        seen = done
        for j in range(1, plan.slices_in_chunk(k, l) + 1):
            seen += len(plan.slice_ids(k, l, j))
            if (l, j) >= start:
                steps += epochs * seen
        done = seen
    return steps


def check_request(system, request, effects: dict, report) -> list[str]:
    """After one request: the point is gone, shards shrank by one on each
    affected side, and the reported steps equal the benchmark's own count."""
    pid = request.point_id
    problems = []
    teacher_sizes = list(effects["teacher_sizes"])
    student_sizes = list(effects["student_sizes"])
    expect_t = 0
    if effects["teacher"]:
        m, j = effects["teacher"]
        teacher_sizes[m - 1] -= 1
        if pid in system.teacher.plan:
            problems.append(f"point {pid} is still in the teacher plan")
        expect_t = teacher_replay_steps(system, m, j)
    if request.kind in STUDENT_SIDE:
        student_sizes[effects["student"] - 1] -= 1
        if pid in system.student.plan:
            problems.append(f"point {pid} is still in the student plan")
        for (k, l), chunk in system.student.soft_labels.items():
            if pid in chunk:
                problems.append(f"point {pid} still has a soft label in chunk {k},{l}")
    if _shard_sizes(system.teacher.plan) != teacher_sizes:
        problems.append("teacher shard sizes did not drop by exactly one")
    if _shard_sizes(system.student.plan) != student_sizes:
        problems.append("student shard sizes did not drop by exactly one")
    expect_s = sum(student_replay_steps(system, k, start)
                   for k, start in effects["starts"].items())
    if report.teacher_steps != expect_t:
        problems.append(f"teacher steps {report.teacher_steps}, expected {expect_t}")
    if report.student_steps != expect_s:
        problems.append(f"student steps {report.student_steps}, expected {expect_s}")
    return problems


def forward(state, x: np.ndarray) -> np.ndarray:
    """Softmax output of one model, from its flat parameter vector."""
    arch, p = state.arch, state.params
    d, c = arch.feature_dim, arch.num_classes
    if arch.kind == "softmax_linear":
        z = x @ p[:d * c].reshape(d, c) + p[d * c:]
    else:
        h = arch.hidden_units
        w1, b1 = p[:d * h].reshape(d, h), p[d * h:d * h + h]
        w2, b2 = p[d * h + h:d * h + h + h * c].reshape(h, c), p[d * h + h + h * c:]
        z = np.tanh(x @ w1 + b1) @ w2 + b2
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def check_labels(system) -> list[str]:
    """Every cached soft-label row is the plain mean of its provenance
    teachers' softmax outputs (within LABEL_TOL) and sums to one."""
    net = system.student
    problems = []
    for k in range(1, net.plan.num_shards + 1):
        for l in range(1, net.plan.chunks_in_shard(k) + 1):
            prov = _purge_provenance(net.mapping, k, l)
            chunk = net.soft_labels[(k, l)]
            ids = net.plan.chunk_ids(k, l)
            if tuple(net.provenance[(k, l)]) != prov:
                problems.append(f"chunk {k},{l}: provenance {net.provenance[(k, l)]}, "
                                f"expected {prov}")
                continue
            if list(chunk.point_ids) != ids:
                problems.append(f"chunk {k},{l}: soft-label ids differ from the plan")
                continue
            x = net.dataset.features[net.dataset.rows_for(ids)]
            mean = np.mean([forward(system.teacher.members[m - 1], x) for m in prov],
                           axis=0)
            if np.abs(chunk.probs - mean).max(initial=0.0) > LABEL_TOL:
                problems.append(f"chunk {k},{l}: soft labels differ from the teacher mean")
            if np.abs(chunk.probs.sum(axis=1) - 1.0).max(initial=0.0) > LABEL_TOL:
                problems.append(f"chunk {k},{l}: soft-label rows do not sum to 1")
    return problems


def accuracy(system) -> float:
    """Student accuracy on its own dataset: argmax of the constituents' mean."""
    ds = system.student.dataset
    probs = np.mean([forward(s, ds.features) for s in system.student.constituents], axis=0)
    return float((probs.argmax(axis=1) == ds.labels).mean())


def accuracy_floor(num_classes: int) -> float:
    """Twice chance: a student below it has not learnt from its teachers."""
    return 2.0 / num_classes


def _digest(array: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).digest()


def parameters(system) -> dict:
    """A digest of every model's parameter bytes, keyed by (role, index)."""
    out = {("teacher", m): _digest(s.params)
           for m, s in enumerate(system.teacher.members, start=1)}
    out.update({("student", k): _digest(s.params)
                for k, s in enumerate(system.student.constituents, start=1)})
    return out


def check_untouched(before: dict, system, touched: set) -> list[str]:
    """Models no request touched keep their pre-stream bytes."""
    after = parameters(system)
    return [f"untouched {role} {i} changed" for (role, i), p in before.items()
            if (role, i) not in touched and p != after[(role, i)]]


def touched_models(effects: dict) -> set:
    out = {("student", k) for k in effects["starts"]}
    if effects["teacher"]:
        out.add(("teacher", effects["teacher"][0]))
    return out


def fingerprint(system) -> dict:
    """Everything a manifest must give back bit for bit: parameter digests,
    both plans, provenance, and each soft-label chunk's ids and bits."""
    out = {f"{role} {i}": p for (role, i), p in parameters(system).items()}
    for side in ("teacher", "student"):
        out[f"{side} plan"] = getattr(system, side).plan.raw_slices()
    net = system.student
    out["provenance"] = dict(net.provenance)
    out.update({f"soft labels of chunk {key}": (tuple(c.point_ids), _digest(c.probs))
                for key, c in net.soft_labels.items()})
    return out


def check_reload(expected: dict, reloaded) -> list[str]:
    """The reloaded system matches the fingerprint taken before its save.
    The caller drops the saved system first, so only one is ever held."""
    got = fingerprint(reloaded)
    return [f"reloaded {name} differs" for name in sorted(expected.keys() | got.keys())
            if expected.get(name) != got.get(name)]


def replay_on_cached_labels(system, k: int) -> bool:
    """Train constituent k from scratch on the system's own cached soft
    labels and tell whether that gives its parameters bit for bit: the
    replay is exact apart from the labels it was given."""
    net = system.student
    plan = net.plan
    epochs = net.budget.epochs_for(plan.total_slices_in_shard(k))
    state = init_model(net.arch, mix_seed(net.seed, SEED_STUDENT, k))
    hyper_k = stream_hyper(net.hyper, SEED_STUDENT, k)
    with tempfile.TemporaryDirectory(prefix="bench-replay-") as tmp:
        store = CheckpointStore(tmp)
        for l in range(1, plan.chunks_in_shard(k) + 1):
            for j in range(1, plan.slices_in_chunk(k, l) + 1):
                state, _ = run_student_round(
                    state, k, l, j, plan, net.dataset, net.soft_labels, net.provenance,
                    epochs, hyper_k, net.hyper.hard_label_weight, store, CostLedger(),
                    "initial_train")
    return state.params.tobytes() == net.constituents[k - 1].params.tobytes()


_LABELS = re.compile(r"constituent (\d+): cached labels of chunk (\d+) do not match")
_SCRATCH = re.compile(r"constituent (\d+): scratch retrain differs by ")


def label_fault(system, failures) -> bool:
    """True when a failed verification is the label-inference fault alone:
    every message names mismatched cached labels (or a constituent trained
    on them), each named chunk's cached labels differ from a fresh relabel
    only in its final rows and only by rounding, and each named constituent,
    retrained from scratch on those cached labels, gives the system's
    parameters bit for bit."""
    chunks = set()
    for msg in failures:
        hit = _LABELS.match(msg)
        if hit:
            chunks.add((int(hit[1]), int(hit[2])))
        elif not _SCRATCH.match(msg):
            return False
    scratch = {int(_SCRATCH.match(m)[1]) for m in failures if _SCRATCH.match(m)}
    faulted = {k for k, _ in chunks}
    if not chunks or not scratch <= faulted:
        return False
    net = system.student
    for k, l in chunks:
        cached = net.soft_labels[(k, l)]
        ids = list(cached.point_ids)
        fresh = subensemble_soft_labels(
            [system.teacher.members[m - 1] for m in net.provenance[(k, l)]],
            ids, net.dataset.features_for(ids), net.hyper.temperature)
        rows = np.nonzero((cached.probs != fresh.probs).any(axis=1))[0]
        if (len(rows) == 0 or rows.min() < len(ids) - TAIL_CHECK_ROWS
                or np.abs(cached.probs - fresh.probs).max() > LABEL_TOL):
            return False
    return all(replay_on_cached_labels(system, k) for k in sorted(faulted))
