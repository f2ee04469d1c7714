"""Round gathering by row index equals an id-based gather, bit for bit.

Every training round reads a prefix of its shard through the plan's row
index. The test captures the arrays each round hands the training kernel
(``model.train_stack``), read at the row indices it is handed, while every
teacher member and constituent retrains (``checkpoints.retrain``, no
store). The reference rebuilds each round from
point ids instead, with its own copy of the partition kept as nested id
lists: it looks the ids up with Dataset.rows_for, and each soft label up by
its point id in its chunk.
"""

import numpy as np
import pytest

from purgekd import CostLedger, UnlearnRequest, apply_request
from purgekd import model, one_hot
from purgekd.checkpoints import retrain


def _student_reference(slices, dataset, soft_labels, k, l, j):
    chunks = slices[k - 1]
    earlier = [[p for sl in chunks[i - 1] for p in sl] for i in range(1, l)]
    partial = [p for sl in chunks[l - 1][:j] for p in sl]
    ids = [p for chunk in earlier for p in chunk] + partial
    by_id = {p: row for i in range(1, l + 1)
             for p, row in zip(soft_labels[(k, i)].point_ids, soft_labels[(k, i)].probs)}
    rows = dataset.rows_for(ids)
    return dataset.features[rows], np.vstack([by_id[p] for p in ids]), dataset.labels[rows]


def _teacher_reference(slices, dataset, m, j):
    rows = dataset.rows_for([p for sl in slices[m - 1][0][:j] for p in sl])
    hard = dataset.labels[rows]
    return dataset.features[rows], one_hot(hard, dataset.num_classes), hard


def _trained_on(monkeypatch, net, k):
    """(features, soft, hard) that each round of model k of net hands the
    training kernel, in round order, while k retrains from scratch. A round
    handed over as row indices into the dataset's arrays (a fourth item)
    is read at those rows, as the kernel gathers it."""
    calls = []
    train_stack = model.train_stack

    def spy(states, rounds, epochs, hypers):
        rounds = list(rounds)
        for features, soft, hard, *rows in rounds:
            if rows:
                features, hard = features.take(rows[0], axis=0), hard.take(rows[0])
            calls.append((features, soft, hard))
        return train_stack(states, rounds, epochs, hypers)

    with monkeypatch.context() as patch:
        patch.setattr(model, "train_stack", spy)
        retrain(net, [k], None, CostLedger(), "initial_train")
    return calls


def _same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _check_every_round(monkeypatch, system, student_slices, teacher_slices):
    """Compare every round of every constituent and teacher member."""
    net, ens = system.student, system.teacher
    assert net.plan.raw_slices() == student_slices
    assert ens.plan.raw_slices() == teacher_slices
    rounds = 0
    for k in range(1, net.plan.num_shards + 1):
        want = [_student_reference(student_slices, net.dataset, net.soft_labels, k, l, j)
                for l in range(1, net.plan.chunks_in_shard(k) + 1)
                for j in range(1, net.plan.slices_in_chunk(k, l) + 1)]
        got = _trained_on(monkeypatch, net, k)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_bits(g, w)
        rounds += len(got)
    for m in range(1, ens.plan.num_shards + 1):
        want = [_teacher_reference(teacher_slices, ens.dataset, m, j)
                for j in range(1, ens.plan.slices_in_chunk(m, 1) + 1)]
        got = _trained_on(monkeypatch, ens, m)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_bits(g, w)
        rounds += len(got)
    return rounds


@pytest.fixture
def fine_system(system_factory):
    """Two constituents of two 60-point chunks cut into 2-point slices, so a
    slice can be emptied in two requests."""
    return system_factory(members=4, constituents=2, slices_per_chunk=30)


def _drop(slices, pid):
    for shard in slices:
        for chunk in shard:
            for sl in chunk:
                if pid in sl:
                    sl.remove(pid)
                    return
    raise AssertionError(f"point {pid} is not in the reference partition")


class TestRoundGather:
    def test_fresh_system(self, fine_system, monkeypatch):
        rounds = _check_every_round(monkeypatch, fine_system,
                                    fine_system.student.plan.raw_slices(),
                                    fine_system.teacher.plan.raw_slices())
        assert rounds == 2 * 2 * 30 + 4 * 2

    def test_after_removals(self, fine_system, monkeypatch):
        system = fine_system
        s_ref = system.student.plan.raw_slices()
        t_ref = system.teacher.plan.raw_slices()
        plan = system.student.plan
        lonely = plan.slice_ids(1, 1, 3)
        assert len(lonely) == 2
        relabel = system.teacher.plan.slice_ids(1, 1, 2)[4]
        victims = [
            ("student_point", plan.chunk_ids(1, 2)[0]),   # first point of a chunk
            ("student_point", plan.chunk_ids(2, 1)[-1]),  # last point of a chunk
            ("student_point", lonely[0]),
            ("student_point", lonely[1]),                 # then the slice's only point
            ("teacher_point", relabel),                   # relabels chunks of constituent 1
        ]
        for n, (kind, pid) in enumerate(victims, start=1):
            _, report = apply_request(system, UnlearnRequest(n, kind, pid))
            if kind == "student_point":
                _drop(s_ref, pid)
            else:
                _drop(t_ref, pid)
                assert report.chunks_relabeled
            _check_every_round(monkeypatch, system, s_ref, t_ref)
        assert system.student.plan.slice_ids(1, 1, 3) == []

