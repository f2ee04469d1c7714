"""Incremental relabel: a teacher update replaces the updated member's term in
each affected chunk's exact member sum, and the cached soft labels stay bit
for bit the labels a full relabel from the current teachers gives.

The systems have 7 teachers over two constituents of 5 and 2 chunks, so
purge chunks have 1 to 5 members, naive_sisa chunks 7 and single_teacher
chunks 1. Their request streams mix teacher-side and simultaneous requests
with student-point removals between them and reload the system halfway,
which drops every kept sum. A last system has teachers confident enough
that the exact member sums cannot be certified, so every relabel runs in
full and keeps none.
"""

import math

import numpy as np
import pytest

from purgekd import (CheckpointStore, ModelArch, SyntheticSpec, TrainHyper, UnlearnRequest,
                     apply_request, gen_synthetic, init_model, load_system, model,
                     predict_batch, save_manifest, snapshot, student,
                     subensemble_soft_labels, train_system, unlearning, verify_exactness)
from purgekd.model import replace_term, summed_soft_labels
from purgekd.student import chunk_teacher_ids, generate_chunk_labels


def _system(tmp_path, mode, temperature):
    dataset = gen_synthetic(SyntheticSpec(num_classes=3, points_per_class=60,
                                          feature_dim=4, seed=3))
    arch = ModelArch("softmax_linear", 4, 3)
    return train_system(
        student_dataset=dataset, teacher_dataset=None, teacher_members=7,
        teacher_slices=2, student_constituents=2, slices_per_chunk=1, mode=mode,
        e_prime=2, teacher_arch=arch, student_arch=arch,
        teacher_hyper=TrainHyper(learning_rate=0.1, batch_size=16, seed=1),
        student_hyper=TrainHyper(learning_rate=0.1, batch_size=16, seed=2,
                                 temperature=temperature),
        store=CheckpointStore(tmp_path / "ckpt"), seed=5, mapping_sizes=[5, 2])


def _members(system, k, l):
    net = system.student
    return [system.teacher.members[m - 1]
            for m in chunk_teacher_ids(net.mode, net.mapping, k, l)]


def _check_labels(system):
    """Every cached chunk equals a full relabel from the current teachers;
    a kept sum (r, c) is exact: r / members is the labels and c is the
    exact residual of the member sum after r."""
    net = system.student
    for k, labels in net.labels.items():
        assert len(labels) == len(net.plan.shard_rows(k))
    for (k, l), cached in net.soft_labels.items():
        want = generate_chunk_labels(net.mode, net.mapping, system.teacher.members,
                                     net.plan, k, l, net.hyper.temperature)
        assert cached.point_ids == tuple(net.plan.chunk_ids(k, l))
        assert cached.probs.tobytes() == want.tobytes(), (k, l)
        if (k, l) not in net.sums:
            continue
        members = _members(system, k, l)
        assert len(members) >= 3
        r, c = net.sums[(k, l)]
        assert (r / len(members)).tobytes() == cached.probs.tobytes()
        x = net.dataset.features[net.dataset.rows_for(cached.ids)]
        mats = [predict_batch(m, x, net.hyper.temperature) for m in members]
        for i, j in np.ndindex(r.shape):
            assert math.fsum([m[i, j] for m in mats] + [-r[i, j]]) == c[i, j]


def _spy(monkeypatch):
    """Counts predict_batch calls, and records for every relabel whether
    the cached chunk kept its sum and how many predictions it made."""
    calls, relabels = [0], []
    predict, relabel = model.predict_batch, student.relabel_chunk

    def counted_predict(*args):
        calls[0] += 1
        return predict(*args)

    def recorded_relabel(net, teachers, k, l, member, old):
        kept, before = (k, l) in net.sums, calls[0]
        out = relabel(net, teachers, k, l, member, old)
        relabels.append(((k, l), kept, calls[0] - before))
        return out

    monkeypatch.setattr(model, "predict_batch", counted_predict)
    monkeypatch.setattr(student, "relabel_chunk", recorded_relabel)
    return relabels


def _pick(system, rng, kind):
    student, teacher = system.student.plan, system.teacher.plan
    if kind == "teacher_point":
        pool = teacher.all_ids()
    elif kind == "student_point":
        pool = student.all_ids()
    else:
        pool = [p for p in student.all_ids() if p in teacher]
    return int(pool[int(rng.integers(len(pool)))])


KINDS = ["teacher_point", "student_point", "simultaneous", "student_point",
         "teacher_point", "teacher_point", "student_point", "simultaneous",
         "teacher_point", "student_point", "teacher_point", "simultaneous"]


@pytest.mark.parametrize("temperature", [1.0, 2.5])
@pytest.mark.parametrize("mode", ["purge", "naive_sisa", "single_teacher"])
def test_stream_keeps_labels_exact(tmp_path, monkeypatch, mode, temperature):
    system = _system(tmp_path, mode, temperature)
    assert system.student.sums == {}
    rng = np.random.default_rng([7, int(10 * temperature)])
    relabels = _spy(monkeypatch)
    for n, kind in enumerate(KINDS, start=1):
        if n == 7:
            save_manifest(system, tmp_path / "system.json", "ckpt")
            system = load_system(tmp_path / "system.json")
            assert system.student.sums == {}
        apply_request(system, UnlearnRequest(n, kind, _pick(system, rng, kind)))
        _check_labels(system)
    kept = [r for r in relabels if r[1]]
    assert all(calls <= 2 for _, _, calls in kept)
    assert len(relabels) > len(kept)  # first relabels after set-up and reload ran in full
    if mode == "single_teacher":
        assert not kept
    else:
        assert kept
        if mode == "purge":
            sizes = {len(_members(system, k, l)) for (k, l), _, _ in relabels}
            assert {1, 2, 5} <= sizes


def test_inexact_replace_relabels_in_full(tmp_path, monkeypatch):
    system = _system(tmp_path, "purge", 1.0)
    net = system.student
    # teacher 1 labels every chunk of constituent 1: a full relabel keeps the
    # sums of chunks (1, 3) to (1, 5)
    apply_request(system, UnlearnRequest(1, "teacher_point",
                                         system.teacher.plan.chunk_ids(1, 1)[0]))
    assert sorted(net.sums) == [(1, 3), (1, 4), (1, 5)]
    r, c = net.sums[(1, 5)]
    c = c.copy()
    c[2, 1] = np.nan
    net.sums[(1, 5)] = (r, c)
    relabels = _spy(monkeypatch)
    apply_request(system, UnlearnRequest(2, "teacher_point",
                                         system.teacher.plan.chunk_ids(2, 1)[0]))
    assert [(kl, kept, calls) for kl, kept, calls in relabels if kl[0] == 1] == [
        ((1, 2), False, 2), ((1, 3), True, 2), ((1, 4), True, 2), ((1, 5), True, 2 + 5)]
    assert not np.isnan(net.sums[(1, 5)][1]).any()
    _check_labels(system)


def _stack(seed, rows=6):
    arch = ModelArch("softmax_linear", 4, 3)
    rng = np.random.default_rng(seed)
    models = [init_model(arch, s) for s in range(4)]
    for m in models:
        m.params[:] = rng.normal(size=arch.param_count)
    return models, np.arange(10, 10 + rows), rng.normal(size=(rows, 4))


def test_replaced_equals_full_relabel():
    models, ids, x = _stack(1)
    _, (r, c) = summed_soft_labels(models[:3], x, 1.0)
    got, _ = replace_term(r, c, predict_batch(models[1], x), predict_batch(models[3], x))
    want = subensemble_soft_labels([models[0], models[3], models[2]], ids, x)
    assert (got / 3).tobytes() == want.probs.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_replaced_refuses_non_finite_terms(bad):
    models, _, x = _stack(2)
    _, (r, c) = summed_soft_labels(models[:3], x, 1.0)
    new = predict_batch(models[3], x)
    new[4, 0] = bad
    assert replace_term(r, c, predict_batch(models[1], x), new) is None


def test_without_keeps_sums_aligned(tmp_path, monkeypatch):
    """A student point dropped from a chunk that keeps its member sum leaves
    the sum's other rows in order, so the next relabel replaces a term in
    them (two predictions) and gives the full relabel's bits."""
    system = _system(tmp_path, "purge", 1.0)
    net = system.student
    apply_request(system, UnlearnRequest(1, "teacher_point",
                                         system.teacher.plan.chunk_ids(1, 1)[0]))
    r, c = net.sums[(1, 4)]
    victim = net.plan.chunk_ids(1, 4)[2]
    apply_request(system, UnlearnRequest(2, "student_point", victim))
    keep = np.arange(len(r)) != 2
    assert net.sums[(1, 4)][0].tobytes() == r[keep].tobytes()
    assert net.sums[(1, 4)][1].tobytes() == c[keep].tobytes()
    assert victim not in net.soft_labels[(1, 4)]
    relabels = _spy(monkeypatch)
    apply_request(system, UnlearnRequest(3, "teacher_point",
                                         system.teacher.plan.chunk_ids(2, 1)[0]))
    assert ((1, 4), True, 2) in relabels and (1, 4) in net.sums
    _check_labels(system)


def test_replaced_refuses_an_inexact_sum():
    """The new error terms cannot hold both the kept residual 2**-200 and
    the rounding error of 0.9 + 0.3 in one double each: the replacement is
    not certified."""
    old, new = np.array([[0.1, 0.9]]), np.array([[0.3, 0.7]])
    assert replace_term(np.array([[1.0, 2.0]]), np.array([[2.0 ** -200, 0.0]]),
                        old, new) is None
    r, _ = replace_term(np.array([[1.0, 2.0]]), np.zeros((1, 2)), old, new)
    assert r.tolist() == [[math.fsum([1.0, -0.1, 0.3]), math.fsum([2.0, -0.9, 0.7])]]


def test_summed_labels_finish_their_one_cascade(monkeypatch):
    """Confident members whose cascade cannot certify its sum: the labels
    are the fsum mean ``aggregate_batch`` gives, no sum is kept, and the
    cascade ran once."""
    models, ids, x = _stack(4, rows=40)
    for m in models:
        m.params *= 30.0
    mats = [predict_batch(m, x) for m in models[:3]]
    assert model._cascade(mats)[2].any()
    calls, cascade = [0], model._cascade

    def counted(mats):
        calls[0] += 1
        return cascade(mats)

    monkeypatch.setattr(model, "_cascade", counted)
    probs, pair = summed_soft_labels(models[:3], x, 1.0)
    assert pair is None and calls[0] == 1
    assert probs.tobytes() == model.aggregate_batch(mats).tobytes()


def test_confident_teachers_stay_exact(tmp_path):
    """Teachers confident enough that some chunk's member sum is not
    certified (a nonzero cascade bound) relabel in full through the
    uncertified path, keep no sum, and pass verification after every
    teacher-side request, before and after a reload."""
    dataset = gen_synthetic(SyntheticSpec(num_classes=4, points_per_class=150,
                                          feature_dim=5, class_center_spread=20.0, seed=3))
    arch = ModelArch("softmax_linear", 5, 4)
    system = train_system(
        student_dataset=dataset, teacher_dataset=None, teacher_members=6,
        teacher_slices=2, student_constituents=2, slices_per_chunk=1, mode="purge",
        e_prime=4, teacher_arch=arch, student_arch=arch,
        teacher_hyper=TrainHyper(learning_rate=1.0, batch_size=16, seed=1),
        student_hyper=TrainHyper(learning_rate=0.1, batch_size=16, seed=2),
        store=CheckpointStore(tmp_path / "ckpt"), seed=3)
    net = system.student
    for k in (1, 2):
        _, x = student._chunk_points(net.plan, k, 3)
        mats = [predict_batch(m, x) for m in _members(system, k, 3)]
        assert model._cascade(mats)[2].any()
    requests = unlearning.generate_requests(
        system, 8, {"teacher_point": 4, "simultaneous": 4}, seed=5)
    relabeled = set()
    for n, request in enumerate(requests, start=1):
        before = snapshot(system)
        _, report = apply_request(system, request)
        verdict = verify_exactness(before, request, system)
        assert verdict.passed, (n, verdict.failures)
        assert system.student.sums == {}
        relabeled |= set(report.chunks_relabeled)
        if n == 4:
            save_manifest(system, tmp_path / "system.json", "ckpt")
            system = load_system(tmp_path / "system.json")
    assert {(1, 3), (2, 3)} <= relabeled
