"""Incremental relabel: a teacher update replaces the updated member's term in
each affected chunk's exact member sum, and the cached soft labels stay bit
for bit the labels a full relabel from the current teachers gives.

The systems have 7 teachers over two constituents of 5 and 2 chunks, so
purge chunks have 1 to 5 members, naive_sisa chunks 7 and single_teacher
chunks 1. Their request streams mix teacher-side and simultaneous requests
with student-point removals between them and reload the system halfway,
which drops every kept sum.
"""

import math

import numpy as np
import pytest

from purgekd import (CheckpointStore, ModelArch, SoftLabelChunk, SyntheticSpec, TrainHyper,
                     UnlearnRequest, apply_request, gen_synthetic, init_model, load_system,
                     model, predict_batch, save_manifest, subensemble_soft_labels,
                     train_system, unlearning)
from purgekd.model import summed_soft_labels
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
    for (k, l), cached in net.soft_labels.items():
        want = generate_chunk_labels(net.mode, net.mapping, system.teacher.members,
                                     net.plan, net.dataset, k, l, net.hyper.temperature)
        assert cached.ids.tobytes() == want.ids.tobytes()
        assert cached.probs.tobytes() == want.probs.tobytes(), (k, l)
        if cached.sums is None:
            continue
        members = _members(system, k, l)
        assert len(members) >= 3
        r, c = cached.sums
        assert (r / len(members)).tobytes() == cached.probs.tobytes()
        x = net.dataset.features[net.dataset.rows_for(cached.ids)]
        mats = [predict_batch(m, x, net.hyper.temperature) for m in members]
        for i, j in np.ndindex(r.shape):
            assert math.fsum([m[i, j] for m in mats] + [-r[i, j]]) == c[i, j]


def _spy(monkeypatch):
    """Counts predict_batch calls, and records for every relabel whether
    the cached chunk kept its sum and how many predictions it made."""
    calls, relabels = [0], []
    predict, relabel = model.predict_batch, unlearning.relabel_chunk

    def counted_predict(*args):
        calls[0] += 1
        return predict(*args)

    def recorded_relabel(net, teachers, k, l, member, old):
        kept, before = net.soft_labels[(k, l)].sums is not None, calls[0]
        chunk = relabel(net, teachers, k, l, member, old)
        relabels.append(((k, l), kept, calls[0] - before))
        return chunk

    monkeypatch.setattr(model, "predict_batch", counted_predict)
    monkeypatch.setattr(unlearning, "relabel_chunk", recorded_relabel)
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
    assert all(c.sums is None for c in system.student.soft_labels.values())
    rng = np.random.default_rng([7, int(10 * temperature)])
    relabels = _spy(monkeypatch)
    for n, kind in enumerate(KINDS, start=1):
        if n == 7:
            save_manifest(system, tmp_path / "system.json", "ckpt")
            system = load_system(tmp_path / "system.json")
            assert all(c.sums is None for c in system.student.soft_labels.values())
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
    assert [l for l in range(1, 6) if net.soft_labels[(1, l)].sums is not None] == [3, 4, 5]
    r, c = net.soft_labels[(1, 5)].sums
    c = c.copy()
    c[2, 1] = np.nan
    net.soft_labels[(1, 5)].sums = (r, c)
    relabels = _spy(monkeypatch)
    apply_request(system, UnlearnRequest(2, "teacher_point",
                                         system.teacher.plan.chunk_ids(2, 1)[0]))
    assert [(kl, kept, calls) for kl, kept, calls in relabels if kl[0] == 1] == [
        ((1, 2), False, 2), ((1, 3), True, 2), ((1, 4), True, 2), ((1, 5), True, 2 + 5)]
    assert not np.isnan(net.soft_labels[(1, 5)].sums[1]).any()
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
    chunk = summed_soft_labels(models[:3], ids, x, 1.0)
    got = chunk.replaced(predict_batch(models[1], x), predict_batch(models[3], x), 3)
    want = subensemble_soft_labels([models[0], models[3], models[2]], ids, x)
    assert got.probs.tobytes() == want.probs.tobytes()
    assert got.ids.tobytes() == ids.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_replaced_refuses_non_finite_terms(bad):
    models, ids, x = _stack(2)
    chunk = summed_soft_labels(models[:3], ids, x, 1.0)
    new = predict_batch(models[3], x)
    new[4, 0] = bad
    assert chunk.replaced(predict_batch(models[1], x), new, 3) is None


def test_without_keeps_sums_aligned():
    models, ids, x = _stack(3)
    chunk = summed_soft_labels(models[:3], ids, x, 1.0)
    r, c = chunk.sums
    dropped = chunk.without(ids[2])
    keep = ids != ids[2]
    assert dropped.ids.tobytes() == ids[keep].tobytes()
    assert dropped.sums[0].tobytes() == r[keep].tobytes()
    assert dropped.sums[1].tobytes() == c[keep].tobytes()
    got = dropped.replaced(predict_batch(models[0], x[keep]),
                           predict_batch(models[3], x[keep]), 3)
    want = subensemble_soft_labels(models[1:], ids[keep], x[keep])
    assert got.probs.tobytes() == want.probs.tobytes()



def test_replaced_refuses_an_inexact_sum():
    """The new error terms cannot hold both the kept residual 2**-200 and
    the rounding error of 0.9 + 0.3 in one double each: the replacement is
    not certified."""
    chunk = SoftLabelChunk.from_sum([5], np.array([[1.0, 2.0]]),
                                    np.array([[2.0 ** -200, 0.0]]), 3)
    assert chunk.replaced(np.array([[0.1, 0.9]]), np.array([[0.3, 0.7]]), 3) is None
    exact = SoftLabelChunk.from_sum([5], np.array([[1.0, 2.0]]), np.zeros((1, 2)), 3)
    assert exact.replaced(np.array([[0.1, 0.9]]), np.array([[0.3, 0.7]]), 3).probs.tolist() \
        == [[math.fsum([1.0, -0.1, 0.3]) / 3, math.fsum([2.0, -0.9, 0.7]) / 3]]
