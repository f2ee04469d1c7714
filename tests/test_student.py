"""Student network: constituent mapping, chunked distillation, label
provenance, and training-mode differences."""

import numpy as np
import pytest

from purgekd import (CheckpointKey, CheckpointStore, CostLedger, ModelArch,
                     TrainBudget, TrainHyper, UnlearnRequest, aggregate_batch,
                     apply_request, build_mapping, chunk_teacher_ids,
                     evaluate_accuracy, load_system, loss_trace, make_partition,
                     mix_seed, predict_batch, save_manifest, train_student_network,
                     train_teacher_ensemble)
from purgekd.model import SEED_STUDENT_PLAN


@pytest.fixture
def teacher_parts(small_dataset, tmp_path):
    store = CheckpointStore(tmp_path / "t")
    ledger = CostLedger()
    ensemble = train_teacher_ensemble(
        dataset=small_dataset, members=4, slices_per_member=2,
        budget=TrainBudget(8),
        arch=ModelArch("softmax_linear", 5, 3),
        hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=1),
        store=store, ledger=ledger, seed=11)
    return ensemble, store, ledger


def _train_student(dataset, ensemble, store, ledger, mode="purge",
                   constituents=2, slices=2, e_prime=8, seed=11):
    counts = build_mapping(ensemble.member_count, constituents).chunk_counts
    return train_student_network(
        plan=make_partition(dataset, [[slices] * c for c in counts],
                            mix_seed(seed, SEED_STUDENT_PLAN)),
        teacher_members=ensemble.members, budget=TrainBudget(e_prime),
        arch=ModelArch("softmax_linear", dataset.feature_dim,
                       dataset.num_classes),
        hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=2),
        store=store, ledger=ledger, mode=mode, seed=seed)


class TestMapping:
    def test_even_partition(self):
        mapping = build_mapping(8, 4)
        assert mapping.num_students == 4
        assert mapping.teachers_for(1) == (1, 2)
        assert mapping.teachers_for(4) == (7, 8)
        assert mapping.owner_of(5) == (3, 1)
        assert mapping.owner_of(6) == (3, 2)

    def test_uneven_sizes(self):
        mapping = build_mapping(7, 3, sizes=[3, 2, 2])
        assert mapping.teachers_for(1) == (1, 2, 3)
        assert mapping.chunk_count(1) == 3
        assert mapping.chunk_count(3) == 2

    def test_uneven_default_takes_remainder_first(self):
        mapping = build_mapping(7, 3)
        assert mapping.teachers_for(1) == (1, 2, 3)
        assert mapping.teachers_for(2) == (4, 5)
        assert mapping.teachers_for(3) == (6, 7)

    def test_must_partition_exactly(self):
        with pytest.raises(ValueError):
            build_mapping(4, 2, sizes=[3, 2])
        with pytest.raises(ValueError):
            build_mapping(2, 4)

    def test_chunk_teacher_ids_by_mode(self):
        mapping = build_mapping(6, 2)
        assert chunk_teacher_ids("purge", mapping, 2, 1) == (4,)
        assert chunk_teacher_ids("purge", mapping, 2, 3) == (4, 5, 6)
        assert chunk_teacher_ids("single_teacher", mapping, 2, 3) == (6,)
        assert chunk_teacher_ids("naive_sisa", mapping, 2, 3) == \
            (1, 2, 3, 4, 5, 6)


class TestLabels:
    def test_purge_labels_are_prefix_subensemble_means(self, small_dataset,
                                                       teacher_parts,
                                                       tmp_path):
        """Chunk (k, l) labels equal the exact mean of the first l mapped
        teachers' outputs — recomputed here from raw member predictions."""
        ensemble, _, ledger = teacher_parts
        store = CheckpointStore(tmp_path / "s")
        net = _train_student(small_dataset, ensemble, store, ledger)
        for (k, l), chunk in net.soft_labels.items():
            members = net.mapping.teachers_for(k)[:l]
            x = small_dataset.features_for(chunk.point_ids)
            expected = aggregate_batch(
                [predict_batch(ensemble.members[m - 1], x) for m in members])
            np.testing.assert_array_equal(chunk.probs, expected)
            assert net.provenance[(k, l)] == members

    def test_naive_sisa_uses_full_ensemble(self, small_dataset, teacher_parts,
                                           tmp_path):
        ensemble, _, ledger = teacher_parts
        store = CheckpointStore(tmp_path / "s")
        net = _train_student(small_dataset, ensemble, store, ledger,
                             mode="naive_sisa")
        for (k, l), members in net.provenance.items():
            assert members == (1, 2, 3, 4)

    def test_single_teacher_uses_one(self, small_dataset, teacher_parts,
                                     tmp_path):
        ensemble, _, ledger = teacher_parts
        store = CheckpointStore(tmp_path / "s")
        net = _train_student(small_dataset, ensemble, store, ledger,
                             mode="single_teacher")
        for (k, l), members in net.provenance.items():
            assert members == (net.mapping.teachers_for(k)[l - 1],)

    def test_provenance_map_follows_uneven_mapping(self, small_dataset,
                                                   teacher_parts, tmp_path):
        """The derived map has one entry per chunk of every constituent, also
        when the mapping gives the constituents different chunk counts."""
        ensemble, _, ledger = teacher_parts
        net = train_student_network(
            plan=make_partition(small_dataset, [[2, 2, 2], [2]],
                                mix_seed(11, SEED_STUDENT_PLAN)),
            teacher_members=ensemble.members, budget=TrainBudget(8),
            arch=ModelArch("softmax_linear", 5, 3),
            hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=2),
            store=CheckpointStore(tmp_path / "s"), ledger=ledger,
            mode="purge", seed=11)
        assert net.provenance == {(1, 1): (1,), (1, 2): (1, 2),
                                  (1, 3): (1, 2, 3), (2, 1): (4,)}
        assert net.provenance.keys() == net.soft_labels.keys()

    def test_labels_cover_chunks_exactly(self, small_dataset, teacher_parts,
                                         tmp_path):
        ensemble, _, ledger = teacher_parts
        store = CheckpointStore(tmp_path / "s")
        net = _train_student(small_dataset, ensemble, store, ledger)
        for (k, l), chunk in net.soft_labels.items():
            assert sorted(chunk.point_ids) == sorted(net.plan.chunk_ids(k, l))

    def test_soft_labels_view_is_read_only(self, small_dataset, teacher_parts,
                                           tmp_path):
        """The by-chunk view's rows are the network's labels; the view
        itself takes no assignment."""
        ensemble, _, ledger = teacher_parts
        net = _train_student(small_dataset, ensemble, CheckpointStore(tmp_path / "s"),
                             ledger)
        chunk = net.soft_labels[(1, 2)]
        assert np.shares_memory(chunk.probs, net.labels[1])
        with pytest.raises(TypeError):
            net.soft_labels[(1, 2)] = chunk

    def test_remove_keeps_survivor_bits(self, small_dataset, teacher_parts, tmp_path):
        """Removing a point deletes its label row alone: every other row of
        its shard keeps its order and bits."""
        ensemble, _, ledger = teacher_parts
        net = _train_student(small_dataset, ensemble, CheckpointStore(tmp_path / "s"),
                             ledger)
        ids = net.plan.shard_ids(1)
        before = net.labels[1]
        net.remove(net.plan.chunk_ids(1, 2)[1])
        pos = ids.index(net.plan.chunk_ids(1, 2)[0]) + 1
        assert net.plan.shard_ids(1) == ids[:pos] + ids[pos + 1:]
        assert net.labels[1].tobytes() == np.delete(before, pos, axis=0).tobytes()


class TestTrainingLayout:
    def test_checkpoint_per_round(self, small_dataset, teacher_parts, tmp_path):
        """One checkpoint per round and none for the initial state, which
        its seed fixes."""
        ensemble, _, ledger = teacher_parts
        store = CheckpointStore(tmp_path / "s")
        _train_student(small_dataset, ensemble, store, ledger)
        assert store.keys("student") == [CheckpointKey("student", k, l, j)
                                         for k in (1, 2) for l in (1, 2) for j in (1, 2)]

    def test_ledger_matches_cumulative_round_sizes(self, small_dataset,
                                                   teacher_parts, tmp_path):
        ensemble, _, ledger = teacher_parts
        store = CheckpointStore(tmp_path / "s")
        base = ledger.total(phase="initial_train", role="student")
        net = _train_student(small_dataset, ensemble, store, ledger)
        epochs = TrainBudget(8).epochs_for(4)  # ceil(16/5) = 4
        expected = 0
        for k in (1, 2):
            cum = 0
            for l in (1, 2):
                for j in (1, 2):
                    cum += len(net.plan.slice_ids(k, l, j))
                    expected += epochs * cum
        assert ledger.total(phase="initial_train", role="student") - base == \
            expected

    def test_rerun_bit_identical(self, small_dataset, teacher_parts, tmp_path):
        ensemble, _, ledger = teacher_parts
        a = _train_student(small_dataset, ensemble,
                           CheckpointStore(tmp_path / "a"), CostLedger())
        b = _train_student(small_dataset, ensemble,
                           CheckpointStore(tmp_path / "b"), CostLedger())
        for x, y in zip(a.constituents, b.constituents):
            np.testing.assert_array_equal(x.params, y.params)

    def test_modes_produce_different_students(self, small_dataset,
                                              teacher_parts, tmp_path):
        ensemble, _, _ = teacher_parts
        nets = {}
        for ix, mode in enumerate(("purge", "naive_sisa", "single_teacher")):
            nets[mode] = _train_student(
                small_dataset, ensemble,
                CheckpointStore(tmp_path / f"m{ix}"), CostLedger(), mode=mode)
        assert not np.array_equal(nets["purge"].constituents[0].params,
                                  nets["naive_sisa"].constituents[0].params)
        assert not np.array_equal(nets["purge"].constituents[0].params,
                                  nets["single_teacher"].constituents[0].params)


class TestEvaluation:
    def test_accuracy_against_manual_argmax(self, small_dataset, small_system):
        states = small_system.student.constituents
        probs = aggregate_batch([predict_batch(s, small_dataset.features)
                                 for s in states])
        manual = float(np.mean(np.argmax(probs, axis=1) ==
                               small_dataset.labels))
        assert evaluate_accuracy(states, small_dataset) == \
            pytest.approx(manual)

    def test_single_state_accepted(self, small_dataset, small_system):
        state = small_system.student.constituents[0]
        acc = evaluate_accuracy([state], small_dataset)
        assert 0.0 <= acc <= 1.0


class TestLossTrace:
    def test_trace_one_entry_per_round(self, small_dataset, teacher_parts,
                                       tmp_path):
        ensemble, _, ledger = teacher_parts
        store = CheckpointStore(tmp_path / "s")
        net = _train_student(small_dataset, ensemble, store, ledger)
        for k in (1, 2):
            trace = loss_trace(net, store, k)
            assert len(trace) == 4  # c*r rounds
            rounds = [t[0] for t in trace]
            assert rounds == [1, 2, 3, 4]
            assert all(np.isfinite(t[1]) for t in trace)

    def test_reload_keeps_trace(self, small_system, tmp_path):
        """The trace is read from the checkpoints, so a manifest round trip
        gives it back unchanged."""
        net, store = small_system.student, small_system.store
        trained = {k: loss_trace(net, store, k) for k in (1, 2)}
        save_manifest(small_system, tmp_path / "system.json", "ckpt")
        loaded = load_system(tmp_path / "system.json")
        for k in (1, 2):
            assert loss_trace(loaded.student, loaded.store, k) == trained[k]

    def test_replay_renews_trace_from_its_start(self, system_factory):
        """A student point in round 3 of constituent 1 keeps rounds 1-2 of its
        trace, changes every round from 3 on, and leaves constituent 2 alone."""
        system = system_factory()
        net, store = system.student, system.store
        before = {k: loss_trace(net, store, k) for k in (1, 2)}
        victim = net.plan.slice_ids(1, 2, 1)[0]
        apply_request(system, UnlearnRequest(1, "student_point", victim))
        after = loss_trace(net, store, 1)
        assert after[:2] == before[1][:2]
        assert [r for r, _ in after] == [1, 2, 3, 4]
        assert all(a != b for (_, a), (_, b) in zip(after[2:], before[1][2:]))
        assert loss_trace(net, store, 2) == before[2]
