"""Teacher ensemble: sharded slice-incremental training and point removal."""

import numpy as np
import pytest

from purgekd import (CheckpointKey, CheckpointStore, CostLedger, ModelArch,
                     NotFoundError, TrainBudget, TrainHyper, aggregate_batch,
                     predict_batch, teacher_unlearn, train_teacher_ensemble)
from purgekd.checkpoints import retrain


def _build(dataset, store, members=4, slices=2, e_prime=8, seed=11):
    ledger = CostLedger()
    ensemble = train_teacher_ensemble(
        dataset=dataset, members=members, slices_per_member=slices,
        budget=TrainBudget(e_prime),
        arch=ModelArch("softmax_linear", dataset.feature_dim,
                       dataset.num_classes),
        hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=1),
        store=store, ledger=ledger, seed=seed)
    return ensemble, ledger


class TestEpochBudgeting:
    def test_epochs_for_round(self):
        budget = TrainBudget(20)
        assert budget.epochs_for(1) == 20      # 2*20/2
        assert budget.epochs_for(2) == 14      # ceil(40/3)
        assert budget.epochs_for(4) == 8       # 40/5

    def test_positive_required(self):
        with pytest.raises(ValueError):
            TrainBudget(0)


class TestInitialTraining:
    def test_checkpoint_layout(self, small_dataset, tmp_path):
        """Every member leaves one checkpoint per slice and none for its
        initial state, which its seed fixes."""
        store = CheckpointStore(tmp_path / "s")
        _build(small_dataset, store, members=4, slices=2)
        assert store.keys("teacher") == [CheckpointKey("teacher", m, 1, j)
                                         for m in range(1, 5) for j in (1, 2)]

    def test_final_state_matches_last_checkpoint(self, small_dataset, tmp_path):
        store = CheckpointStore(tmp_path / "s")
        ensemble, _ = _build(small_dataset, store)
        for m in range(1, ensemble.member_count + 1):
            record = store.load(CheckpointKey("teacher", m, 1, 2))
            np.testing.assert_array_equal(record.state.params,
                                          ensemble.members[m - 1].params)

    def test_ledger_total_is_cumulative_slice_cost(self, small_dataset,
                                                   tmp_path):
        """Member cost = epochs * (|slice 1| + (|slice 1| + |slice 2|) + ...)."""
        store = CheckpointStore(tmp_path / "s")
        ensemble, ledger = _build(small_dataset, store, members=4, slices=2,
                                  e_prime=8)
        epochs = TrainBudget(8).epochs_for(2)  # ceil(16/3) = 6
        assert epochs == 6
        expected = 0
        for m in range(1, 5):
            sizes = [len(ensemble.plan.slice_ids(m, 1, j)) for j in (1, 2)]
            expected += epochs * (sizes[0] + sizes[0] + sizes[1])
        assert ledger.total(phase="initial_train", role="teacher") == expected

    def test_members_differ(self, small_dataset, tmp_path):
        """Different shards and seeds give distinct member parameters."""
        store = CheckpointStore(tmp_path / "s")
        ensemble, _ = _build(small_dataset, store)
        params = [m.params for m in ensemble.members]
        for i in range(len(params)):
            for j in range(i + 1, len(params)):
                assert not np.array_equal(params[i], params[j])

    def test_rerun_bit_identical(self, small_dataset, tmp_path):
        a, _ = _build(small_dataset, CheckpointStore(tmp_path / "a"))
        b, _ = _build(small_dataset, CheckpointStore(tmp_path / "b"))
        for x, y in zip(a.members, b.members):
            np.testing.assert_array_equal(x.params, y.params)

    def test_hard_label_weight_changes_no_bit(self, small_dataset, tmp_path):
        """Teachers train on one-hot targets, and fl(fl(1 - a) + a) = 1, so
        blending in the hard label is the identity for them."""
        states = []
        for weight in (0.0, 0.3):
            ensemble = train_teacher_ensemble(
                small_dataset, 4, 2, TrainBudget(8),
                ModelArch("softmax_linear", small_dataset.feature_dim,
                          small_dataset.num_classes),
                TrainHyper(learning_rate=0.1, batch_size=32, hard_label_weight=weight,
                           seed=1),
                CheckpointStore(tmp_path / str(weight)), CostLedger(), 11)
            states.append([(m.params.tobytes(), m.rng_cursor) for m in ensemble.members])
        assert states[0] == states[1]

    def test_ensemble_prediction_averages_members(self, small_dataset,
                                                  tmp_path):
        store = CheckpointStore(tmp_path / "s")
        ensemble, _ = _build(small_dataset, store)
        x = small_dataset.features[:10]
        preds = [predict_batch(m, x) for m in ensemble.members]
        np.testing.assert_allclose(aggregate_batch(preds), np.mean(preds, axis=0),
                                   atol=1e-12)


class TestUnlearning:
    def test_removed_point_gone_and_replay_matches_scratch(self, small_dataset,
                                                           tmp_path):
        """Replay-from-checkpoint must equal training from scratch on the
        reduced shard — same parameters to the last bit."""
        store = CheckpointStore(tmp_path / "s")
        ensemble, ledger = _build(small_dataset, store)
        victim = ensemble.plan.slice_ids(2, 1, 2)[3]

        m, _, j = ensemble.plan.locate(victim)
        steps, reverted = teacher_unlearn(ensemble, victim, store, ledger)
        assert (m, j) == (2, 2)
        assert victim not in ensemble.plan
        assert reverted == "teacher:2:1:1@1"

        # scratch oracle: retrain member 2 on the post-removal plan
        scratch, = retrain(ensemble, [2], CheckpointStore(tmp_path / "scratch"),
                          CostLedger(), "initial_train")
        np.testing.assert_array_equal(ensemble.members[1].params,
                                      scratch.params)

    def test_other_members_untouched(self, small_dataset, tmp_path):
        store = CheckpointStore(tmp_path / "s")
        ensemble, ledger = _build(small_dataset, store)
        before = [m.params.copy() for m in ensemble.members]
        victim = ensemble.plan.slice_ids(3, 1, 1)[0]
        teacher_unlearn(ensemble, victim, store, ledger)
        for ix in (0, 1, 3):
            np.testing.assert_array_equal(ensemble.members[ix].params,
                                          before[ix])
        assert not np.array_equal(ensemble.members[2].params, before[2])

    def test_first_slice_removal_reverts_to_init(self, small_dataset,
                                                 tmp_path):
        store = CheckpointStore(tmp_path / "s")
        ensemble, ledger = _build(small_dataset, store)
        victim = ensemble.plan.slice_ids(1, 1, 1)[0]
        before_gen = store.latest_generation(CheckpointKey("teacher", 1, 1, 1))
        m, _, j = ensemble.plan.locate(victim)
        _, reverted = teacher_unlearn(ensemble, victim, store, ledger)
        assert (m, j) == (1, 1)
        assert reverted == "teacher:1:0:0@0"
        after_gen = store.latest_generation(CheckpointKey("teacher", 1, 1, 1))
        assert after_gen == before_gen + 1

    def test_steps_accounting(self, small_dataset, tmp_path):
        """Reported steps equal the ledgered teacher_retrain increment."""
        store = CheckpointStore(tmp_path / "s")
        ensemble, ledger = _build(small_dataset, store)
        victim = ensemble.plan.slice_ids(4, 1, 2)[1]
        base = ledger.total(phase="teacher_retrain")
        steps, _ = teacher_unlearn(ensemble, victim, store, ledger)
        assert ledger.total(phase="teacher_retrain") - base == steps

    def test_sequential_removals_stay_exact(self, small_dataset, tmp_path):
        """Three removals in a row still match a from-scratch retrain."""
        store = CheckpointStore(tmp_path / "s")
        ensemble, ledger = _build(small_dataset, store)
        victims = [ensemble.plan.slice_ids(1, 1, 2)[0],
                   ensemble.plan.slice_ids(1, 1, 1)[2],
                   ensemble.plan.slice_ids(1, 1, 2)[5]]
        for v in victims:
            teacher_unlearn(ensemble, v, store, ledger)

        scratch, = retrain(ensemble, [1], CheckpointStore(tmp_path / "scratch"),
                          CostLedger(), "initial_train")
        np.testing.assert_array_equal(ensemble.members[0].params,
                                      scratch.params)

    def test_unknown_point(self, small_dataset, tmp_path):
        store = CheckpointStore(tmp_path / "s")
        ensemble, ledger = _build(small_dataset, store)
        with pytest.raises(NotFoundError):
            teacher_unlearn(ensemble, 99_999, store, ledger)
