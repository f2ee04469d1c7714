"""Lockstep training equals one-at-a-time training, bit for bit.

``checkpoints.retrain`` trains the models whose rounds have one shape as one
stack (``model.train_stack``). The reference trains every model alone, in
model order, through ``checkpoints.replay`` and ``model.train``: the store's
log bytes, the ledger rows in order and the final states must be the ones a
lockstep ``train_system`` made.
"""

import numpy as np
import pytest

from purgekd import (CheckpointStore, CostLedger, DimensionError, ModelArch, SyntheticSpec,
                     TrainHyper, gen_synthetic, init_model, train, train_system)
from purgekd.checkpoints import _initial_state, replay
from purgekd.model import train_stack


@pytest.fixture(scope="module")
def dataset():
    """10,000 points: 32 teacher shards of 313 and 312 rows, four student
    shards of 2,500 rows."""
    return gen_synthetic(SyntheticSpec(num_classes=2, points_per_class=5000,
                                       feature_dim=3, seed=5))


def _train(dataset, store, kind, weight):
    arch = ModelArch(kind, dataset.feature_dim, dataset.num_classes,
                     4 if kind == "one_hidden_layer" else None)
    return train_system(
        student_dataset=dataset, teacher_dataset=None, teacher_members=32,
        teacher_slices=2, student_constituents=4,
        # constituents 1 and 3 share one shape, 2 and 4 each have their own
        slices_per_chunk=[[1, 2] * 4, [2, 1] * 4, [1, 2] * 4, [1] * 8],
        mode="purge", e_prime=1, teacher_arch=arch, student_arch=arch,
        teacher_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=1),
        student_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=2,
                                 hard_label_weight=weight),
        store=store, seed=11)


@pytest.mark.parametrize("kind, weight", [("softmax_linear", 0.0),
                                          ("one_hidden_layer", 0.25)])
def test_lockstep_training_equals_one_model_at_a_time(dataset, tmp_path, kind, weight):
    system = _train(dataset, CheckpointStore(tmp_path / "lockstep"), kind, weight)
    t, s = system.teacher, system.student
    assert {len(t.plan.shard_rows(m)) for m in range(1, 33)} == {312, 313}
    bounds = [[s.plan.chunk_bounds(k, l) for l in range(1, 9)] for k in range(1, 5)]
    assert bounds[0] == bounds[2] != bounds[1]

    store, ledger = CheckpointStore(tmp_path / "serial"), CostLedger()
    for net, held in ((t, t.members), (s, s.constituents)):
        for k in range(1, net.plan.num_shards + 1):
            state, _ = replay(net, _initial_state(net, k), k, 1, 1, store, ledger,
                              "initial_train")
            assert state.params.tobytes() == held[k - 1].params.tobytes()
            assert state.rng_cursor == held[k - 1].rng_cursor
    assert ledger.entries == system.ledger.entries
    assert (store.root / "store.log").read_bytes() == \
        (system.store.root / "store.log").read_bytes()


def test_train_stack_is_train_per_model():
    """Each model of a stack gets the bits ``train`` gives it alone, with its
    own data, shuffle stream and rng cursor."""
    rng = np.random.default_rng(3)
    arch = ModelArch("one_hidden_layer", 4, 3, 5)
    states = [init_model(arch, seed) for seed in range(3)]
    states[1].rng_cursor = 7
    hypers = [TrainHyper(learning_rate=0.2, batch_size=8, hard_label_weight=0.3, seed=s)
              for s in range(3)]
    rounds = [(rng.normal(size=(29, 4)), rng.dirichlet(np.ones(3), size=29),
               rng.integers(0, 3, size=29)) for _ in range(3)]
    alone = [train(st, *r, 2, h) for st, r, h in zip(states, rounds, hypers)]
    stacked = train_stack(states, iter(rounds), 2, hypers)
    assert [a.params.tobytes() for a in alone] == [b.params.tobytes() for b in stacked]
    assert [b.rng_cursor for b in stacked] == [a.rng_cursor for a in alone] == [1, 8, 1]
    with pytest.raises(DimensionError, match="one example count"):
        train_stack(states, [rounds[0], rounds[1], tuple(r[:-1] for r in rounds[2])], 1,
                    hypers)
