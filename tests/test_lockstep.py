"""Lockstep training equals one-at-a-time training, bit for bit.

``checkpoints.retrain`` trains the models whose rounds have one shape as one
stack (``model.train_stack``). The reference trains every model alone, in
model order, through ``checkpoints.replay`` and ``model.train``: the store's
log bytes, the ledger rows in order and the final states must be the ones a
lockstep ``train_system`` made.

The kernel oracle keeps the training kernel as it was before batch-major
blocks, and ``train_stack`` must give its bits around every batch boundary.
"""

import numpy as np
import pytest

from purgekd import (CheckpointStore, CostLedger, DimensionError, ModelArch, ModelState,
                     SyntheticSpec, TrainHyper, gen_synthetic, init_model, mix_seed, model,
                     train, train_system)
from purgekd.checkpoints import _initial_state, replay
from purgekd.model import BLAS_THREADS, _layers, train_stack


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


# The kernel oracle. The reference below is the training kernel as it stood
# before batch-major blocks: the permuted round laid out once as (M, d + 1, n)
# columns over a ones row and (M, K, n) targets, each batch a column-range
# view, one gradient buffer per layer and an update per layer. The kernel
# must give its bits exactly.

def _reference_operands(arch, layers, lead, b):
    z = np.empty(lead + (arch.num_classes, b))
    zt, r = z.swapaxes(-1, -2), np.empty(lead + (1, b))
    if arch.kind == "softmax_linear":
        (w,) = layers
        return w, w.swapaxes(-1, -2), z, zt, r, np.empty(w.shape)
    w1, w2 = layers
    h = arch.hidden_units
    hb, gh = np.ones(lead + (h + 1, b)), np.empty(lead + (h, b))
    return (w1, w1.swapaxes(-1, -2), w2, w2.swapaxes(-1, -2), w2[..., :-1, :], z, zt, r,
            np.empty(w1.shape), np.empty(w2.shape), hb, hb[..., :-1, :], gh,
            gh.swapaxes(-1, -2), np.empty(lead + (h, b)))


def _reference_softmax_step(xb, tb, step, w, wt, z, zt, r, g):
    np.matmul(wt, xb, out=z)
    np.maximum.reduce(z, axis=-2, keepdims=True, out=r)
    z -= r
    np.exp(z, out=z)
    np.add.reduce(z, axis=-2, keepdims=True, out=r)
    z /= r
    z -= tb
    np.matmul(xb, zt, out=g)
    g *= step
    w -= g


def _reference_hidden_step(xb, tb, step, w1, w1t, w2, w2t, w2h, z, zt, r, g1, g2, hb, h,
                           gh, ght, tmp):
    np.matmul(w1t, xb, out=h)
    np.tanh(h, out=h)
    np.matmul(w2t, hb, out=z)
    np.maximum.reduce(z, axis=-2, keepdims=True, out=r)
    z -= r
    np.exp(z, out=z)
    np.add.reduce(z, axis=-2, keepdims=True, out=r)
    z /= r
    z -= tb
    np.matmul(w2h, z, out=gh)
    np.multiply(h, h, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    gh *= tmp
    np.matmul(xb, ght, out=g1)
    np.matmul(hb, zt, out=g2)
    g1 *= step
    w1 -= g1
    g2 *= step
    w2 -= g2


def _reference_sgd(arch, params, xt, tt, epochs, batch_size, learning_rate):
    if len(xt) == 1:
        params, xt, tt = params[0], xt[0], tt[0]
    n, lead = xt.shape[-1], xt.shape[:-2]
    layers = _layers(arch, params)
    step = _reference_softmax_step if arch.kind == "softmax_linear" else _reference_hidden_step
    operands, batches = {}, []
    for s0 in range(0, n, batch_size):
        b = min(batch_size, n - s0)
        if b not in operands:
            operands[b] = _reference_operands(arch, layers, lead, b)
        batches.append((xt[..., s0:s0 + b], tt[..., s0:s0 + b], learning_rate / b,
                        operands[b]))
    threads = BLAS_THREADS[0]() if BLAS_THREADS else 1
    if threads != 1:
        BLAS_THREADS[1](1)
    try:
        for _ in range(epochs):
            for xb, tb, step_size, ops in batches:
                step(xb, tb, step_size, *ops)
    finally:
        if threads != 1:
            BLAS_THREADS[1](threads)


def _reference_train_stack(states, rounds, epochs, hypers):
    arch, hyper = states[0].arch, hypers[0]
    d, k, m = arch.feature_dim, arch.num_classes, len(states)
    params = np.empty((m, arch.param_count))
    xt = tt = None
    for i, (state, hyper_i, (x, soft, hard)) in enumerate(zip(states, hypers, rounds)):
        n = len(x)
        if xt is None:
            xt, tt = np.empty((m, d + 1, n)), np.empty((m, k, n))
            xt[:, d] = 1.0
        params[i] = state.params
        perm = np.random.default_rng(mix_seed(hyper_i.seed, state.rng_cursor)).permutation(n)
        xt[i, :d] = x.take(perm, axis=0).T
        t = tt[i]
        t[...] = soft.take(perm, axis=0).T
        a = hyper_i.hard_label_weight
        if a:
            t *= 1.0 - a
            t[hard[perm], np.arange(n)] += a
    _reference_sgd(arch, params, xt, tt, epochs, hyper.batch_size, hyper.learning_rate)
    return [ModelState(arch, params[i], s.rng_cursor + 1) for i, s in enumerate(states)]


B = 8


@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("weight", [0.0, 0.5])
@pytest.mark.parametrize("arch", [ModelArch("softmax_linear", 5, 4),
                                  ModelArch("one_hidden_layer", 5, 4, 6),
                                  ModelArch("one_hidden_layer", 5, 4, 1)],
                         ids=["softmax", "hidden", "hidden1"])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("b, n", [(b, n) for b in (1, 2, B)
                                  for n in sorted({1, b - 1, b, b + 1, 3 * b + 5} - {0})])
def test_kernel_equals_reference(b, n, m, arch, weight, epochs):
    """train_stack gives the reference kernel's bits for every row count
    around the batch size (a lone tail batch, full batches only, full
    batches and a tail), one-column batches and a one-unit hidden layer
    included, with its rounds handed over as arrays or as row indices into
    larger arrays."""
    rng = np.random.default_rng([b, n, m, arch.hidden_units or 0, int(10 * weight), epochs])
    states = [init_model(arch, int(seed)) for seed in rng.integers(1 << 30, size=m)]
    for i, state in enumerate(states):
        state.rng_cursor = i
    hypers = [TrainHyper(learning_rate=0.3, batch_size=b, hard_label_weight=weight, seed=s)
              for s in range(m)]
    total = 2 * n + 3
    features = rng.normal(size=(total, arch.feature_dim))
    labels = rng.integers(0, arch.num_classes, size=total)
    picks = [rng.permutation(total)[:n] for _ in range(m)]
    softs = [rng.dirichlet(np.ones(arch.num_classes), size=n) for _ in range(m)]
    rounds = [(features[p], s, labels[p]) for p, s in zip(picks, softs)]
    want = _reference_train_stack(states, rounds, epochs, hypers)
    got = train_stack(states, iter(rounds), epochs, hypers)
    by_rows = train_stack(states, [(features, s, labels, p) for p, s in zip(picks, softs)],
                          epochs, hypers)
    for result in (got, by_rows):
        assert [s.params.tobytes() for s in result] == [s.params.tobytes() for s in want]
        assert [s.rng_cursor for s in result] == [s.rng_cursor for s in want]


@pytest.mark.parametrize("m", [1, 3])
def test_blocks_are_c_ordered(m, monkeypatch):
    """Every block the kernel hands BLAS is C-ordered: unit stride along
    its columns, rows at least a block's width apart."""
    groups = []
    sgd = model._sgd
    monkeypatch.setattr(model, "_sgd", lambda arch, params, g, *rest: (
        groups.extend(g), sgd(arch, params, g, *rest))[1])
    arch = ModelArch("one_hidden_layer", 5, 4, 3)
    rng = np.random.default_rng(m)
    train_stack([init_model(arch, s) for s in range(m)],
                [(rng.normal(size=(3 * B + 1, 5)), rng.dirichlet(np.ones(4), size=3 * B + 1),
                  rng.integers(0, 4, size=3 * B + 1)) for _ in range(m)], 1,
                [TrainHyper(learning_rate=0.1, batch_size=B)] * m)
    assert [xs.shape[-1] for xs, _ in groups] == [B, 1]
    for blocks in (a for pair in groups for a in pair):
        assert blocks.strides[-1] == blocks.itemsize
        assert blocks.strides[-2] >= blocks.shape[-1] * blocks.itemsize


def test_transposed_operand_changes_bits():
    """Why the blocks are C-ordered: the same features as an F-ordered
    (transposed) operand take another BLAS path, which gives the gradient
    product of a softmax step other bits at some shapes (with
    single-threaded OpenBLAS on x86-64, at every batch of 32 columns or
    more probed here). The kernel oracle's B + 1 rows also pin the
    one-column tail, which BLAS takes down another path as a unit-stride
    column than as a column cut from a wider round."""
    rng = np.random.default_rng(11)
    differ = 0
    for d in (4, 16, 32, 64):
        for k in (2, 10):
            for b in (1, 7, 8, 32, 33, 100):
                w = rng.normal(size=(d + 1, k))
                xb = rng.normal(size=(d + 1, b))
                zt = rng.normal(size=(k, b)).T
                xf = np.asfortranarray(xb)
                differ += np.matmul(w.T, xb).tobytes() != np.matmul(w.T, xf).tobytes()
                differ += np.matmul(xb, zt).tobytes() != np.matmul(xf, zt).tobytes()
    if not differ:
        pytest.skip("this BLAS gives F-ordered operands the same bits")
