"""Model substrate: init, prediction, losses, SGD training, aggregation.

The gradient checks compare the analytic implementation against central
finite differences — the two routes share no code. The training checks
compare train against a textbook row-major SGD loop kept here as the
reference.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from purgekd import (DimensionError, ModelArch, ModelState, SoftLabelChunk,
                     TrainHyper, aggregate_batch, init_model, mean_distill_loss,
                     mix_seed, one_hot, predict_batch, subensemble_soft_labels,
                     train)
from purgekd.model import _sgd


def _random_arch(rng, kind):
    d = int(rng.integers(2, 9))
    k = int(rng.integers(2, 6))
    h = int(rng.integers(2, 8)) if kind == "one_hidden_layer" else None
    return ModelArch(kind, d, k, h)


def _fd_gradient(arch, params, x, targets, h=1e-6):
    """Central finite differences of the mean batch loss, coordinate-wise."""

    def batch_loss(p):
        probs = [predict_batch_from(arch, p, x)]
        return float(np.mean([
            -float(np.sum(t * np.log(np.maximum(row, 1e-300))))
            for row, t in zip(probs[0], targets)]))

    grad = np.empty_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (batch_loss(up) - batch_loss(dn)) / (2 * h)
    return grad


def flat_gradient(arch, params, x, targets):
    """Mean-over-batch gradient wrt the flat parameters, through the
    training kernel (class-major, bias-folded): one full-batch step at
    learning rate 1 moves the parameters by minus that gradient."""
    stepped = params.copy()
    _sgd(arch, stepped, [(np.vstack([x.T, np.ones(len(x))])[None],
                          np.ascontiguousarray(targets.T)[None])], 1, 1.0)
    return params - stepped


def reference_train(state, x, soft, hard, epochs, hyper):
    """Textbook row-major SGD: separate weights and biases, the batch
    gradient of the mean loss with (softmax - t) / n, and one permutation
    seeded by (hyper.seed, cursor) reused every epoch."""
    arch = state.arch
    d, k, h = arch.feature_dim, arch.num_classes, arch.hidden_units
    a = hyper.hard_label_weight
    targets = (1.0 - a) * soft + a * one_hot(hard, k)
    perm = np.random.default_rng(mix_seed(hyper.seed, state.rng_cursor)).permutation(len(x))
    x, targets = x[perm], targets[perm]
    p = state.params.copy()

    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    for _ in range(epochs):
        for s0 in range(0, len(x), hyper.batch_size):
            xb, tb = x[s0:s0 + hyper.batch_size], targets[s0:s0 + hyper.batch_size]
            n = len(xb)
            if h is None:
                w, b = p[:d * k].reshape(d, k), p[d * k:]
                g = (softmax(xb @ w + b) - tb) / n
                grad = np.concatenate([(xb.T @ g).ravel(), g.sum(axis=0)])
            else:
                w1, b1 = p[:d * h].reshape(d, h), p[d * h:d * h + h]
                w2, b2 = p[d * h + h:-k].reshape(h, k), p[-k:]
                hid = np.tanh(xb @ w1 + b1)
                g = (softmax(hid @ w2 + b2) - tb) / n
                gh = (g @ w2.T) * (1.0 - hid * hid)
                grad = np.concatenate([(xb.T @ gh).ravel(), gh.sum(axis=0),
                                       (hid.T @ g).ravel(), g.sum(axis=0)])
            p -= hyper.learning_rate * grad
    return p


def predict_batch_from(arch, params, x):
    from purgekd.model import ModelState
    return predict_batch(ModelState(arch, params), x)


class TestArchAndInit:
    def test_param_counts(self):
        assert ModelArch("softmax_linear", 10, 3).param_count == 33
        assert ModelArch("one_hidden_layer", 10, 3, 7).param_count == \
            10 * 7 + 7 + 7 * 3 + 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ModelArch("transformer", 4, 2)

    def test_hidden_units_required_iff_hidden_arch(self):
        with pytest.raises(ValueError):
            ModelArch("one_hidden_layer", 4, 2)
        with pytest.raises(ValueError):
            ModelArch("softmax_linear", 4, 2, 16)

    def test_init_range_and_determinism(self):
        arch = ModelArch("one_hidden_layer", 6, 3, 5)
        a = init_model(arch, seed=42)
        b = init_model(arch, seed=42)
        np.testing.assert_array_equal(a.params, b.params)
        assert a.params.size == arch.param_count
        assert np.all(np.abs(a.params) <= 0.05)
        c = init_model(arch, seed=43)
        assert not np.array_equal(a.params, c.params)


class TestMixSeed:
    def test_order_sensitivity(self):
        assert mix_seed(1, 2) != mix_seed(2, 1)

    def test_stable_values(self):
        """Seed derivation must never change across releases: frozen values."""
        assert mix_seed(0) == mix_seed(0)
        assert mix_seed(7, 1, 3) == mix_seed(7, 1, 3)
        assert mix_seed(7, 1, 3) != mix_seed(7, 1, 4)

    def test_domain_separation(self):
        """Nearby (seed, domain, index) triples give unrelated streams."""
        seen = {mix_seed(s, d, i) for s in range(4) for d in range(4)
                for i in range(4)}
        assert len(seen) == 64


class TestPrediction:
    def test_probabilities_normalized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            for kind in ("softmax_linear", "one_hidden_layer"):
                arch = _random_arch(rng, kind)
                state = init_model(arch, seed=int(rng.integers(1 << 30)))
                x = rng.normal(size=(17, arch.feature_dim))
                probs = predict_batch(state, x)
                assert probs.shape == (17, arch.num_classes)
                assert np.all(probs >= 0)
                np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_linear_logits_match_dot_product(self):
        """The linear architecture is exactly softmax(x @ W + b)."""
        rng = np.random.default_rng(3)
        arch = ModelArch("softmax_linear", 4, 3)
        state = init_model(arch, seed=5)
        w = state.params[:12].reshape(4, 3)
        b = state.params[12:]
        x = rng.normal(size=4)
        z = x @ w + b
        expected = np.exp(z - z.max())
        expected /= expected.sum()
        np.testing.assert_allclose(predict_batch(state, x[None, :])[0], expected,
                                   atol=1e-12)

    def test_temperature_flattens(self):
        """Higher temperature moves the distribution toward uniform."""
        arch = ModelArch("softmax_linear", 5, 4)
        state = init_model(arch, seed=1)
        x = np.random.default_rng(9).normal(size=5) * 4
        cold = predict_batch(state, x[None, :], temperature=0.5)[0]
        hot = predict_batch(state, x[None, :], temperature=8.0)[0]
        assert hot.max() < cold.max()
        np.testing.assert_allclose(hot.sum(), 1.0, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        arch = ModelArch("softmax_linear", 3, 2)
        state = init_model(arch, seed=2)
        state.params[:] = 500.0
        probs = predict_batch(state, np.array([[100.0, -100.0, 50.0]]))[0]
        assert np.all(np.isfinite(probs))
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        state = init_model(ModelArch("softmax_linear", 4, 2), seed=0)
        with pytest.raises(DimensionError):
            predict_batch(state, np.zeros((1, 5)))


class TestRowIndependence:
    """A row's prediction depends on that row alone, never on which other
    rows share the batch (BLAS matmuls break this at realistic shapes)."""

    @pytest.mark.parametrize("d", [16, 32])
    @pytest.mark.parametrize("kind", ["softmax_linear", "one_hidden_layer"])
    def test_same_bits_in_any_batch(self, d, kind):
        rng = np.random.default_rng(d)
        arch = ModelArch(kind, d, 10, 32 if kind == "one_hidden_layer" else None)
        state = init_model(arch, seed=3)
        state.params[:] = rng.normal(scale=0.3, size=arch.param_count)
        n = 313
        x = rng.normal(size=(n, d))
        full = predict_batch(state, x)
        for i in (0, 1, 156, n - 2, n - 1):
            np.testing.assert_array_equal(predict_batch(state, x[i:i + 1])[0], full[i])
        for start in (1, 100, n - 1):
            np.testing.assert_array_equal(predict_batch(state, x[start:]), full[start:])
        for dropped in (0, n // 2, n - 1):
            np.testing.assert_array_equal(
                predict_batch(state, np.delete(x, dropped, axis=0)),
                np.delete(full, dropped, axis=0))


def _row_major_predict(arch, params, x, temperature):
    """Reference inference: the row-major kernel of earlier releases, whose
    bits the class-major kernel must keep. Each layer is one
    einsum("nd,dk->nk") plus its bias row; the softmax reduces each row of
    the (n, K) logits."""
    d, k, h = arch.feature_dim, arch.num_classes, arch.hidden_units
    if h is None:
        layers = [params.reshape(d + 1, k)]
    else:
        layers = [params[:(d + 1) * h].reshape(d + 1, h),
                  params[(d + 1) * h:].reshape(h + 1, k)]
    out = np.einsum("nd,dk->nk", x, layers[0][:-1], optimize=False) + layers[0][-1]
    for w in layers[1:]:
        out = np.einsum("nd,dk->nk", np.tanh(out), w[:-1], optimize=False) + w[-1]
    z = out / temperature
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=1, keepdims=True)
    return z


class TestInferenceOracle:
    """predict_batch equals the row-major reference bit for bit, one-column
    hidden layers (h = 1), one class and one row included."""

    @pytest.mark.parametrize("d", [1, 3, 16, 32])
    @pytest.mark.parametrize("kind", ["softmax_linear", "one_hidden_layer"])
    def test_equals_row_major_reference(self, kind, d):
        rng = np.random.default_rng(d)
        hidden = [1, 2, 32] if kind == "one_hidden_layer" else [None]
        for k, h, n, temperature in itertools.product([1, 2, 10], hidden, [1, 7, 312],
                                                       [1.0, 2.5]):
            arch = ModelArch(kind, d, k, h)
            params = rng.normal(scale=0.7, size=arch.param_count)
            x = rng.normal(scale=3.0, size=(n, d))
            got = predict_batch(ModelState(arch, params), x, temperature)
            want = _row_major_predict(arch, params, x, temperature)
            assert got.tobytes() == want.tobytes(), (k, h, n, temperature)

    @pytest.mark.parametrize("kind", ["softmax_linear", "one_hidden_layer"])
    def test_extreme_logits(self, kind):
        """Logits in the thousands, where most classes underflow to zero."""
        rng = np.random.default_rng(5)
        arch = ModelArch(kind, 16, 10, 8 if kind == "one_hidden_layer" else None)
        params = rng.normal(scale=200.0, size=arch.param_count)
        x = rng.normal(scale=50.0, size=(64, 16))
        got = predict_batch(ModelState(arch, params), x)
        assert (got == 0.0).any() and np.isfinite(got).all()
        assert got.tobytes() == _row_major_predict(arch, params, x, 1.0).tobytes()

    def test_any_memory_layout(self):
        """A Fortran-ordered or strided input gives the bits of a C-ordered one."""
        rng = np.random.default_rng(6)
        for h in (1, 32):
            state = ModelState(ModelArch("one_hidden_layer", 16, 10, h),
                               rng.normal(size=(16 + 1) * h + (h + 1) * 10))
            x = rng.normal(size=(312, 32))[:, ::2]
            want = predict_batch(state, np.ascontiguousarray(x)).tobytes()
            assert predict_batch(state, x).tobytes() == want
            assert predict_batch(state, np.asfortranarray(x)).tobytes() == want


def _one_row_loss(p, soft, hard_label, hard_label_weight=0.0):
    """mean_distill_loss of a one-row batch whose prediction is p: a linear
    model over one zero feature, with log(p) as its bias."""
    with np.errstate(divide="ignore"):
        bias = np.maximum(np.log(p), -1e4)
    state = ModelState(ModelArch("softmax_linear", 1, len(p)),
                       np.concatenate([np.zeros(len(p)), bias]))
    np.testing.assert_allclose(predict_batch(state, [[0.0]])[0], p, rtol=1e-15)
    return mean_distill_loss(state, [[0.0]], [soft], [hard_label], hard_label_weight)


class TestDistillLoss:
    def test_cross_entropy_oracle(self):
        """Pure soft-target loss is -sum(t * log p); hand-computed case."""
        p = np.array([0.7, 0.2, 0.1])
        t = np.array([0.5, 0.25, 0.25])
        expected = -(0.5 * math.log(0.7) + 0.25 * math.log(0.2)
                     + 0.25 * math.log(0.1))
        assert _one_row_loss(p, t, hard_label=0) == pytest.approx(expected,
                                                                  rel=1e-12)

    def test_hard_label_blend(self):
        """Weight a mixes one-hot mass into the soft target."""
        p = np.array([0.6, 0.4])
        s = np.array([0.5, 0.5])
        blended = _one_row_loss(p, s, hard_label=1, hard_label_weight=0.3)
        t = 0.7 * s + 0.3 * np.array([0.0, 1.0])
        expected = -(t[0] * math.log(0.6) + t[1] * math.log(0.4))
        assert blended == pytest.approx(expected, rel=1e-12)

    def test_clamp_keeps_loss_finite(self):
        p = np.array([1.0, 0.0])
        t = np.array([0.0, 1.0])
        loss = _one_row_loss(p, t, hard_label=1)
        assert loss == pytest.approx(-math.log(1e-12), rel=1e-12)

    def test_mean_matches_loop(self):
        """The batch mean equals the mean of one-row batches, and of the
        textbook per-row cross-entropy against the blended target."""
        rng = np.random.default_rng(21)
        arch = ModelArch("softmax_linear", 5, 4)
        state = init_model(arch, seed=8)
        x = rng.normal(size=(30, 5))
        soft = rng.dirichlet(np.ones(4), size=30)
        hard = rng.integers(0, 4, size=30)
        rows = np.mean([mean_distill_loss(state, x[i:i + 1], soft[i:i + 1],
                                          hard[i:i + 1], 0.25) for i in range(30)])
        textbook = np.mean([-(0.75 * s + 0.25 * np.eye(4)[h]) @ np.log(p)
                            for p, s, h in zip(predict_batch(state, x), soft, hard)])
        batch = mean_distill_loss(state, x, soft, hard, 0.25)
        assert batch == pytest.approx(rows, rel=1e-12)
        assert batch == pytest.approx(textbook, rel=1e-12)


class TestGradients:
    """Analytic gradients against central finite differences."""

    @pytest.mark.parametrize("kind", ["softmax_linear", "one_hidden_layer"])
    def test_matches_finite_differences(self, kind):
        """50 random cases per architecture, the first 10 with one row."""
        rng = np.random.default_rng(17)
        for case in range(50):
            arch = _random_arch(rng, kind)
            params = rng.uniform(-0.5, 0.5, size=arch.param_count)
            n = 1 if case < 10 else int(rng.integers(1, 7))
            x = rng.normal(size=(n, arch.feature_dim))
            targets = rng.dirichlet(np.ones(arch.num_classes), size=n)
            analytic = flat_gradient(arch, params, x, targets)
            numeric = _fd_gradient(arch, params, x, targets)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4,
                                       atol=1e-7,
                                       err_msg=f"{kind} case {case}")


class TestTraining:
    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("batch_size", [1, 7, 20, 64])
    @pytest.mark.parametrize("weight", [0.0, 0.3])
    @pytest.mark.parametrize("kind", ["softmax_linear", "one_hidden_layer"])
    def test_matches_row_major_reference(self, kind, weight, batch_size, epochs):
        """The bias-folded, class-major kernel is the textbook SGD loop up
        to rounding: a partial last batch (7 of 20 rows), one batch (20 and
        64), one row per step, with and without the hard-label blend."""
        rng = np.random.default_rng(batch_size * 10 + epochs)
        arch = ModelArch(kind, 6, 4, 5 if kind == "one_hidden_layer" else None)
        state = init_model(arch, seed=4)
        state.rng_cursor = 3
        x = rng.normal(size=(20, 6))
        soft = rng.dirichlet(np.ones(4), size=20)
        hard = rng.integers(0, 4, size=20)
        hyper = TrainHyper(learning_rate=0.3, batch_size=batch_size,
                           hard_label_weight=weight, seed=12)
        got = train(state, x, soft, hard, epochs, hyper)
        want = reference_train(state, x, soft, hard, epochs, hyper)
        np.testing.assert_allclose(got.params, want, rtol=0, atol=1e-12)
        assert not np.array_equal(got.params, state.params)

    @pytest.mark.parametrize("kind", ["softmax_linear", "one_hidden_layer"])
    def test_large_features_stay_finite(self, kind):
        """Features scaled by 1e3 drive the logits far apart; the max-shifted
        softmax keeps every step finite."""
        rng = np.random.default_rng(8)
        arch = ModelArch(kind, 5, 3, 4 if kind == "one_hidden_layer" else None)
        x = rng.normal(size=(40, 5)) * 1e3
        hard = rng.integers(0, 3, size=40)
        trained = train(init_model(arch, seed=1), x, one_hot(hard, 3), hard,
                        epochs=5, hyper=TrainHyper(learning_rate=0.5,
                                                   batch_size=8, seed=2))
        assert np.all(np.isfinite(trained.params))
        assert np.all(np.isfinite(predict_batch(trained, x)))

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(5)
        arch = ModelArch("softmax_linear", 2, 2)
        x = np.concatenate([rng.normal(-2, 0.4, size=(40, 2)),
                            rng.normal(2, 0.4, size=(40, 2))])
        hard = np.array([0] * 40 + [1] * 40)
        soft = one_hot(hard, 2)
        state = init_model(arch, seed=1)
        before = mean_distill_loss(state, x, soft, hard)
        trained = train(state, x, soft, hard, epochs=30,
                        hyper=TrainHyper(learning_rate=0.5, batch_size=16,
                                         seed=3))
        after = mean_distill_loss(trained, x, soft, hard)
        assert after < before / 4

    def test_bit_reproducible(self):
        """Same state, data and hyper: identical parameters out."""
        rng = np.random.default_rng(6)
        arch = ModelArch("one_hidden_layer", 4, 3, 6)
        x = rng.normal(size=(50, 4))
        hard = rng.integers(0, 3, size=50)
        soft = one_hot(hard, 3)
        hyper = TrainHyper(learning_rate=0.1, batch_size=8, seed=44)
        state = init_model(arch, seed=9)
        a = train(state, x, soft, hard, epochs=5, hyper=hyper)
        b = train(state, x, soft, hard, epochs=5, hyper=hyper)
        np.testing.assert_array_equal(a.params, b.params)
        assert a.rng_cursor == b.rng_cursor == state.rng_cursor + 1

    def test_cursor_changes_shuffle(self):
        """Two successive calls on the same data use different orderings."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 3))
        hard = rng.integers(0, 2, size=30)
        soft = one_hot(hard, 2)
        hyper = TrainHyper(learning_rate=0.3, batch_size=4, seed=2)
        state = init_model(ModelArch("softmax_linear", 3, 2), seed=0)
        first = train(state, x, soft, hard, epochs=1, hyper=hyper)
        second = train(first, x, soft, hard, epochs=1, hyper=hyper)
        replay_second = train(first, x, soft, hard, epochs=1, hyper=hyper)
        np.testing.assert_array_equal(second.params, replay_second.params)
        assert not np.array_equal(first.params, second.params)

    def test_zero_epochs_is_identity(self):
        state = init_model(ModelArch("softmax_linear", 3, 2), seed=0)
        x = np.zeros((4, 3))
        out = train(state, x, one_hot(np.zeros(4, int), 2), np.zeros(4, int),
                    epochs=0, hyper=TrainHyper(learning_rate=0.1, batch_size=2,
                                               seed=0))
        np.testing.assert_array_equal(out.params, state.params)
        assert out.rng_cursor == state.rng_cursor

    def test_empty_batch_rejected(self):
        state = init_model(ModelArch("softmax_linear", 3, 2), seed=0)
        with pytest.raises(ValueError):
            train(state, np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0, int),
                  epochs=1, hyper=TrainHyper(learning_rate=0.1, batch_size=2,
                                             seed=0))


KERNEL_PROBE = """
import hashlib, json
import numpy as np
from purgekd.model import ModelArch, kernel_fingerprint
rng = np.random.default_rng(0)
product = rng.normal(size=(33, 64)) @ rng.normal(size=(64, 10))
print(json.dumps([hashlib.blake2b(product.tobytes()).hexdigest(),
                  kernel_fingerprint(ModelArch("one_hidden_layer", 5, 3, 4), 32)]))
"""


def _kernel_probe(**env):
    """(matmul digest, kernel fingerprint) from a fresh single-threaded process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    base.update(OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")])),
                **env)
    out = subprocess.run([sys.executable, "-c", KERNEL_PROBE], env=base, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


class TestKernelFingerprint:
    def test_sees_a_blas_kernel_change(self):
        """A BLAS kernel that changes matmul bits changes the fingerprint."""
        matmul, fingerprint = _kernel_probe()
        other_matmul, other_fingerprint = _kernel_probe(OPENBLAS_CORETYPE="Haswell")
        if other_matmul == matmul:
            pytest.skip("OPENBLAS_CORETYPE=Haswell does not change matmul bits here")
        assert other_fingerprint != fingerprint


class TestAggregation:
    def test_mean_of_distributions(self):
        a = np.array([0.9, 0.1])
        b = np.array([0.5, 0.5])
        np.testing.assert_allclose(aggregate_batch([a[None, :], b[None, :]])[0],
                                   [0.7, 0.3], atol=1e-15)

    def test_permutation_invariant_exactly(self):
        """Member order must not change the aggregate by even one ulp."""
        rng = np.random.default_rng(31)
        preds = [rng.dirichlet(np.ones(5), size=1) for _ in range(9)]
        base = aggregate_batch(preds)
        for _ in range(20):
            order = rng.permutation(9)
            np.testing.assert_array_equal(aggregate_batch([preds[i] for i in order]),
                                          base)

    def test_batch_matches_rowwise(self):
        rng = np.random.default_rng(32)
        mats = [rng.dirichlet(np.ones(3), size=12) for _ in range(4)]
        batch = aggregate_batch(mats)
        for row in range(12):
            np.testing.assert_array_equal(
                batch[row], aggregate_batch([m[row:row + 1] for m in mats])[0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_batch([])


def _fsum_mean(mats):
    """Reference: one math.fsum per element, divided by the member count."""
    n, k = mats[0].shape
    return np.array([[math.fsum(m[i, c] for m in mats) / len(mats)
                      for c in range(k)] for i in range(n)])


def _hard_stack(rng, members, n, k=10):
    """Member matrices whose elements mix softmax-like values with exact
    zeros, subnormals, powers of two, and sums built to land on, or within
    a hair of, a half-ulp tie (also where the float sum of rounding errors
    itself rounds), in a random member order per element.

    Element (0, 0) is always one the cascade cannot settle, so the fsum
    fallback runs for every member count above one: a kind-6 near-tie in
    construction order for M >= 3 (its error sum rounds, so the bound is
    positive), and a non-finite value for M = 2 (two members leave a single,
    exact error sum, so no finite element has a positive bound)."""
    out = np.empty((members, n, k))
    for i in range(n):
        for c in range(k):
            base = float(rng.uniform(0.25, 1.0))
            half = math.ulp(base) / 2
            forced = i == 0 and c == 0 and members > 1
            kind = 6 if forced else int(rng.integers(7))
            if forced and members == 2:
                out[:, i, c] = [np.inf, base]
                continue
            if kind == 0:
                vals = rng.dirichlet(np.ones(members)) * base
            elif kind == 1:
                vals = np.zeros(members)
            elif kind == 2:
                vals = rng.integers(0, 4, members) * 5e-324
            elif kind == 3:
                vals = 2.0 ** -rng.integers(0, 60, members).astype(float)
            elif kind == 6:
                # just under half an ulp, then crumbs each too small to move
                # the error sum: it rounds, and only its bound shows that the
                # exact sum is past the tie
                vals = np.full(members, math.ulp(half) / 8)
                vals[0] = base
                if members > 1:
                    vals[1] = np.nextafter(half, 0.0)
            else:
                # base + half an ulp is an exact tie; cancelling pairs and a
                # tiny nudge (kind 5) keep it at or right beside the tie
                vals = np.zeros(members)
                vals[0] = base
                if members > 1:
                    vals[1] = half
                for q in range(2, members - 2, 2):
                    y = float(rng.uniform(0, 1e-3))
                    vals[q], vals[q + 1] = y, -y
                if kind == 5 and members > 2:
                    vals[-1] = half * 2.0 ** -int(rng.integers(1, 40)) * rng.choice([-1, 1])
            out[:, i, c] = vals if forced else vals[rng.permutation(members)]
    return list(out)


def _spy(monkeypatch, owner, name):
    """Record each call of owner.name while the test runs; returns the list."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


class TestExactMean:
    """aggregate_batch equals a per-element fsum(...)/M bit for bit."""

    @pytest.mark.parametrize("members", [1, 2, 3, 16, 32])
    @pytest.mark.parametrize("n", [1, 312])
    def test_matches_fsum_on_softmax_stacks(self, members, n):
        rng = np.random.default_rng(members * 1000 + n)
        mats = [rng.dirichlet(np.full(10, 0.3), size=n) for _ in range(members)]
        np.testing.assert_array_equal(aggregate_batch(mats).view(np.int64),
                                      _fsum_mean(mats).view(np.int64))

    @pytest.mark.parametrize("members", [1, 2, 3, 16, 32])
    @pytest.mark.parametrize("n", [1, 312])
    def test_matches_fsum_on_hard_values(self, members, n, monkeypatch):
        rng = np.random.default_rng(members * 7 + n)
        mats = _hard_stack(rng, members, n)
        want = _fsum_mean(mats)
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
        got = aggregate_batch(mats)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        if members > 1:
            assert calls, "no element reached the fsum fallback"

    def test_softmax_stack_skips_the_interval_test(self, monkeypatch):
        """Every error sum of a softmax stack is exact, so the mean is the
        cascade's rounded sum: no ulp interval is computed."""
        rng = np.random.default_rng(77)
        mats = [rng.dirichlet(np.full(10, 0.3), size=312) for _ in range(16)]
        calls = _spy(monkeypatch, np, "nextafter")
        got = aggregate_batch(mats)
        assert not calls
        np.testing.assert_array_equal(got.view(np.int64), _fsum_mean(mats).view(np.int64))

    @pytest.mark.parametrize("element", ["near_tie", "largest", "-largest"])
    def test_other_stacks_run_the_interval_test(self, element, monkeypatch):
        """One element with a nonzero error bound (a kind-6 near-tie of
        _hard_stack), or at plus or minus the largest double, sends the
        stack through the interval test; the mean still equals fsum's."""
        rng = np.random.default_rng(78)
        mats = [rng.dirichlet(np.full(10, 0.3), size=5) for _ in range(3)]
        if element == "near_tie":
            base = 0.75
            half = math.ulp(base) / 2
            vals = [base, float(np.nextafter(half, 0.0)), math.ulp(half) / 8]
        else:
            big = np.finfo(np.float64).max * (-1.0 if element == "-largest" else 1.0)
            vals = [big, 0.0, 0.0]
        for m, v in zip(mats, vals):
            m[2, 3] = v
        calls = _spy(monkeypatch, np, "nextafter")
        got = aggregate_batch(mats)
        assert calls
        np.testing.assert_array_equal(got.view(np.int64), _fsum_mean(mats).view(np.int64))

    def test_non_finite_values_follow_fsum(self):
        mats = [np.array([[np.nan, np.inf, 1.0]]), np.array([[1.0, 1.0, np.inf]])]
        np.testing.assert_array_equal(aggregate_batch(mats), _fsum_mean(mats))

    def test_negative_zero_sums_to_positive_zero(self):
        mats = [np.array([[-0.0, 0.5]]), np.array([[-0.0, -0.5]])]
        got = aggregate_batch(mats)
        np.testing.assert_array_equal(got.view(np.int64), _fsum_mean(mats).view(np.int64))
        assert not np.signbit(got).any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            aggregate_batch([np.zeros((2, 3)), np.zeros((3, 3))])
        with pytest.raises(DimensionError):
            aggregate_batch([np.zeros((1, 3)), np.zeros((1, 4))])


class TestSoftLabelChunk:
    def test_membership(self):
        rng = np.random.default_rng(41)
        probs = rng.dirichlet(np.ones(3), size=5)
        chunk = SoftLabelChunk(point_ids=(10, 11, 12, 13, 14), probs=probs)
        assert 13 in chunk
        assert 99 not in chunk
        assert len(chunk) == 5

    def test_rows_must_normalize(self):
        with pytest.raises(ValueError):
            SoftLabelChunk(point_ids=(1,), probs=np.array([[0.5, 0.4]]))

    def test_subensemble_labels_average_members(self):
        rng = np.random.default_rng(43)
        arch = ModelArch("softmax_linear", 3, 2)
        models = [init_model(arch, seed=s) for s in range(3)]
        x = rng.normal(size=(4, 3))
        chunk = subensemble_soft_labels(models, (7, 8, 9, 10), x)
        expected = aggregate_batch([predict_batch(m, x) for m in models])
        np.testing.assert_array_equal(chunk.probs, expected)
        assert chunk.point_ids == (7, 8, 9, 10)
