"""Small deterministic classifiers: seeded init, SGD distillation training,
softmax inference, and exact-mean ensemble aggregation.

Determinism contract: every random draw is derived from explicit seeds via
mix_seed, so identical inputs always produce bit-identical parameters.

Inference is row-independent by construction: the logits come from
``np.einsum(..., optimize=False)``, which never calls BLAS, so each output row
depends only on its own input row and not on how many rows share the batch.
(A BLAS matmul picks its blocking by shape, so dropping one row could change
the bits of the others.) Training keeps BLAS: replay always sees the batch
shapes of the original run.

Aggregation is correctly rounded and vectorized: every element of an
ensemble mean is ``fsum(member values) / M``, computed with error-free
TwoSum cascades over whole arrays. Exact ties are settled by the cascade
itself; only elements whose rounding it cannot certify (near-ties within
the error bound, non-finite values) fall back to a per-element
``math.fsum``.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .data import IdIndex
from .errors import DimensionError

ARCH_KINDS = ("softmax_linear", "one_hidden_layer")
LOSS_CLAMP = 1e-12

# Seed domains, mixed into derived seeds so the per-member parameter init,
# per-member shuffle streams, and partition permutations never collide.
SEED_TEACHER = 0
SEED_STUDENT = 1
SEED_TEACHER_PLAN = 2
SEED_STUDENT_PLAN = 3


def mix_seed(*parts) -> int:
    """Fold integers into one 64-bit seed, stable across platforms and runs."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(struct.pack("<Q", int(p) & 0xFFFFFFFFFFFFFFFF))
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class ModelArch:
    kind: str
    feature_dim: int
    num_classes: int
    hidden_units: int | None = None

    def __post_init__(self):
        if self.kind not in ARCH_KINDS:
            raise ValueError(f"unknown arch kind {self.kind!r}")
        if self.feature_dim < 1 or self.num_classes < 1:
            raise ValueError("feature_dim and num_classes must be positive")
        if self.kind == "one_hidden_layer":
            if self.hidden_units is None or self.hidden_units < 1:
                raise ValueError("one_hidden_layer needs hidden_units >= 1")
        elif self.hidden_units is not None:
            raise ValueError("hidden_units only applies to one_hidden_layer")

    @property
    def param_count(self) -> int:
        d, k = self.feature_dim, self.num_classes
        if self.kind == "softmax_linear":
            return d * k + k
        h = self.hidden_units
        return d * h + h + h * k + k


@dataclass
class ModelState:
    """Flat float64 parameter vector plus the count of consumed shuffle draws."""

    arch: ModelArch
    params: np.ndarray
    rng_cursor: int = 0

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.shape != (self.arch.param_count,):
            raise ValueError(
                f"expected {self.arch.param_count} parameters, got shape {self.params.shape}")

    def copy(self) -> "ModelState":
        return ModelState(self.arch, self.params.copy(), self.rng_cursor)


@dataclass(frozen=True)
class TrainHyper:
    learning_rate: float
    batch_size: int
    hard_label_weight: float = 0.0
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.hard_label_weight <= 1.0:
            raise ValueError("hard_label_weight must lie in [0, 1]")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


def stream_hyper(hyper: TrainHyper, domain: int, index: int) -> TrainHyper:
    """Per-constituent copy of hyper with an independent shuffle stream."""
    return replace(hyper, seed=mix_seed(hyper.seed, domain, index))


def init_model(arch: ModelArch, seed: int) -> ModelState:
    """Fresh state with parameters drawn uniformly from (-0.05, 0.05)."""
    params = np.random.default_rng(seed).uniform(-0.05, 0.05, arch.param_count)
    return ModelState(arch, params, rng_cursor=0)


def _unpack(arch: ModelArch, params: np.ndarray):
    d, k = arch.feature_dim, arch.num_classes
    if arch.kind == "softmax_linear":
        return params[:d * k].reshape(d, k), params[d * k:]
    h = arch.hidden_units
    o = 0
    w1 = params[o:o + d * h].reshape(d, h)
    o += d * h
    b1 = params[o:o + h]
    o += h
    w2 = params[o:o + h * k].reshape(h, k)
    o += h * k
    return w1, b1, w2, params[o:]


def _rowwise(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w without BLAS: a fixed-order reduction per output row."""
    return np.einsum("nd,dk->nk", x, w, optimize=False)


def _logits(arch: ModelArch, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    if arch.kind == "softmax_linear":
        w, b = _unpack(arch, params)
        return _rowwise(x, w) + b
    w1, b1, w2, b2 = _unpack(arch, params)
    return _rowwise(np.tanh(_rowwise(x, w1) + b1), w2) + b2


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def predict_batch(state: ModelState, features, temperature: float = 1.0) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != state.arch.feature_dim:
        raise DimensionError(
            f"expected (n, {state.arch.feature_dim}) features, got shape {x.shape}")
    return _softmax(_logits(state.arch, state.params, x) / temperature)


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _check_distribution(vec, name: str) -> np.ndarray:
    v = np.asarray(vec, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    if (v < 0).any() or abs(float(v.sum()) - 1.0) > 1e-9:
        raise ValueError(f"{name} is not a probability distribution")
    return v


def distill_loss(prediction, soft_label, hard_label: int,
                 hard_label_weight: float = 0.0) -> float:
    """Cross-entropy against a blend of the soft target and the one-hot hard target.

    Equals (1 - a) * CE(soft || p) + a * CE(onehot || p); probabilities are
    clamped below at LOSS_CLAMP inside the log.
    """
    p = _check_distribution(prediction, "prediction")
    s = _check_distribution(soft_label, "soft_label")
    a = hard_label_weight
    if not 0.0 <= a <= 1.0:
        raise ValueError("hard_label_weight must lie in [0, 1]")
    if len(p) != len(s):
        raise DimensionError("prediction and soft_label lengths differ")
    if not 0 <= hard_label < len(p):
        raise ValueError(f"hard_label {hard_label} out of range")
    target = (1.0 - a) * s
    target[hard_label] += a
    return float(-(target * np.log(np.maximum(p, LOSS_CLAMP))).sum())


def mean_distill_loss(state: ModelState, features, soft_labels, hard_labels,
                      hard_label_weight: float = 0.0) -> float:
    """Mean distill_loss over a batch (vectorized)."""
    p = predict_batch(state, features)
    a = hard_label_weight
    targets = (1.0 - a) * np.asarray(soft_labels, dtype=np.float64)
    if a:
        targets = targets + a * one_hot(hard_labels, state.arch.num_classes)
    return float(-(targets * np.log(np.maximum(p, LOSS_CLAMP))).sum(axis=1).mean())


def _loss_gradient(arch: ModelArch, params: np.ndarray, x: np.ndarray,
                   targets: np.ndarray) -> np.ndarray:
    """Mean-over-batch gradient of the distillation loss wrt the flat params."""
    n = len(x)
    if arch.kind == "softmax_linear":
        w, b = _unpack(arch, params)
        g = (_softmax(x @ w + b) - targets) / n
        return np.concatenate([(x.T @ g).ravel(), g.sum(axis=0)])
    w1, b1, w2, b2 = _unpack(arch, params)
    h = np.tanh(x @ w1 + b1)
    g = (_softmax(h @ w2 + b2) - targets) / n
    gh = (g @ w2.T) * (1.0 - h * h)
    return np.concatenate([(x.T @ gh).ravel(), gh.sum(axis=0),
                           (h.T @ g).ravel(), g.sum(axis=0)])


def train(state: ModelState, features, soft_labels, hard_labels, epochs: int,
          hyper: TrainHyper) -> ModelState:
    """Plain SGD over the given examples for a fixed number of epochs.

    One permutation, seeded by (hyper.seed, state.rng_cursor), is drawn at
    call start and reused every epoch; batches are consecutive runs of that
    order. epochs=0 returns an unchanged copy, cursor included; otherwise the
    returned state's cursor advances by one.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if epochs == 0:
        return state.copy()
    x = np.asarray(features, dtype=np.float64)
    soft = np.asarray(soft_labels, dtype=np.float64)
    hard = np.asarray(hard_labels, dtype=np.int64)
    n = len(x)
    if n == 0:
        raise ValueError("cannot train on an empty example list")
    if x.ndim != 2 or x.shape[1] != state.arch.feature_dim:
        raise DimensionError(f"features must be (n, {state.arch.feature_dim})")
    if soft.shape != (n, state.arch.num_classes) or hard.shape != (n,):
        raise DimensionError("label arrays do not match the example count")

    a = hyper.hard_label_weight
    targets = (1.0 - a) * soft + a * one_hot(hard, state.arch.num_classes)
    perm = np.random.default_rng(mix_seed(hyper.seed, state.rng_cursor)).permutation(n)
    xp, tp = x[perm], targets[perm]

    params = state.params.copy()
    for _ in range(epochs):
        for s0 in range(0, n, hyper.batch_size):
            xb = xp[s0:s0 + hyper.batch_size]
            tb = tp[s0:s0 + hyper.batch_size]
            params -= hyper.learning_rate * _loss_gradient(state.arch, params, xb, tb)
    return ModelState(state.arch, params, state.rng_cursor + 1)


def _two_sum(a: np.ndarray, b: np.ndarray):
    """Knuth's TwoSum: s = fl(a + b) and the exact error t, a + b == s + t."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def aggregate_batch(prediction_mats) -> np.ndarray:
    """Element-wise mean of (n, K) prediction matrices, bit-equal to
    ``math.fsum(values) / M`` for every element.

    A TwoSum cascade over the M members yields the float sum s, the sum e of
    its exact rounding errors, and a bound on the rounding of e itself; the
    true sum is then r + c + delta with (r, c) = TwoSum(s, e) and |delta| <=
    bound. An element keeps r when bound == 0: every error sum was exact, so
    s + e is the exact sum and r = fl(s + e) is already rounded to nearest,
    ties to even, as fsum rounds. It also keeps r when c +- bound lies
    strictly inside r's rounding interval (half an ulp on either side).
    Every other element (a near-tie the bound cannot settle, a non-finite
    value) goes through math.fsum.
    """
    mats = [np.asarray(m, dtype=np.float64) for m in prediction_mats]
    if not mats:
        raise ValueError("aggregate needs at least one prediction matrix")
    if mats[0].ndim != 2 or any(m.shape != mats[0].shape for m in mats):
        raise DimensionError("prediction matrices must share one (n, K) shape")
    stack = np.stack(mats)
    # non-finite values make NaNs here; they fail the test below and go to fsum
    with np.errstate(invalid="ignore", over="ignore"):
        s = stack[0]
        e = np.zeros_like(s)
        bound = np.zeros_like(s)
        for a in stack[1:]:
            s, t = _two_sum(s, a)
            e, err = _two_sum(e, t)
            bound += np.abs(err)
        # doubling covers the rounding of bound's own float sum of |err|
        bound *= 2.0
        r, c = _two_sum(s, e)
        up = 0.5 * (np.nextafter(r, np.inf) - r)
        down = 0.5 * (r - np.nextafter(r, -np.inf))
        keep = (np.isfinite(up) & np.isfinite(down)
                & ((bound == 0.0) | ((c + bound < up) & (c - bound > -down))))
    out = r / len(mats)
    for i, j in zip(*np.nonzero(~keep)):
        out[i, j] = math.fsum(stack[:, i, j]) / len(mats)
    return out


class SoftLabelChunk:
    """Ordered (point_id, probability vector) pairs for one chunk."""

    def __init__(self, point_ids, probs):
        self.ids = np.asarray(point_ids, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=np.float64)
        if self.ids.ndim != 1 or self.probs.ndim != 2 or len(self.probs) != len(self.ids):
            raise DimensionError("need one probability row per point id")
        if len(self.probs):
            if (self.probs < 0).any():
                raise ValueError("soft labels must be non-negative")
            if np.abs(self.probs.sum(axis=1) - 1.0).max() > 1e-9:
                raise ValueError("soft labels must sum to 1 within 1e-9")
        self._index = IdIndex(self.ids)

    @property
    def point_ids(self) -> tuple[int, ...]:
        return tuple(self.ids.tolist())

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, point_id) -> bool:
        return point_id in self._index

    def probs_for(self, point_ids) -> np.ndarray:
        return self.probs[self._index.positions(point_ids)]

    def without(self, point_id) -> "SoftLabelChunk":
        """Copy with one entry dropped; the remaining rows keep their order and bits."""
        pid = int(point_id)
        if pid not in self:
            raise KeyError(f"point {pid} has no soft label in this chunk")
        keep = self.ids != pid
        return SoftLabelChunk(self.ids[keep], self.probs[keep])


def subensemble_soft_labels(models, point_ids, features,
                            temperature: float = 1.0) -> SoftLabelChunk:
    """Per-point exact mean of each member's temperature-softmax output."""
    if not models:
        raise ValueError("subensemble must contain at least one model")
    mats = [predict_batch(m, features, temperature) for m in models]
    return SoftLabelChunk(point_ids, aggregate_batch(mats))
