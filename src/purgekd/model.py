"""Small deterministic classifiers: seeded init, SGD distillation training,
softmax inference, and exact-mean ensemble aggregation.

Determinism contract: every random draw is derived from explicit seeds via
mix_seed, so identical inputs always produce bit-identical parameters.

Inference is row-independent by construction: the logits come from
``np.einsum(..., optimize=False)``, which never calls BLAS, so each output row
depends only on its own input row and not on how many rows share the batch.
(A BLAS matmul picks its blocking by shape, so dropping one row could change
the bits of the others.)

Training is bias-folded, class-major and BLAS: the flat parameter layout
stores each layer's bias right after its weights, so each layer is one
(inputs + 1, outputs) matrix view of the parameters. ``train`` lays the
permuted features out once per call as columns over a ones row, and every
SGD step is one BLAS product per layer per direction, activations kept as
(classes, batch) so the softmax reduces along axis 0, with the update written
into those views in place. Replay always sees the batch shapes of the
original run, so it reproduces the original bits on the same BLAS kernel;
``kernel_fingerprint`` lets a saved run detect a different one.

Aggregation is correctly rounded and vectorized: every element of an
ensemble mean is ``fsum(member values) / M``, computed with error-free
TwoSum cascades over whole arrays. Exact ties are settled by the cascade
itself; only elements whose rounding it cannot certify (near-ties within
the error bound, non-finite values) fall back to a per-element
``math.fsum``.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

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


def _layers(arch: ModelArch, params: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of the flat parameters, one bias-folded (inputs + 1, outputs)
    matrix per layer: the layout stores each layer's bias right after its
    weights, so the bias is the matrix's last row. Writing to a view writes
    to params."""
    d, k = arch.feature_dim, arch.num_classes
    if arch.kind == "softmax_linear":
        return (params.reshape(d + 1, k),)
    cut = (d + 1) * arch.hidden_units
    return (params[:cut].reshape(d + 1, arch.hidden_units),
            params[cut:].reshape(arch.hidden_units + 1, k))


def _rowwise(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w without BLAS: a fixed-order reduction per output row."""
    return np.einsum("nd,dk->nk", x, w, optimize=False)


def _logits(arch: ModelArch, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    first, *rest = _layers(arch, params)
    out = _rowwise(x, first[:-1]) + first[-1]
    for w in rest:
        out = _rowwise(np.tanh(out), w[:-1]) + w[-1]
    return out


def _softmax(z: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted softmax of z along axis, computed in place."""
    z -= np.maximum.reduce(z, axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=axis, keepdims=True)
    return z


def predict_batch(state: ModelState, features, temperature: float = 1.0) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != state.arch.feature_dim:
        raise DimensionError(
            f"expected (n, {state.arch.feature_dim}) features, got shape {x.shape}")
    return _softmax(_logits(state.arch, state.params, x) / temperature, axis=1)


def one_hot(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def mean_distill_loss(state: ModelState, features, soft_labels, hard_labels,
                      hard_label_weight: float = 0.0) -> float:
    """Mean over the batch of each row's cross-entropy -sum(t * log p), t the
    blend (1 - a) * soft + a * onehot(hard), p clamped below at LOSS_CLAMP."""
    p = predict_batch(state, features)
    a = hard_label_weight
    targets = (1.0 - a) * np.asarray(soft_labels, dtype=np.float64)
    if a:
        targets = targets + a * one_hot(hard_labels, state.arch.num_classes)
    return float(-(targets * np.log(np.maximum(p, LOSS_CLAMP))).sum(axis=1).mean())


def _gradient(layers, xb: np.ndarray, tb: np.ndarray, hb: np.ndarray | None):
    """Batch-summed gradient of the distillation loss, one array per layer
    in the bias-folded layout of ``layers``.

    Class-major: xb is (d + 1, b), the batch's features as columns over a
    ones row; tb is (K, b), their targets. hb is (h + 1, b) scratch for the
    hidden activations whose last row is ones (None for softmax_linear).
    Each layer's gradient is one product; dividing by b is left to the
    caller's step size.
    """
    if hb is None:
        (w,) = layers
        g = _softmax(w.T @ xb, axis=0)
        g -= tb
        return (xb @ g.T,)
    w1, w2 = layers
    h = hb[:-1]
    np.matmul(w1.T, xb, out=h)
    np.tanh(h, out=h)
    g = _softmax(w2.T @ hb, axis=0)
    g -= tb
    gh = w2[:-1] @ g
    gh *= 1.0 - h * h
    return xb @ gh.T, hb @ g.T


def _sgd(arch: ModelArch, params: np.ndarray, x: np.ndarray, soft: np.ndarray,
         hard: np.ndarray, epochs: int, hyper: TrainHyper, cursor: int) -> None:
    """train's kernel: epochs of SGD on validated arrays, updating params in
    place through its bias-folded layer views."""
    n, d = x.shape
    perm = np.random.default_rng(mix_seed(hyper.seed, cursor)).permutation(n)
    xt = np.ones((d + 1, n))
    xt[:d] = x[perm].T
    tt = np.ascontiguousarray(soft[perm].T)
    a = hyper.hard_label_weight
    if a:
        tt *= 1.0 - a
        tt[hard[perm], np.arange(n)] += a
    layers = _layers(arch, params)
    scratch = {}
    batches = []
    for s0 in range(0, n, hyper.batch_size):
        xb = xt[:, s0:s0 + hyper.batch_size]
        b = xb.shape[1]
        if arch.kind == "one_hidden_layer" and b not in scratch:
            scratch[b] = np.ones((arch.hidden_units + 1, b))
        batches.append((xb, tt[:, s0:s0 + b], scratch.get(b), hyper.learning_rate / b))
    for _ in range(epochs):
        for xb, tb, hb, step in batches:
            for w, g in zip(layers, _gradient(layers, xb, tb, hb)):
                g *= step
                w -= g


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
    params = state.params.copy()
    _sgd(state.arch, params, x, soft, hard, epochs, hyper, state.rng_cursor)
    return ModelState(state.arch, params, state.rng_cursor + 1)


@functools.lru_cache(maxsize=64)
def kernel_fingerprint(arch: ModelArch, batch_size: int) -> str:
    """Digest of the bits this process's numeric kernels produce for arch
    and batch_size: the parameters ``train`` reaches on a fixed seeded probe
    (2 epochs over 2 * batch_size + 1 rows, so full batches and a one-row
    batch both run, hard-label weight 0.5) and ``predict_batch``'s outputs
    on those rows.

    Replay is exact only when it runs the kernels the checkpoints were made
    with; a different BLAS kernel, numpy build or training code changes this
    digest. A change of BLAS thread count can escape it: at batch 1024,
    training on two threads and replaying on one changed the bits while the
    digest stayed the same. Computed once per process per argument pair,
    through the kernels themselves rather than the public functions, so it
    adds no training or inference call.
    """
    rng = np.random.default_rng(mix_seed(arch.feature_dim, arch.num_classes,
                                         arch.hidden_units or 0, batch_size))
    n = 2 * batch_size + 1
    x = rng.normal(size=(n, arch.feature_dim))
    soft = rng.dirichlet(np.ones(arch.num_classes), size=n)
    hard = rng.integers(0, arch.num_classes, size=n)
    params = init_model(arch, mix_seed(n)).params
    _sgd(arch, params, x, soft, hard, 2,
         TrainHyper(learning_rate=0.5, batch_size=batch_size, hard_label_weight=0.5), 0)
    probs = _softmax(_logits(arch, params, x), axis=1)
    return hashlib.blake2b(params.tobytes() + probs.tobytes(), digest_size=16).hexdigest()


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

    @property
    def point_ids(self) -> tuple[int, ...]:
        return tuple(self.ids.tolist())

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, point_id) -> bool:
        return bool((self.ids == int(point_id)).any())

    def without(self, point_id) -> "SoftLabelChunk":
        """Copy with one entry dropped; the remaining rows keep their order and bits."""
        keep = self.ids != int(point_id)
        if keep.all():
            raise KeyError(f"point {int(point_id)} has no soft label in this chunk")
        return SoftLabelChunk(self.ids[keep], self.probs[keep])


def subensemble_soft_labels(models, point_ids, features,
                            temperature: float = 1.0) -> SoftLabelChunk:
    """Per-point exact mean of each member's temperature-softmax output."""
    if not models:
        raise ValueError("subensemble must contain at least one model")
    mats = [predict_batch(m, features, temperature) for m in models]
    return SoftLabelChunk(point_ids, aggregate_batch(mats))
