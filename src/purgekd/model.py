"""Small deterministic classifiers: seeded init, SGD distillation training,
softmax inference, and exact-mean ensemble aggregation.

Determinism contract: every random draw is derived from explicit seeds via
mix_seed, so identical inputs always produce bit-identical parameters.

Inference is row-independent by construction: the logits come from
``np.einsum(..., optimize=False)``, which never calls BLAS, so each output row
depends only on its own input row and not on how many rows share the batch.
(A BLAS matmul picks its blocking by shape, so dropping one row could change
the bits of the others.) Each layer runs class-major, (outputs, n) from a
contiguous (inputs, n) operand, which sums over the inputs in the order the
row-major form does and runs about twice as fast; a one-column layer, where
the two forms sum in different orders, keeps the row-major call. The softmax
takes its max over classes class-major and its sum over each contiguous row,
so the probabilities are the row-major kernel's bits.

Training is bias-folded, class-major, stacked and BLAS: the flat parameter
layout stores each layer's bias right after its weights, so each layer is
one (inputs + 1, outputs) matrix view of the parameters, and a stack of M
models with one architecture and example count is an (M, P) array whose
views are (M, inputs + 1, outputs) stacks. ``train_stack`` gathers each
model's permuted round once, straight into batch-major blocks: one buffer
per call holds, per batch, an (M, d + 1 + K, b) block of the batch's
features as columns over a ones row and then its targets, so every BLAS
operand of a step is a C-ordered block of its own (an F-ordered operand
takes another BLAS path, with other bits; so does a vector product over
contiguous rows, which is why the blocks of a round of several batches
are one column wider than a batch, as a column range of the whole round
was). Every SGD step then makes one
stacked call per layer operation (a BLAS product per layer per direction,
activations kept as (classes, batch) so the softmax reduces over classes)
into out= buffers made once per batch width and reused across batches and
epochs. Each layer's gradient is a view of one flat gradient buffer shaped
like the parameters, so the update is one scale and one subtract for all
layers, the same operations per element as one per layer. numpy's matmul
makes the same BLAS call for each model of a stack as for that model alone,
so M models in lockstep get the bits each would get alone; ``train`` is the
M = 1 case. Training runs on one BLAS thread (set through the OpenBLAS that
numpy links, then restored), since a thread count can change a product's
bits. Replay always sees the batch shapes of the original run, so it
reproduces the original bits on the same BLAS kernel; ``kernel_fingerprint``
lets a saved run detect a different one.

Aggregation is correctly rounded and vectorized: every element of an
ensemble mean is ``fsum(member values) / M``, computed with error-free
TwoSum cascades over whole arrays. When every error sum of the cascade was
exact and every sum is finite, as on every softmax stack measured, the
cascade's rounded sum is the answer and nothing else runs. Otherwise exact
ties are settled by the cascade itself; only elements whose rounding it
cannot certify (near-ties within the error bound, non-finite values) fall
back to a per-element ``math.fsum``. A caller can keep a subensemble's exact
member sum as a two-term pair (``summed_soft_labels``), so that when one
member changes, its old term is replaced by its new one with the same
error-free transformations (``replace_term``) instead of summing every
member again; a replacement the transformations cannot certify exact is
refused, and the caller sums in full.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError

ARCH_KINDS = ("softmax_linear", "one_hidden_layer")
LOSS_CLAMP = 1e-12
DOUBLE_MAX = np.finfo(np.float64).max

# Seed domains, mixed into derived seeds so the per-member parameter init,
# per-member shuffle streams, and partition permutations never collide.
SEED_TEACHER = 0
SEED_STUDENT = 1
SEED_TEACHER_PLAN = 2
SEED_STUDENT_PLAN = 3

# What sets the BLAS thread count where training cannot pin it to one.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    """Views of the flat parameters (the last axis of params, so a stack of
    models gives a stack of matrices), one bias-folded (inputs + 1, outputs)
    matrix per layer: the layout stores each layer's bias right after its
    weights, so the bias is the matrix's last row. Writing to a view writes
    to params."""
    d, k, lead = arch.feature_dim, arch.num_classes, params.shape[:-1]
    if arch.kind == "softmax_linear":
        return (params.reshape(*lead, d + 1, k),)
    h = arch.hidden_units
    cut = (d + 1) * h
    return (params[..., :cut].reshape(*lead, d + 1, h),
            params[..., cut:].reshape(*lead, h + 1, k))


def _layer(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bias-folded layer w applied to the rows of x, (n, inputs), without
    BLAS, as a class-major (outputs, n) array: each element sums its
    products over the inputs in order, so it depends on its own row alone.

    The product runs class-major over a contiguous (inputs, n) copy of x,
    which sums in the same order as the row-major form and runs about twice
    as fast. A one-column layer keeps the row-major call over contiguous
    rows: there the class-major form sums in another order."""
    if w.shape[1] == 1:
        z = np.einsum("nd,dk->nk", np.ascontiguousarray(x), w[:-1], optimize=False).T
    else:
        z = np.einsum("dk,dn->kn", w[:-1], np.ascontiguousarray(x.T), optimize=False)
    z += w[-1][:, None]
    return z


def _logits(arch: ModelArch, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class-major (K, n) logits of the rows of x."""
    first, *rest = _layers(arch, params)
    z = _layer(first, x)
    for w in rest:
        z = _layer(w, np.tanh(z).T)
    return z


def _predict(arch: ModelArch, params: np.ndarray, x: np.ndarray,
             temperature: float) -> np.ndarray:
    """The inference kernel: the temperature softmax of the rows of x,
    (n, K). The max over classes is taken class-major, where it is exact;
    the sum over classes and the divide run on contiguous rows, so numpy's
    pairwise summation adds each row in one fixed order."""
    z = _logits(arch, params, x)
    if temperature != 1.0:
        z /= temperature
    z -= np.maximum.reduce(z, axis=0)
    np.exp(z, out=z)
    p = np.ascontiguousarray(z.T)
    p /= np.add.reduce(p, axis=1, keepdims=True)
    return p


def predict_batch(state: ModelState, features, temperature: float = 1.0) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != state.arch.feature_dim:
        raise DimensionError(
            f"expected (n, {state.arch.feature_dim}) features, got shape {x.shape}")
    return _predict(state.arch, state.params, x, temperature)


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


def _blas_threads():
    """(get, set) functions of the thread count of the OpenBLAS that numpy
    links, found through ctypes, or None when numpy's build exports none of
    the known pairs (another BLAS, or OpenBLAS under other symbol names)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):  # numpy before 2.0, or no shared library
        return None
    for suffix in ("64_", ""):
        for prefix in ("scipy_openblas", "openblas"):
            get, put = (getattr(lib, f"{prefix}_{op}_num_threads{suffix}", None)
                        for op in ("get", "set"))
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


BLAS_THREADS = _blas_threads()


def _width_operands(arch: ModelArch, lead: tuple, b: int) -> tuple:
    """The out= buffers one SGD step of a stack of models (lead its leading
    shape) on a b-column batch writes: the logits z, z transposed and their
    reduction row r; for the hidden layer also its activations over a ones
    row (hb), the activations themselves, their back-propagated gradient
    gh, gh transposed and an (h, b) scratch array."""
    z = np.empty(lead + (arch.num_classes, b))
    ops = (z, z.swapaxes(-1, -2), np.empty(lead + (1, b)))
    if arch.kind == "softmax_linear":
        return ops
    h = arch.hidden_units
    hb, gh = np.ones(lead + (h + 1, b)), np.empty(lead + (h, b))
    return ops + (hb, hb[..., :-1, :], gh, gh.swapaxes(-1, -2), np.empty(lead + (h, b)))


def _softmax_epochs(params, grad, layers, grads, widths, epochs) -> None:
    """SGD steps of stacked softmax-linear models: per batch the
    batch-summed gradient of the distillation loss into the layer view of
    grad, then params -= step * grad."""
    matmul, maxred, addred = np.matmul, np.maximum.reduce, np.add.reduce
    exp, sub, div, mul = np.exp, np.subtract, np.divide, np.multiply
    (w,), (g,) = layers, grads
    wt = w.swapaxes(-1, -2)
    for _ in range(epochs):
        for blocks, step, z, zt, r in widths:
            for xb, tb in blocks:
                matmul(wt, xb, z)
                maxred(z, -2, None, r, True)
                sub(z, r, z)
                exp(z, z)
                addred(z, -2, None, r, True)
                div(z, r, z)
                sub(z, tb, z)
                matmul(xb, zt, g)
                mul(grad, step, grad)
                sub(params, grad, params)


def _hidden_epochs(params, grad, layers, grads, widths, epochs) -> None:
    """_softmax_epochs for stacked one-hidden-layer models: tanh activations
    in h, the rows of hb above its last row of ones, back-propagated through
    the rows of w2 above its bias row. Both gradients are computed before
    the update."""
    matmul, maxred, addred = np.matmul, np.maximum.reduce, np.add.reduce
    exp, sub, div, mul, tanh = np.exp, np.subtract, np.divide, np.multiply, np.tanh
    (w1, w2), (g1, g2) = layers, grads
    w1t, w2t, w2h = w1.swapaxes(-1, -2), w2.swapaxes(-1, -2), w2[..., :-1, :]
    for _ in range(epochs):
        for blocks, step, z, zt, r, hb, h, gh, ght, tmp in widths:
            for xb, tb in blocks:
                matmul(w1t, xb, h)
                tanh(h, h)
                matmul(w2t, hb, z)
                maxred(z, -2, None, r, True)
                sub(z, r, z)
                exp(z, z)
                addred(z, -2, None, r, True)
                div(z, r, z)
                sub(z, tb, z)
                matmul(w2h, z, gh)
                mul(h, h, tmp)
                sub(1.0, tmp, tmp)
                mul(gh, tmp, gh)
                matmul(xb, ght, g1)
                matmul(hb, zt, g2)
                mul(grad, step, grad)
                sub(params, grad, params)


def _sgd(arch: ModelArch, params: np.ndarray, groups, epochs: int,
         learning_rate: float) -> None:
    """The training kernel: epochs of SGD for stacked models in lockstep.

    params is (..., P), updated in place through its bias-folded layer
    views. groups holds the batches in order, one (features, targets) pair
    of arrays per batch width: features (B, ..., d + 1, b), each batch's
    features as columns over a ones row, and targets (B, ..., K, b), with
    params' leading shape, every batch a C-ordered block. Each step is one
    stacked call per layer operation into out= buffers made once per batch
    width; every layer's gradient is a view of one flat gradient buffer
    shaped like params, so the update is one scale and one subtract.
    numpy's matmul makes the same BLAS call for each model of a stack as
    for that model alone. Runs on one BLAS thread when the library lets the
    thread count be set, restoring the caller's count after.
    """
    lead, grad = params.shape[:-1], np.empty_like(params)
    widths = [(list(zip(xs, ts)), learning_rate / xs.shape[-1],
               *_width_operands(arch, lead, xs.shape[-1])) for xs, ts in groups]
    run = _softmax_epochs if arch.kind == "softmax_linear" else _hidden_epochs
    threads = BLAS_THREADS[0]() if BLAS_THREADS else 1
    if threads != 1:
        BLAS_THREADS[1](1)
    try:
        run(params, grad, _layers(arch, params), _layers(arch, grad), widths, epochs)
    finally:
        if threads != 1:
            BLAS_THREADS[1](threads)


def _layout(lead: tuple, d: int, k: int, n: int, b: int):
    """A fresh buffer for the batch-major blocks of a round of n examples in
    batches of b, and the (features, targets) groups ``_sgd`` takes, views
    of it: (B, *lead, d + 1 + K, width), each block holding its batch's
    features as columns over a ones row (row d), then their targets, so
    every block is C-ordered. The tail batch takes the first columns of the
    last block. When the round has more than one batch, each block is one
    column wider than a batch, as the rows of a column range of the whole
    round are spaced: BLAS takes a vector product (a one-column batch, a
    one-unit layer) over contiguous rows down another path, which can give
    other bits."""
    nf, tail = divmod(n, b)
    buf = np.empty((nf + (tail > 0), *lead, d + 1 + k, b + 1 if n > b else n))
    buf[..., d, :] = 1.0
    x, t = buf[..., :d + 1, :], buf[..., d + 1:, :]
    groups = [(x[:nf, ..., :b], t[:nf, ..., :b])] if nf else []
    if tail:
        groups.append((x[nf:, ..., :tail], t[nf:, ..., :tail]))
    return buf, groups


def train(state: ModelState, features, soft_labels, hard_labels, epochs: int,
          hyper: TrainHyper) -> ModelState:
    """Plain SGD over the given examples for a fixed number of epochs.

    One permutation, seeded by (hyper.seed, state.rng_cursor), is drawn at
    call start and reused every epoch; batches are consecutive runs of that
    order. epochs=0 returns an unchanged copy, cursor included; otherwise the
    returned state's cursor advances by one. The one-model case of
    ``train_stack``.
    """
    return train_stack([state], [(features, soft_labels, hard_labels)], epochs,
                       [hyper])[0]


def train_stack(states, rounds, epochs: int, hypers) -> list[ModelState]:
    """``train`` for M models in lockstep, bit for bit as if each were
    trained alone: states[i] trains on the i-th (features, soft_labels,
    hard_labels) of rounds, shuffled by hypers[i]. A round may carry row
    indices as a fourth item: its examples are then those rows of features
    and hard_labels, gathered once, in shuffled order. rounds is read one
    model at a time, each permuted straight into the batch-major blocks of
    ``_layout``, so it may be a generator. The models share one
    architecture, example count, learning rate and batch size."""
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if epochs == 0:
        return [state.copy() for state in states]
    arch, hyper = states[0].arch, hypers[0]
    d, k, m, b = arch.feature_dim, arch.num_classes, len(states), hyper.batch_size
    params = np.empty((m, arch.param_count))
    blocks = None
    for i, (state, hyper_i, (features, soft_labels, hard_labels, *rows)) in enumerate(
            zip(states, hypers, rounds, strict=True)):
        if state.arch != arch or (hyper_i.learning_rate, hyper_i.batch_size) != (
                hyper.learning_rate, hyper.batch_size):
            raise ValueError("stacked models need one architecture, learning rate "
                             "and batch size")
        x = np.asarray(features, dtype=np.float64)
        soft = np.asarray(soft_labels, dtype=np.float64)
        hard = np.asarray(hard_labels, dtype=np.int64)
        rows = np.asarray(rows[0], dtype=np.intp) if rows else None
        n = len(x) if rows is None else len(rows)
        if n == 0:
            raise ValueError("cannot train on an empty example list")
        if x.ndim != 2 or x.shape[1] != d:
            raise DimensionError(f"features must be (n, {d})")
        if soft.shape != (n, k) or hard.shape != (len(x),):
            raise DimensionError("label arrays do not match the example count")
        if blocks is None:
            count, (blocks, groups) = n, _layout(() if m == 1 else (m,), d, k, n, b)
            width = min(n, b)
            spare = len(blocks) * width - n
        elif n != count:
            raise DimensionError("stacked models need one example count")
        params[i] = state.params
        perm = np.random.default_rng(mix_seed(hyper_i.seed, state.rng_cursor)).permutation(n)
        if spare:  # the tail block's unused columns repeat the first examples
            perm = np.concatenate((perm, perm[:spare]))
        at = perm if rows is None else rows.take(perm)
        targets = soft.take(perm, axis=0)
        a = hyper_i.hard_label_weight
        if a:
            targets *= 1.0 - a
            targets[np.arange(len(perm)), hard.take(at)] += a
        slot = blocks if m == 1 else blocks[:, i]
        slot[:, :d, :width] = x.take(at, axis=0).reshape(-1, width, d).transpose(0, 2, 1)
        slot[:, d + 1:, :width] = targets.reshape(-1, width, k).transpose(0, 2, 1)
    # one model: the same calls without the stack axis, a little faster
    _sgd(arch, params[0] if m == 1 else params, groups, epochs, hyper.learning_rate)
    return [ModelState(arch, params[i], s.rng_cursor + 1) for i, s in enumerate(states)]


@functools.lru_cache(maxsize=64)
def kernel_fingerprint(arch: ModelArch, batch_size: int) -> str:
    """Digest of the bits this process's numeric kernels produce for arch
    and batch_size: the parameters ``train`` reaches on a fixed seeded probe
    (2 epochs over 2 * batch_size + 1 rows, so full batches and a one-row
    batch both run, hard-label weight 0.5) and ``predict_batch``'s outputs
    on those rows.

    Replay is exact only when it runs the kernels the checkpoints were made
    with; a different BLAS kernel, numpy build or training code changes this
    digest. Training pins itself to one BLAS thread, so the caller's thread
    count cannot change its bits; on a build whose thread count cannot be
    set, the digest also covers the thread settings of the environment and
    the CPU count. Computed once per process per argument pair, through
    ``train_stack`` and the inference kernel rather than ``train`` and
    ``predict_batch``, so it adds no call to either.
    """
    rng = np.random.default_rng(mix_seed(arch.feature_dim, arch.num_classes,
                                         arch.hidden_units or 0, batch_size))
    n = 2 * batch_size + 1
    x = rng.normal(size=(n, arch.feature_dim))
    soft = rng.dirichlet(np.ones(arch.num_classes), size=n)
    hard = rng.integers(0, arch.num_classes, size=n)
    hyper = TrainHyper(learning_rate=0.5, batch_size=batch_size, hard_label_weight=0.5)
    params = train_stack([init_model(arch, mix_seed(n))], [(x, soft, hard)], 2,
                         [hyper])[0].params
    probs = _predict(arch, params, x, 1.0)
    h = hashlib.blake2b(params.tobytes() + probs.tobytes(), digest_size=16)
    if BLAS_THREADS is None:
        h.update(repr([os.environ.get(v) for v in THREAD_VARIABLES]
                      + [os.cpu_count()]).encode())
    return h.hexdigest()


def _two_sum(a: np.ndarray, b: np.ndarray):
    """Knuth's TwoSum: s = fl(a + b) and the exact error t, a + b == s + t."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _cascade(mats):
    """The TwoSum cascade over the members of mats: (r, c) = TwoSum(s, e),
    s the float sum and e the float sum of its exact rounding errors, and
    a bound on the rounding of e itself. Where bound == 0, r + c is the
    exact member sum. Non-finite members make NaNs here, which fail
    ``_certified`` and the interval test of ``_fsum_mean``, so their
    elements go to math.fsum."""
    s = mats[0]
    e = np.zeros_like(s)
    bound = np.zeros_like(s)
    with np.errstate(invalid="ignore", over="ignore"):
        for a in mats[1:]:
            s, t = _two_sum(s, a)
            e, err = _two_sum(e, t)
            bound += np.abs(err)
        r, c = _two_sum(s, e)
    return r, c, bound


def _certified(r: np.ndarray, bound: np.ndarray) -> bool:
    """True when every element of the cascade is exact and finite: r is
    then the correctly rounded member sum everywhere."""
    return not bound.any() and bool((np.abs(r) < DOUBLE_MAX).all())


def _fsum_mean(mats, r: np.ndarray, c: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """``math.fsum(values) / M`` for every element of the members mats,
    finished from their cascade (r, c, bound).

    The true sum is r + c + delta with |delta| <= bound. An element keeps r
    when bound == 0: every error sum was exact, so s + e is the exact sum
    and r = fl(s + e) is already rounded to nearest, ties to even, as fsum
    rounds. It also keeps r when c +- bound lies strictly inside r's
    rounding interval (half an ulp on either side). Every other element (a
    near-tie the bound cannot settle, a non-finite value) goes through
    math.fsum. When the cascade is certified, every element keeps r, so
    r / M is returned without the interval test; that is the mask the test
    would give."""
    if _certified(r, bound):
        return r / len(mats)
    with np.errstate(invalid="ignore", over="ignore"):
        # doubling covers the rounding of bound's own float sum of |err|
        bound = 2.0 * bound
        up = 0.5 * (np.nextafter(r, np.inf) - r)
        down = 0.5 * (r - np.nextafter(r, -np.inf))
        keep = (np.isfinite(up) & np.isfinite(down)
                & ((bound == 0.0) | ((c + bound < up) & (c - bound > -down))))
    out = r / len(mats)
    for i, j in zip(*np.nonzero(~keep)):
        out[i, j] = math.fsum(m[i, j] for m in mats) / len(mats)
    return out


def aggregate_batch(prediction_mats) -> np.ndarray:
    """Element-wise mean of (n, K) prediction matrices, bit-equal to
    ``math.fsum(values) / M`` for every element: a TwoSum cascade over the
    M members (``_cascade``), finished by ``_fsum_mean``."""
    mats = [np.asarray(m, dtype=np.float64) for m in prediction_mats]
    if not mats:
        raise ValueError("aggregate needs at least one prediction matrix")
    if mats[0].ndim != 2 or any(m.shape != mats[0].shape for m in mats):
        raise DimensionError("prediction matrices must share one (n, K) shape")
    return _fsum_mean(mats, *_cascade(mats))


def replace_term(r: np.ndarray, c: np.ndarray, old: np.ndarray, new: np.ndarray):
    """The exact member sum (r, c) after one member's term changed from old
    to new, all (n, K) in one row order, or None when the result cannot be
    certified exact (then sum every member again).

    With (s1, t1) = TwoSum(r, -old), (s2, t2) = TwoSum(s1, new),
    (e1, x1) = TwoSum(c, t1) and (e2, x2) = TwoSum(e1, t2), the new exact
    sum is s2 + e2 + x1 + x2. When every x1 and x2 is 0 (a NaN or infinity
    anywhere makes one of them NaN) and the rounded sum is finite,
    (r', c') = TwoSum(s2, e2) is the new pair, and r' / M is bit for bit
    the fsum mean ``aggregate_batch`` gives."""
    with np.errstate(invalid="ignore", over="ignore"):
        s1, t1 = _two_sum(r, -old)
        s2, t2 = _two_sum(s1, new)
        e1, x1 = _two_sum(c, t1)
        e2, x2 = _two_sum(e1, t2)
        if x1.any() or x2.any():
            return None
        r, c = _two_sum(s2, e2)
    return (r, c) if (np.abs(r) < DOUBLE_MAX).all() else None


class SoftLabelChunk:
    """Ordered (point_id, probability vector) pairs for one chunk: what
    ``subensemble_soft_labels`` returns and what a student network's
    by-chunk ``soft_labels`` view holds."""

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


def _member_predictions(models, features, temperature: float) -> list[np.ndarray]:
    """Each model's temperature softmax of the rows of features; the rows
    are laid out class-major once, so no member's first layer copies them."""
    x = np.ascontiguousarray(np.asarray(features, dtype=np.float64).T).T
    return [predict_batch(m, x, temperature) for m in models]


def subensemble_soft_labels(models, point_ids, features,
                            temperature: float = 1.0) -> SoftLabelChunk:
    """Per-point exact mean of each member's temperature-softmax output."""
    return SoftLabelChunk(point_ids, aggregate_batch(
        _member_predictions(models, features, temperature)))


def summed_soft_labels(models, features, temperature: float):
    """The exact-mean soft labels ``subensemble_soft_labels`` gives, and the
    exact member sum as a pair (r, c) where the cascade certifies it
    everywhere (as on every softmax stack measured), else None. The cascade
    runs once: an uncertified one is finished into the mean."""
    mats = _member_predictions(models, features, temperature)
    r, c, bound = _cascade(mats)
    if _certified(r, bound):
        return r / len(mats), (r, c)
    return _fsum_mean(mats, r, c, bound), None
