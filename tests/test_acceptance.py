"""Acceptance suite: eight pinned criteria, one test — and one pass/fail
line under ``pytest -v`` — per criterion.

Each docstring states the tolerance. Every expected value is computed by an
independent route (enumeration, finite differences, scratch retraining,
closed-form rational arithmetic) — never by the code path under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from purgekd import (CheckpointStore, CostLedger, Dataset, ModelArch,
                     SyntheticSpec, TrainBudget, TrainHyper, build_mapping,
                     ceiling_effect_bound, evaluate_accuracy,
                     expected_student_unlearn_fraction, gen_synthetic,
                     generate_requests, init_model, loss_trace, make_partition,
                     mix_seed, predict_batch, simulate_teacher_requests, snapshot,
                     speedup_vs_m, speedup_vs_n, apply_request, train_student_network,
                     train_system, train_teacher_ensemble, verify_exactness)
from purgekd.checkpoints import CheckpointKey, decode_record, encode_record
from purgekd.costmodel import avg_retrain_steps, brute_force_avg_steps
from purgekd.model import SEED_STUDENT_PLAN, _sgd
from purgekd.student import train_student_network as _tsn  # noqa: F401


# ----------------------------------------------------------------------------
# Criterion 1 — average retraining effort: closed form vs enumeration
# ----------------------------------------------------------------------------

def test_criterion_1_retrain_average_closed_form_exact():
    """Closed-form average retraining steps equals brute-force enumeration
    over every removal position — exact rational equality, no tolerance —
    for all 1 <= c, r <= 8 and per-slice epochs in {1, 2, 3}."""
    checked = 0
    for c in range(1, 9):
        for r in range(1, 9):
            for e_r in (1, 2, 3):
                assert avg_retrain_steps(c, r, e_r) == \
                    brute_force_avg_steps(c, r, e_r), (c, r, e_r)
                checked += 1
    print(f"criterion 1: PASS — {checked} (c, r, e_R) cells, exact equality")


# ----------------------------------------------------------------------------
# Criterion 2 — speed-up formula consistency
# ----------------------------------------------------------------------------

def test_criterion_2_speedup_formula_consistency():
    """(i) per-constituent speed-up factor >= 1 for 1 <= c, r <= 64 with
    equality iff c = 1; (ii) the two formulas agree under N = M/c for every
    divisible pair with M <= 64; (iii) the M-form is strictly decreasing in
    c for fixed (M, r). Exact rational arithmetic throughout."""
    for c in range(1, 65):
        for r in range(1, 65):
            factor = speedup_vs_n(1, c, r)
            if c == 1:
                assert factor == 1, (c, r)
            else:
                assert factor > 1, (c, r)

    pairs = 0
    for m in range(1, 65):
        for c in range(1, m + 1):
            if m % c == 0:
                for r in (1, 2, 4, 8, 16, 32, 64):
                    assert speedup_vs_n(m // c, c, r) == \
                        speedup_vs_m(m, c, r), (m, c, r)
                    pairs += 1

    for m in range(1, 65):
        for r in range(1, 65):
            prev = None
            for c in range(1, 65):
                value = speedup_vs_m(m, c, r)
                if prev is not None:
                    assert value < prev, (m, r, c)
                prev = value
    print(f"criterion 2: PASS — consistency on 64x64 grid, "
          f"{pairs} divisible identities, strict monotonicity")


# ----------------------------------------------------------------------------
# Criterion 3 — simulated speed-up grid vs closed form
# ----------------------------------------------------------------------------

def test_criterion_3_simulated_speedup_grid():
    """Step-count simulation, M=32, r in {1,4}, N in {1,2,4,8,16,32},
    e'=120, 100 uniform teacher-target requests per cell, 3200 points.
    N=32 must give ratio exactly 32; every other cell must deviate from
    the closed form by at most the epoch-rounding bound plus three
    standard errors of the request-sampling mean."""
    rows = []
    for r in (1, 4):
        for n in (1, 2, 4, 8, 16, 32):
            c = 32 // n
            run = simulate_teacher_requests(32, n, r, 120, 3200, 100,
                                            seed=1000 + 10 * r + n)
            predicted = speedup_vs_n(n, c, r)
            measured = run.measured_ratio
            deviation = abs(measured - predicted) / predicted
            if n == 32:
                assert measured == 32, f"r={r}: expected exact 32, got {measured}"
                assert deviation == 0
            else:
                steps = np.array(run.per_request_steps, dtype=np.float64)
                stderr = steps.std(ddof=1) / math.sqrt(len(steps)) / steps.mean()
                bound = float(ceiling_effect_bound(120, c, r)) + 3.0 * stderr
                assert float(deviation) <= bound, \
                    f"r={r} N={n}: deviation {float(deviation):.4f} > {bound:.4f}"
            rows.append((r, n, float(deviation)))
    worst = max(d for _, _, d in rows)
    print(f"criterion 3: PASS — 12 cells, worst relative deviation "
          f"{worst:.4f}, N=32 exact")


# ----------------------------------------------------------------------------
# Criteria 4 and 8 — verified exact unlearning and the isolation audit
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def request_stream_run(tmp_path_factory):
    """Train the 3000-point fixture system (M=8, N=4, c=2, r=2, e'=20) and
    push a 50-request mixed stream through it, verifying every request and
    recording label bytes around each one for the isolation audit."""
    root = tmp_path_factory.mktemp("stream")
    dataset = gen_synthetic(SyntheticSpec(num_classes=3, points_per_class=1000,
                                          feature_dim=6, seed=42))
    arch = ModelArch("softmax_linear", 6, 3)
    system = train_system(
        student_dataset=dataset, teacher_dataset=None, teacher_members=8,
        teacher_slices=2, student_constituents=4, slices_per_chunk=2,
        mode="purge", e_prime=20, teacher_arch=arch, student_arch=arch,
        teacher_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=1),
        student_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=2),
        store=CheckpointStore(root / "ckpt"), seed=2024)

    initial_provenance = dict(system.student.provenance)
    mapping = system.student.mapping
    requests = generate_requests(
        system, 50,
        {"student_point": 18, "teacher_point": 16,
         "simultaneous_aligned": 8, "simultaneous_misaligned": 8}, seed=77)

    records = []
    for request in requests:
        before = snapshot(system)
        labels_before = {key: chunk.probs.copy()
                         for key, chunk in before.student.soft_labels.items()}
        ids_before = {key: chunk.point_ids
                      for key, chunk in before.student.soft_labels.items()}
        _, report = apply_request(system, request)
        labels_after = {key: chunk.probs.copy()
                        for key, chunk in system.student.soft_labels.items()}
        verdict = verify_exactness(before, request, system)
        records.append(dict(request=request, report=report, verdict=verdict,
                            before=before, labels_before=labels_before,
                            ids_before=ids_before, labels_after=labels_after))
    return dict(system=system, mapping=mapping, records=records,
                initial_provenance=initial_provenance)


def test_criterion_4_fifty_request_stream_verified_exact(request_stream_run):
    """Every one of the 50 mixed requests passes scratch-retrain
    verification with max parameter difference exactly 0.0, and untargeted
    constituents stay byte-identical throughout (checked inside
    verify_exactness against the pre-request snapshot)."""
    records = request_stream_run["records"]
    assert len(records) == 50
    kinds = [r["request"].kind for r in records]
    assert kinds.count("student_point") == 18
    assert kinds.count("teacher_point") == 16
    assert kinds.count("simultaneous") == 16
    for record in records:
        verdict = record["verdict"]
        assert verdict.passed, (record["request"], verdict.failures)
        assert verdict.max_param_diff == 0.0, record["request"]
    print("criterion 4: PASS — 50/50 requests exact "
          "(18 student, 16 teacher, 16 simultaneous), max diff 0.0")


def test_criterion_8_label_provenance_and_relabel_isolation(request_stream_run):
    """Purge-mode label provenance is exactly the first-l mapped teachers
    for every chunk, and a teacher-side removal regenerates exactly the
    chunks at or after the owner's mapping position — earlier chunks keep
    byte-identical label arrays."""
    system = request_stream_run["system"]
    mapping = request_stream_run["mapping"]

    for prov in (request_stream_run["initial_provenance"],
                 system.student.provenance):
        for (k, l), members in prov.items():
            assert members == mapping.teachers_for(k)[:l], (k, l)

    audited = 0
    for record in request_stream_run["records"]:
        request, report = record["request"], record["report"]
        if request.kind == "student_point":
            assert report.chunks_relabeled == ()
            continue
        before = record["before"]
        m = report.affected_teacher_members[0]
        k_owner, l_owner = mapping.owner_of(m)
        chunks = mapping.chunk_count(k_owner)
        expected = tuple((k_owner, i) for i in range(l_owner, chunks + 1))
        assert report.chunks_relabeled == expected, (request, m)

        removed = set()
        if request.kind == "simultaneous":
            k_s, l_s, _ = before.student.plan.locate(request.point_id)
            removed = {(k_s, l_s)}
        for (k, l), old_probs in record["labels_before"].items():
            current = record["labels_after"][(k, l)]
            if (k, l) in set(expected):
                continue  # regenerated by design
            if (k, l) in removed:
                keep = [i for i, pid in
                        enumerate(record["ids_before"][(k, l)])
                        if pid != request.point_id]
                assert np.array_equal(current, old_probs[keep]), (k, l)
            else:
                assert np.array_equal(current, old_probs), (k, l)
        audited += 1
    print(f"criterion 8: PASS — provenance exact for all chunks, "
          f"{audited} teacher-affecting requests relabel only i >= l")


# ----------------------------------------------------------------------------
# Criterion 5 — student-side expected cost law
# ----------------------------------------------------------------------------

def test_criterion_5_student_cost_law():
    """Expected student-unlearn step fraction under uniform random point
    removal, by exact enumeration over slice positions with even integer
    slice sizes, is within 2% of 2/3 + 1/(3R) for R in {2, 4, 8}."""
    details = []
    for slices in (2, 4, 8):
        law = Fraction(2, 3) + Fraction(1, 3 * slices)
        measured = expected_student_unlearn_fraction(2400, slices)
        deviation = abs(measured - law) / law
        assert deviation < Fraction(2, 100), \
            f"R={slices}: {float(measured):.5f} vs {float(law):.5f}"
        details.append(f"R={slices}: {float(deviation) * 100:.3f}%")
    print(f"criterion 5: PASS — {'; '.join(details)} (tolerance 2%)")


# ----------------------------------------------------------------------------
# Criterion 6 — performance parity and ablation direction
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def parity_runs(tmp_path_factory):
    """Five seeded train/test splits; teachers shared per seed, students
    trained per (N, mode). 900 points per seed: 600 train / 300 test."""
    root = tmp_path_factory.mktemp("parity")
    members, teacher_slices, r, e_prime = 8, 2, 1, 40
    teacher_arch = ModelArch("softmax_linear", 6, 3)
    student_arch = ModelArch("one_hidden_layer", 6, 3, 32)
    accuracy: dict = {}
    jumps: dict = {"purge": [], "single_teacher": []}

    for seed in range(5):
        full = gen_synthetic(SyntheticSpec(
            num_classes=3, points_per_class=300, feature_dim=6,
            class_center_spread=2.0, within_class_stddev=3.0,
            seed=100 + seed))
        test_mask = np.arange(len(full)) % 3 == 2
        train_ds = Dataset(full.ids[~test_mask], full.features[~test_mask],
                           full.labels[~test_mask], full.num_classes)
        test_ds = Dataset(full.ids[test_mask], full.features[test_mask],
                          full.labels[test_mask], full.num_classes)

        teacher = train_teacher_ensemble(
            dataset=train_ds, members=members,
            slices_per_member=teacher_slices, budget=TrainBudget(e_prime),
            arch=teacher_arch,
            hyper=TrainHyper(learning_rate=0.3, batch_size=16, seed=1),
            store=CheckpointStore(root / f"t{seed}"), ledger=CostLedger(),
            seed=10 + seed)

        for n in (1, 2, 4, 8):
            modes = ("purge", "naive_sisa", "single_teacher") if n == 1 \
                else ("purge", "naive_sisa")
            for mode in modes:
                store = CheckpointStore(root / f"s{seed}_{n}_{mode}")
                shape = [[r] * c for c in build_mapping(members, n).chunk_counts]
                net = train_student_network(
                    plan=make_partition(train_ds, shape,
                                        mix_seed(10 + seed, SEED_STUDENT_PLAN)),
                    teacher_members=teacher.members,
                    budget=TrainBudget(e_prime), arch=student_arch,
                    hyper=TrainHyper(learning_rate=0.3, batch_size=16, seed=2),
                    store=store, ledger=CostLedger(), mode=mode,
                    seed=10 + seed)
                accuracy.setdefault((n, mode), []).append(
                    evaluate_accuracy(net.constituents, test_ds))
                if n == 1 and mode in jumps:
                    losses = [v for _, v in loss_trace(net, store, 1)]
                    jumps[mode].append(max(abs(b - a) for a, b in
                                           zip(losses, losses[1:])))
    return dict(accuracy=accuracy, jumps=jumps)


def test_criterion_6_parity_ablation_and_stability(parity_runs):
    """Averaged over 5 seeds: (a) |purge - naive_sisa| <= 2 percentage
    points of test accuracy for every N in {1, 2, 4, 8}; (b) at N=1,
    purge beats the single-teacher ablation on mean test accuracy; (c)
    single_teacher's mean maximum round-to-round loss jump exceeds
    purge's on the same runs."""
    accuracy, jumps = parity_runs["accuracy"], parity_runs["jumps"]

    gaps = []
    for n in (1, 2, 4, 8):
        purge = float(np.mean(accuracy[(n, "purge")]))
        naive = float(np.mean(accuracy[(n, "naive_sisa")]))
        gap = abs(purge - naive)
        gaps.append(f"N={n}: {gap * 100:.2f}pp")
        assert gap <= 0.02, \
            f"N={n}: |{purge:.4f} - {naive:.4f}| = {gap * 100:.2f}pp > 2pp"

    purge_acc = float(np.mean(accuracy[(1, "purge")]))
    ablation_acc = float(np.mean(accuracy[(1, "single_teacher")]))
    assert purge_acc > ablation_acc, \
        f"ablation not degraded: purge {purge_acc:.4f} vs " \
        f"single {ablation_acc:.4f}"

    purge_jump = float(np.mean(jumps["purge"]))
    single_jump = float(np.mean(jumps["single_teacher"]))
    assert single_jump > purge_jump, \
        f"stability: single {single_jump:.4f} vs purge {purge_jump:.4f}"

    print(f"criterion 6: PASS — parity {', '.join(gaps)}; ablation "
          f"{purge_acc:.4f} > {ablation_acc:.4f}; jumps "
          f"{single_jump:.4f} > {purge_jump:.4f}")


# ----------------------------------------------------------------------------
# Criterion 7 — numerical substrate
# ----------------------------------------------------------------------------

def _finite_difference_gradient(arch, params, x, targets, h=1e-6):
    """Independent oracle: central differences of the mean batch loss."""
    from purgekd.model import ModelState

    def loss_at(p):
        probs = predict_batch(ModelState(arch, p), x)
        return float(np.mean(
            [-float(np.sum(t * np.log(np.maximum(row, 1e-300))))
             for row, t in zip(probs, targets)]))

    grad = np.empty_like(params)
    for i in range(params.size):
        up, dn = params.copy(), params.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (loss_at(up) - loss_at(dn)) / (2 * h)
    return grad


def test_criterion_7_numerical_substrate():
    """(i) analytic gradients within 1e-4 relative of central finite
    differences on 50 random cases per architecture; (ii) every probability
    output normalized within 1e-9; (iii) checkpoint encode/decode round
    trip bit-exact for 1000 random states."""
    rng = np.random.default_rng(7777)
    for kind in ("softmax_linear", "one_hidden_layer"):
        for case in range(50):
            d = int(rng.integers(2, 9))
            classes = int(rng.integers(2, 6))
            hidden = int(rng.integers(2, 9)) \
                if kind == "one_hidden_layer" else None
            arch = ModelArch(kind, d, classes, hidden)
            params = rng.uniform(-0.5, 0.5, size=arch.param_count)
            n = int(rng.integers(1, 7))
            x = rng.normal(size=(n, d))
            targets = rng.dirichlet(np.ones(classes), size=n)
            # one full-batch training step at learning rate 1 moves the
            # parameters by minus the mean gradient
            stepped = params.copy()
            _sgd(arch, stepped, [(np.vstack([x.T, np.ones(n)])[None],
                                  np.ascontiguousarray(targets.T)[None])], 1, 1.0)
            analytic = params - stepped
            numeric = _finite_difference_gradient(arch, params, x, targets)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4,
                                       atol=1e-7, err_msg=f"{kind} #{case}")

    for kind in ("softmax_linear", "one_hidden_layer"):
        for _ in range(50):
            d = int(rng.integers(2, 9))
            classes = int(rng.integers(2, 6))
            hidden = int(rng.integers(2, 9)) \
                if kind == "one_hidden_layer" else None
            arch = ModelArch(kind, d, classes, hidden)
            state = init_model(arch, seed=int(rng.integers(1 << 60)))
            probs = predict_batch(state, rng.normal(size=(21, d)) * 10)
            assert np.all(probs >= 0)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    for case in range(1000):
        kind = "one_hidden_layer" if rng.integers(2) else "softmax_linear"
        hidden = int(rng.integers(2, 17)) if kind == "one_hidden_layer" \
            else None
        arch = ModelArch(kind, int(rng.integers(1, 33)),
                         int(rng.integers(2, 12)), hidden)
        state = init_model(arch, seed=int(rng.integers(1 << 62)))
        state.params[:] = rng.normal(size=arch.param_count) * \
            rng.uniform(0.01, 1e8)
        state.rng_cursor = int(rng.integers(0, 1 << 40))
        key = CheckpointKey("student" if rng.integers(2) else "teacher",
                            int(rng.integers(1, 100)),
                            int(rng.integers(1, 50)), int(rng.integers(1, 50)))
        back = decode_record(encode_record(key, case + 1, state))
        assert (back.key, back.generation) == (key, case + 1)
        assert back.state.arch == state.arch
        assert back.state.rng_cursor == state.rng_cursor
        np.testing.assert_array_equal(back.state.params, state.params)

    print("criterion 7: PASS — 100 gradient cases (rtol 1e-4), "
          "100 normalization cases (1e-9), 1000 bit-exact round trips")
