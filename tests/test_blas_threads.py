"""Exactness survives a change of BLAS thread count between train and unlearn.

At d = 64, K = 10, h = 128 and batch 1024, a 1,250-row round (one full batch
and a 226-row one) gets other bits from a two-threaded OpenBLAS than from a
one-threaded one. Training pins itself to one thread, so a run trained under
``OPENBLAS_NUM_THREADS=2`` replays exactly under 1; the end-to-end test runs
each command in its own process, since OpenBLAS reads the variable when it
loads. Training restores the caller's thread count, and where it cannot pin
the count, the kernel fingerprint covers the thread settings instead.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from purgekd import ModelArch, TrainHyper, init_model, load_system, model, train

SRC = str(Path(__file__).resolve().parent.parent / "src")

# One teacher whose first slice is the 1,250-row round; its second slice
# holds the removed point, so the replay starts from that round's checkpoint.
CONFIG = {
    "seed": 3,
    "dataset": {"kind": "synthetic", "num_classes": 10, "points_per_class": 250,
                "feature_dim": 64},
    "teacher": {"members": 1, "slices": 2,
                "arch": {"kind": "one_hidden_layer", "hidden_units": 128},
                "hyper": {"learning_rate": 0.1, "batch_size": 1024}},
    "student": {"constituents": 1, "slices_per_chunk": 2, "mode": "purge",
                "arch": {"kind": "one_hidden_layer", "hidden_units": 128},
                "hyper": {"learning_rate": 0.1, "batch_size": 1024}},
    "budget": {"e_prime": 3},
    "requests": {"count": 1, "mix": {"student_point": 1}},
}

# The products of one training step at this shape, on a full and a partial batch.
MATMUL_PROBE = """
import hashlib
import numpy as np
rng = np.random.default_rng(0)
h = hashlib.blake2b()
for b in (1024, 226):
    x, w, g = (rng.normal(size=s) for s in ((65, b), (65, 128), (129, b)))
    for product in (w.T @ x, x @ g[:128].T, g @ g[:10].T):
        h.update(product.tobytes())
print(h.hexdigest())
"""


def _run(threads: int, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def _matmul_digest(threads: int) -> str:
    out = _run(threads, "-c", MATMUL_PROBE)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_run_trained_on_two_threads_verifies_on_one(tmp_path):
    if _matmul_digest(1) == _matmul_digest(2):
        pytest.skip("the BLAS thread count does not change matmul bits here")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    run = tmp_path / "run"
    out = _run(2, "-m", "purgekd.cli", "train", "--config", str(config), "--out", str(run))
    assert out.returncode == 0, out.stderr
    point = load_system(run / "system.json").teacher.plan.slice_ids(1, 1, 2)[0]
    requests = tmp_path / "requests.csv"
    requests.write_text(f"seq,target_kind,point_id\n1,teacher_point,{point}\n",
                        encoding="utf-8")
    out = _run(1, "-m", "purgekd.cli", "unlearn", "--system", str(run),
               "--requests", str(requests), "--verify")
    assert out.returncode == 0, out.stderr
    report = json.loads((run / "unlearn_reports.jsonl").read_text(encoding="utf-8"))
    assert report["verified"] and report["max_param_diff"] == 0.0


@pytest.mark.skipif(model.BLAS_THREADS is None, reason="no known OpenBLAS thread setter")
def test_training_restores_the_callers_thread_count():
    get, put = model.BLAS_THREADS
    before = get()
    put(2)
    try:
        state = init_model(ModelArch("softmax_linear", 3, 2), 0)
        train(state, np.ones((5, 3)), np.full((5, 2), 0.5), np.zeros(5, int), 1,
              TrainHyper(learning_rate=0.1, batch_size=2))
        assert get() == 2
    finally:
        put(before)


def test_unpinned_fingerprint_covers_the_thread_settings(monkeypatch):
    """Where training cannot pin its thread count, the fingerprint differs
    with the thread variables, so a load under other settings is refused."""
    probe = model.kernel_fingerprint.__wrapped__  # past the per-process cache
    arch = ModelArch("one_hidden_layer", 3, 2, 4)
    pinned = probe(arch, 4)
    monkeypatch.setattr(model, "BLAS_THREADS", None)
    digests = set()
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        digests.add(probe(arch, 4))
    assert len(digests | {pinned}) == 3
