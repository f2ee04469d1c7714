"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py

Runs every workload's code at a tiny shape, checks that the benchmark's
checker flags a corrupted parameter, a wrong step count and a corrupted soft
label, and that the metric names agree with BENCHMARK.json.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import loop  # noqa: E402
import workloads  # noqa: E402
from purgekd import (CheckpointStore, apply_request, load_system,  # noqa: E402
                     save_manifest, unlearning)
from spans import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str) -> workloads.Workload:
    """The workload's structure (members, constituents, slices, slots) at a
    small data size, few features and a short training budget."""
    return dataclasses.replace(workloads.WORKLOADS[name], points_per_class=2000,
                               num_classes=3, feature_dim=3,
                               hidden_units=3 if name == "mixed_medium" else None,
                               e_prime=1, requests=8, fixed_data_seed=3)


@pytest.fixture(autouse=True)
def short_tail(monkeypatch):
    monkeypatch.setattr(workloads, "TAIL_ROWS", 4)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_round_has_no_failures(name, tmp_path):
    bench_run = loop.Run(tiny(name), seed=5, run_dir=tmp_path)
    bench_run.round()
    assert bench_run.problems == []
    assert [r for r in bench_run.records if r["failures"]] == []
    assert len(bench_run.records) == 8
    assert sorted(bench_run.end_to_end()) == sorted(m["name"] for m in SPEC["end_to_end"])


def test_traced_round_gives_every_layer_metric(tmp_path):
    tracer = Tracer()
    bench_run = loop.Run(tiny("mixed_medium"), seed=5, run_dir=tmp_path, tracer=tracer)
    with tracer.patched():
        bench_run.round()
    metrics = layer_metrics(tracer.spans, bench_run.rounds)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(m["value"] > 0 for m in metrics.values())
    assert unlearning.apply_request is apply_request  # the originals are back


@pytest.fixture
def system_and_stream(tmp_path):
    workload = tiny("student_fine")
    system = workload.build(5, CheckpointStore(tmp_path / "checkpoints"))
    return system, workloads.request_stream(workload, system, 5)


def test_checker_flags_wrong_step_count(system_and_stream):
    system, stream = system_and_stream
    effects = checks.expected_effects(system, stream[0])
    _, report = apply_request(system, stream[0])
    assert checks.check_request(system, stream[0], effects, report) == []
    report.student_steps += 1
    assert any("student steps" in p
               for p in checks.check_request(system, stream[0], effects, report))


def reload(system, tmp_path):
    save_manifest(system, tmp_path / "reload.json", system.store.root.name)
    return load_system(tmp_path / "reload.json")


def test_checker_flags_corrupted_parameter(system_and_stream, tmp_path):
    system, stream = system_and_stream
    before = checks.parameters(system)
    effects = checks.expected_effects(system, stream[0])
    apply_request(system, stream[0])
    touched = checks.touched_models(effects)
    assert checks.check_untouched(before, system, touched) == []
    assert checks.check_reload(checks.fingerprint(system), reload(system, tmp_path)) == []
    untouched = next(k for k in range(1, 9) if ("student", k) not in touched)
    params = system.student.constituents[untouched - 1].params
    params[0] = np.nextafter(params[0], np.inf)  # one ulp, in memory only
    assert checks.check_untouched(before, system, touched) == [
        f"untouched student {untouched} changed"]
    assert checks.check_reload(checks.fingerprint(system), reload(system, tmp_path)) == [
        f"reloaded student {untouched} differs"]


def test_replay_check_flags_a_wrong_replay(system_and_stream):
    system, stream = system_and_stream
    apply_request(system, stream[0])
    k = system.student.plan.num_shards
    assert checks.replay_on_cached_labels(system, k)
    params = system.student.constituents[k - 1].params
    params[-1] = np.nextafter(params[-1], -np.inf)
    assert not checks.replay_on_cached_labels(system, k)


def test_checker_flags_corrupted_soft_label(system_and_stream):
    system, _ = system_and_stream
    assert checks.check_labels(system) == []
    chunk = system.student.soft_labels[(2, 1)]
    chunk.probs[3] = chunk.probs[3][::-1]
    assert checks.check_labels(system) == ["chunk 2,1: soft labels differ from the teacher mean"]


@pytest.mark.parametrize("samples", [40, 80, 120])
def test_tail_has_ten_samples_beyond(samples):
    values = list(range(samples))
    tail = loop.tail(values)
    assert sum(v > tail for v in values) == 10
    assert loop.tail_percentile(samples) == 100 * (samples - 10) / samples


def test_rounds_depend_on_seconds_alone():
    for w in workloads.WORKLOADS.values():
        rounds = loop.rounds_for(w, SPEC["run_seconds"])
        assert rounds >= loop.MIN_ROUNDS and rounds * w.requests >= loop.MIN_SAMPLES
