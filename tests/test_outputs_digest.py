"""tools/outputs_digest.py: one digest per workload run, the same for the
same seed and different for another, and one line per workload and seed."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs_digest.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("outputs_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_is_stable_and_seed_dependent(tool, tmp_path, monkeypatch):
    """mixed_medium at bench/test_bench.py's tiny shape, with its short chunk
    tail so that every slot keeps a candidate point; the seed picks the
    stream's points."""
    workloads = tool.workloads
    monkeypatch.setattr(workloads, "TAIL_ROWS", 4)
    workload = dataclasses.replace(workloads.WORKLOADS["mixed_medium"],
                                   points_per_class=2000, num_classes=3, feature_dim=3,
                                   hidden_units=3, e_prime=1, requests=8,
                                   fixed_data_seed=3)
    digests = []
    for run, seed in enumerate([5, 5, 6]):
        (tmp_path / str(run)).mkdir()
        digests.append(tool.outputs_digest(workload, seed, tmp_path / str(run)))
    assert digests[0] == digests[1] != digests[2]
    assert len(digests[0]) == 32


def test_one_line_per_workload_and_seed(tool, monkeypatch, capsys):
    """``all`` names every workload; each workload runs at every seed, in
    the order given."""
    monkeypatch.setattr(tool, "outputs_digest",
                        lambda workload, seed, work_dir: f"{workload.name}-{seed}")
    assert tool.main(["--workload", "all", "--seed", "2", "1"]) == 0
    names = sorted(tool.workloads.WORKLOADS)
    assert capsys.readouterr().out.splitlines() == [
        f"{name} {seed} {name}-{seed}" for name in names for seed in (2, 1)]
    assert tool.main(["--workload", "teacher_deep", "mixed_medium", "--seed", "7"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "teacher_deep 7 teacher_deep-7", "mixed_medium 7 mixed_medium-7"]
    with pytest.raises(SystemExit):
        tool.main(["--workload", "nope", "--seed", "1"])
