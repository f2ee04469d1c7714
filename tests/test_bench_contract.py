"""The names the benchmark under bench/ uses from the package still exist.

bench/ wraps functions by name and calls some positionally; a rename there
breaks the benchmark without failing any other test here.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

from purgekd import load_system, model, save_manifest, student

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
checks = _load("checks")


@pytest.mark.parametrize("name", sorted(spans.TARGETS))
def test_traced_target_exists(name):
    owner, attr, _ = spans.TARGETS[name]
    assert callable(getattr(owner, attr, None)), f"{name}: {owner}.{attr} is gone"


def test_work_counts_read_named_arguments():
    """spans counts model.train and model.predict_batch work from their
    positional arguments features (1) and epochs (4)."""
    train = list(inspect.signature(model.train).parameters)
    assert (train[1], train[4]) == ("features", "epochs")
    assert list(inspect.signature(model.predict_batch).parameters)[1] == "features"


def test_run_student_round_binds_the_bench_call():
    tree = ast.parse((BENCH / "checks.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "run_student_round"]
    assert [len(call.args) for call in calls] == [14]
    signature = inspect.signature(student.run_student_round)
    for call in calls:
        signature.bind(*[None] * len(call.args), **{kw.arg: None for kw in call.keywords})


def test_reload_gate_passes(streamed_system, tmp_path):
    """The benchmark's bit-exact reload check holds after a mixed stream, so
    a change to the manifest format cannot break that gate silently."""
    expected = checks.fingerprint(streamed_system)
    save_manifest(streamed_system, tmp_path / "reload.json",
                  streamed_system.store.root.name)
    assert checks.check_reload(expected, load_system(tmp_path / "reload.json")) == []
