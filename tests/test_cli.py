"""Command-line harness: subcommands, config overrides, exit codes, and
byte-stable outputs."""

import json
import shutil
import struct
from pathlib import Path

import pytest

from purgekd.cli import main
from purgekd.system import MANIFEST_VERSION

BASE_CONFIG = {
    "seed": 3,
    "dataset": {"kind": "synthetic", "num_classes": 3, "points_per_class": 80,
                "feature_dim": 5},
    "teacher": {"members": 4, "slices": 2,
                "hyper": {"learning_rate": 0.1, "batch_size": 32}},
    "student": {"constituents": 2, "slices_per_chunk": 2, "mode": "purge",
                "hyper": {"learning_rate": 0.1, "batch_size": 32}},
    "budget": {"e_prime": 8},
    "requests": {"count": 6,
                 "mix": {"student_point": 2, "teacher_point": 2,
                         "simultaneous": 2}},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


def _train(config_path, out):
    code = main(["train", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    return out


class TestTrain:
    def test_outputs_present(self, config_path, tmp_path):
        out = _train(config_path, tmp_path / "run")
        for name in ("system.json", "ledger.csv", "accuracy_report.json",
                     "requests.csv"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "system.json").read_text())
        assert manifest["teacher"]["members"] == 4
        report = json.loads((out / "accuracy_report.json").read_text())
        assert 0.0 <= report["student_accuracy"] <= 1.0

    def test_rerun_byte_identical(self, config_path, tmp_path):
        a = _train(config_path, tmp_path / "a")
        b = _train(config_path, tmp_path / "b")
        datasets = [p.name for p in a.glob("dataset-*.bin")]
        assert len(datasets) == 1
        assert [p.name for p in b.glob("dataset-*.bin")] == datasets
        for name in ("system.json", "ledger.csv", "accuracy_report.json",
                     "requests.csv", *datasets):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_set_override(self, config_path, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--config", str(config_path), "--out", str(out),
                     "--set", "teacher.members=8",
                     "--set", "student.constituents=4"])
        assert code == 0
        manifest = json.loads((out / "system.json").read_text())
        assert manifest["teacher"]["members"] == 8
        assert manifest["student"]["constituents"] == 4

    def test_config_errors_exit_2(self, config_path, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 2
        assert main(["train", "--config", str(config_path),
                     "--out", str(tmp_path / "y"),
                     "--set", "budget.e_prime=0"]) == 2
        assert main(["train", "--config", str(config_path),
                     "--out", str(tmp_path / "z"),
                     "--set", "student.mode=magic"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err

    @pytest.mark.parametrize("override", [
        'mapping_sizes=[1,"a"]', "mapping_sizes=3", "mapping_sizes=[3,true]",
        "student.slices_per_chunk=[1]", 'student.slices_per_chunk=[[1,"x"],[1,1]]',
        "student.slices_per_chunk=0", "student.slices_per_chunk=true",
        "teacher.slices=0"])
    def test_malformed_counts_exit_2(self, config_path, tmp_path, capsys, override):
        assert main(["train", "--config", str(config_path),
                     "--out", str(tmp_path / "run"), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + override.partition("=")[0])
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("overrides", [
        ["student.slices_per_chunk=[[1,1]]"],
        ["student.slices_per_chunk=[[1],[1,1]]"],
        ["mapping_sizes=[3,1]", "student.slices_per_chunk=[[1,1],[1,1]]"],
    ], ids=["one-row-for-two-constituents", "short-row", "rows-follow-mapping-sizes"])
    def test_misshaped_slices_per_chunk_exit_2(self, config_path, tmp_path, capsys,
                                               overrides):
        """A nested slices_per_chunk must have the shape of the chunk
        counts: one row per constituent, one entry per mapped teacher."""
        args = ["train", "--config", str(config_path), "--out", str(tmp_path / "run")]
        for override in overrides:
            args += ["--set", override]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: student.slices_per_chunk")
        assert len(err.splitlines()) == 1

    def test_csv_dataset_errors_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1,not_a_float\n")
        cfg = dict(BASE_CONFIG,
                   dataset={"kind": "csv", "path": str(bad)})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 3


class TestUnlearn:
    def test_stream_processed_with_verification(self, config_path, tmp_path):
        out = _train(config_path, tmp_path / "run")
        code = main(["unlearn", "--system", str(out),
                     "--requests", str(out / "requests.csv"), "--verify"])
        assert code == 0
        lines = (out / "unlearn_reports.jsonl").read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            doc = json.loads(line)
            assert doc["verified"] is True
            assert doc["max_param_diff"] == 0.0

    def test_reports_stable_modulo_wall_time(self, config_path, tmp_path):
        a = _train(config_path, tmp_path / "a")
        b = _train(config_path, tmp_path / "b")
        for out in (a, b):
            assert main(["unlearn", "--system", str(out),
                         "--requests", str(out / "requests.csv")]) == 0
        docs_a = [json.loads(l) for l in
                  (a / "unlearn_reports.jsonl").read_text().splitlines()]
        docs_b = [json.loads(l) for l in
                  (b / "unlearn_reports.jsonl").read_text().splitlines()]
        for d in docs_a + docs_b:
            d.pop("wall_time")
        assert docs_a == docs_b
        assert (a / "system.json").read_bytes() == \
            (b / "system.json").read_bytes()

    def test_unknown_point_exits_3(self, config_path, tmp_path):
        out = _train(config_path, tmp_path / "run")
        bad = tmp_path / "bad.csv"
        bad.write_text("seq,target_kind,point_id\n1,student_point,424242\n")
        assert main(["unlearn", "--system", str(out),
                     "--requests", str(bad)]) == 3

    def test_corrupt_store_exits_3(self, config_path, tmp_path, capsys):
        out = _train(config_path, tmp_path / "run")
        log = out / "checkpoints" / "store.log"
        data = bytearray(log.read_bytes())
        starts, off = [], 0
        while off < len(data):  # frames: payload length, CRC-32, payload
            starts.append(off)
            off += 8 + struct.unpack_from("<I", data, off)[0]
        middle = starts[len(starts) // 2]
        data[middle + 8 + 40] ^= 0xFF
        log.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["unlearn", "--system", str(out),
                     "--requests", str(out / "requests.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("storage error:")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_dataset_file_untouched(self, config_path, tmp_path):
        out = _train(config_path, tmp_path / "run")
        (dataset,) = out.glob("dataset-*.bin")
        data, stat = dataset.read_bytes(), dataset.stat()
        assert main(["unlearn", "--system", str(out),
                     "--requests", str(out / "requests.csv")]) == 0
        assert list(out.glob("dataset-*")) == [dataset]
        assert dataset.read_bytes() == data
        assert (dataset.stat().st_mtime_ns, dataset.stat().st_ino) == \
            (stat.st_mtime_ns, stat.st_ino)

    def test_malformed_manifest_exits_3(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "system.json").write_text(json.dumps(
            {"kind": "system_manifest", "version": MANIFEST_VERSION}))
        (run / "requests.csv").write_text("seq,target_kind,point_id\n")
        assert main(["unlearn", "--system", str(run),
                     "--requests", str(run / "requests.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "checkpoint_dir" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_missing_store_exits_3(self, config_path, tmp_path, capsys):
        out = _train(config_path, tmp_path / "run")
        shutil.move(str(out / "checkpoints"), str(tmp_path / "moved"))
        capsys.readouterr()
        assert main(["unlearn", "--system", str(out),
                     "--requests", str(out / "requests.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("storage error:")
        assert str(out / "checkpoints") in err and "does not exist" in err
        assert not (out / "checkpoints").exists()

    def test_keeps_the_manifest_checkpoint_dir(self, config_path, tmp_path,
                                               monkeypatch):
        """A run whose store is not called "checkpoints" survives two
        successive invocations, with relative paths."""
        out = _train(config_path, tmp_path / "run")
        (out / "checkpoints").rename(out / "ckpt")
        manifest = json.loads((out / "system.json").read_text())
        manifest["checkpoint_dir"] = "ckpt"
        (out / "system.json").write_text(json.dumps(manifest))
        header, *rows = (out / "requests.csv").read_text().splitlines()
        monkeypatch.chdir(tmp_path)
        for part in (rows[:3], rows[3:]):
            Path("part.csv").write_text("\n".join([header, *part]) + "\n")
            assert main(["unlearn", "--system", "run", "--requests", "part.csv",
                         "--verify"]) == 0
            assert json.loads((out / "system.json").read_text())["checkpoint_dir"] == "ckpt"
        assert not (out / "checkpoints").exists()

    def test_changed_dataset_byte_exits_3(self, config_path, tmp_path, capsys):
        out = _train(config_path, tmp_path / "run")
        (dataset,) = out.glob("dataset-*.bin")
        data = bytearray(dataset.read_bytes())
        data[len(data) // 2] ^= 0x01
        dataset.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["unlearn", "--system", str(out),
                     "--requests", str(out / "requests.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "digest" in err

    def test_version_1_manifest_exits_3(self, config_path, tmp_path, capsys):
        out = _train(config_path, tmp_path / "run")
        doc = json.loads((out / "system.json").read_text())
        doc["version"] = 1
        (out / "system.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["unlearn", "--system", str(out),
                     "--requests", str(out / "requests.csv")]) == 3
        err = capsys.readouterr().err
        assert "manifest version 1" in err and "retrain" in err

    def test_reload_roundtrip_preserves_behavior(self, config_path, tmp_path):
        """Unlearning via a reloaded manifest matches unlearning in the
        training process."""
        a = _train(config_path, tmp_path / "a")
        b = _train(config_path, tmp_path / "b")
        # process b's stream in two separate invocations (reload in between)
        reqs = (b / "requests.csv").read_text().splitlines()
        (b / "first.csv").write_text("\n".join(reqs[:4]) + "\n")
        (b / "second.csv").write_text(reqs[0] + "\n" + "\n".join(reqs[4:]) + "\n")
        assert main(["unlearn", "--system", str(a),
                     "--requests", str(a / "requests.csv")]) == 0
        assert main(["unlearn", "--system", str(b),
                     "--requests", str(b / "first.csv")]) == 0
        assert main(["unlearn", "--system", str(b),
                     "--requests", str(b / "second.csv"),
                     "--out", str(b / "part2")]) == 0
        assert (a / "system.json").read_bytes() == \
            (b / "system.json").read_bytes()


class TestSimulate:
    def test_grid_csv(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "seed": 5, "dataset_size": 800,
            "grid": {"M": [8], "N": [2, 3, 8], "r": [1], "e_prime": [20],
                     "requests": 25}}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
        lines = (out / "simulate.csv").read_text().splitlines()
        assert lines[0] == ("M,N,c,r,e_prime,requests,mean_steps,predicted,"
                            "measured_ratio,deviation")
        assert len(lines) == 4
        # N=3 does not divide M=8: no closed-form columns
        n3 = [l for l in lines if l.startswith("8,3")][0]
        fields = n3.split(",")
        assert fields[2] == "" and fields[7] == "" and fields[9] == ""

    def test_deterministic(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "seed": 5, "dataset_size": 800,
            "grid": {"M": [8], "N": [4], "r": [2], "e_prime": [20],
                     "requests": 30}}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 0
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "y")]) == 0
        assert (tmp_path / "x/simulate.csv").read_bytes() == \
            (tmp_path / "y/simulate.csv").read_bytes()


    @pytest.mark.parametrize("overrides, field", [
        (['grid.M=[4,"x"]'], "grid.M"),
        (["grid.N=[0]"], "grid.N"),
        (["grid.r=[true]"], "grid.r"),
        (["grid.requests=0"], "grid.requests"),
        (["dataset_size=0"], "dataset_size"),
        (["grid.M=[2]", "grid.N=[4]"], "grid point M=2 N=4"),
        (["dataset_size=3", "grid.N=[4]"], "grid point M=8 N=4"),
        (["grid.r=[400]"], "grid point M=8 N=4 r=400"),
    ], ids=["non-integer", "zero-shards", "bool", "zero-requests",
            "zero-points", "more-shards-than-teachers", "more-shards-than-points",
            "more-slices-than-points"])
    def test_malformed_grid_exit_2(self, tmp_path, capsys, overrides, field):
        """Every grid entry, requests and dataset_size are integers >= 1, and
        a grid point the simulator cannot partition is a config error naming
        it."""
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "seed": 5, "dataset_size": 800,
            "grid": {"M": [8], "N": [4], "r": [1], "e_prime": [20], "requests": 5}}))
        args = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]
        for override in overrides:
            args += ["--set", override]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + field)
        assert len(err.splitlines()) == 1


class TestAnalyze:
    def test_tables_from_runs(self, config_path, tmp_path):
        run = _train(config_path, tmp_path / "run")
        assert main(["unlearn", "--system", str(run),
                     "--requests", str(run / "requests.csv")]) == 0
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "seed": 5, "dataset_size": 800,
            "grid": {"M": [8], "N": [4], "r": [1], "e_prime": [20],
                     "requests": 10}}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "sim")]) == 0

        out = tmp_path / "tables"
        assert main(["analyze", str(tmp_path), "--out", str(out)]) == 0
        acc = (out / "accuracy_vs_n.csv").read_text().splitlines()
        assert acc[0] == "N,mode,runs,mean_teacher_accuracy,mean_student_accuracy"
        assert len(acc) == 2
        speed = (out / "speedup_vs_n.csv").read_text().splitlines()
        assert speed[0] == ("source,M,N,c,r,requests,mean_steps,"
                            "measured_ratio")
        assert any(l.startswith("measured") for l in speed[1:])
        assert any(l.startswith("simulated") for l in speed[1:])

    def test_empty_inputs_yield_header_only(self, tmp_path):
        out = tmp_path / "tables"
        assert main(["analyze", "--out", str(out)]) == 0
        assert len((out / "accuracy_vs_n.csv").read_text().splitlines()) == 1
        assert len((out / "speedup_vs_n.csv").read_text().splitlines()) == 1

    @pytest.mark.parametrize("name, text", [
        ("unlearn_reports.jsonl", '{"a":\n'),
        ("ledger.csv", "phase,role,constituent,steps\ninitial_train,student,1,x\n"),
        ("simulate.csv", "M,N,c,r,e_prime,requests,mean_steps,predicted,"
                         "measured_ratio,deviation\nx,4,2,1,20,10,1.0,1.0,1.0,0.0\n"),
    ], ids=["reports", "ledger", "simulate"])
    def test_malformed_inputs_exit_3(self, tmp_path, capsys, name, text):
        run = tmp_path / "run"
        run.mkdir()
        (run / "unlearn_reports.jsonl").write_text('{"student_steps": 4}\n')
        (run / "ledger.csv").write_text(
            "phase,role,constituent,steps\ninitial_train,student,1,40\n")
        (run / "system.json").write_text(json.dumps(
            {"teacher": {"members": 4}, "student": {"constituents": 2}}))
        assert main(["analyze", str(run), "--out", str(tmp_path / "a")]) == 0
        (run / name).write_text(text)
        capsys.readouterr()
        assert main(["analyze", str(run), "--out", str(tmp_path / "b")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and name in err
        assert len(err.splitlines()) == 1
