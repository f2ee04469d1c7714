"""System assembly: whole-pipeline wiring, manifests, and snapshots."""

import json

import numpy as np
import pytest

from purgekd import (CheckpointStore, ConfigError, ModelArch, ParseError,
                     SyntheticSpec, TrainHyper, UnlearnRequest, apply_request,
                     gen_synthetic, load_system, save_manifest, snapshot,
                     train_system, verify_exactness)
from purgekd.system import MANIFEST_VERSION


class TestTrainSystem:
    def test_shared_dataset_flag(self, small_system):
        assert small_system.shared_dataset
        assert small_system.teacher.dataset is small_system.student.dataset

    def test_mismatched_datasets_rejected(self, small_dataset, tmp_path):
        other = gen_synthetic(SyntheticSpec(num_classes=4, points_per_class=20,
                                            feature_dim=5, seed=1))
        arch = ModelArch("softmax_linear", 5, 3)
        with pytest.raises(ConfigError):
            train_system(
                student_dataset=small_dataset, teacher_dataset=other,
                teacher_members=2, teacher_slices=1, student_constituents=1,
                slices_per_chunk=1, mode="purge", e_prime=4,
                teacher_arch=arch, student_arch=arch,
                teacher_hyper=TrainHyper(learning_rate=0.1, batch_size=32),
                student_hyper=TrainHyper(learning_rate=0.1, batch_size=32),
                store=CheckpointStore(tmp_path / "s"), seed=0)

    def test_arch_must_fit_dataset(self, small_dataset, tmp_path):
        wrong = ModelArch("softmax_linear", 9, 3)
        right = ModelArch("softmax_linear", 5, 3)
        with pytest.raises(ConfigError):
            train_system(
                student_dataset=small_dataset, teacher_dataset=None,
                teacher_members=2, teacher_slices=1, student_constituents=1,
                slices_per_chunk=1, mode="purge", e_prime=4,
                teacher_arch=wrong, student_arch=right,
                teacher_hyper=TrainHyper(learning_rate=0.1, batch_size=32),
                student_hyper=TrainHyper(learning_rate=0.1, batch_size=32),
                store=CheckpointStore(tmp_path / "s"), seed=0)


class TestSnapshot:
    def test_mutations_do_not_leak_back(self, small_system):
        frozen = snapshot(small_system)
        victim = small_system.student.plan.slice_ids(1, 1, 1)[0]
        apply_request(small_system,
                      UnlearnRequest(1, "student_point", victim))
        assert victim in frozen.student.plan
        assert victim not in small_system.student.plan
        assert not np.array_equal(frozen.student.constituents[0].params,
                                  small_system.student.constituents[0].params)


class TestManifest:
    def test_round_trip_restores_states(self, small_system, tmp_path):
        path = tmp_path / "ckpt" / "../system.json"
        path = tmp_path / "system.json"
        save_manifest(small_system, path, "ckpt")
        loaded = load_system(path)
        for a, b in zip(loaded.teacher.members, small_system.teacher.members):
            np.testing.assert_array_equal(a.params, b.params)
        for a, b in zip(loaded.student.constituents,
                        small_system.student.constituents):
            np.testing.assert_array_equal(a.params, b.params)
        assert loaded.student.plan.raw_slices() == \
            small_system.student.plan.raw_slices()
        for key, chunk in loaded.student.soft_labels.items():
            np.testing.assert_array_equal(
                chunk.probs, small_system.student.soft_labels[key].probs)
            assert loaded.student.provenance[key] == \
                small_system.student.provenance[key]

    def test_loaded_system_can_unlearn(self, small_system, tmp_path):
        path = tmp_path / "system.json"
        save_manifest(small_system, path, "ckpt")
        loaded = load_system(path)
        victim = loaded.student.plan.slice_ids(1, 1, 2)[0]
        _, report = apply_request(
            loaded, UnlearnRequest(1, "student_point", victim))
        assert report.student_steps > 0

    def test_manifest_is_sorted_compact_json(self, small_system, tmp_path):
        path = tmp_path / "system.json"
        save_manifest(small_system, path, "ckpt")
        text = path.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True,
                                  separators=(",", ":")) + "\n"

    def test_bad_manifest_rejected(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_system(path)
        path.write_text(json.dumps({"kind": "grocery_list", "version": 1}))
        with pytest.raises(ParseError):
            load_system(path)

    def test_malformed_manifest_is_a_parse_error(self, small_system, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"kind": "system_manifest",
                                    "version": MANIFEST_VERSION}))
        with pytest.raises(ParseError, match="checkpoint_dir"):
            load_system(path)
        save_manifest(small_system, path, "ckpt")
        good = path.read_text()
        for edit in (lambda d: d["teacher"].update(members="4"),
                     lambda d: d["student"].pop("plan"),
                     lambda d: d["student"]["dataset"].update(num_classes=None),
                     lambda d: d.update(student=[]),
                     lambda d: d["student"].update(mode="magic")):
            doc = json.loads(good)
            edit(doc)
            path.write_text(json.dumps(doc))
            with pytest.raises(ParseError, match="malformed manifest"):
                load_system(path)

    def test_version_2_manifest_refused(self, small_system, tmp_path):
        """Version 2 recorded no kernel fingerprint, so nothing shows that
        its checkpoints replay exactly here."""
        path = tmp_path / "system.json"
        save_manifest(small_system, path, "ckpt")
        doc = json.loads(path.read_text())
        doc["version"] = 2
        for role in ("teacher", "student"):
            del doc[role]["kernel"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"manifest version 2\b.*retrain"):
            load_system(path)

    @pytest.mark.parametrize("role", ["teacher", "student"])
    def test_kernel_fingerprint_mismatch_refused(self, small_system, tmp_path, role):
        path = tmp_path / "system.json"
        save_manifest(small_system, path, "ckpt")
        doc = json.loads(path.read_text())
        kernel = doc[role]["kernel"]
        doc[role]["kernel"] = ("0" if kernel[0] != "0" else "1") + kernel[1:]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=rf"{role} checkpoints.*fingerprint.*retrain"):
            load_system(path)

    def test_dataset_written_once_beside_the_manifest(self, small_system, tmp_path):
        """A shared dataset is one digest-named file; saving again, or under
        another manifest name, neither adds nor rewrites one."""
        save_manifest(small_system, tmp_path / "system.json", "ckpt")
        (dataset,) = tmp_path.glob("dataset-*.bin")
        stat = dataset.stat()
        save_manifest(small_system, tmp_path / "system.json", "ckpt")
        save_manifest(small_system, tmp_path / "reload.json", "ckpt")
        assert list(tmp_path.glob("dataset-*")) == [dataset]
        assert (dataset.stat().st_mtime_ns, dataset.stat().st_ino) == \
            (stat.st_mtime_ns, stat.st_ino)
        doc = json.loads((tmp_path / "system.json").read_text())
        assert doc["student"]["dataset"]["file"] == dataset.name
        assert "soft_labels" not in doc["student"]

    def test_reload_after_mixed_stream_is_bit_exact(self, streamed_system, tmp_path):
        """Derived soft labels equal the cached ones bit for bit after
        student-side, teacher-side and simultaneous removals."""
        system = streamed_system
        save_manifest(system, tmp_path / "system.json", "ckpt")
        loaded = load_system(tmp_path / "system.json")
        for side in ("teacher", "student"):
            assert getattr(loaded, side).plan.raw_slices() == \
                getattr(system, side).plan.raw_slices()
        assert loaded.student.soft_labels.keys() == system.student.soft_labels.keys()
        for key, chunk in system.student.soft_labels.items():
            got = loaded.student.soft_labels[key]
            assert got.ids.tobytes() == chunk.ids.tobytes()
            assert got.probs.tobytes() == chunk.probs.tobytes()
        for a, b in zip(loaded.student.constituents + loaded.teacher.members,
                        system.student.constituents + system.teacher.members):
            assert a.params.tobytes() == b.params.tobytes()
            assert a.rng_cursor == b.rng_cursor

    def test_emptied_chunk_reloads(self, system_factory, tmp_path):
        """A chunk whose points were all removed reloads with an empty
        label array, and the reloaded system's next removal verifies."""
        dataset = gen_synthetic(SyntheticSpec(num_classes=3, points_per_class=20,
                                              feature_dim=5, seed=7))
        system = system_factory(dataset=dataset, slices_per_chunk=1)
        emptied = system.student.plan.chunk_ids(1, 2)
        assert len(emptied) == 15
        for seq, pid in enumerate(emptied, 1):
            apply_request(system, UnlearnRequest(seq, "student_point", pid))
        assert len(system.student.soft_labels[(1, 2)]) == 0
        path = tmp_path / "system.json"
        save_manifest(system, path, system.store.root.name)
        loaded = load_system(path)
        assert loaded.student.soft_labels[(1, 2)].probs.shape == (0, 3)

        request = UnlearnRequest(99, "student_point",
                                 loaded.student.plan.chunk_ids(1, 1)[0])
        before = snapshot(loaded)
        apply_request(loaded, request)
        verdict = verify_exactness(before, request, loaded)
        assert verdict.passed, verdict.failures
