"""System assembly: whole-pipeline wiring, manifests, and snapshots."""

import json

import numpy as np
import pytest

from purgekd import (CheckpointStore, ConfigError, ModelArch, ParseError,
                     SyntheticSpec, TrainHyper, UnlearnRequest, apply_request,
                     gen_synthetic, load_system, save_manifest, snapshot,
                     train_system, verify_exactness)


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

    def test_emptied_chunk_reloads(self, system_factory, tmp_path):
        """A chunk whose points were all removed is saved as "probs": [];
        the reload still gives a system whose next removal verifies."""
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
