"""System assembly: whole-pipeline wiring, manifests, and snapshots."""

import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from purgekd import (CheckpointKey, CheckpointStore, ConfigError, CostLedger,
                     ModelArch, ParseError, PartitionError, StorageError,
                     SyntheticSpec, TrainHyper, UnlearnRequest, apply_request,
                     gen_synthetic, load_system, save_manifest, snapshot,
                     train_system, verify_exactness)
from purgekd.checkpoints import _FRAME, _HEADER, retrain
from purgekd.cli import main
from purgekd.system import MANIFEST_VERSION

QUICKSTART_DATA = gen_synthetic(SyntheticSpec(num_classes=3, points_per_class=200,
                                              feature_dim=5, seed=7))
THREE_POINTS = gen_synthetic(SyntheticSpec(num_classes=3, points_per_class=1,
                                           feature_dim=5, seed=8))


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


    @pytest.mark.parametrize("bad, error", [
        ({"mapping_sizes": [3, 3]}, ValueError),
        ({"mode": "magic"}, ValueError),
        ({"slices_per_chunk": [[2, 2]]}, ValueError),
        ({"slices_per_chunk": [[0, 2], [2, 2]]}, PartitionError),
        ({"student_dataset": THREE_POINTS, "teacher_dataset": QUICKSTART_DATA},
         PartitionError),
    ], ids=["mapping_sizes", "mode", "slices_per_chunk", "zero_slices",
            "three_student_points"])
    def test_bad_shape_fails_before_training(self, tmp_path, bad, error):
        """The README library quickstart with a mapping that does not sum to
        the teachers, an unknown mode, one slice row for two constituents, a
        chunk of zero slices or three student points beside a separate
        teacher dataset raises before any checkpoint is saved."""
        arch = ModelArch("softmax_linear", feature_dim=5, num_classes=3)
        store = CheckpointStore(tmp_path / "ckpt")
        quickstart = dict(
            student_dataset=QUICKSTART_DATA, teacher_dataset=None, teacher_members=4,
            teacher_slices=2, student_constituents=2, slices_per_chunk=2, mode="purge",
            e_prime=8, teacher_arch=arch, student_arch=arch,
            teacher_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=1),
            student_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=2),
            store=store, seed=11)
        with pytest.raises(error):
            train_system(**dict(quickstart, **bad))
        assert store.storage_report().total_count == 0


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
                     lambda d: d["student"].update(mode="magic"),
                     lambda d: d["teacher"]["plan"].update(slices=[[2, 1]] * 4),
                     lambda d: d["student"]["plan"].update(slices=[[2, 2, 2]]),
                     lambda d: d["student"]["plan"].update(slices=[[2], [2, 2]]),
                     lambda d: d["student"]["plan"].update(removed=[424242]),
                     lambda d: d["teacher"]["plan"].update(removed=[5, 5]),
                     lambda d: d["student"]["plan"].update(removed=[5.0])):
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

    def test_version_3_manifest_refused(self, small_system, tmp_path):
        """Version 3 wrote each plan as nested id lists and the mapping
        beside it; version 4 rebuilds both from seed, shape and removed ids."""
        path = tmp_path / "system.json"
        save_manifest(small_system, path, "ckpt")
        doc = json.loads(path.read_text())
        doc["version"] = 3
        for role in ("teacher", "student"):
            plan = getattr(small_system, role).plan
            doc[role]["plan"] = {"seed": plan.seed, "slices": plan.raw_slices()}
        doc["student"]["mapping"] = [[1, 2], [3, 4]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"manifest version 3\b.*retrain"):
            load_system(path)

    def test_size_does_not_grow_with_the_dataset(self, system_factory, tmp_path):
        """Only a plan's removed ids list points: a manifest of a system
        trained on four times the data has as many bytes, and a removal
        grows nothing but the removed lists."""
        texts = []
        for points in (80, 320):
            system = system_factory(dataset=gen_synthetic(SyntheticSpec(
                num_classes=3, points_per_class=points, feature_dim=5, seed=7)))
            save_manifest(system, tmp_path / "system.json", system.store.root.name)
            texts.append((tmp_path / "system.json").read_text())
        assert len(texts[0]) == len(texts[1])

        victim = system.student.plan.slice_ids(1, 2, 1)[0]
        apply_request(system, UnlearnRequest(1, "simultaneous", victim))
        save_manifest(system, tmp_path / "system.json", system.store.root.name)
        texts.append((tmp_path / "system.json").read_text())

        def lists(node, where=""):
            if isinstance(node, dict):
                return [x for key, v in node.items() for x in lists(v, f"{where}.{key}")]
            return [(where, node)] if isinstance(node, list) else []

        before, after = (lists(json.loads(text)) for text in texts[1:])
        assert max(len(v) for _, v in before) == 4  # the teacher plan's shards
        assert [(w, v) for (w, v), (_, b) in zip(after, before) if v != b] == [
            (".student.plan.removed", [victim]), (".teacher.plan.removed", [victim])]

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

    def test_dataset_serialized_once(self, small_system, tmp_path, monkeypatch):
        """A second save, and a save of a loaded system into its own
        directory, serialize no dataset; a save into a fresh directory
        writes the same bytes under the same name."""
        calls = []
        real_save = np.save

        def counting_save(*args, **kwargs):
            calls.append(1)
            return real_save(*args, **kwargs)

        monkeypatch.setattr(np, "save", counting_save)
        save_manifest(small_system, tmp_path / "system.json", "ckpt")
        assert len(calls) == 3  # ids, labels, features of the shared dataset
        save_manifest(small_system, tmp_path / "system.json", "ckpt")
        loaded = load_system(tmp_path / "system.json")
        save_manifest(loaded, tmp_path / "system.json", "ckpt")
        assert len(calls) == 3
        (dataset,) = tmp_path.glob("dataset-*.bin")
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        save_manifest(loaded, fresh / "system.json", "../ckpt")
        assert len(calls) == 6
        assert (fresh / dataset.name).read_bytes() == dataset.read_bytes()

    def test_failed_write_keeps_the_previous_manifest(self, small_system, tmp_path,
                                                      monkeypatch):
        """A save that dies halfway through its write leaves the previous
        manifest whole and loadable; a retried save then goes through."""
        path = tmp_path / "system.json"
        save_manifest(small_system, path, "ckpt")
        before = small_system.student.plan.raw_slices()
        victim = small_system.student.plan.slice_ids(1, 1, 1)[0]
        apply_request(small_system, UnlearnRequest(1, "student_point", victim))

        def torn(self, data, *args, **kwargs):
            data = data.encode() if isinstance(data, str) else data
            with open(self, "wb") as fh:
                fh.write(data[:len(data) // 2])
            raise OSError("no space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", torn)
            patch.setattr(Path, "write_bytes", torn)
            with pytest.raises(OSError):
                save_manifest(small_system, path, "ckpt")
        assert load_system(path).student.plan.raw_slices() == before
        save_manifest(small_system, path, "ckpt")
        assert victim not in load_system(path).student.plan

    @pytest.mark.parametrize("step", ["write", "rename"])
    def test_failed_save_leaves_no_temporary_file(self, small_system, tmp_path,
                                                  monkeypatch, step):
        """A save that fails halfway through writing or renaming its
        temporary file removes it, and the previous manifest still loads."""
        path = tmp_path / "system.json"
        save_manifest(small_system, path, "ckpt")
        before = path.read_bytes()

        def torn(self, data):
            with open(self, "wb") as fh:
                fh.write(data[:len(data) // 2])
            raise OSError("no space left on device")

        def refused(src, dst):
            raise OSError("rename refused")

        with monkeypatch.context() as patch:
            if step == "write":
                patch.setattr(Path, "write_bytes", torn)
            else:
                patch.setattr(os, "replace", refused)
            with pytest.raises(OSError):
                save_manifest(small_system, path, "ckpt")
        assert sorted(p.name for p in tmp_path.glob("*.tmp")) == []
        assert path.read_bytes() == before
        assert load_system(path).student.plan.raw_slices() == \
            small_system.student.plan.raw_slices()

    def test_reload_after_mixed_stream_is_bit_exact(self, streamed_system, tmp_path):
        """Plans rebuilt from seed, shape and removed ids, and soft labels
        derived on load, equal the live ones bit for bit: after student-side,
        teacher-side and simultaneous removals, and on a system with a
        separate teacher dataset, uneven mapping sizes, nested slice counts
        and an emptied chunk."""
        data = [gen_synthetic(SyntheticSpec(num_classes=3, points_per_class=points,
                                            feature_dim=5, seed=seed))
                for points, seed in ((20, 7), (30, 8))]
        arch = ModelArch("softmax_linear", 5, 3)
        separate = train_system(
            student_dataset=data[0], teacher_dataset=data[1], teacher_members=4,
            teacher_slices=3, student_constituents=2, slices_per_chunk=[[2, 1, 2], [3]],
            mode="purge", e_prime=6, teacher_arch=arch, student_arch=arch,
            teacher_hyper=TrainHyper(learning_rate=0.1, batch_size=8, seed=1),
            student_hyper=TrainHyper(learning_rate=0.1, batch_size=8, seed=2),
            store=CheckpointStore(tmp_path / "separate"), seed=5, mapping_sizes=[3, 1])
        emptied = separate.student.plan.chunk_ids(1, 2)
        victims = [("student_point", p) for p in emptied] + [
            ("teacher_point", separate.teacher.plan.slice_ids(2, 1, 2)[0]),
            ("student_point", separate.student.plan.slice_ids(2, 1, 3)[0])]
        for seq, (kind, pid) in enumerate(victims, 1):
            apply_request(separate, UnlearnRequest(seq, kind, pid))
        assert len(separate.student.soft_labels[(1, 2)]) == 0

        for system in (streamed_system, separate):
            save_manifest(system, tmp_path / "system.json", system.store.root.name)
            loaded = load_system(tmp_path / "system.json")
            assert loaded.student.mapping == system.student.mapping
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


def _round_keys(system) -> list:
    """The key of every round of both roles: the live set of a store."""
    return [CheckpointKey(net.role, k, l, j)
            for net in (system.teacher, system.student)
            for k in range(1, net.plan.num_shards + 1)
            for l in range(1, net.plan.chunks_in_shard(k) + 1)
            for j in range(1, net.plan.slices_in_chunk(k, l) + 1)]


def _live_size(system) -> int:
    """Bytes of a log holding one record per round key and nothing else."""
    param_count = {"teacher": system.teacher.arch.param_count,
                   "student": system.student.arch.param_count}
    return sum(_FRAME.size + _HEADER.size + 8 * param_count[key.role]
               for key in _round_keys(system))


def _rewrite_dataset(path: Path, data: bytes) -> None:
    """Replace the dataset file beside the manifest at path by data, with the
    manifest's digest updated to match, so only the parser can refuse it."""
    doc = json.loads(path.read_text())
    entry = doc["student"]["dataset"]
    (path.parent / entry["file"]).write_bytes(data)
    digest = hashlib.blake2b(data, digest_size=16).hexdigest()
    for role in ("teacher", "student"):
        doc[role]["dataset"]["digest"] = digest
    path.write_text(json.dumps(doc))


def _dataset_bytes(arrays) -> bytes:
    buf = io.BytesIO()
    for array in arrays:
        np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


class TestDatasetFile:
    """A dataset file is read as read-only views of its digest-checked
    bytes; a file whose digest matches but whose arrays are not what a save
    writes is refused."""

    def test_arrays_are_read_only_views_of_the_file(self, small_system, tmp_path):
        save_manifest(small_system, tmp_path / "system.json", "ckpt")
        ds = load_system(tmp_path / "system.json").student.dataset
        for array in (ds.ids, ds.labels, ds.features):
            assert not array.flags.writeable and not array.flags.owndata
        for name in ("ids", "labels", "features"):
            assert getattr(ds, name).tobytes() == \
                getattr(small_system.student.dataset, name).tobytes()

    def test_a_file_written_again_loads(self, small_system, tmp_path):
        """The control for the faults below: rewriting the same arrays with
        a matching digest loads."""
        path = tmp_path / "system.json"
        save_manifest(small_system, path, "ckpt")
        ds = small_system.student.dataset
        _rewrite_dataset(path, _dataset_bytes([ds.ids, ds.labels, ds.features]))
        assert load_system(path).student.dataset.ids.tobytes() == ds.ids.tobytes()

    @pytest.mark.parametrize("fault, message", [
        ("object_dtype", "ids must be a 1-d int64 array, not object"),
        ("fortran_order", "features is in Fortran order"),
        ("truncated", "features is cut short"),
        ("trailing_bytes", "8 bytes after the last array"),
    ])
    def test_malformed_arrays_refused(self, small_system, tmp_path, fault, message):
        path = tmp_path / "system.json"
        save_manifest(small_system, path, "ckpt")
        ds = small_system.student.dataset
        arrays = [ds.ids, ds.labels, ds.features]
        if fault == "object_dtype":
            arrays[0] = ds.ids.astype(object)
        elif fault == "fortran_order":
            arrays[2] = np.asfortranarray(ds.features)
        data = _dataset_bytes(arrays)
        if fault == "truncated":
            data = data[:-8]
        elif fault == "trailing_bytes":
            data += bytes(8)
        _rewrite_dataset(path, data)
        with pytest.raises(ParseError, match=message):
            load_system(path)

    def test_flipped_byte_fails_the_digest(self, small_system, tmp_path):
        path = tmp_path / "system.json"
        save_manifest(small_system, path, "ckpt")
        (dataset,) = tmp_path.glob("dataset-*.bin")
        data = bytearray(dataset.read_bytes())
        data[-1] ^= 0x01
        dataset.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="digest"):
            load_system(path)


class TestLiveStore:
    """A manifest save is the commit point, and it compacts the store to
    the latest generation of every round key."""

    def test_every_commit_leaves_the_live_set(self, small_system, tmp_path):
        """A student-side, a teacher-side and a simultaneous removal, each
        committed, leave one record per round key, none for an initial
        state, each equal to a scratch retrain's checkpoint."""
        system, path = small_system, tmp_path / "system.json"
        student, teacher = system.student.plan, system.teacher.plan
        victims = [("student_point", lambda: student.slice_ids(1, 1, 1)[0]),
                   ("teacher_point", lambda: teacher.slice_ids(3, 1, 2)[0]),
                   ("simultaneous", lambda: next(p for p in student.slice_ids(2, 2, 1)
                                                 if p in teacher))]
        for seq, (kind, pick) in enumerate(victims, 1):
            apply_request(system, UnlearnRequest(seq, kind, pick()))
            save_manifest(system, path, "ckpt")

        keys = _round_keys(system)
        reopened = CheckpointStore(system.store.root)
        assert set(reopened.keys()) == set(keys)
        assert reopened.storage_report().total_count == len(keys)
        assert (system.store.root / "store.log").stat().st_size == _live_size(system)
        fresh = CheckpointStore(tmp_path / "fresh")
        for net in (system.teacher, system.student):
            retrain(net, range(1, net.plan.num_shards + 1), fresh, CostLedger(),
                    "initial_train")
        for key in keys:
            got, want = reopened.load(key).state, fresh.load(key).state
            assert got.params.tobytes() == want.params.tobytes()
            assert got.rng_cursor == want.rng_cursor

    def test_commit_of_a_fresh_system_leaves_the_store_untouched(self, small_system,
                                                                 tmp_path):
        """Training stores the live set only, so its first commit has
        nothing to compact and neither reads nor writes the log."""
        log = small_system.store.root / "store.log"
        assert log.stat().st_size == _live_size(small_system)
        data, stat = log.read_bytes(), log.stat()
        save_manifest(small_system, tmp_path / "system.json", "ckpt")
        after = log.stat()
        assert log.read_bytes() == data
        assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)

    def test_failed_compaction_keeps_the_commit(self, small_system, tmp_path,
                                                monkeypatch):
        """A compaction whose rename fails raises StorageError after the
        manifest is committed, leaves the log's bytes as they were and no
        temporary file, and the run reloads and passes --verify."""
        system, path = small_system, tmp_path / "system.json"
        save_manifest(system, path, "ckpt")
        victim = system.student.plan.slice_ids(1, 1, 1)[0]
        apply_request(system, UnlearnRequest(1, "student_point", victim))
        log = system.store.root / "store.log"
        appended = log.read_bytes()
        rename = os.replace

        def refused(src, dst):
            if Path(dst).name == "store.log":
                raise OSError("rename refused")
            rename(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", refused)
            with pytest.raises(StorageError, match="cannot compact"):
                save_manifest(system, path, "ckpt")
        assert json.loads(path.read_text())["student"]["plan"]["removed"] == [victim]
        assert log.read_bytes() == appended
        assert list(tmp_path.rglob("*.tmp")) == []

        loaded = load_system(path)
        for a, b in zip(loaded.student.constituents + loaded.teacher.members,
                        system.student.constituents + system.teacher.members):
            assert a.params.tobytes() == b.params.tobytes()
        stream = tmp_path / "stream.csv"
        stream.write_text("seq,target_kind,point_id\n2,simultaneous,"
                          f"{loaded.teacher.plan.slice_ids(2, 1, 1)[0]}\n")
        assert main(["unlearn", "--system", str(path), "--requests", str(stream),
                     "--out", str(tmp_path / "out"), "--verify"]) == 0
        assert log.stat().st_size == _live_size(load_system(path))
