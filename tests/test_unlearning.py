"""Unlearning engine: request streams, all three request kinds, and the
scratch-retrain verification oracle."""

import json
import tempfile
from dataclasses import asdict

import numpy as np
import pytest

from purgekd import (CheckpointStore, ConfigError, ModelArch, NotFoundError,
                     ParseError, SyntheticSpec, TrainHyper, UnlearnRequest,
                     apply_request, gen_synthetic, generate_requests,
                     is_aligned, load_system, parse_request_stream, save_manifest,
                     snapshot, train_system, verify_exactness, write_request_stream)


@pytest.fixture
def separate_system(small_dataset, tmp_path):
    """The small system's shape, with teachers trained on a second dataset
    (seed 70) whose point ids coincide with the student's."""
    teacher_ds = gen_synthetic(SyntheticSpec(
        num_classes=3, points_per_class=80, feature_dim=5, seed=70))
    arch = ModelArch("softmax_linear", 5, 3)
    return train_system(
        student_dataset=small_dataset, teacher_dataset=teacher_ds,
        teacher_members=4, teacher_slices=2, student_constituents=2,
        slices_per_chunk=2, mode="purge", e_prime=8, teacher_arch=arch,
        student_arch=arch,
        teacher_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=1),
        student_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=2),
        store=CheckpointStore(tmp_path / "sep"), seed=11)


class TestRequestStream:
    def test_round_trip(self, tmp_path):
        requests = [UnlearnRequest(1, "student_point", 10),
                    UnlearnRequest(2, "teacher_point", 20),
                    UnlearnRequest(3, "simultaneous", 30)]
        path = tmp_path / "req.csv"
        write_request_stream(path, requests)
        assert parse_request_stream(path) == requests

    def test_header_optional(self, tmp_path):
        path = tmp_path / "req.csv"
        path.write_text("1,student_point,5\n2,teacher_point,6\n")
        parsed = parse_request_stream(path)
        assert [r.point_id for r in parsed] == [5, 6]

    def test_bad_kind_names_line(self, tmp_path):
        path = tmp_path / "req.csv"
        path.write_text("seq,target_kind,point_id\n1,forget_everything,5\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_request_stream(path)

    def test_generated_mix_is_exact(self, small_system):
        requests = generate_requests(
            small_system, 20,
            {"student_point": 2, "teacher_point": 1, "simultaneous": 1},
            seed=5)
        kinds = [r.kind for r in requests]
        assert kinds.count("student_point") == 10
        assert kinds.count("teacher_point") == 5
        assert kinds.count("simultaneous") == 5
        ids = [r.point_id for r in requests]
        assert len(set(ids)) == len(ids)
        assert [r.request_id for r in requests] == list(range(1, 21))

    def test_generated_alignment_kinds(self, small_system):
        requests = generate_requests(
            small_system, 10,
            {"simultaneous_aligned": 1, "simultaneous_misaligned": 1}, seed=6)
        aligned = [is_aligned(small_system, r.point_id) for r in requests]
        assert aligned.count(True) == 5
        assert all(r.kind == "simultaneous" for r in requests)

    def test_generation_deterministic(self, small_system):
        mix = {"student_point": 1, "teacher_point": 1}
        a = generate_requests(small_system, 12, mix, seed=9)
        b = generate_requests(small_system, 12, mix, seed=9)
        assert a == b

    def test_generated_stream_is_pinned(self, small_system):
        """The stream for a fixed system, count, mix and seed never changes."""
        mix = {"student_point": 2, "teacher_point": 2, "simultaneous": 1,
               "simultaneous_aligned": 1, "simultaneous_misaligned": 1}
        requests = generate_requests(small_system, 14, mix, seed=21)
        assert [(r.kind, r.point_id) for r in requests] == [
            ("simultaneous", 123), ("simultaneous", 14), ("teacher_point", 3),
            ("teacher_point", 73), ("student_point", 117), ("teacher_point", 102),
            ("teacher_point", 218), ("student_point", 168), ("simultaneous", 45),
            ("simultaneous", 0), ("simultaneous", 237), ("student_point", 187),
            ("simultaneous", 42), ("student_point", 27)]

    def test_unknown_mix_kind(self, small_system):
        with pytest.raises(ConfigError):
            generate_requests(small_system, 4, {"teacher_pont": 1}, seed=0)


class TestStudentRemoval:
    def test_point_leaves_partition_and_labels(self, small_system):
        victim = small_system.student.plan.slice_ids(1, 2, 1)[0]
        k, l, _ = small_system.student.plan.locate(victim)
        _, report = apply_request(small_system, UnlearnRequest(0, "student_point", victim))
        assert victim not in small_system.student.plan
        assert victim not in small_system.student.soft_labels[(k, l)]
        assert report.affected_student_constituents == (k,)
        assert report.teacher_steps == 0
        assert report.chunks_relabeled == ()

    def test_removals_keep_the_derived_provenance(self, small_system):
        """Removals replay only the rounds that saw the point or a relabeled
        chunk; the label provenance, derived from the mode and the mapping,
        is the same afterwards and names exactly the relabeled chunks."""
        store = small_system.store
        net = small_system.student
        provenance = dict(net.provenance)
        victim = net.plan.slice_ids(1, 1, 2)[0]
        apply_request(small_system, UnlearnRequest(0, "student_point", victim))
        replayed = [key for key in store.keys("student")
                    if store.latest_generation(key) > 1]
        assert [(key.k, key.l, key.j) for key in replayed] == \
            [(1, 1, 2), (1, 2, 1), (1, 2, 2)]
        victim = small_system.teacher.plan.slice_ids(2, 1, 1)[0]
        _, report = apply_request(small_system,
                                  UnlearnRequest(1, "teacher_point", victim))
        assert net.provenance == provenance
        assert report.chunks_relabeled == tuple(
            key for key, members in sorted(provenance.items()) if 2 in members)

    def test_late_slice_cheaper_than_early(self, system_factory):
        """Removing from the last slice replays less than from the first."""
        early_sys = system_factory()
        late_sys = system_factory()
        early = early_sys.student.plan.slice_ids(1, 1, 1)[0]
        late = late_sys.student.plan.slice_ids(1, 2, 2)[0]
        _, early_report = apply_request(early_sys, UnlearnRequest(0, "student_point", early))
        _, late_report = apply_request(late_sys, UnlearnRequest(0, "student_point", late))
        assert late_report.student_steps < early_report.student_steps

    def test_verified_exact(self, system_factory):
        system = system_factory()
        victim = system.student.plan.slice_ids(2, 1, 2)[1]
        before = snapshot(system)
        request = UnlearnRequest(1, "student_point", victim)
        apply_request(system, request)
        verdict = verify_exactness(before, request, system)
        assert verdict.passed
        assert verdict.max_param_diff == 0.0


class TestTeacherRemoval:
    def test_relabels_only_suffix_chunks(self, system_factory):
        """Chunks labeled before the updated teacher's position keep their
        exact bytes; chunks at or after it are regenerated."""
        system = system_factory()
        m = 2  # maps to student 1, position l=2 (N=2, c=2)
        k, l = system.student.mapping.owner_of(m)
        assert (k, l) == (1, 2)
        labels_before = {key: chunk.probs.copy()
                         for key, chunk in system.student.soft_labels.items()}
        victim = system.teacher.plan.slice_ids(m, 1, 1)[0]
        _, report = apply_request(system, UnlearnRequest(0, "teacher_point", victim))

        assert report.affected_teacher_members == (m,)
        assert report.chunks_relabeled == ((k, l),)
        for (kk, ll), chunk in system.student.soft_labels.items():
            if (kk, ll) == (k, l):
                assert not np.array_equal(chunk.probs, labels_before[(kk, ll)])
            else:
                np.testing.assert_array_equal(chunk.probs,
                                              labels_before[(kk, ll)])

    def test_first_position_teacher_relabels_whole_shard(self, system_factory):
        system = system_factory()
        m = 3  # maps to student 2, position l=1
        assert system.student.mapping.owner_of(m) == (2, 1)
        victim = system.teacher.plan.slice_ids(m, 1, 2)[0]
        _, report = apply_request(system, UnlearnRequest(0, "teacher_point", victim))
        assert report.chunks_relabeled == ((2, 1), (2, 2))
        assert report.affected_student_constituents == (2,)

    def test_untouched_constituent_stays_identical(self, system_factory):
        system = system_factory()
        other = system.student.constituents[1].params.copy()
        victim = system.teacher.plan.slice_ids(1, 1, 1)[0]  # owner (1, 1)
        apply_request(system, UnlearnRequest(0, "teacher_point", victim))
        np.testing.assert_array_equal(system.student.constituents[1].params,
                                      other)

    def test_verified_exact(self, system_factory):
        system = system_factory()
        victim = system.teacher.plan.slice_ids(4, 1, 2)[2]
        before = snapshot(system)
        request = UnlearnRequest(1, "teacher_point", victim)
        apply_request(system, request)
        verdict = verify_exactness(before, request, system)
        assert verdict.passed, verdict.failures
        assert verdict.max_param_diff == 0.0

    def test_relabel_inference_accounted(self, system_factory):
        """Inference cost = points relabeled x members consulted."""
        system = system_factory()
        m = 2
        k, l = system.student.mapping.owner_of(m)
        chunk_size = len(system.student.plan.chunk_ids(k, l))
        victim = system.teacher.plan.slice_ids(m, 1, 1)[0]
        _, report = apply_request(system, UnlearnRequest(0, "teacher_point", victim))
        assert report.relabel_inference == chunk_size * l


class TestSimultaneousRemoval:
    def _pick(self, system, want_aligned):
        for pid in system.student.plan.all_ids():
            if pid in system.teacher.plan and \
                    is_aligned(system, pid) == want_aligned:
                return pid
        raise AssertionError("no point with requested alignment")

    def test_aligned_single_constituent(self, system_factory):
        system = system_factory()
        pid = self._pick(system, want_aligned=True)
        _, report = apply_request(system, UnlearnRequest(0, "simultaneous", pid))
        assert len(report.affected_student_constituents) == 1
        assert len(report.affected_teacher_members) == 1

    def test_misaligned_two_procedures(self, system_factory):
        """A misaligned point in a different constituent pair touches two
        student constituents."""
        system = system_factory()
        for pid in system.student.plan.all_ids():
            if pid not in system.teacher.plan or is_aligned(system, pid):
                continue
            k, _, _ = system.student.plan.locate(pid)
            m, _, _ = system.teacher.plan.locate(pid)
            if system.student.mapping.owner_of(m)[0] != k:
                _, report = apply_request(system, UnlearnRequest(0, "simultaneous", pid))
                assert len(report.affected_student_constituents) == 2
                return
        pytest.skip("partition drew no cross-constituent misaligned point")

    def test_verified_exact_both_alignments(self, system_factory):
        for want in (True, False):
            system = system_factory()
            pid = self._pick(system, want_aligned=want)
            before = snapshot(system)
            request = UnlearnRequest(1, "simultaneous", pid)
            apply_request(system, request)
            verdict = verify_exactness(before, request, system)
            assert verdict.passed, (want, verdict.failures)
            assert verdict.max_param_diff == 0.0

    def test_point_gone_from_both_sides(self, system_factory):
        system = system_factory()
        pid = self._pick(system, want_aligned=False)
        apply_request(system, UnlearnRequest(0, "simultaneous", pid))
        assert pid not in system.student.plan
        assert pid not in system.teacher.plan

    def test_missing_from_either_side_rejected(self, separate_system):
        # 10_000 is in neither partition; ids both datasets hold are covered
        # by TestMissingPoint.test_separate_datasets_refused
        with pytest.raises(NotFoundError):
            apply_request(separate_system,
                          UnlearnRequest(0, "simultaneous", 10_000))


class TestReportsPinned:
    """The report of one request of each kind on the standard small system,
    fixed to the last field (wall time aside): the checkpoints reverted to
    and their order (an initial state, derived from its seed, as
    generation 0), the chunks relabeled, the steps and the inference."""

    CASES = {
        # student point at (k, l, j) = (2, 1, 2)
        "student_point": (("student_point", 164), {
            "affected_teacher_members": [], "affected_student_constituents": [2],
            "reverted_to": ["student:2:1:1@1"], "chunks_relabeled": [],
            "teacher_steps": 0, "student_steps": 1068, "relabel_inference": 0}),
        # teacher 3, first in constituent 2's subensemble
        "teacher_point": (("teacher_point", 180), {
            "affected_teacher_members": [3], "affected_student_constituents": [2],
            "reverted_to": ["teacher:3:1:1@1", "student:2:0:0@0"],
            "chunks_relabeled": [[2, 1], [2, 2]],
            "teacher_steps": 354, "student_steps": 1200,
            "relabel_inference": 180}),
        # student (1, 2, 2), teacher 2 labels chunk (1, 2) first
        "aligned": (("simultaneous", 200), {
            "affected_teacher_members": [2], "affected_student_constituents": [1],
            "reverted_to": ["teacher:2:1:1@1", "student:1:1:2@1"],
            "chunks_relabeled": [[1, 2]],
            "teacher_steps": 354, "student_steps": 836,
            "relabel_inference": 118}),
        # student (1, 2, 2), teacher 3 belongs to constituent 2
        "misaligned_two_constituents": (("simultaneous", 28), {
            "affected_teacher_members": [3],
            "affected_student_constituents": [1, 2],
            "reverted_to": ["teacher:3:1:1@1", "student:1:2:1@1",
                            "student:2:0:0@0"],
            "chunks_relabeled": [[2, 1], [2, 2]],
            "teacher_steps": 354, "student_steps": 1676,
            "relabel_inference": 180}),
        # student (1, 1, 2) comes before teacher 2's chunk (1, 2): one replay
        # of constituent 1 from the earlier start covers both sides
        "misaligned_one_constituent": (("simultaneous", 65), {
            "affected_teacher_members": [2], "affected_student_constituents": [1],
            "reverted_to": ["teacher:2:0:0@0", "student:1:1:1@1"],
            "chunks_relabeled": [[1, 2]],
            "teacher_steps": 528, "student_steps": 1068,
            "relabel_inference": 120}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_is_pinned(self, system_factory, case):
        (kind, pid), expected = self.CASES[case]
        system = system_factory()
        _, report = apply_request(system, UnlearnRequest(7, kind, pid))
        doc = json.loads(json.dumps(asdict(report)))  # as unlearn_reports.jsonl has it
        del doc["wall_time"]
        assert doc == {"request_id": 7, "kind": kind, "point_id": pid, **expected}


class TestMissingPoint:
    def _state(self, system):
        return (system.teacher.plan.raw_slices(), system.student.plan.raw_slices(),
                {key: (chunk.point_ids, chunk.probs.tobytes())
                 for key, chunk in system.student.soft_labels.items()},
                {key: system.store.latest_generation(key)
                 for key in system.store.keys()})

    @pytest.mark.parametrize("kind", ["student_point", "teacher_point",
                                      "simultaneous"])
    def test_rejected_before_any_change(self, system_factory, kind):
        system = system_factory()
        state = self._state(system)
        with pytest.raises(NotFoundError):
            apply_request(system, UnlearnRequest(1, kind, 10_000))
        assert self._state(system) == state

    @pytest.mark.parametrize("gone_from", ["student_point", "teacher_point"])
    def test_simultaneous_needs_both_sides(self, system_factory, gone_from):
        """A point already removed from one side is refused as a whole."""
        system = system_factory()
        pid = system.student.plan.slice_ids(1, 2, 1)[0]
        apply_request(system, UnlearnRequest(1, gone_from, pid))
        state = self._state(system)
        with pytest.raises(NotFoundError):
            apply_request(system, UnlearnRequest(2, "simultaneous", pid))
        assert self._state(system) == state

    def test_separate_datasets_refused(self, separate_system):
        """Id 5 is in both partitions but names two different points, so a
        simultaneous request is refused before anything changes."""
        system = separate_system
        assert 5 in system.student.plan and 5 in system.teacher.plan
        state = self._state(system)
        with pytest.raises(NotFoundError):
            apply_request(system, UnlearnRequest(1, "simultaneous", 5))
        assert self._state(system) == state


class TestSequentialStreams:
    def test_mixed_stream_all_verified(self, system_factory):
        """Eight mixed requests in sequence, each verified against scratch."""
        system = system_factory()
        requests = generate_requests(
            system, 8,
            {"student_point": 2, "teacher_point": 1, "simultaneous": 1},
            seed=21)
        for request in requests:
            before = snapshot(system)
            _, report = apply_request(system, request)
            verdict = verify_exactness(before, request, system)
            assert verdict.passed, (request, verdict.failures)

    @pytest.mark.parametrize("kind,hidden", [("softmax_linear", None),
                                             ("one_hidden_layer", 16)])
    def test_mixed_stream_verified_at_realistic_shape(self, system_factory,
                                                      kind, hidden):
        """d=32, K=10 and 1000 points: wide enough that a batch-shape
        dependent inference kernel would make cached and fresh labels differ."""
        dataset = gen_synthetic(SyntheticSpec(num_classes=10, points_per_class=100,
                                              feature_dim=32, seed=13))
        system = system_factory(dataset=dataset, arch_kind=kind, hidden=hidden,
                                e_prime=2)
        requests = generate_requests(
            system, 12,
            {"student_point": 1, "teacher_point": 1, "simultaneous": 1}, seed=3)
        for request in requests:
            before = snapshot(system)
            apply_request(system, request)
            verdict = verify_exactness(before, request, system)
            assert verdict.passed, (request, verdict.failures)

    def test_benchmark_shape_stream_verified_across_a_reload(self, tmp_path):
        """The medium shape the benchmark runs, built directly: d = 32,
        K = 10, one hidden layer of 32 units, 4 constituents of 4 chunks of
        1,250 points, purge mode. Eight requests of every kind, aligned and
        misaligned simultaneous ones included, each verified against a
        scratch retrain, with a save and load after the fourth."""
        dataset = gen_synthetic(SyntheticSpec(num_classes=10, points_per_class=2000,
                                              feature_dim=32, seed=1))
        arch = ModelArch("one_hidden_layer", 32, 10, 32)
        system = train_system(
            student_dataset=dataset, teacher_dataset=None, teacher_members=16,
            teacher_slices=4, student_constituents=4, slices_per_chunk=4,
            mode="purge", e_prime=10, teacher_arch=arch, student_arch=arch,
            teacher_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=2),
            student_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=3),
            store=CheckpointStore(tmp_path / "ckpt"), seed=1)
        assert {len(system.student.plan.chunk_ids(k, l))
                for k in range(1, 5) for l in range(1, 5)} == {1250}
        requests = generate_requests(
            system, 8, {"student_point": 2, "teacher_point": 2,
                        "simultaneous_aligned": 2, "simultaneous_misaligned": 2}, seed=3)
        aligned = [is_aligned(system, r.point_id) for r in requests
                   if r.kind == "simultaneous"]
        assert sorted(aligned) == [False, False, True, True]
        for n, request in enumerate(requests, start=1):
            before = snapshot(system)
            apply_request(system, request)
            verdict = verify_exactness(before, request, system)
            assert verdict.passed, (request, verdict.failures)
            if n == 4:
                save_manifest(system, tmp_path / "system.json", "ckpt")
                system = load_system(tmp_path / "system.json")

    def test_report_steps_match_ledger_increments(self, system_factory):
        system = system_factory()
        requests = generate_requests(
            system, 6, {"student_point": 1, "teacher_point": 1}, seed=33)
        for request in requests:
            t_before = system.ledger.total(phase="teacher_retrain")
            s_before = system.ledger.total(phase="student_retrain")
            _, report = apply_request(system, request)
            assert system.ledger.total(phase="teacher_retrain") - t_before == \
                report.teacher_steps
            assert system.ledger.total(phase="student_retrain") - s_before == \
                report.student_steps


class TestVerificationOracle:
    def test_detects_tampering(self, system_factory):
        """A corrupted parameter after unlearning must fail verification."""
        system = system_factory()
        victim = system.student.plan.slice_ids(1, 1, 1)[0]
        before = snapshot(system)
        request = UnlearnRequest(1, "student_point", victim)
        apply_request(system, request)
        system.student.constituents[0].params[3] += 1e-9
        verdict = verify_exactness(before, request, system)
        assert not verdict.passed
        assert verdict.max_param_diff > 0

    def test_detects_missed_removal(self, system_factory):
        """Verification fails if the state was never actually retrained."""
        system = system_factory()
        victim = system.student.plan.slice_ids(2, 2, 1)[0]
        before = snapshot(system)
        request = UnlearnRequest(1, "student_point", victim)
        # fake it: drop the point and its label but keep the old parameters
        system.student.remove(victim)
        verdict = verify_exactness(before, request, system)
        assert not verdict.passed

    def test_detects_stale_label_rows(self, system_factory):
        """Labels still holding a row for a point the plan dropped are
        flagged, not sliced one row off."""
        system = system_factory()
        victim = system.student.plan.slice_ids(2, 1, 1)[0]
        before = snapshot(system)
        request = UnlearnRequest(1, "student_point", victim)
        system.student.plan.remove(victim)  # the label row stays
        verdict = verify_exactness(before, request, system)
        n = len(system.student.plan.shard_rows(2))
        assert f"constituent 2: {n + 1} cached label rows for {n} shard rows" \
            in verdict.failures

    def test_keeps_no_checkpoint(self, system_factory, monkeypatch):
        """Verification retrains into no store: it saves no checkpoint and
        makes no temporary directory."""
        system = system_factory()
        victim = system.teacher.plan.slice_ids(1, 1, 1)[0]
        before = snapshot(system)
        request = UnlearnRequest(1, "teacher_point", victim)
        apply_request(system, request)
        saves, dirs = [], []
        real_save, real_mkdtemp = CheckpointStore.save, tempfile.mkdtemp

        def save(store, key, record):
            saves.append(key)
            return real_save(store, key, record)

        def mkdtemp(*args, **kwargs):
            dirs.append(args)
            return real_mkdtemp(*args, **kwargs)

        monkeypatch.setattr(CheckpointStore, "save", save)
        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
        log_size = system.store.log.stat().st_size
        verdict = verify_exactness(before, request, system)
        assert verdict.passed
        assert verdict.checked_teacher_members == (1,)
        assert verdict.checked_student_constituents == (1,)
        assert saves == [] and dirs == []
        assert system.store.log.stat().st_size == log_size


class TestRevertAcrossChunks:
    def test_first_round_of_a_chunk_replays_from_the_chunk_before(
            self, small_dataset, tmp_path):
        """Mapping sizes [3, 1] with uneven nested slice counts: a point in
        the first slice of chunk 3 reverts constituent 1 to the last slice
        of chunk 2, and the replay equals a scratch retrain."""
        arch = ModelArch("softmax_linear", 5, 3)
        system = train_system(
            student_dataset=small_dataset, teacher_dataset=None,
            teacher_members=4, teacher_slices=2, student_constituents=2,
            slices_per_chunk=[[2, 1, 3], [4]], mode="purge", e_prime=8,
            teacher_arch=arch, student_arch=arch,
            teacher_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=1),
            student_hyper=TrainHyper(learning_rate=0.1, batch_size=32, seed=2),
            store=CheckpointStore(tmp_path / "uneven"), seed=11,
            mapping_sizes=[3, 1])
        before = snapshot(system)
        request = UnlearnRequest(1, "student_point",
                                 system.student.plan.slice_ids(1, 3, 1)[0])
        _, report = apply_request(system, request)
        assert report.reverted_to == ("student:1:2:1@1",)
        assert verify_exactness(before, request, system).passed
