"""Checkpoint binary format, the on-disk log store, generations, pruning and
the crash rule."""

import struct
import zlib

import numpy as np
import pytest

from purgekd import (CheckpointKey, CheckpointStore, CostLedger, ModelArch,
                     ModelState, NotFoundError, StorageError, init_model,
                     make_partition)
from purgekd.checkpoints import (decode_record, encode_record, retrain,
                                 revert_and_replay, revert_key)


FRAME_HEAD = 8  # payload length and CRC-32 before every record


def _random_state(rng):
    """A random key and a random state of a random architecture."""
    kind = "one_hidden_layer" if rng.integers(2) else "softmax_linear"
    hidden = int(rng.integers(2, 17)) if kind == "one_hidden_layer" else None
    arch = ModelArch(kind, int(rng.integers(1, 33)), int(rng.integers(2, 12)),
                     hidden)
    state = init_model(arch, seed=int(rng.integers(1 << 62)))
    state.params[:] = rng.normal(size=arch.param_count) * rng.uniform(0.1, 1e6)
    state.rng_cursor = int(rng.integers(0, 1 << 40))
    key = CheckpointKey(
        role="teacher" if rng.integers(2) else "student",
        k=int(rng.integers(1, 100)), l=int(rng.integers(1, 50)),
        j=int(rng.integers(1, 50)))
    return key, state


class TestKey:
    def test_init_sentinel(self):
        key = CheckpointKey("teacher", 3, 0, 0)
        assert str(key) == "teacher:3:0:0"

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointKey("oracle", 1, 1, 1)
        with pytest.raises(ValueError):
            CheckpointKey("teacher", 0, 1, 1)
        with pytest.raises(ValueError):
            CheckpointKey("teacher", 1, 0, 1)  # l=0 only with j=0


class TestRevertKey:
    def test_teacher(self, small_dataset):
        plan = make_partition(small_dataset, [[3]] * 4, seed=1)
        assert revert_key("teacher", plan, 2, 1, 1) == CheckpointKey("teacher", 2, 0, 0)
        assert revert_key("teacher", plan, 2, 1, 3) == CheckpointKey("teacher", 2, 1, 2)

    def test_student_steps_back_across_uneven_chunks(self, small_dataset):
        """Mapping sizes [3, 1]: constituent 1 has chunks of 2, 1 and 3
        slices, constituent 2 one chunk of 4; the first round of a chunk
        reverts to the last slice of the chunk before it."""
        plan = make_partition(small_dataset, [[2, 1, 3], [4]], seed=1)
        expected = {(1, 1, 1): (0, 0), (1, 1, 2): (1, 1), (1, 2, 1): (1, 2),
                    (1, 3, 1): (2, 1), (1, 3, 3): (3, 2), (2, 1, 1): (0, 0),
                    (2, 1, 4): (1, 3)}
        for (k, l, j), (prev_l, prev_j) in expected.items():
            assert revert_key("student", plan, k, l, j) == \
                CheckpointKey("student", k, prev_l, prev_j)

    def test_every_round_reverts_to_the_round_before(self, small_dataset):
        plan = make_partition(small_dataset, [[2, 1, 3], [4]], seed=1)
        for k in (1, 2):
            rounds = [(0, 0)] + [(l, j) for l in range(1, plan.chunks_in_shard(k) + 1)
                                 for j in range(1, plan.slices_in_chunk(k, l) + 1)]
            for before, (l, j) in zip(rounds, rounds[1:]):
                assert revert_key("student", plan, k, l, j) == \
                    CheckpointKey("student", k, *before)


class TestLifecycle:
    @pytest.mark.parametrize("role", ["teacher", "student"])
    def test_revert_and_replay_from_every_round_equals_retrain(self, small_system,
                                                               role):
        """Both roles run one lifecycle: reverting model k to before any of
        its rounds and replaying gives the state a scratch retrain gives,
        and a retrain without a store saves nothing. The initial state is
        derived, not loaded, and named with generation 0."""
        net, store = getattr(small_system, role), small_system.store
        log = store.root / "store.log"
        for k in range(1, net.plan.num_shards + 1):
            size, count = log.stat().st_size, store.storage_report().total_count
            ledger = CostLedger()
            scratch, = retrain(net, [k], None, ledger, "initial_train")
            assert (log.stat().st_size, store.storage_report().total_count) == \
                (size, count)
            held = (net.members if role == "teacher" else net.constituents)[k - 1]
            assert scratch.params.tobytes() == held.params.tobytes()
            rounds = [(l, j) for l in range(1, net.plan.chunks_in_shard(k) + 1)
                      for j in range(1, net.plan.slices_in_chunk(k, l) + 1)]
            round_steps = [e.steps for e in ledger.entries]
            assert len(round_steps) == len(rounds)
            for n, (l, j) in enumerate(rounds):
                state, steps, reverted = revert_and_replay(
                    net, k, l, j, store, CostLedger(), f"{role}_retrain")
                key = revert_key(role, net.plan, k, l, j)
                generation = 0 if key.l == 0 else store.latest_generation(key)
                assert reverted == f"{key}@{generation}"
                assert steps == sum(round_steps[n:])
                assert state.params.tobytes() == scratch.params.tobytes()
                assert state.rng_cursor == scratch.rng_cursor

    @pytest.mark.parametrize("role", ["teacher", "student"])
    def test_first_round_replays_from_the_seed(self, small_system, role, tmp_path):
        """Replaying from round (1, 1) needs no stored initial state: on an
        empty store it gives what a retrain gives, names ``key@0`` and
        stores one checkpoint per round only."""
        net = getattr(small_system, role)
        for k in range(1, net.plan.num_shards + 1):
            store = CheckpointStore(tmp_path / f"{role}{k}")
            scratch, = retrain(net, [k], None, CostLedger(), "initial_train")
            state, _, reverted = revert_and_replay(net, k, 1, 1, store, CostLedger(),
                                                   f"{role}_retrain")
            assert reverted == f"{role}:{k}:0:0@0"
            assert state.params.tobytes() == scratch.params.tobytes()
            assert state.rng_cursor == scratch.rng_cursor
            assert all(key.l > 0 for key in store.keys())
            assert len(store.keys()) == net.plan.total_slices_in_shard(k)


class TestBinaryRoundTrip:
    def test_roundtrip_bit_exact(self):
        """1000 random states survive encode/decode with zero drift."""
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            key, state = _random_state(rng)
            generation = int(rng.integers(1, 1 << 20))
            back = decode_record(encode_record(key, generation, state))
            assert (back.key, back.generation) == (key, generation)
            assert back.state.arch == state.arch
            assert back.state.rng_cursor == state.rng_cursor
            assert back.state.params.dtype == np.float64
            np.testing.assert_array_equal(back.state.params, state.params)

    def test_special_float_values(self):
        rng = np.random.default_rng(5)
        key, state = _random_state(rng)
        state.params[0] = 0.0
        state.params[1] = -0.0
        if state.params.size > 4:
            state.params[2] = np.finfo(np.float64).tiny
            state.params[3] = np.finfo(np.float64).max
        back = decode_record(encode_record(key, 1, state)).state
        np.testing.assert_array_equal(
            np.signbit(back.params), np.signbit(state.params))
        np.testing.assert_array_equal(back.params, state.params)

    def test_bad_magic_rejected(self):
        rng = np.random.default_rng(6)
        key, state = _random_state(rng)
        blob = bytearray(encode_record(key, 1, state))
        blob[0:4] = b"XXXX"
        with pytest.raises(StorageError):
            decode_record(bytes(blob))

    def test_truncation_rejected(self):
        rng = np.random.default_rng(7)
        key, state = _random_state(rng)
        blob = encode_record(key, 1, state)
        with pytest.raises(StorageError):
            decode_record(blob[:-3])


class TestStore:
    def test_save_load(self, tmp_path):
        """save returns the caller's state under its key and generation;
        load returns a state that owns its parameters."""
        rng = np.random.default_rng(8)
        store = CheckpointStore(tmp_path / "s")
        key, state = _random_state(rng)
        saved = store.save(key, state)
        assert (saved.key, saved.state, saved.generation) == (key, state, 1)
        assert (tmp_path / "s" / "store.log").stat().st_size == FRAME_HEAD + saved.byte_size
        back = store.load(key)
        np.testing.assert_array_equal(back.state.params, state.params)
        assert back.byte_size == saved.byte_size
        back.state.params[0] += 1.0  # writable, and no longer the stored bytes
        np.testing.assert_array_equal(store.load(key).state.params, state.params)

    def test_generations_bump_and_coexist(self, tmp_path):
        rng = np.random.default_rng(9)
        store = CheckpointStore(tmp_path / "s")
        key, state = _random_state(rng)
        first = store.save(key, state)
        state2 = ModelState(state.arch, state.params * 2.0, state.rng_cursor + 1)
        second = store.save(key, state2)
        assert (first.generation, second.generation) == (1, 2)
        np.testing.assert_array_equal(store.load(key).state.params, state2.params)
        np.testing.assert_array_equal(
            store.load(key, generation=1).state.params, state.params)

    def test_missing_key(self, tmp_path):
        store = CheckpointStore(tmp_path / "s")
        with pytest.raises(NotFoundError):
            store.load(CheckpointKey("teacher", 1, 1, 1))

    def test_reopen_preserves_index(self, tmp_path):
        """A fresh store object over the same root sees everything."""
        rng = np.random.default_rng(10)
        store = CheckpointStore(tmp_path / "s")
        saved = [_random_state(rng) for _ in range(12)]
        for key, state in saved:
            store.save(key, state)
        reopened = CheckpointStore(tmp_path / "s")
        for key, _ in saved:
            np.testing.assert_array_equal(
                reopened.load(key, generation=reopened.latest_generation(key)).state.params,
                store.load(key, generation=store.latest_generation(key)).state.params)

    def test_storage_report_matches_filesystem(self, tmp_path):
        rng = np.random.default_rng(11)
        root = tmp_path / "s"
        store = CheckpointStore(root)
        for _ in range(10):
            store.save(*_random_state(rng))
        report = store.storage_report()
        assert report.total_count == 10
        assert (root / "store.log").stat().st_size == \
            report.total_bytes + FRAME_HEAD * report.total_count

    def test_prune_keeps_latest_generation(self, tmp_path):
        rng = np.random.default_rng(12)
        store = CheckpointStore(tmp_path / "s")
        key, state = _random_state(rng)
        store.save(key, state)
        newer = ModelState(state.arch, state.params + 1.0, 9)
        store.save(key, newer)
        store.save(*_random_state(rng))

        removed = store.prune()
        assert removed == 1
        np.testing.assert_array_equal(store.load(key).state.params, newer.params)
        with pytest.raises(NotFoundError):
            store.load(key, generation=1)
        assert store.storage_report().total_count == 2

    def test_prune_drops_initial_state_records(self, tmp_path):
        """A log written when initial states were stored under (role, k, 0, 0)
        loses those records at its next prune; nothing reads them any more."""
        rng = np.random.default_rng(14)
        root = tmp_path / "s"
        store = CheckpointStore(root)
        key, state = _random_state(rng)
        init = CheckpointKey(key.role, key.k, 0, 0)
        store.save(init, state)
        store.save(key, state)
        assert store.prune() == 1
        assert store.keys() == [key]
        assert CheckpointStore(root).keys() == [key]
        assert (root / "store.log").stat().st_size == \
            store.storage_report().total_bytes + FRAME_HEAD
        assert store.prune() == 0

    def test_keys_by_role(self, tmp_path):
        store = CheckpointStore(tmp_path / "s")
        arch = ModelArch("softmax_linear", 3, 2)
        for role, k in [("teacher", 1), ("teacher", 2), ("student", 1)]:
            store.save(CheckpointKey(role, k, 1, 1), init_model(arch, seed=k))
        assert {key.k for key in store.keys("teacher")} == {1, 2}
        assert {key.k for key in store.keys("student")} == {1}


def _fill(store, rng, count):
    """Save count random states, some keys several times; returns
    {(key, generation): params} of everything saved."""
    saved, keys = {}, []
    for _ in range(count):
        key, state = _random_state(rng)
        if keys and rng.integers(3) == 0:
            key, arch = keys[int(rng.integers(len(keys)))]
            state = ModelState(arch, rng.normal(size=arch.param_count),
                               int(rng.integers(1 << 40)))
        else:
            keys.append((key, state.arch))
        out = store.save(key, state)
        saved[(out.key, out.generation)] = out.state.params.copy()
    return saved


def _assert_holds(store, saved):
    assert store.storage_report().total_count == len(saved)
    for (key, generation), params in saved.items():
        np.testing.assert_array_equal(store.load(key, generation).state.params, params)


def _frame_starts(log):
    data = log.read_bytes()
    starts, off = [], 0
    while off < len(data):
        starts.append(off)
        off += FRAME_HEAD + struct.unpack_from("<I", data, off)[0]
    return starts


class TestLog:
    def test_one_file_per_store(self, tmp_path):
        root = tmp_path / "s"
        saved = _fill(CheckpointStore(root), np.random.default_rng(20), 100)
        assert len({key for key, _ in saved}) < len(saved)  # generations > 1
        assert [p.name for p in root.iterdir()] == ["store.log"]
        _assert_holds(CheckpointStore(root), saved)

    @pytest.mark.parametrize("damage", ["cut", "zeroed"])
    def test_torn_final_frame_is_dropped(self, tmp_path, damage):
        rng = np.random.default_rng(21)
        root = tmp_path / "s"
        saved = _fill(CheckpointStore(root), rng, 12)
        log = root / "store.log"
        intact = log.read_bytes()
        last = _frame_starts(log)[-1]
        if damage == "cut":  # a final append that stopped mid-payload
            log.write_bytes(intact[:last + FRAME_HEAD + 30])
        else:  # the file grew but the final frame's data never landed
            log.write_bytes(intact[:last] + bytes(len(intact) - last))
        damaged = log.read_bytes()
        key, generation = list(saved)[-1]
        del saved[(key, generation)]

        reopened = CheckpointStore(root)
        assert log.read_bytes() == damaged  # opening writes nothing
        _assert_holds(reopened, saved)
        assert reopened.latest_generation(key) != generation

        saved.update(_fill(reopened, rng, 3))
        report = reopened.storage_report()  # the torn frame was truncated
        assert log.stat().st_size == report.total_bytes + FRAME_HEAD * report.total_count
        _assert_holds(CheckpointStore(root), saved)

    def test_corrupt_middle_frame_raises(self, tmp_path):
        root = tmp_path / "s"
        _fill(CheckpointStore(root), np.random.default_rng(22), 12)
        log = root / "store.log"
        data = bytearray(log.read_bytes())
        data[_frame_starts(log)[5] + FRAME_HEAD + 50] ^= 0x01
        log.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="corrupt frame"):
            CheckpointStore(root)

    def test_prune_compacts(self, tmp_path):
        rng = np.random.default_rng(23)
        root = tmp_path / "s"
        store = CheckpointStore(root)
        key, state = _random_state(rng)
        old = store.save(key, state)
        old_bytes = old.state.params.astype("<f8").tobytes()
        _fill(store, rng, 20)
        store.save(key, ModelState(state.arch, state.params + 1.0, 3))
        log = root / "store.log"
        assert old_bytes in log.read_bytes()
        before = log.stat().st_size

        removed = store.prune()
        assert removed >= 1
        assert old_bytes not in log.read_bytes()
        assert log.stat().st_size < before
        assert [p.name for p in root.iterdir()] == ["store.log"]
        report = store.storage_report()
        assert log.stat().st_size == report.total_bytes + FRAME_HEAD * report.total_count

        reopened = CheckpointStore(root)
        assert reopened.keys() == store.keys()
        assert reopened.storage_report() == report
        for key in store.keys():
            generation = store.latest_generation(key)
            assert reopened.latest_generation(key) == generation
            np.testing.assert_array_equal(reopened.load(key).state.params,
                                          store.load(key, generation).state.params)
        more = _fill(reopened, rng, 2)  # the compacted log takes appends
        for key in {key for key, _ in more}:  # _fill may save a key twice
            start = store.latest_generation(key) or 0
            generations = sorted(g for k, g in more if k == key)
            assert generations == list(range(start + 1, start + 1 + len(generations)))

    def test_old_layout_refused(self, tmp_path):
        root = tmp_path / "s"
        (root / "teacher" / "1" / "1" / "1").mkdir(parents=True)
        (root / "teacher" / "1" / "1" / "1" / "1.ckpt").write_bytes(b"PKC1")
        with pytest.raises(StorageError, match="layout"):
            CheckpointStore(root)

    def test_version_1_log_refused(self, tmp_path):
        """A log of the earlier record format (which held label provenance)
        is refused with a message that names the version."""
        root = tmp_path / "s"
        root.mkdir()
        v1_header = struct.Struct("<4sIBIIIIBIIIQIQ")
        payload = v1_header.pack(b"PKC1", 1, 0, 1, 1, 1, 1, 0, 5, 3, 0, 0, 0, 18) \
            + np.zeros(18).tobytes()
        (root / "store.log").write_bytes(
            struct.pack("<II", len(payload), zlib.crc32(payload)) + payload)
        with pytest.raises(StorageError, match=r"version 1\b.*retrain"):
            CheckpointStore(root)
        with pytest.raises(StorageError, match=r"version 1\b.*retrain"):
            decode_record(payload)

    def test_second_writer_refused(self, tmp_path):
        rng = np.random.default_rng(24)
        first = CheckpointStore(tmp_path / "s")
        _fill(first, rng, 2)
        second = CheckpointStore(tmp_path / "s")
        _fill(second, rng, 1)
        with pytest.raises(StorageError, match="one writing process"):
            first.save(*_random_state(rng))
        _assert_holds(CheckpointStore(tmp_path / "s"),
                      {(k, g): second.load(k, g).state.params
                       for k in second.keys()
                       for g in range(1, second.latest_generation(k) + 1)})
