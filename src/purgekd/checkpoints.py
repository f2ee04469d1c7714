"""Lossless on-disk persistence of model states, and the one checkpointed
lifecycle of both roles. The store takes and returns states: ``save(key,
state)`` and ``load`` give a ``CheckpointRecord``, the state with its key,
generation and encoded size. ``retrain`` runs several models' slice rounds
from their seeded initial states: it groups the models whose rounds have
equal sizes and epochs and trains each group in lockstep, one
``model.train_stack`` call per round, writing checkpoints and ledger rows in
the order one-at-a-time training writes them. ``revert_and_replay`` runs one
model from the checkpoint ``revert_key`` names, through ``replay``, one
``run_round`` per round. A role (``TeacherEnsemble``, ``StudentNetwork``)
supplies ``role``, ``seed_domain``, ``rounds`` (its model's rounds, each
with its soft targets, after any check of the data they read) and
``run_round`` (one round trained, accounted and checkpointed); a round's
other arrays come from ``gather_round``. The
initial state is never stored: its seed fixes it, so ``(role, k, 0, 0)``
only names it, and a revert to it reports generation 0. A numpy that draws
other initial values fails the manifest's kernel fingerprint, whose probe
starts from ``init_model``, so its load is refused.

Layout: one append-only log, ``<root>/store.log``. Saving a logical key again
appends its record under the next generation; ``prune`` compacts the log to
the latest generation of every round key (``system.save_manifest`` calls it
at every commit) and drops any initial-state record an older log still
holds. The index (key -> generation -> frame offset and size) lives in
memory; opening a store rebuilds it in one pass over the log.

Frame, little-endian: payload length (uint32), CRC-32 of the payload
(uint32, zlib), then the payload, which is one encoded record.

Record encoding, all little-endian: magic ``PKC1``, format version, key
fields, architecture descriptor, rng cursor, then the parameter vector as
raw IEEE-754 binary64 (bit-exact roundtrip). A record holds a model state
only; which teachers labeled a student's chunks follows from the mode and
the mapping in the manifest. A log of an earlier format version is refused
(retrain to rebuild it).

Crash rule: a save is one append and nothing calls fsync, so a killed process
leaves at most a failing final frame (cut short, or zero-filled where the
file grew but its data never reached the disk). Opening the store ignores
that frame and writes nothing; the next save truncates it before appending.
A failing frame with a valid frame after it is corruption and raises
StorageError. A compaction writes a temporary log and renames it over the old
one, so a kill leaves the old log whole, plus at most the temporary file,
which the next compaction replaces.

One writing process per store at a time: a store appends at the end of the
log as it last saw it, and a save or prune refuses a log whose size changed
under it.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import model
from .costmodel import CostLedger
from .errors import NotFoundError, StorageError
from .model import ModelArch, ModelState, init_model, mix_seed, stream_hyper

MAGIC = b"PKC1"
VERSION = 2
ROLES = ("teacher", "student")
LOG_NAME = "store.log"

# magic, version, role, k, l, j, generation, arch kind, feature_dim,
# num_classes, hidden_units, rng_cursor, param count
_HEADER = struct.Struct("<4sIBIIIIBIIIQQ")
_FRAME = struct.Struct("<II")  # payload length, CRC-32 of the payload


@dataclass(frozen=True)
class CheckpointKey:
    """Logical address of a state: role, constituent k, chunk l, slice j.

    (l, j) = (0, 0) names the seeded initial state, which is derived, never
    stored; teacher keys use l = 1 since teachers have a single chunk.
    """

    role: str
    k: int
    l: int
    j: int

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.k < 1 or self.l < 0 or self.j < 0:
            raise ValueError("invalid checkpoint coordinates")
        if (self.l == 0) != (self.j == 0):
            raise ValueError("(l, j) = (0, 0) is the only zero coordinate form")

    def __str__(self) -> str:
        return f"{self.role}:{self.k}:{self.l}:{self.j}"


@dataclass(frozen=True)
class CheckpointRecord:
    key: CheckpointKey
    state: ModelState
    generation: int
    byte_size: int


def revert_key(role: str, plan, k: int, l: int, j: int) -> CheckpointKey:
    """Key of the checkpoint saved just before round (l, j) of shard k: the
    previous slice of chunk l, else the last slice of chunk l - 1, else the
    initial state."""
    if j > 1:
        return CheckpointKey(role, k, l, j - 1)
    if l > 1:
        return CheckpointKey(role, k, l - 1, plan.slices_in_chunk(k, l - 1))
    return CheckpointKey(role, k, 0, 0)


class Round(NamedTuple):
    """Round (l, j) of one model and its soft targets, one row per example:
    the round trains on the first len(targets) rows of the model's shard."""
    l: int
    j: int
    targets: np.ndarray


def plan_rounds(plan, k: int, targets: np.ndarray) -> list[Round]:
    """Rounds of shard k of plan, in training order, each with its prefix
    view of targets, the soft targets of the whole shard in plan order.
    The views share targets' memory, which lives as long as the rounds."""
    return [Round(l, j, targets[:plan.chunk_bounds(k, l)[j]])
            for l in range(1, plan.chunks_in_shard(k) + 1)
            for j in range(1, plan.slices_in_chunk(k, l) + 1)]


def gather_round(plan, dataset, k: int, targets: np.ndarray) -> tuple:
    """(features, targets, hard labels) of the round of shard k whose soft
    targets are targets: its examples are the shard's first len(targets)
    rows in plan order, gathered by row index."""
    rows = plan.shard_rows(k)[:len(targets)]
    return dataset.features.take(rows, axis=0), targets, dataset.labels.take(rows)


def replay(net, state: ModelState, k: int, l: int, j: int,
           store: CheckpointStore | None, ledger: CostLedger, phase: str):
    """Run model k of net from state, the state before round (l, j), through
    its last round; each ``net.run_round`` trains, accounts its steps under
    phase and, unless store is None, checkpoints. Returns (state, steps)."""
    rounds, steps = net.rounds(k), 0
    epochs = net.budget.epochs_for(len(rounds))
    hyper_k = stream_hyper(net.hyper, net.seed_domain, k)
    for r in rounds:
        if (r.l, r.j) >= (l, j):
            state, n = net.run_round(state, k, r, epochs, hyper_k, store, ledger, phase)
            steps += n
    return state, steps


def _initial_state(net, k: int) -> ModelState:
    return init_model(net.arch, mix_seed(net.seed, net.seed_domain, k))


def retrain(net, ks, store: CheckpointStore | None, ledger: CostLedger,
            phase: str) -> list[ModelState]:
    """Models ks of net from their seeded initial states through every
    round, each bit for bit as ``replay`` would train it alone.

    Models whose rounds have equal sizes and epochs form a group that trains
    in lockstep: one ``model.train_stack`` call per round, handed each
    model's round as the rows ``gather_round`` would read, which the kernel
    gathers once, shuffled by the model's own stream. Each round's
    ledger row and checkpoint (none when store is None) are written in the
    order one-at-a-time training writes them, model by model in ks order and
    each model's rounds in order, so the store's log and the ledger do not
    depend on the grouping."""
    ks = list(ks)
    rounds, groups = {}, {}
    for k in ks:
        rounds[k] = net.rounds(k)
        sizes = tuple(len(r.targets) for r in rounds[k])
        groups.setdefault((sizes, net.budget.epochs_for(len(sizes))), []).append(k)
    trained, final = {}, {}
    for (sizes, epochs), group in groups.items():
        states = [_initial_state(net, k) for k in group]
        hypers = [stream_hyper(net.hyper, net.seed_domain, k) for k in group]
        history = []
        for r, n in enumerate(sizes):
            states = model.train_stack(
                states, ((net.dataset.features, rounds[k][r].targets, net.dataset.labels,
                          net.plan.shard_rows(k)[:n]) for k in group), epochs, hypers)
            history.append(states)
        for i, k in enumerate(group):
            trained[k] = [(n * epochs, stack[i]) for n, stack in zip(sizes, history)]
        while len(final) < len(ks) and ks[len(final)] in trained:
            k = ks[len(final)]
            for r, (steps, state) in zip(rounds[k], trained.pop(k)):
                ledger.add(phase, net.role, k, steps)
                if store is not None:
                    store.save(CheckpointKey(net.role, k, r.l, r.j), state)
            final[k] = state
    return [final[k] for k in ks]


def revert_and_replay(net, k: int, l: int, j: int, store: CheckpointStore,
                      ledger: CostLedger, phase: str):
    """Replay model k of net from the checkpoint saved just before round
    (l, j), or from its initial state before round (1, 1). Returns (state,
    steps, the checkpoint as ``key@generation``, generation 0 for the
    initial state)."""
    key = revert_key(net.role, net.plan, k, l, j)
    if key.l == 0:
        state, generation = _initial_state(net, k), 0
    else:
        record = store.load(key)
        state, generation = record.state, record.generation
    state, steps = replay(net, state, k, l, j, store, ledger, phase)
    return state, steps, f"{key}@{generation}"


def encode_record(key: CheckpointKey, generation: int, state: ModelState) -> bytes:
    arch = state.arch
    params = np.ascontiguousarray(state.params, dtype="<f8")
    head = _HEADER.pack(
        MAGIC, VERSION, ROLES.index(key.role), key.k, key.l, key.j, generation,
        ("softmax_linear", "one_hidden_layer").index(arch.kind),
        arch.feature_dim, arch.num_classes, arch.hidden_units or 0,
        state.rng_cursor, len(params))
    return head + params.tobytes()


def _version_error(version: int, where) -> StorageError:
    return StorageError(f"{where} holds checkpoint format version {version}, this "
                        f"program reads version {VERSION} only; retrain to rebuild it")


def decode_record(data: bytes) -> CheckpointRecord:
    if len(data) < _HEADER.size or data[:4] != MAGIC:
        raise StorageError("not a checkpoint record (bad magic)")
    (_, version, role_ix, k, l, j, gen, kind_ix, dim, classes, hidden,
     cursor, param_count) = _HEADER.unpack_from(data)
    if version != VERSION:
        raise _version_error(version, "record")
    arch = ModelArch(("softmax_linear", "one_hidden_layer")[kind_ix], dim, classes,
                     hidden or None)
    if len(data) != _HEADER.size + 8 * param_count or param_count != arch.param_count:
        raise StorageError("checkpoint truncated or inconsistent")
    # A copy: frombuffer is read-only, and a loaded state is the caller's to train.
    params = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).copy()
    return CheckpointRecord(CheckpointKey(ROLES[role_ix], k, l, j),
                            ModelState(arch, params, cursor), gen, len(data))


class StorageTotals(NamedTuple):
    total_count: int
    total_bytes: int


def _frame(data: bytes, off: int) -> int | None:
    """Payload size of the frame at off in data, or None when the frame is
    cut short, too small to hold a record header or fails its CRC."""
    start = off + _FRAME.size
    if start > len(data):
        return None
    size, crc = _FRAME.unpack_from(data, off)
    if size < _HEADER.size or start + size > len(data) \
            or zlib.crc32(data[start:start + size]) != crc:
        return None
    return size


def _valid_frame_after(data: bytes, off: int) -> bool:
    """Whether a valid frame starts anywhere after the frame at off. Every
    payload starts with MAGIC, so only those positions are candidates."""
    pos = data.find(MAGIC, off + _FRAME.size + 1)
    while pos != -1:
        if _frame(data, pos - _FRAME.size) is not None:
            return True
        pos = data.find(MAGIC, pos + 1)
    return False


class CheckpointStore:
    """Generation-tracked checkpoint records in one append-only log file."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.log = self.root / LOG_NAME
        # key -> {generation: (frame offset, payload size)}
        self._index: dict[CheckpointKey, dict[int, tuple[int, int]]] = {}
        self._end = 0  # end of the last valid frame
        self._size = 0  # size of the log as this store last read or wrote it
        try:
            data = self.log.read_bytes()
        except FileNotFoundError:
            if any((self.root / role).is_dir() for role in ROLES):
                raise StorageError(
                    f"{self.root} holds the earlier one-file-per-checkpoint layout, "
                    f"which is no longer read; stores are now one {LOG_NAME} file "
                    f"(retrain to rebuild it)") from None
            return
        except OSError as exc:
            raise StorageError(f"cannot read {self.log}: {exc}") from exc
        self._size = len(data)
        self._end = self._scan(data)

    def _scan(self, data: bytes) -> int:
        """Index every frame of the log; returns the end of the last valid one."""
        off = 0
        while off < len(data):
            size = _frame(data, off)
            if size is None:
                if _valid_frame_after(data, off):
                    raise StorageError(f"{self.log}: corrupt frame at byte {off}")
                return off  # a torn final frame
            magic, version, role_ix, k, l, j, generation = \
                _HEADER.unpack_from(data, off + _FRAME.size)[:7]
            if magic == MAGIC and version != VERSION:
                raise _version_error(version, self.log)
            try:
                if magic != MAGIC or role_ix >= len(ROLES):
                    raise ValueError("not a checkpoint record")
                key = CheckpointKey(ROLES[role_ix], k, l, j)
            except ValueError as exc:
                raise StorageError(f"{self.log}: bad record at byte {off}: {exc}") from None
            gens = self._index.setdefault(key, {})
            if generation in gens:
                raise StorageError(f"{self.log}: {key}@{generation} stored twice")
            gens[generation] = (off, size)
            off += _FRAME.size + size
        return off

    def _check_size(self, size: int) -> None:
        if size != self._size:
            raise StorageError(f"{self.log} changed since this store last read or "
                               f"wrote it; one writing process per store at a time")

    def save(self, key: CheckpointKey, state: ModelState) -> CheckpointRecord:
        """Append state under the next generation for this key; returns its
        record, which holds state itself (its bytes are in the log)."""
        generation = max(self._index.get(key, ()), default=0) + 1
        data = encode_record(key, generation, state)
        try:
            with open(self.log, "ab") as fh:
                self._check_size(fh.tell())
                if self._size != self._end:
                    fh.truncate(self._end)  # drop a torn final frame
                fh.write(_FRAME.pack(len(data), zlib.crc32(data)) + data)
        except OSError as exc:
            with contextlib.suppress(OSError):  # a partial frame is a torn one
                self._size = self.log.stat().st_size
            raise StorageError(f"cannot write checkpoint {key}: {exc}") from exc
        self._index.setdefault(key, {})[generation] = (self._end, len(data))
        self._end += _FRAME.size + len(data)
        self._size = self._end
        return CheckpointRecord(key, state, generation, len(data))

    def latest_generation(self, key: CheckpointKey) -> int | None:
        gens = self._index.get(key)
        return max(gens) if gens else None

    def load(self, key: CheckpointKey, generation: int | None = None) -> CheckpointRecord:
        gens = self._index.get(key)
        if not gens:
            raise NotFoundError(f"no checkpoint stored for {key}")
        if generation is None:
            generation = max(gens)
        elif generation not in gens:
            raise NotFoundError(f"no generation {generation} for {key}")
        off, size = gens[generation]
        try:
            with open(self.log, "rb") as fh:
                fh.seek(off)
                frame = fh.read(_FRAME.size + size)
        except OSError as exc:
            raise StorageError(f"cannot read checkpoint {key}: {exc}") from exc
        if _frame(frame, 0) != size:
            raise StorageError(f"checkpoint {key}@{generation} fails its frame check")
        record = decode_record(frame[_FRAME.size:])
        if (record.key, record.generation) != (key, generation):
            raise StorageError(f"checkpoint frame for {key}@{generation} contains "
                               f"{record.key}@{record.generation}")
        return record

    def keys(self, role: str | None = None) -> list[CheckpointKey]:
        return sorted((k for k in self._index if role is None or k.role == role),
                      key=lambda k: (k.role, k.k, k.l, k.j))

    def storage_report(self) -> StorageTotals:
        """Record count and encoded record bytes (frame headers aside), all
        generations."""
        gens = [size for g in self._index.values() for _, size in g.values()]
        return StorageTotals(len(gens), sum(gens))

    def prune(self) -> int:
        """Compact the log to the latest generation of every round key, so
        superseded bytes leave the disk, and so do initial-state records
        under ``(role, k, 0, 0)``, which logs written before initial states
        were derived from their seeds still hold; returns the number of
        records removed. A log with none to remove is neither read nor
        written."""
        if all(key.l and len(gens) == 1 for key, gens in self._index.items()):
            return 0
        try:
            data = self.log.read_bytes()
        except OSError as exc:
            raise StorageError(f"cannot read {self.log}: {exc}") from exc
        self._check_size(len(data))
        latest = sorted(((gens[max(gens)], key, max(gens))
                         for key, gens in self._index.items() if key.l),
                        key=lambda t: t[0])
        index, frames, end = {}, [], 0
        for (off, size), key, generation in latest:
            frames.append(data[off:off + _FRAME.size + size])
            index[key] = {generation: (end, size)}
            end += _FRAME.size + size
        tmp = self.log.with_name(LOG_NAME + ".tmp")
        try:
            tmp.write_bytes(b"".join(frames))
            os.replace(tmp, self.log)
        except OSError as exc:
            raise StorageError(f"cannot compact {self.log}: {exc}") from exc
        finally:
            tmp.unlink(missing_ok=True)  # left only by a failed write or rename
        removed = sum(len(gens) for gens in self._index.values()) - len(index)
        self._index, self._end, self._size = index, end, end
        return removed
