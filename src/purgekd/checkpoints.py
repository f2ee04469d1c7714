"""Lossless on-disk persistence of model states.

Layout: ``<root>/<role>/<k>/<l>/<j>/<generation>.ckpt``, one record per
file. Overwriting a logical key bumps the generation; superseded files are
kept until prune() is called explicitly.

Record encoding, all little-endian: magic ``PKC1``, format version, key
fields, architecture descriptor, rng cursor, the label-provenance snapshot
(for a student key (k, l, j): the teacher ids of chunks 1..l, so it depends
on the key alone), then the parameter vector as raw IEEE-754 binary64
(bit-exact roundtrip).
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NotFoundError, StorageError
from .model import ModelArch, ModelState

MAGIC = b"PKC1"
VERSION = 1
ROLES = ("teacher", "student")

# magic, version, role, k, l, j, generation, arch kind, feature_dim,
# num_classes, hidden_units, rng_cursor, provenance entry count, param count
_HEADER = struct.Struct("<4sIBIIIIBIIIQIQ")
_PROV_HEAD = struct.Struct("<II")


@dataclass(frozen=True)
class CheckpointKey:
    """Logical address of a state: role, constituent k, chunk l, slice j.

    (l, j) = (0, 0) addresses the freshly initialized state; teacher keys use
    l = 1 since teachers have a single chunk.
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


@dataclass
class CheckpointRecord:
    key: CheckpointKey
    arch: ModelArch
    params: np.ndarray
    rng_cursor: int
    provenance: tuple = ()  # ((chunk, (teacher ids...)), ...) of chunks 1..l
    generation: int = 0
    byte_size: int = 0


def state_record(key: CheckpointKey, state: ModelState,
                 provenance: tuple = ()) -> CheckpointRecord:
    return CheckpointRecord(key, state.arch, state.params.copy(), state.rng_cursor,
                            tuple((int(l), tuple(int(m) for m in ms))
                                  for l, ms in provenance))


def record_state(record: CheckpointRecord) -> ModelState:
    return ModelState(record.arch, record.params.copy(), record.rng_cursor)


def encode_record(record: CheckpointRecord) -> bytes:
    arch = record.arch
    params = np.ascontiguousarray(record.params, dtype="<f8")
    head = _HEADER.pack(
        MAGIC, VERSION, ROLES.index(record.key.role),
        record.key.k, record.key.l, record.key.j, record.generation,
        ("softmax_linear", "one_hidden_layer").index(arch.kind),
        arch.feature_dim, arch.num_classes, arch.hidden_units or 0,
        record.rng_cursor, len(record.provenance), len(params))
    prov = b"".join(
        _PROV_HEAD.pack(l, len(ms)) + struct.pack(f"<{len(ms)}I", *ms)
        for l, ms in record.provenance)
    return head + prov + params.tobytes()


def decode_record(data: bytes) -> CheckpointRecord:
    if len(data) < _HEADER.size or data[:4] != MAGIC:
        raise StorageError("not a checkpoint record (bad magic)")
    (_, version, role_ix, k, l, j, gen, kind_ix, dim, classes, hidden,
     cursor, prov_count, param_count) = _HEADER.unpack_from(data)
    if version != VERSION:
        raise StorageError(f"unsupported checkpoint version {version}")
    arch = ModelArch(("softmax_linear", "one_hidden_layer")[kind_ix], dim, classes,
                     hidden or None)
    off = _HEADER.size
    try:
        prov = []
        for _ in range(prov_count):
            chunk, n = _PROV_HEAD.unpack_from(data, off)
            off += _PROV_HEAD.size
            prov.append((chunk, struct.unpack_from(f"<{n}I", data, off)))
            off += 4 * n
        params = np.frombuffer(data, dtype="<f8", count=param_count,
                               offset=off).copy()
    except (struct.error, ValueError) as exc:
        raise StorageError(f"checkpoint truncated: {exc}") from None
    if len(params) != param_count or param_count != arch.param_count:
        raise StorageError("checkpoint truncated or inconsistent")
    return CheckpointRecord(CheckpointKey(ROLES[role_ix], k, l, j), arch, params,
                            cursor, tuple(prov), gen, len(data))


@dataclass
class RoleTotals:
    count: int = 0
    bytes: int = 0


@dataclass
class StorageReport:
    per_role: dict = field(default_factory=dict)  # role -> RoleTotals

    @property
    def total_count(self) -> int:
        return sum(t.count for t in self.per_role.values())

    @property
    def total_bytes(self) -> int:
        return sum(t.bytes for t in self.per_role.values())


class CheckpointStore:
    """Durable generation-tracked checkpoint files under one root directory."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._index: dict[CheckpointKey, dict[int, int]] = {}  # key -> {gen: bytes}
        for path in self.root.glob("*/*/*/*/*.ckpt"):
            role, k, l, j = path.parent.parts[-4:]
            if role not in ROLES:
                continue
            key = CheckpointKey(role, int(k), int(l), int(j))
            self._index.setdefault(key, {})[int(path.stem)] = path.stat().st_size

    def _path(self, key: CheckpointKey, generation: int) -> Path:
        return self.root / key.role / str(key.k) / str(key.l) / str(key.j) \
            / f"{generation}.ckpt"

    def save(self, key: CheckpointKey, record: CheckpointRecord) -> CheckpointRecord:
        """Write a record under the next generation for this key; returns the
        stored record (generation and byte_size filled in)."""
        with self._lock:
            gens = self._index.setdefault(key, {})
            generation = max(gens, default=0) + 1
            gens[generation] = 0  # reserve
        record.key = key
        record.generation = generation
        data = encode_record(record)
        path = self._path(key, generation)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError as exc:
            with self._lock:
                del self._index[key][generation]
            raise StorageError(f"cannot write checkpoint {key}: {exc}") from exc
        record.byte_size = len(data)
        with self._lock:
            self._index[key][generation] = len(data)
        return record

    def latest_generation(self, key: CheckpointKey) -> int | None:
        gens = self._index.get(key)
        return max(gens) if gens else None

    def exists(self, key: CheckpointKey) -> bool:
        return bool(self._index.get(key))

    def load(self, key: CheckpointKey, generation: int | None = None) -> CheckpointRecord:
        gens = self._index.get(key)
        if not gens:
            raise NotFoundError(f"no checkpoint stored for {key}")
        if generation is None:
            generation = max(gens)
        elif generation not in gens:
            raise NotFoundError(f"no generation {generation} for {key}")
        try:
            data = self._path(key, generation).read_bytes()
        except OSError as exc:
            raise StorageError(f"cannot read checkpoint {key}: {exc}") from exc
        record = decode_record(data)
        if record.key != key:
            raise StorageError(f"checkpoint file for {key} contains {record.key}")
        return record

    def keys(self, role: str | None = None) -> list[CheckpointKey]:
        return sorted((k for k in self._index if role is None or k.role == role),
                      key=lambda k: (k.role, k.k, k.l, k.j))

    def storage_report(self) -> StorageReport:
        report = StorageReport({role: RoleTotals() for role in ROLES})
        for key, gens in self._index.items():
            totals = report.per_role[key.role]
            totals.count += len(gens)
            totals.bytes += sum(gens.values())
        return report

    def prune(self) -> int:
        """Delete all superseded generations; returns the number removed."""
        removed = 0
        with self._lock:
            for key, gens in self._index.items():
                if len(gens) <= 1:
                    continue
                latest = max(gens)
                for gen in [g for g in gens if g != latest]:
                    self._path(key, gen).unlink(missing_ok=True)
                    del gens[gen]
                    removed += 1
        return removed
