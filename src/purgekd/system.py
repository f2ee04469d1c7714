"""A trained teacher/student pair with its data, plans, checkpoint store and
step ledger, plus lossless manifest save/load.

A manifest (sorted JSON, floats via repr) holds structure only: seeds,
architectures, hyperparameters, the checkpoint directory, each dataset's
file name and digest, and each role's plan as its seed, its shape and the
sorted ids it no longer holds; the student plan's shape also fixes the
constituent mapping. Model states live in the checkpoint store. A save is
the commit point: after the manifest's atomic write it compacts the store to
the latest generation of every key, so no stored byte still carries an
unlearned point; a kill between the two leaves a committed manifest over an
uncompacted store that loads the same system. A dataset is one file beside
the manifest (three ``.npy`` arrays: ids, labels, features), named by its
blake2b digest and written only when absent, so a removal never rewrites it.
A load checks the file's bytes against the digest, then reads each array as
a read-only ``np.frombuffer`` view of those bytes, not a copy; it refuses,
with ParseError, an array whose header is malformed, whose dtype or rank is
not the one a save writes, that is in Fortran order or cut short, and any
bytes after the third array.
A load builds each role through the constructors training uses
(``make_partition``, ``student_labels``); label inference is
row-independent, so derived soft labels equal the cached ones bit for bit.
Reruns write byte-identical files.

Each role also records ``model.kernel_fingerprint`` of its architecture and
batch size. Replay reproduces a checkpoint only on the numeric kernels that
made it, so a load on a machine, numpy build or training code whose kernels
compute other bits is refused rather than left to replay inexactly.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import weakref
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .checkpoints import CheckpointKey, CheckpointStore
from .costmodel import CostLedger
from .data import Dataset, PartitionPlan, make_partition
from .errors import ConfigError, NotFoundError, ParseError, PartitionError, StorageError
from .model import SEED_STUDENT_PLAN, ModelArch, TrainHyper, kernel_fingerprint, mix_seed
from .student import (MODES, StudentNetwork, build_mapping, student_labels,
                      train_student_network)
from .teacher import TeacherEnsemble, TrainBudget, train_teacher_ensemble

MANIFEST_KIND = "system_manifest"
MANIFEST_VERSION = 4


@dataclass
class TrainedSystem:
    seed: int
    shared_dataset: bool
    teacher: TeacherEnsemble
    student: StudentNetwork
    store: CheckpointStore
    ledger: CostLedger
    budget: TrainBudget


def train_system(*, student_dataset: Dataset, teacher_dataset: Dataset | None,
                 teacher_members: int, teacher_slices: int,
                 student_constituents: int, slices_per_chunk, mode: str,
                 e_prime: int, teacher_arch: ModelArch, student_arch: ModelArch,
                 teacher_hyper: TrainHyper, student_hyper: TrainHyper,
                 store: CheckpointStore, seed: int,
                 mapping_sizes=None) -> TrainedSystem:
    """Train the full pipeline: teacher ensemble first, then the distilled
    student network against it. teacher_dataset=None shares the student data.
    slices_per_chunk (an int, or R_{k,l} per chunk of each constituent) becomes
    the nested shape first: a shape, mode or partition error trains nothing."""
    counts = build_mapping(teacher_members, student_constituents, mapping_sizes).chunk_counts
    if isinstance(slices_per_chunk, int):
        slices_per_chunk = [[slices_per_chunk] * c for c in counts]
    if tuple(map(len, slices_per_chunk)) != counts:
        raise ValueError(f"slices_per_chunk needs one row per constituent with "
                         f"one count per chunk, of lengths {list(counts)}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    shared = teacher_dataset is None
    tds = student_dataset if shared else teacher_dataset
    if tds.num_classes != student_dataset.num_classes:
        raise ConfigError("teacher and student datasets disagree on num_classes")
    if tds.feature_dim != student_dataset.feature_dim:
        raise ConfigError("teacher and student datasets disagree on feature_dim")
    for name, arch in (("teacher", teacher_arch), ("student", student_arch)):
        if arch.feature_dim != student_dataset.feature_dim:
            raise ConfigError(f"{name} arch expects {arch.feature_dim} features, "
                              f"dataset has {student_dataset.feature_dim}")
        if arch.num_classes != student_dataset.num_classes:
            raise ConfigError(f"{name} arch expects {arch.num_classes} classes, "
                              f"dataset has {student_dataset.num_classes}")
    # drawn before any teacher trains: a shape the data cannot fill raises now
    plan = make_partition(student_dataset, slices_per_chunk, mix_seed(seed, SEED_STUDENT_PLAN))
    budget = TrainBudget(e_prime)
    ledger = CostLedger()
    teacher = train_teacher_ensemble(tds, teacher_members, teacher_slices, budget,
                                     teacher_arch, teacher_hyper, store, ledger,
                                     seed)
    student = train_student_network(plan, teacher.members, budget, student_arch,
                                    student_hyper, store, ledger, mode, seed)
    return TrainedSystem(seed, shared, teacher, student, store, ledger, budget)


def snapshot(system: TrainedSystem) -> TrainedSystem:
    """Read-only copy of the mutable parts (states, plans, labels) for
    before/after comparisons; shares the datasets, store and ledger, and
    the label arrays, which a change replaces rather than writes."""
    t, s = system.teacher, system.student
    return replace(system,
                   teacher=replace(t, members=[m.copy() for m in t.members],
                                   plan=t.plan.copy()),
                   student=replace(s, constituents=[c.copy() for c in s.constituents],
                                   plan=s.plan.copy(), labels=dict(s.labels),
                                   sums=dict(s.sums)))


# ----------------------------------------------------------------------------
# Manifest serialization
# ----------------------------------------------------------------------------

def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _write_atomic(path: Path, data: bytes) -> None:
    """Write path via a temporary file and os.replace: a crash keeps the old file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only by a failed write or rename


# Dataset -> manifest entry from a save or a checked load; read-only arrays keep it valid.
_ENTRIES = weakref.WeakKeyDictionary()


def _save_dataset(ds: Dataset, directory: Path) -> dict:
    """Write ds once into directory, named by its digest, serializing it only
    if it has no entry or no file there; returns its manifest entry."""
    if ds in _ENTRIES and (directory / _ENTRIES[ds]["file"]).exists():
        return _ENTRIES[ds]
    buf = io.BytesIO()
    for array in (ds.ids, ds.labels, ds.features):
        np.save(buf, array, allow_pickle=False)
    data = buf.getvalue()
    digest = _digest(data)
    path = directory / f"dataset-{digest}.bin"
    if not path.exists():
        _write_atomic(path, data)
    _ENTRIES[ds] = {"file": path.name, "digest": digest, "num_classes": ds.num_classes}
    return _ENTRIES[ds]


# (name, dtype, rank) of the arrays of a dataset file, in file order
_DATASET_ARRAYS = (("ids", np.dtype(np.int64), 1), ("labels", np.dtype(np.int64), 1),
                   ("features", np.dtype(np.float64), 2))


def _read_arrays(data: bytes, path: Path) -> list[np.ndarray]:
    """The arrays of a dataset file, as read-only views of its bytes."""
    fp, arrays = io.BytesIO(data), []
    for name, dtype, rank in _DATASET_ARRAYS:
        try:
            # np.save writes these short headers in format 1.0
            if np.lib.format.read_magic(fp) != (1, 0):
                raise ValueError("not an .npy array of format 1.0")
            shape, fortran_order, got = np.lib.format.read_array_header_1_0(fp)
        except ValueError as exc:
            raise ParseError(f"{path}: {name}: {exc}") from None
        if got != dtype or len(shape) != rank or min(shape) < 0:
            raise ParseError(f"{path}: {name} must be a {rank}-d {dtype} array, "
                             f"not {got} of shape {shape}")
        if fortran_order:
            raise ParseError(f"{path}: {name} is in Fortran order")
        start, count = fp.tell(), math.prod(shape)
        end = start + count * dtype.itemsize
        if end > len(data):
            raise ParseError(f"{path}: {name} is cut short")
        arrays.append(np.frombuffer(data, dtype, count, start).reshape(shape))
        fp.seek(end)
    if fp.tell() != len(data):
        raise ParseError(f"{path}: {len(data) - fp.tell()} bytes after the last array")
    return arrays


def _load_dataset(entry: dict, directory: Path) -> Dataset:
    path = directory / entry["file"]
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if _digest(data) != entry["digest"]:
        raise ParseError(f"{path}: contents do not match the manifest's digest")
    ids, labels, features = _read_arrays(data, path)
    ds = Dataset(ids, features, labels, entry["num_classes"])
    _ENTRIES[ds] = entry
    return ds


def _plan_args(entry: dict) -> tuple:
    """(shape, seed, removed ids) of a plan's manifest entry."""
    if not all(type(p) is int for p in entry["removed"]):
        raise TypeError("a plan's removed ids must be integers")
    return entry["slices"], entry["seed"], entry["removed"]


def _role_entry(net, dataset_entry: dict) -> dict:
    """What the manifest records of either role, its plan included."""
    return {"arch": asdict(net.arch), "hyper": asdict(net.hyper),
            "kernel": kernel_fingerprint(net.arch, net.hyper.batch_size),
            "plan": {"seed": net.plan.seed, "slices": net.plan.slice_counts(),
                     "removed": net.plan.removed_ids()},
            "dataset": dataset_entry}


def save_manifest(system: TrainedSystem, path, checkpoint_dir: str) -> None:
    """Write the system's manifest, plus any dataset file not yet beside it,
    each atomically, then compact the system's store (``prune``).
    checkpoint_dir is recorded relative to the manifest's directory."""
    path = Path(path)
    s, t = system.student, system.teacher
    student_dataset = _save_dataset(s.dataset, path.parent)
    teacher_dataset = (student_dataset if system.shared_dataset
                       else _save_dataset(t.dataset, path.parent))
    doc = {
        "kind": MANIFEST_KIND,
        "version": MANIFEST_VERSION,
        "seed": system.seed,
        "shared_dataset": system.shared_dataset,
        "checkpoint_dir": checkpoint_dir,
        "budget": {"e_prime": system.budget.e_prime},
        "teacher": dict(_role_entry(t, teacher_dataset), members=t.member_count),
        "student": dict(_role_entry(s, student_dataset), mode=s.mode,
                        constituents=len(s.constituents)),
    }
    _write_atomic(path, (json.dumps(doc, sort_keys=True, separators=(",", ":"))
                         + "\n").encode("utf-8"))
    system.store.prune()


def load_system(path) -> TrainedSystem:
    """Reconstruct a trained system from a manifest: datasets from their
    digest-checked files, plans, mapping and soft labels through the
    training constructors, final model states from the latest checkpoint
    generations in the referenced store. A role whose kernel fingerprint
    differs from this process's is refused with ParseError."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("kind") != MANIFEST_KIND:
        raise ParseError(f"{path}: not a system manifest")
    if doc.get("version") != MANIFEST_VERSION:
        raise ParseError(f"{path}: manifest version {doc.get('version')} is not "
                         f"read (this program reads version {MANIFEST_VERSION}); "
                         f"retrain to rebuild the run")
    try:
        return _system_from(doc, path)
    except (KeyError, TypeError, ValueError, IndexError, NotFoundError,
            PartitionError) as exc:
        raise ParseError(f"{path}: malformed manifest "
                         f"({type(exc).__name__}: {exc})") from None


def _final_states(store: CheckpointStore, role: str, plan: PartitionPlan) -> list:
    """Each shard's model state after its last round, from the store."""
    return [store.load(CheckpointKey(role, k, len(row), row[-1])).state
            for k, row in enumerate(plan.slice_counts(), start=1)]


def _system_from(doc: dict, path: Path) -> TrainedSystem:
    root = path.parent
    store_root = root / doc["checkpoint_dir"]
    if not store_root.is_dir():
        raise StorageError(f"checkpoint directory {store_root} does not exist")
    for role in ("teacher", "student"):
        rdoc = doc[role]
        here = kernel_fingerprint(ModelArch(**rdoc["arch"]), rdoc["hyper"]["batch_size"])
        if rdoc["kernel"] != here:
            raise ParseError(f"{path}: the {role} checkpoints were made by numeric "
                             f"kernels that compute other bits than this process's "
                             f"(fingerprint {rdoc['kernel']}, here {here}), so replay "
                             f"would not be exact; retrain to rebuild the run")
    budget = TrainBudget(doc["budget"]["e_prime"])
    seed, shared = doc["seed"], doc["shared_dataset"]
    sdoc, tdoc = doc["student"], doc["teacher"]
    student_dataset = _load_dataset(sdoc["dataset"], root)
    teacher_dataset = student_dataset if shared else _load_dataset(tdoc["dataset"], root)
    store = CheckpointStore(store_root)

    teacher_plan = make_partition(teacher_dataset, *_plan_args(tdoc["plan"]))
    members = _final_states(store, "teacher", teacher_plan)
    hyper = TrainHyper(**sdoc["hyper"])
    student_plan = make_partition(student_dataset, *_plan_args(sdoc["plan"]))
    labels = student_labels(sdoc["mode"], members, student_plan,
                            range(1, student_plan.num_shards + 1), hyper.temperature)
    teacher = TeacherEnsemble(members, teacher_plan, teacher_dataset, budget,
                              ModelArch(**tdoc["arch"]), TrainHyper(**tdoc["hyper"]),
                              seed)
    student = StudentNetwork(_final_states(store, "student", student_plan), student_plan,
                             student_dataset, sdoc["mode"], labels, {}, budget,
                             ModelArch(**sdoc["arch"]), hyper, seed)
    if (tdoc["members"], sdoc["constituents"], len(members)) != (
            len(members), student_plan.num_shards, student.mapping.num_teachers):
        raise ValueError("teacher.members, student.constituents or a plan's shape disagree")
    return TrainedSystem(seed, shared, teacher, student, store, CostLedger(),
                         budget)
