"""A trained teacher/student pair with its data, plans, checkpoint store and
step ledger, plus lossless manifest save/load.

A manifest (sorted JSON, floats via repr) holds structure only: seeds,
architectures, hyperparameters, mapping, plans, the checkpoint directory,
and each dataset's file name and digest. Model states live in the
checkpoint store. A dataset is one file beside the manifest (three ``.npy``
arrays: ids, labels, features), named by its blake2b digest and written only
when absent, so a removal never rewrites it. Soft labels are derived on load
from the loaded teachers; label inference is row-independent, so they equal
the cached ones bit for bit. Reruns write byte-identical files.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .checkpoints import CheckpointKey, CheckpointStore, record_state
from .costmodel import CostLedger
from .data import Dataset, PartitionPlan
from .errors import ConfigError, ParseError, StorageError
from .model import ModelArch, TrainHyper
from .student import (ConstituentMapping, StudentNetwork, build_mapping,
                      generate_chunk_labels, train_student_network)
from .teacher import TeacherEnsemble, TrainBudget, train_teacher_ensemble

MANIFEST_KIND = "system_manifest"
MANIFEST_VERSION = 2


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
    student network against it. teacher_dataset=None shares the student data."""
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
    budget = TrainBudget(e_prime)
    ledger = CostLedger()
    teacher = train_teacher_ensemble(tds, teacher_members, teacher_slices, budget,
                                     teacher_arch, teacher_hyper, store, ledger,
                                     seed)
    mapping = build_mapping(teacher_members, student_constituents, mapping_sizes)
    student = train_student_network(student_dataset, mapping, teacher.members,
                                    budget, student_arch, student_hyper, store,
                                    ledger, mode, seed, slices_per_chunk)
    return TrainedSystem(seed, shared, teacher, student, store, ledger, budget)


def snapshot(system: TrainedSystem) -> TrainedSystem:
    """Read-only copy of the mutable parts (states, plans, labels) for
    before/after comparisons; shares the datasets, store and ledger."""
    t = system.teacher
    s = system.student
    teacher = TeacherEnsemble([m.copy() for m in t.members], t.plan.copy(),
                              t.dataset, t.budget, t.arch, t.hyper, t.seed)
    student = StudentNetwork([c.copy() for c in s.constituents], s.mapping,
                             s.plan.copy(), s.dataset, s.mode,
                             dict(s.soft_labels), s.budget, s.arch, s.hyper,
                             s.seed)
    return TrainedSystem(system.seed, system.shared_dataset, teacher, student,
                         system.store, system.ledger, system.budget)


# ----------------------------------------------------------------------------
# Manifest serialization
# ----------------------------------------------------------------------------

def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _save_dataset(ds: Dataset, directory: Path) -> dict:
    """Write ds once into directory, named by its digest; returns its
    manifest entry."""
    buf = io.BytesIO()
    for array in (ds.ids, ds.labels, ds.features):
        np.save(buf, array, allow_pickle=False)
    data = buf.getvalue()
    digest = _digest(data)
    name = f"dataset-{digest}.bin"
    path = directory / name
    if not path.exists():
        tmp = path.with_name(name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)
    return {"file": name, "digest": digest, "num_classes": ds.num_classes}


def _load_dataset(entry: dict, directory: Path) -> Dataset:
    path = directory / entry["file"]
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if _digest(data) != entry["digest"]:
        raise ParseError(f"{path}: contents do not match the manifest's digest")
    buf = io.BytesIO(data)
    ids, labels, features = (np.load(buf, allow_pickle=False) for _ in range(3))
    return Dataset(ids, features, labels, entry["num_classes"])


def save_manifest(system: TrainedSystem, path, checkpoint_dir: str) -> None:
    """Write the system's manifest, plus any dataset file not yet beside it.
    checkpoint_dir is recorded relative to the manifest's directory."""
    path = Path(path)
    s = system.student
    t = system.teacher
    student_dataset = _save_dataset(s.dataset, path.parent)
    doc = {
        "kind": MANIFEST_KIND,
        "version": MANIFEST_VERSION,
        "seed": system.seed,
        "shared_dataset": system.shared_dataset,
        "checkpoint_dir": checkpoint_dir,
        "budget": {"e_prime": system.budget.e_prime},
        "teacher": {
            "members": t.member_count,
            "arch": asdict(t.arch),
            "hyper": asdict(t.hyper),
            "plan": {"seed": t.plan.seed, "slices": t.plan.raw_slices()},
            "dataset": student_dataset if system.shared_dataset
            else _save_dataset(t.dataset, path.parent),
        },
        "student": {
            "constituents": s.constituent_count,
            "mode": s.mode,
            "arch": asdict(s.arch),
            "hyper": asdict(s.hyper),
            "mapping": [list(ms) for ms in s.mapping.assignment],
            "plan": {"seed": s.plan.seed, "slices": s.plan.raw_slices()},
            "dataset": student_dataset,
        },
    }
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                    encoding="utf-8")


def load_system(path) -> TrainedSystem:
    """Reconstruct a trained system from a manifest: datasets from their
    digest-checked files, final model states from the latest checkpoint
    generations in the referenced store, soft labels derived from the
    loaded teachers."""
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
        return _system_from(doc, path.parent)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{path}: malformed manifest "
                         f"({type(exc).__name__}: {exc})") from None


def _system_from(doc: dict, root: Path) -> TrainedSystem:
    store_root = root / doc["checkpoint_dir"]
    if not store_root.is_dir():
        raise StorageError(f"checkpoint directory {store_root} does not exist")
    budget = TrainBudget(doc["budget"]["e_prime"])
    seed = doc["seed"]
    shared = doc["shared_dataset"]
    sdoc = doc["student"]
    tdoc = doc["teacher"]
    student_dataset = _load_dataset(sdoc["dataset"], root)
    teacher_dataset = student_dataset if shared else _load_dataset(tdoc["dataset"], root)
    store = CheckpointStore(store_root)

    teacher_plan = PartitionPlan(tdoc["plan"]["slices"], tdoc["plan"]["seed"],
                                 teacher_dataset)
    members = []
    for m in range(1, tdoc["members"] + 1):
        r_t = teacher_plan.slices_in_chunk(m, 1)
        members.append(record_state(store.load(CheckpointKey("teacher", m, 1, r_t))))
    teacher = TeacherEnsemble(members, teacher_plan, teacher_dataset, budget,
                              ModelArch(**tdoc["arch"]), TrainHyper(**tdoc["hyper"]),
                              seed)

    student_plan = PartitionPlan(sdoc["plan"]["slices"], sdoc["plan"]["seed"],
                                 student_dataset)
    mapping = ConstituentMapping(tuple(tuple(ms) for ms in sdoc["mapping"]))
    mode = sdoc["mode"]
    hyper = TrainHyper(**sdoc["hyper"])
    soft_labels = {}
    constituents = []
    for k in range(1, sdoc["constituents"] + 1):
        c_k = student_plan.chunks_in_shard(k)
        for l in range(1, c_k + 1):
            soft_labels[(k, l)] = generate_chunk_labels(
                mode, mapping, members, student_plan, student_dataset, k, l,
                hyper.temperature)
        r_last = student_plan.slices_in_chunk(k, c_k)
        constituents.append(record_state(
            store.load(CheckpointKey("student", k, c_k, r_last))))
    student = StudentNetwork(constituents, mapping, student_plan, student_dataset,
                             mode, soft_labels, budget, ModelArch(**sdoc["arch"]),
                             hyper, seed)
    return TrainedSystem(seed, shared, teacher, student, store, CostLedger(),
                         budget)
