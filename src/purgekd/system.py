"""A trained teacher/student pair with its data, plans, checkpoint store and
step ledger, plus lossless JSON manifest (de)serialization.

Manifests embed the datasets, partition plans, mapping and cached soft
labels; model parameters live in the checkpoint store the manifest points
at. Floats are serialized via repr, so a manifest reload is bit-exact, and
reruns of the same configuration produce byte-identical manifests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoints import CheckpointKey, CheckpointStore, record_state
from .costmodel import CostLedger
from .data import Dataset, PartitionPlan
from .errors import ConfigError, ParseError
from .model import ModelArch, SoftLabelChunk, TrainHyper
from .student import (ConstituentMapping, StudentNetwork, build_mapping,
                      train_student_network)
from .teacher import TeacherEnsemble, TrainBudget, train_teacher_ensemble

MANIFEST_KIND = "system_manifest"
MANIFEST_VERSION = 1


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

def _dataset_doc(ds: Dataset) -> dict:
    return {"ids": ds.ids.tolist(), "labels": ds.labels.tolist(),
            "features": ds.features.tolist(),
            "num_classes": ds.num_classes}


def _dataset_from(doc: dict) -> Dataset:
    return Dataset(doc["ids"], doc["features"], doc["labels"], doc["num_classes"])


def _arch_doc(arch: ModelArch) -> dict:
    doc = {"kind": arch.kind, "feature_dim": arch.feature_dim,
           "num_classes": arch.num_classes}
    if arch.hidden_units is not None:
        doc["hidden_units"] = arch.hidden_units
    return doc


def _arch_from(doc: dict) -> ModelArch:
    return ModelArch(doc["kind"], doc["feature_dim"], doc["num_classes"],
                     doc.get("hidden_units"))


def _hyper_doc(h: TrainHyper) -> dict:
    return {"learning_rate": h.learning_rate, "batch_size": h.batch_size,
            "hard_label_weight": h.hard_label_weight,
            "temperature": h.temperature, "seed": h.seed}


def _hyper_from(doc: dict) -> TrainHyper:
    return TrainHyper(doc["learning_rate"], doc["batch_size"],
                      doc["hard_label_weight"], doc["temperature"], doc["seed"])


def save_manifest(system: TrainedSystem, path, checkpoint_dir: str) -> None:
    """Write the system to a JSON manifest. checkpoint_dir is recorded
    relative to the manifest's directory."""
    s = system.student
    t = system.teacher
    doc = {
        "kind": MANIFEST_KIND,
        "version": MANIFEST_VERSION,
        "seed": system.seed,
        "shared_dataset": system.shared_dataset,
        "checkpoint_dir": checkpoint_dir,
        "budget": {"e_prime": system.budget.e_prime},
        "teacher": {
            "members": t.member_count,
            "arch": _arch_doc(t.arch),
            "hyper": _hyper_doc(t.hyper),
            "plan": {"seed": t.plan.seed, "slices": t.plan.raw_slices()},
            "dataset": "shared" if system.shared_dataset else _dataset_doc(t.dataset),
        },
        "student": {
            "constituents": s.constituent_count,
            "mode": s.mode,
            "arch": _arch_doc(s.arch),
            "hyper": _hyper_doc(s.hyper),
            "mapping": [list(ms) for ms in s.mapping.assignment],
            "plan": {"seed": s.plan.seed, "slices": s.plan.raw_slices()},
            "dataset": _dataset_doc(s.dataset),
            "soft_labels": {
                f"{k},{l}": {"ids": list(chunk.point_ids),
                             "probs": chunk.probs.tolist()}
                for (k, l), chunk in sorted(s.soft_labels.items())},
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":"))
                          + "\n", encoding="utf-8")


def load_system(path) -> TrainedSystem:
    """Reconstruct a trained system from a manifest; final model states are
    the latest checkpoint generations in the referenced store."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if doc.get("kind") != MANIFEST_KIND:
        raise ParseError(f"{path}: not a system manifest")
    if doc.get("version") != MANIFEST_VERSION:
        raise ParseError(f"{path}: unsupported manifest version {doc.get('version')}")

    store = CheckpointStore(path.parent / doc["checkpoint_dir"])
    budget = TrainBudget(doc["budget"]["e_prime"])
    seed = doc["seed"]
    shared = doc["shared_dataset"]

    sdoc = doc["student"]
    student_dataset = _dataset_from(sdoc["dataset"])
    tdoc = doc["teacher"]
    teacher_dataset = student_dataset if shared else _dataset_from(tdoc["dataset"])

    teacher_plan = PartitionPlan(tdoc["plan"]["slices"], tdoc["plan"]["seed"],
                                 teacher_dataset)
    members = []
    for m in range(1, tdoc["members"] + 1):
        r_t = teacher_plan.slices_in_chunk(m, 1)
        members.append(record_state(store.load(CheckpointKey("teacher", m, 1, r_t))))
    teacher = TeacherEnsemble(members, teacher_plan, teacher_dataset, budget,
                              _arch_from(tdoc["arch"]), _hyper_from(tdoc["hyper"]),
                              seed)

    student_plan = PartitionPlan(sdoc["plan"]["slices"], sdoc["plan"]["seed"],
                                 student_dataset)
    mapping = ConstituentMapping(tuple(tuple(ms) for ms in sdoc["mapping"]))
    soft_labels = {}
    for key, entry in sdoc["soft_labels"].items():
        k, l = (int(v) for v in key.split(","))
        # an emptied chunk is stored as "probs": [], which loads 1-d
        probs = np.asarray(entry["probs"], dtype=np.float64).reshape(
            len(entry["ids"]), student_dataset.num_classes)
        soft_labels[(k, l)] = SoftLabelChunk(entry["ids"], probs)
    constituents = []
    for k in range(1, sdoc["constituents"] + 1):
        c_k = student_plan.chunks_in_shard(k)
        r_last = student_plan.slices_in_chunk(k, c_k)
        constituents.append(record_state(
            store.load(CheckpointKey("student", k, c_k, r_last))))
    student = StudentNetwork(constituents, mapping, student_plan, student_dataset,
                             sdoc["mode"], soft_labels, budget,
                             _arch_from(sdoc["arch"]), _hyper_from(sdoc["hyper"]),
                             seed)
    return TrainedSystem(seed, shared, teacher, student, store, CostLedger(),
                         budget)
