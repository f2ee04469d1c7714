"""Verified exact unlearning for sharded teacher ensembles and the
distilled students trained from them.

The package covers the full pipeline: hierarchical data partitioning
(shards, chunks, slices), checkpointed incremental training of teacher
ensembles and distilled student networks, exact point removal on either
side (or both at once) by checkpoint reversion and partial replay, and
an analytical cost model with a step-count simulator that cross-checks
the predicted retraining speed-ups.
"""

from .checkpoints import CheckpointKey, CheckpointRecord, CheckpointStore
from .costmodel import (CostLedger, LedgerEntry, SimulatedRun,
                        avg_retrain_steps, ceiling_effect_bound,
                        epochs_per_slice, expected_student_unlearn_fraction,
                        read_ledger_csv, retrain_steps, simulate_teacher_requests,
                        speedup_vs_m, speedup_vs_n, student_side_cost_fraction,
                        write_ledger_csv)
from .data import (Dataset, PartitionPlan, SyntheticSpec, even_split_sizes,
                   gen_synthetic, load_csv, make_partition, write_csv)
from .errors import (ConfigError, DataError, DimensionError, NotFoundError,
                     ParseError, PartitionError, StorageError)
from .model import (ModelArch, ModelState, SoftLabelChunk, TrainHyper,
                    aggregate_batch, init_model,
                    mean_distill_loss, mix_seed, one_hot, predict_batch,
                    subensemble_soft_labels, train)
from .student import (MODES, ConstituentMapping, StudentNetwork, build_mapping,
                      chunk_teacher_ids, evaluate_accuracy, loss_trace,
                      train_student_network)
from .system import TrainedSystem, load_system, save_manifest, snapshot, train_system
from .teacher import (TeacherEnsemble, TrainBudget, teacher_unlearn,
                      train_teacher_ensemble)
from .unlearning import (UnlearnReport, UnlearnRequest, apply_request,
                         generate_requests, is_aligned, parse_request_stream,
                         verify_exactness, write_request_stream)

__version__ = "0.1.0"

__all__ = [
    "CheckpointKey", "CheckpointRecord", "CheckpointStore", "ConfigError",
    "ConstituentMapping", "CostLedger", "DataError", "Dataset",
    "DimensionError", "LedgerEntry", "MODES", "ModelArch", "ModelState",
    "NotFoundError", "ParseError", "PartitionError", "PartitionPlan",
    "SimulatedRun", "SoftLabelChunk", "StorageError", "StudentNetwork",
    "SyntheticSpec", "TeacherEnsemble", "TrainBudget", "TrainHyper",
    "TrainedSystem", "UnlearnReport", "UnlearnRequest", "aggregate_batch", "apply_request", "avg_retrain_steps",
    "build_mapping", "ceiling_effect_bound", "chunk_teacher_ids",
    "epochs_per_slice", "evaluate_accuracy",
    "even_split_sizes", "expected_student_unlearn_fraction", "gen_synthetic",
    "generate_requests", "init_model", "is_aligned", "load_csv", "load_system",
    "loss_trace", "make_partition", "mean_distill_loss", "mix_seed", "one_hot",
    "parse_request_stream", "predict_batch", "read_ledger_csv",
    "retrain_steps", "save_manifest", "simulate_teacher_requests", "snapshot",
    "speedup_vs_m", "speedup_vs_n", "student_side_cost_fraction",
    "subensemble_soft_labels", "teacher_unlearn", "train",
    "train_student_network", "train_system", "train_teacher_ensemble",
    "verify_exactness", "write_csv", "write_ledger_csv", "write_request_stream",
]
