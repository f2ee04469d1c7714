"""Command-line harness: train, unlearn, simulate, analyze.

Exit codes: 0 success, 2 configuration error, 3 data error (parse,
dimension, missing point) or an unreadable checkpoint store, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .costmodel import (read_ledger_csv, simulate_teacher_requests, speedup_vs_n,
                        write_ledger_csv)
from .data import SyntheticSpec, gen_synthetic, load_csv
from .errors import ConfigError, DataError, NotFoundError, PartitionError, StorageError
from .model import ModelArch, TrainHyper, mix_seed
from .student import MODES, build_mapping, evaluate_accuracy
from .system import load_system, save_manifest, snapshot, train_system
from .unlearning import (apply_request, generate_requests, parse_request_stream,
                         verify_exactness, write_request_stream)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_VERIFY = 4


class VerificationFailure(Exception):
    """A --verify run found a mismatch."""


# ----------------------------------------------------------------------------
# Config handling
# ----------------------------------------------------------------------------

def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be an object")
    return doc


def _apply_overrides(cfg: dict, overrides) -> dict:
    """Apply repeated --set path.to.field=value entries (values parsed as
    JSON, falling back to bare strings)."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected path=value")
        dotted, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {dotted}: {part} is not an object")
        node[parts[-1]] = value
    return cfg


def _field(cfg: dict, path: str, kind, default=..., required_msg=None):
    node = cfg
    parts = path.split(".")
    for part in parts[:-1]:
        node = node.get(part) if isinstance(node, dict) else None
        if node is None:
            break
    value = node.get(parts[-1]) if isinstance(node, dict) else None
    if value is None:
        if default is ...:
            raise ConfigError(required_msg or f"{path}: required field missing")
        return default
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{path}: expected {kind.__name__}")
    if not isinstance(value, kind):
        raise ConfigError(f"{path}: expected {kind.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _counts(value) -> bool:
    """True for a list of integers >= 1."""
    return isinstance(value, list) and all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in value)


def _dataset_from_config(cfg: dict, path: str, default_seed: int):
    kind = _field(cfg, f"{path}.kind", str)
    if kind == "synthetic":
        try:
            spec = SyntheticSpec(
                num_classes=_field(cfg, f"{path}.num_classes", int),
                points_per_class=_field(cfg, f"{path}.points_per_class", int),
                feature_dim=_field(cfg, f"{path}.feature_dim", int),
                class_center_spread=_field(cfg, f"{path}.class_center_spread",
                                           float, 3.0),
                within_class_stddev=_field(cfg, f"{path}.within_class_stddev",
                                           float, 1.0),
                seed=_field(cfg, f"{path}.seed", int, default_seed))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return gen_synthetic(spec)
    if kind == "csv":
        return load_csv(_field(cfg, f"{path}.path", str),
                        _field(cfg, f"{path}.has_header", bool, False))
    raise ConfigError(f"{path}.kind: expected 'synthetic' or 'csv', got {kind!r}")


def _arch_from_config(cfg: dict, path: str, feature_dim: int,
                      num_classes: int) -> ModelArch:
    kind = _field(cfg, f"{path}.kind", str, "softmax_linear")
    hidden = _field(cfg, f"{path}.hidden_units", int, 0)
    try:
        return ModelArch(kind, feature_dim, num_classes, hidden or None)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _hyper_from_config(cfg: dict, path: str, default_seed: int) -> TrainHyper:
    try:
        return TrainHyper(
            learning_rate=_field(cfg, f"{path}.learning_rate", float, 0.1),
            batch_size=_field(cfg, f"{path}.batch_size", int, 32),
            hard_label_weight=_field(cfg, f"{path}.hard_label_weight", float, 0.0),
            temperature=_field(cfg, f"{path}.temperature", float, 1.0),
            seed=_field(cfg, f"{path}.seed", int, default_seed))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _apply_overrides(_load_json(args.config), args.set)
    seed = args.seed if args.seed is not None else _field(cfg, "seed", int, 0)
    out = Path(args.out or _field(cfg, "output", str, "out"))
    out.mkdir(parents=True, exist_ok=True)

    student_dataset = _dataset_from_config(cfg, "dataset", mix_seed(seed, 100))
    teacher_dataset = None
    if isinstance(cfg.get("teacher_dataset"), dict):
        teacher_dataset = _dataset_from_config(cfg, "teacher_dataset",
                                               mix_seed(seed, 101))

    mode = _field(cfg, "student.mode", str, "purge")
    if mode not in MODES:
        raise ConfigError(f"student.mode: expected one of {MODES}, got {mode!r}")
    members = _field(cfg, "teacher.members", int)
    teacher_slices = _field(cfg, "teacher.slices", int, 1)
    constituents = _field(cfg, "student.constituents", int)
    e_prime = _field(cfg, "budget.e_prime", int)
    for path, value in [("teacher.members", members),
                        ("teacher.slices", teacher_slices),
                        ("student.constituents", constituents),
                        ("budget.e_prime", e_prime)]:
        if value < 1:
            raise ConfigError(f"{path}: must be >= 1, got {value}")
    slices_cfg = cfg.get("student", {}).get("slices_per_chunk", 1)
    if not (_counts([slices_cfg]) or isinstance(slices_cfg, list)
            and all(map(_counts, slices_cfg))):
        raise ConfigError("student.slices_per_chunk: expected an integer >= 1 or "
                          "one list of integers >= 1 per constituent")
    mapping_sizes = cfg.get("mapping_sizes")
    if mapping_sizes is not None and not _counts(mapping_sizes):
        raise ConfigError("mapping_sizes: expected a list of integers >= 1")
    if isinstance(slices_cfg, list):
        try:
            mapping = build_mapping(members, constituents, mapping_sizes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        chunks = [len(ms) for ms in mapping.assignment]
        if [len(row) for row in slices_cfg] != chunks:
            raise ConfigError(
                f"student.slices_per_chunk: expected one list per constituent with "
                f"one count per chunk, of lengths {chunks}; got lengths "
                f"{[len(row) for row in slices_cfg]}")

    from .checkpoints import CheckpointStore
    store = CheckpointStore(out / "checkpoints")
    try:
        system = train_system(
            student_dataset=student_dataset, teacher_dataset=teacher_dataset,
            teacher_members=members,
            teacher_slices=teacher_slices,
            student_constituents=constituents, slices_per_chunk=slices_cfg,
            mode=mode, e_prime=e_prime,
            teacher_arch=_arch_from_config(cfg, "teacher.arch",
                                           student_dataset.feature_dim,
                                           student_dataset.num_classes),
            student_arch=_arch_from_config(cfg, "student.arch",
                                           student_dataset.feature_dim,
                                           student_dataset.num_classes),
            teacher_hyper=_hyper_from_config(cfg, "teacher.hyper", seed),
            student_hyper=_hyper_from_config(cfg, "student.hyper", seed),
            store=store, seed=seed, mapping_sizes=mapping_sizes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    save_manifest(system, out / "system.json", "checkpoints")
    write_ledger_csv(system.ledger, out / "ledger.csv")

    report = {
        "kind": "accuracy_report",
        "seed": seed,
        "mode": mode,
        "teacher_members": members,
        "student_constituents": constituents,
        "dataset_points": len(student_dataset),
        "teacher_accuracy": evaluate_accuracy(system.teacher.members,
                                              system.teacher.dataset),
        "student_accuracy": evaluate_accuracy(system.student.constituents,
                                              system.student.dataset),
        "initial_teacher_steps": system.ledger.total("initial_train", "teacher"),
        "initial_student_steps": system.ledger.total("initial_train", "student"),
    }
    (out / "accuracy_report.json").write_text(
        json.dumps(report, sort_keys=True) + "\n", encoding="utf-8")

    if isinstance(cfg.get("requests"), dict):
        requests = generate_requests(
            system, _field(cfg, "requests.count", int),
            _field(cfg, "requests.mix", dict,
                   {"student_point": 1.0, "teacher_point": 1.0}),
            _field(cfg, "requests.seed", int, mix_seed(seed, 102)))
        write_request_stream(out / "requests.csv", requests)

    print(f"trained {mode} system: teacher acc "
          f"{report['teacher_accuracy']:.4f}, student acc "
          f"{report['student_accuracy']:.4f} -> {out}")
    return EXIT_OK


def cmd_unlearn(args) -> int:
    manifest = Path(args.system)
    if manifest.is_dir():
        manifest = manifest / "system.json"
    system = load_system(manifest)
    requests = parse_request_stream(args.requests)
    out = Path(args.out) if args.out else manifest.parent
    out.mkdir(parents=True, exist_ok=True)

    failed = None
    with open(out / "unlearn_reports.jsonl", "w", encoding="utf-8") as fh:
        for request in requests:
            before = snapshot(system) if args.verify else None
            try:
                _, report = apply_request(system, request)
            except NotFoundError as exc:
                raise DataError(f"request {request.request_id}: {exc}") from None
            doc = report.to_json()
            if args.verify:
                verdict = verify_exactness(before, request, system)
                doc["verified"] = verdict.passed
                doc["max_param_diff"] = verdict.max_param_diff
                if not verdict.passed and failed is None:
                    failed = (request.request_id, verdict)
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
            if failed:
                break
    save_manifest(system, manifest,
                  os.path.relpath(system.store.root, manifest.parent))
    write_ledger_csv(system.ledger, out / "ledger_unlearn.csv")
    if failed:
        rid, verdict = failed
        raise VerificationFailure(
            f"request {rid}: {'; '.join(verdict.failures)}")
    print(f"processed {len(requests)} requests -> {out / 'unlearn_reports.jsonl'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _apply_overrides(_load_json(args.config), args.set)
    out = Path(args.out or _field(cfg, "output", str, "out"))
    out.mkdir(parents=True, exist_ok=True)
    grid_m = _field(cfg, "grid.M", list)
    grid_n = _field(cfg, "grid.N", list)
    grid_r = _field(cfg, "grid.r", list)
    grid_e = _field(cfg, "grid.e_prime", list)
    n_requests = _field(cfg, "grid.requests", int, 100)
    dataset_size = _field(cfg, "dataset_size", int)
    for path, value in [("grid.M", grid_m), ("grid.N", grid_n), ("grid.r", grid_r),
                        ("grid.e_prime", grid_e), ("grid.requests", [n_requests]),
                        ("dataset_size", [dataset_size])]:
        if not _counts(value):
            raise ConfigError(f"{path}: expected integers >= 1, got {value}")
    seed = args.seed if args.seed is not None else _field(cfg, "seed", int, 0)

    rows = []
    for m in grid_m:
        for n in grid_n:
            for r in grid_r:
                for e_prime in grid_e:
                    try:
                        run = simulate_teacher_requests(
                            m, n, r, e_prime, dataset_size, n_requests,
                            mix_seed(seed, m, n, r, e_prime))
                    except (ValueError, PartitionError) as exc:
                        raise ConfigError(
                            f"grid point M={m} N={n} r={r} e_prime={e_prime} "
                            f"(dataset_size {dataset_size}): {exc}") from None
                    measured = run.measured_ratio
                    if m % n == 0:
                        predicted = speedup_vs_n(n, m // n, r)
                        deviation = abs(measured - predicted) / predicted
                        rows.append([m, n, m // n, r, e_prime, n_requests,
                                     float(run.mean_steps), float(predicted),
                                     float(measured), float(deviation)])
                    else:
                        rows.append([m, n, "", r, e_prime, n_requests,
                                     float(run.mean_steps), "",
                                     float(measured), ""])

    with open(out / "simulate.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M", "N", "c", "r", "e_prime", "requests",
                         "mean_steps", "predicted", "measured_ratio", "deviation"])
        writer.writerows(rows)
    print(f"simulated {len(rows)} configurations -> {out / 'simulate.csv'}")
    return EXIT_OK


def _collect_analysis_inputs(inputs):
    accuracy, speedup_dirs, simulate_files = [], [], []
    for item in inputs:
        path = Path(item)
        if path.is_dir():
            accuracy.extend(sorted(path.rglob("accuracy_report.json")))
            speedup_dirs.extend(sorted({p.parent for p in
                                        path.rglob("unlearn_reports.jsonl")}))
            simulate_files.extend(sorted(path.rglob("simulate.csv")))
        elif path.name == "simulate.csv":
            simulate_files.append(path)
        elif path.suffix == ".json":
            accuracy.append(path)
        elif path.suffix == ".jsonl":
            speedup_dirs.append(path.parent)
        else:
            raise DataError(f"{path}: not a recognized analysis input")
    return accuracy, speedup_dirs, simulate_files


@contextlib.contextmanager
def _data_error(path):
    """Report a malformed analysis input as a data error naming its file."""
    try:
        yield
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DataError(f"{path}: malformed input ({type(exc).__name__}: {exc})") from None


def cmd_analyze(args) -> int:
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    accuracy_files, speedup_dirs, simulate_files = \
        _collect_analysis_inputs(args.inputs)

    groups: dict[tuple[int, str], list[dict]] = {}
    for path in accuracy_files:
        with _data_error(path):
            doc = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(doc, dict) and doc.get("kind") == "accuracy_report":
                groups.setdefault((doc["student_constituents"], doc["mode"]),
                                  []).append(doc)
    with open(out / "accuracy_vs_n.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "mode", "runs", "mean_teacher_accuracy",
                         "mean_student_accuracy"])
        for (n, mode), docs in sorted(groups.items()):
            writer.writerow([n, mode, len(docs),
                             sum(d["teacher_accuracy"] for d in docs) / len(docs),
                             sum(d["student_accuracy"] for d in docs) / len(docs)])

    speed_rows = []
    for directory in sorted(set(speedup_dirs)):
        reports_path = directory / "unlearn_reports.jsonl"
        with _data_error(reports_path), open(reports_path, encoding="utf-8") as fh:
            reports = [json.loads(line) for line in fh if line.strip()]
            steps = sum(r["student_steps"] for r in reports)
        ledger_path = directory / "ledger.csv"
        manifest_path = directory / "system.json"
        if not reports or not ledger_path.exists() or not manifest_path.exists():
            continue
        with _data_error(manifest_path):
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            sizes = manifest["teacher"]["members"], manifest["student"]["constituents"]
        with _data_error(ledger_path):
            initial = read_ledger_csv(ledger_path).total("initial_train", "student")
        mean_steps = Fraction(steps, len(reports))
        speed_rows.append(["measured", *sizes, "", "", len(reports),
                           float(mean_steps),
                           float(Fraction(initial) / mean_steps) if mean_steps else ""])
    for path in simulate_files:
        with _data_error(path), open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                speed_rows.append(["simulated", int(row["M"]), int(row["N"]),
                                   row["c"], row["r"], int(row["requests"]),
                                   float(row["mean_steps"]),
                                   float(row["measured_ratio"])])
    speed_rows.sort(key=lambda r: (r[0], r[1], r[2]))
    with open(out / "speedup_vs_n.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "M", "N", "c", "r", "requests", "mean_steps",
                         "measured_ratio"])
        writer.writerows(speed_rows)
    print(f"analyzed {len(accuracy_files)} accuracy reports, "
          f"{len(speed_rows)} speed-up rows -> {out}")
    return EXIT_OK


# ----------------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purgekd",
        description="Partitioned verified unlearning for distilled ensembles")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a teacher/student system")
    train.add_argument("--config", required=True, help="JSON experiment config")
    train.add_argument("--out", help="output directory (overrides config)")
    train.add_argument("--seed", type=int, help="seed override")
    train.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override a config field by dotted path")
    train.set_defaults(func=cmd_train)

    unlearn = sub.add_parser("unlearn", help="apply an unlearning request stream")
    unlearn.add_argument("--system", required=True,
                         help="system manifest or its directory")
    unlearn.add_argument("--requests", required=True,
                         help="request stream CSV (seq,target_kind,point_id)")
    unlearn.add_argument("--out", help="report directory (default: system dir)")
    unlearn.add_argument("--verify", action="store_true",
                         help="scratch-retrain verification after every request")
    unlearn.set_defaults(func=cmd_unlearn)

    simulate = sub.add_parser("simulate", help="step-count-only speed-up grid")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out")
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--set", action="append", metavar="PATH=VALUE")
    simulate.set_defaults(func=cmd_simulate)

    analyze = sub.add_parser("analyze", help="aggregate run outputs into tables")
    analyze.add_argument("inputs", nargs="*", help="run directories or files")
    analyze.add_argument("--out")
    analyze.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except StorageError as exc:
        print(f"storage error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
