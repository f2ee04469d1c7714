"""The closed loop of one benchmark run (see run.py), its samples and verdicts."""

import contextlib
import math
import resource
import shutil
import statistics
import time
from pathlib import Path

import checks
from purgekd import CheckpointStore, system as psystem, unlearning
from workloads import request_stream

MIN_SAMPLES = 40
MIN_ROUNDS = 2  # so that setup_s is a median of several set-ups
MANIFEST_REPEATS = 2
TAIL_BEYOND = 10  # samples beyond request_ms_tail


def rounds_for(workload, seconds: float) -> int:
    """Whole rounds that fill about `seconds` at the workload's nominal round
    length. The count depends on the arguments alone, so every run with the
    same --seconds does the same work, however fast the machine is."""
    return max(MIN_ROUNDS, math.ceil(MIN_SAMPLES / workload.requests),
               round(seconds / workload.round_s))


def tail_percentile(samples: int) -> float:
    """The highest nearest-rank percentile with TAIL_BEYOND samples beyond it."""
    return 100 * (samples - TAIL_BEYOND) / samples


def tail(values) -> float:
    """The sample at tail_percentile(len(values)), nearest rank (the
    largest sample when there are fewer than TAIL_BEYOND + 1)."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def _dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


class Run:
    """One benchmark run: the closed loop, its samples and its verdicts."""

    def __init__(self, workload, seed: int, run_dir: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.tracer = tracer
        self.samples = {name: [] for name in (
            "setup_s", "manifest_save_s", "manifest_load_s", "manifest_mb",
            "store_mb", "request_s", "verify_s", "student_steps", "round_s")}
        self.initial_student_steps = []
        self.records = []
        self.problems = []  # set-up and post-stream check failures
        self.stream = None
        self.rounds = 0

    def _tag(self, tag: str) -> None:
        if self.tracer:
            self.tracer.tag = tag

    def _untraced(self):
        return self.tracer.pause() if self.tracer else contextlib.nullcontext()

    def _check(self, where: str, problems) -> None:
        self.problems.extend(f"round {self.rounds} {where}: {p}" for p in problems)

    def _check_accuracy(self, where: str, system) -> None:
        floor = checks.accuracy_floor(system.student.dataset.num_classes)
        acc = checks.accuracy(system)
        if acc < floor:
            self._check(where, [f"student accuracy {acc:.4f} below {floor}"])

    def round(self) -> None:
        self.rounds += 1
        start = time.perf_counter()
        rd = self.run_dir / f"round{self.rounds}"
        s = self.samples
        self._tag(f"setup{self.rounds}")
        t0 = time.perf_counter()
        system = self.workload.build(self.seed, CheckpointStore(rd / "checkpoints"))
        s["setup_s"].append(time.perf_counter() - t0)
        self.initial_student_steps.append(system.ledger.total("initial_train", "student"))
        self._tag(f"round{self.rounds}.manifest")
        for _ in range(MANIFEST_REPEATS):
            # One system alive at a time, as in the CLI: save, drop, load.
            t0 = time.perf_counter()
            psystem.save_manifest(system, rd / "system.json", "checkpoints")
            t1 = time.perf_counter()
            system = None
            system = psystem.load_system(rd / "system.json")
            t2 = time.perf_counter()
            s["manifest_save_s"].append(t1 - t0)
            s["manifest_load_s"].append(t2 - t1)
        s["manifest_mb"].append((rd / "system.json").stat().st_size / 1e6)

        with self._untraced():
            self._check("set-up", checks.check_labels(system))
            self._check_accuracy("set-up", system)
            if self.stream is None:
                self.stream = request_stream(self.workload, system, self.seed)
            before = checks.parameters(system)
        touched = set()

        for request in self.stream:
            self._tag(f"round{self.rounds}.request{request.request_id}")
            with self._untraced():
                effects = checks.expected_effects(system, request)
            touched |= checks.touched_models(effects)
            record = {"round": self.rounds, "request": request.request_id,
                      "kind": request.kind, "point": request.point_id}
            self.records.append(record)
            t0 = time.perf_counter()
            snap = psystem.snapshot(system)
            t1 = time.perf_counter()
            try:
                _, report = unlearning.apply_request(system, request)
                t2 = time.perf_counter()
                verdict = unlearning.verify_exactness(snap, request, system)
            except Exception as exc:  # a request that raises has failed
                record.update(failures=[f"{type(exc).__name__}: {exc}"], cause=None)
                continue
            t3 = time.perf_counter()
            s["request_s"].append(t2 - t1)
            s["verify_s"].append(t1 - t0 + t3 - t2)
            s["student_steps"].append(report.student_steps)
            with self._untraced():
                problems = checks.check_request(system, request, effects, report)
                cause = None
                if not verdict.passed and not problems and \
                        checks.label_fault(system, verdict.failures):
                    cause = checks.FAULT
            record.update(request_ms=1e3 * (t2 - t1), verify_ms=1e3 * (t3 - t2 + t1 - t0),
                          student_steps=report.student_steps,
                          teacher_steps=report.teacher_steps,
                          failures=list(verdict.failures) + problems, cause=cause)

        snap = None
        with self._untraced():
            self._check("post-stream", checks.check_labels(system))
            self._check("post-stream", checks.check_untouched(before, system, touched))
            self._check_accuracy("post-stream", system)
            expected = checks.fingerprint(system)
            psystem.save_manifest(system, rd / "reload.json", "checkpoints")
            system = None
            self._check("post-stream", checks.check_reload(
                expected, psystem.load_system(rd / "reload.json")))
        s["store_mb"].append(_dir_mb(rd / "checkpoints"))
        shutil.rmtree(rd)
        s["round_s"].append(time.perf_counter() - start)

    def loop(self, seconds: float) -> None:
        for _ in range(rounds_for(self.workload, seconds)):
            self.round()

    def failed(self) -> list:
        return [r for r in self.records if r["failures"]]

    def correct(self) -> bool:
        """No check failed, and every failed request is the known label fault."""
        return not self.problems and all(r["cause"] for r in self.failed())

    def end_to_end(self) -> dict:
        s = self.samples
        med = statistics.median
        request_ms = [1e3 * v for v in s["request_s"]]
        replay = statistics.mean(s["student_steps"])
        values = {
            "setup_s": (med(s["setup_s"]), "s"),
            "request_ms_p50": (med(request_ms), "ms"),
            "request_ms_tail": (tail(request_ms), "ms"),
            "requests_per_s": (len(request_ms) / sum(s["request_s"]), "1/s"),
            "verify_ms_p50": (1e3 * med(s["verify_s"]), "ms"),
            "manifest_save_s": (med(s["manifest_save_s"]), "s"),
            "manifest_load_s": (med(s["manifest_load_s"]), "s"),
            "manifest_mb": (med(s["manifest_mb"]), "MB"),
            "store_mb": (med(s["store_mb"]), "MB"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "MB"),
            "step_speedup": (med(self.initial_student_steps) / replay, "x"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
