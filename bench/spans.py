"""Spans around the package's public functions, recorded from outside.

``Tracer.patched()`` replaces each traced function, wherever a purgekd
module holds a reference to it, by a wrapper that records one span: id,
parent span, request tag, name, start, end and a work count. Spans stay in
memory until ``write`` puts them in a CSV file.
"""

from __future__ import annotations

import contextlib
import csv
import sys
import time
from collections import defaultdict

import numpy as np

from purgekd import checkpoints, data, model, student, system, teacher, unlearning


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> (owner, attribute, work count taken from args and result)
TARGETS = {
    "data.rows_for": (data.Dataset, "rows_for", lambda a, k, r: len(r)),
    "model.train": (model, "train", lambda a, k, r: len(_arg(a, k, 1, "features"))
                    * _arg(a, k, 4, "epochs") / 1000.0),
    "model.predict_batch": (model, "predict_batch",
                            lambda a, k, r: len(_arg(a, k, 1, "features"))),
    "model.aggregate_batch": (model, "aggregate_batch", lambda a, k, r: len(r)),
    "student.run_student_round": (student, "run_student_round", None),
    "student.generate_chunk_labels": (student, "generate_chunk_labels", None),
    "student.train_student_network": (student, "train_student_network", None),
    "teacher.teacher_unlearn": (teacher, "teacher_unlearn", None),
    "checkpoints.save": (checkpoints.CheckpointStore, "save",
                         lambda a, k, r: r.byte_size / 1e6),
    "checkpoints.load": (checkpoints.CheckpointStore, "load", None),
    "unlearning.apply_request": (unlearning, "apply_request", None),
    "unlearning.verify_exactness": (unlearning, "verify_exactness", None),
    "system.snapshot": (system, "snapshot", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, tag, name, start, end, count]
        self.tag = ""
        self.paused = False
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [len(self.spans), self._stack[-1] if self._stack else -1,
                    self.tag, name, time.perf_counter(), 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[6] = count(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Trace every target while the block runs; restore the originals after."""
        modules = [m for n, m in sys.modules.items()
                   if n == "purgekd" or n.startswith("purgekd.")]
        undo = []
        for name, (owner, attr, count) in TARGETS.items():
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, count)
            holders = [owner] + [m for m in modules
                                 if m is not owner and getattr(m, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, wrapped)
                undo.append((holder, attr, original))
        try:
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    @contextlib.contextmanager
    def pause(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        paused, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = paused

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "tag", "name", "start", "end", "count"])
            out.writerows(self.spans)


def _self_times(spans) -> list[float]:
    """Duration minus the time covered by child spans (children of one span
    run one after another, so their durations add up)."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[5] - s[4]
    return own


def _descendant_time(spans, children, root: int, name: str) -> float:
    total, todo = 0.0, list(children[root])
    while todo:
        s = spans[todo.pop()]
        if s[3] == name:
            total += s[5] - s[4]
        else:
            todo.extend(children[s[0]])
    return total


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer figures per round (one set-up plus one pass of the stream)."""
    own = _self_times(spans)
    calls, dur, selfs, work = (defaultdict(float) for _ in range(4))
    children = defaultdict(list)
    for s in spans:
        calls[s[3]] += 1
        dur[s[3]] += s[5] - s[4]
        selfs[s[3]] += own[s[0]]
        work[s[3]] += s[6]
        if s[1] >= 0:
            children[s[1]].append(s[0])
    for totals in (calls, dur, selfs, work):
        for name in totals:
            totals[name] /= rounds

    # student wall speed-up: initial student training over the mean student
    # replay per request, relabelling and teacher replay taken out of both
    labels = "student.generate_chunk_labels"
    initial = [s[5] - s[4] - _descendant_time(spans, children, s[0], labels)
               for s in spans if s[3] == "student.train_student_network"]
    applies = [s for s in spans if s[3] == "unlearning.apply_request"]
    replay = [s[5] - s[4] - _descendant_time(spans, children, s[0], labels)
              - _descendant_time(spans, children, s[0], "teacher.teacher_unlearn")
              for s in applies]

    def value(v, unit):
        return {"value": float(v), "unit": unit}

    return {
        "data.rows_for.calls": value(calls["data.rows_for"], "count"),
        "data.rows_for.rows": value(work["data.rows_for"], "count"),
        "data.rows_for.s": value(dur["data.rows_for"], "s"),
        "model.train.calls": value(calls["model.train"], "count"),
        "model.train.ksteps": value(work["model.train"], "ksteps"),
        "model.train.s": value(dur["model.train"], "s"),
        "model.train.ksteps_per_s": value(work["model.train"] / dur["model.train"],
                                          "ksteps/s"),
        "model.predict_batch.rows": value(work["model.predict_batch"], "count"),
        "model.predict_batch.s": value(dur["model.predict_batch"], "s"),
        "model.aggregate_batch.rows": value(work["model.aggregate_batch"], "count"),
        "model.aggregate_batch.s": value(dur["model.aggregate_batch"], "s"),
        "student.run_student_round.calls": value(calls["student.run_student_round"],
                                                 "count"),
        "student.run_student_round.self_s": value(selfs["student.run_student_round"],
                                                  "s"),
        "student.generate_chunk_labels.calls": value(calls[labels], "count"),
        "student.generate_chunk_labels.self_s": value(selfs[labels], "s"),
        "student.wall_speedup": value(np.median(initial) / np.mean(replay), "x"),
        "teacher.teacher_unlearn.calls": value(calls["teacher.teacher_unlearn"], "count"),
        "teacher.teacher_unlearn.s": value(dur["teacher.teacher_unlearn"], "s"),
        "checkpoints.save.calls": value(calls["checkpoints.save"], "count"),
        "checkpoints.save.mb": value(work["checkpoints.save"], "MB"),
        "checkpoints.save.s": value(dur["checkpoints.save"], "s"),
        "checkpoints.load.calls": value(calls["checkpoints.load"], "count"),
        "checkpoints.load.s": value(dur["checkpoints.load"], "s"),
        "unlearning.apply_request.self_s": value(selfs["unlearning.apply_request"], "s"),
        "unlearning.verify_exactness.self_s": value(selfs["unlearning.verify_exactness"],
                                                    "s"),
        "system.snapshot.s": value(dur["system.snapshot"], "s"),
        "trace.request_ms_p50": value(1e3 * np.median([s[5] - s[4] for s in applies]),
                                      "ms"),
    }

