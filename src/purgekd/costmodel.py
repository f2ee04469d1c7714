"""Analytical retraining-cost formulas and the empirical data-point-step ledger.

One step is one data point processed for one training epoch. The closed
forms assume evenly distributed shards, chunks and slices; the simulator and
ledger count whatever integer-sized configuration they are given. All
formula arithmetic is exact rational (fractions.Fraction); floats appear
only in emitted reports.

Notation, shared with the rest of the package: N student constituents, M
teacher members, c chunks per constituent, r slices per chunk, e_prime the
equivalent full-data training epochs, e_R the per-slice-round epochs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import even_split_sizes

PHASES = ("initial_train", "teacher_retrain", "student_retrain", "relabel_inference")
ROLES = ("teacher", "student")


@dataclass(frozen=True)
class LedgerEntry:
    phase: str
    role: str
    constituent: int
    steps: int


class CostLedger:
    """Append-only record of data-point steps, tagged by phase and constituent."""

    def __init__(self):
        self._entries: list[LedgerEntry] = []

    def add(self, phase: str, role: str, constituent: int, steps: int) -> LedgerEntry:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if steps < 0:
            raise ValueError("steps must be >= 0")
        entry = LedgerEntry(phase, role, int(constituent), int(steps))
        self._entries.append(entry)
        return entry

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def total(self, phase: str | None = None, role: str | None = None) -> int:
        return sum(e.steps for e in self._entries
                   if (phase is None or e.phase == phase)
                   and (role is None or e.role == role))

    def __len__(self) -> int:
        return len(self._entries)


def write_ledger_csv(ledger: CostLedger, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["phase", "role", "constituent", "steps"])
    append_ledger_csv(ledger.entries, path)


def append_ledger_csv(entries, path) -> None:
    """Append ledger entries to a file ``write_ledger_csv`` began."""
    with open(path, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([e.phase, e.role, e.constituent, e.steps] for e in entries)


def read_ledger_csv(path) -> CostLedger:
    ledger = CostLedger()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if row:
                ledger.add(row[0], row[1], int(row[2]), int(row[3]))
    return ledger


# ----------------------------------------------------------------------------
# Closed forms
# ----------------------------------------------------------------------------

def epochs_per_slice(e_prime: int, c: int, r: int) -> tuple[Fraction, int]:
    """Per-slice-round epochs that keep total initial effort at e_prime
    full-data epochs: exact value 2 e' / (c r + 1) and its practical ceiling."""
    if e_prime < 1 or c < 1 or r < 1:
        raise ValueError("e_prime, c and r must be >= 1")
    exact = Fraction(2 * e_prime, c * r + 1)
    return exact, math.ceil(exact)


def retrain_steps(l: int, c: int, r: int, e_R) -> Fraction:
    """Slice-rounds, weighted by cumulative slice count, to retrain chunks
    l..c of one constituent (unit: slice-sized blocks of data-point steps)."""
    if not 1 <= l <= c:
        raise ValueError(f"chunk index {l} outside 1..{c}")
    if r < 1:
        raise ValueError("r must be >= 1")
    base = (l - 1) * r
    return Fraction(e_R) * ((base + 1) + c * r) * (c * r - base) / 2


def avg_retrain_steps(c: int, r: int, e_R) -> Fraction:
    """retrain_steps averaged over the affected chunk l = 1..c, closed form."""
    if c < 1 or r < 1:
        raise ValueError("c and r must be >= 1")
    total = sum(((i * r + 1) + c * r) * ((c - i) * r) for i in range(c))
    return Fraction(e_R) * Fraction(total, 2 * c)


def brute_force_avg_steps(c: int, r: int, e_R) -> Fraction:
    """Oracle for avg_retrain_steps: direct enumeration of every retraining
    round's cumulative slice count, averaged over the affected chunk."""
    e = Fraction(e_R)
    total = Fraction(0)
    for l in range(1, c + 1):
        for j in range((l - 1) * r + 1, c * r + 1):
            total += e * j
    return total / c


def speedup_vs_n(n: int, c: int, r: int) -> Fraction:
    """Predicted full-retrain / partial-retrain cost ratio at fixed N."""
    if n < 1 or c < 1 or r < 1:
        raise ValueError("n, c and r must be >= 1")
    return Fraction(n * (6 * c * c * r + 6 * c),
                    4 * c * c * r + 3 * c * r + 3 * c - r + 3)


def speedup_vs_m(m: int, c: int, r: int) -> Fraction:
    """Predicted cost ratio expressed at fixed teacher count M = N c."""
    if m < 1 or c < 1 or r < 1:
        raise ValueError("m, c and r must be >= 1")
    return Fraction(m * (6 * c * r + 6),
                    4 * c * c * r + 3 * c * r + 3 * c - r + 3)


def student_side_cost_fraction(slices: int) -> Fraction:
    """Expected fraction of a full constituent retrain paid by a uniform
    random in-shard removal, with R slices: 2/3 + 1/(3R)."""
    if slices < 1:
        raise ValueError("slices must be >= 1")
    return Fraction(2, 3) + Fraction(1, 3 * slices)


def ceiling_effect_bound(e_prime: int, c: int, r: int) -> Fraction:
    """Relative extra work caused by rounding e_R up to an integer."""
    exact, practical = epochs_per_slice(e_prime, c, r)
    return Fraction(practical) / exact - 1


def expected_student_unlearn_fraction(shard_size: int, slices: int) -> Fraction:
    """Exact enumeration over point positions of the expected student-side
    retraining fraction, using real integer slice sizes and the post-removal
    cumulative counts (the closed form ignores the removed point)."""
    sizes = even_split_sizes(shard_size, slices)
    cum = np.cumsum(sizes).tolist()
    full = sum(cum)  # cost of retraining every slice round, pre-removal
    total = Fraction(0)
    for j in range(1, slices + 1):
        cost_j = sum(cum[q - 1] - 1 for q in range(j, slices + 1))
        total += sizes[j - 1] * Fraction(cost_j, full)
    return total / shard_size


# ----------------------------------------------------------------------------
# Step-count simulation (no model training)
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulatedRun:
    """Outcome of a step-count-only teacher-request simulation."""

    per_request_steps: tuple[int, ...]
    initial_student_steps: int
    chunk_counts: tuple[int, ...]
    epochs_by_shard: tuple[int, ...]

    @property
    def mean_steps(self) -> Fraction:
        return Fraction(sum(self.per_request_steps), len(self.per_request_steps))

    @property
    def measured_ratio(self) -> Fraction:
        return Fraction(self.initial_student_steps) / self.mean_steps


def _shard_round_sizes(shard_size: int, c_k: int, r: int) -> list[int]:
    """Cumulative data size at every slice round of one shard, in order."""
    chunk_sizes = even_split_sizes(shard_size, c_k)
    out = []
    done = 0
    for size in chunk_sizes:
        for s in np.cumsum(even_split_sizes(size, r)).tolist():
            out.append(done + int(s))
        done += size
    return out


def simulate_teacher_requests(m: int, n: int, r: int, e_prime: int,
                              dataset_size: int, n_requests: int,
                              seed: int) -> SimulatedRun:
    """Sequential uniform-random teacher-target requests, counted in
    data-point steps against the student network they would retrain.

    Teachers are assigned to constituents in index order, as evenly as
    possible, so the simulation also covers non-divisible M/N. Removing the
    single point from the teacher shard does not change student data sizes,
    so requests are independent and the counts are exact.
    """
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    chunk_counts = even_split_sizes(m, n)
    shard_sizes = even_split_sizes(dataset_size, n)
    epochs = []
    rounds = []
    for k in range(n):
        _, e_k = epochs_per_slice(e_prime, chunk_counts[k], r)
        epochs.append(e_k)
        rounds.append(_shard_round_sizes(shard_sizes[k], chunk_counts[k], r))
    initial = sum(epochs[k] * sum(rounds[k]) for k in range(n))

    # teacher index -> (constituent k, chunk position l), both 0-based here
    owner = []
    for k, c_k in enumerate(chunk_counts):
        owner.extend((k, l) for l in range(c_k))

    rng = np.random.default_rng(seed)
    per_request = []
    for _ in range(n_requests):
        k, l = owner[int(rng.integers(0, m))]
        start = l * r  # first retrained round, 0-based
        per_request.append(epochs[k] * sum(rounds[k][start:]))
    return SimulatedRun(tuple(per_request), int(initial), tuple(chunk_counts),
                        tuple(epochs))
