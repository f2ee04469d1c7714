"""Cost accounting, closed-form retraining effort, and the step simulator.

Every formula value is checked against an independent route: brute-force
enumeration for the average retraining effort, a hand-summed ledger for
the totals, and exact rational arithmetic end to end.
"""

import math
from fractions import Fraction

import pytest

from purgekd import (CostLedger, LedgerEntry, ceiling_effect_bound,
                     epochs_per_slice, expected_student_unlearn_fraction,
                     read_ledger_csv, retrain_steps, simulate_teacher_requests,
                     speedup_vs_m, speedup_vs_n, student_side_cost_fraction,
                     write_ledger_csv)
from purgekd.costmodel import avg_retrain_steps, brute_force_avg_steps


class TestLedger:
    def test_totals_filterable(self):
        ledger = CostLedger()
        ledger.add("initial_train", "teacher", 1, 100)
        ledger.add("initial_train", "teacher", 2, 150)
        ledger.add("initial_train", "student", 1, 300)
        ledger.add("teacher_retrain", "teacher", 1, 40)
        assert ledger.total() == 590
        assert ledger.total(phase="initial_train") == 550
        assert ledger.total(phase="initial_train", role="teacher") == 250
        assert ledger.total(role="student") == 300
        assert len(ledger) == 4

    def test_invalid_entries_rejected(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.add("warmup", "teacher", 1, 10)
        with pytest.raises(ValueError):
            ledger.add("initial_train", "referee", 1, 10)
        with pytest.raises(ValueError):
            ledger.add("initial_train", "teacher", 1, -5)

    def test_csv_round_trip(self, tmp_path):
        ledger = CostLedger()
        ledger.add("initial_train", "teacher", 3, 123)
        ledger.add("relabel_inference", "student", 1, 7)
        path = tmp_path / "ledger.csv"
        write_ledger_csv(ledger, path)
        back = read_ledger_csv(path)
        assert back.entries == ledger.entries

    def test_entries_are_immutable_records(self):
        entry = LedgerEntry("initial_train", "teacher", 1, 5)
        with pytest.raises(Exception):
            entry.steps = 6


class TestEpochBudget:
    def test_matched_total_effort(self):
        """e_R = 2e'/(cr+1) makes the summed round costs equal e' full
        passes over the shard, exactly, for any (c, r)."""
        for c in range(1, 9):
            for r in range(1, 9):
                for e_prime in (10, 120):
                    e_r, _ = epochs_per_slice(e_prime, c, r)
                    # rounds process 1, 2, ..., cr slices of equal size 1/(cr)
                    total = sum(e_r * Fraction(i, c * r)
                                for i in range(1, c * r + 1))
                    assert total == e_prime

    def test_practical_is_ceiling(self):
        e_r, practical = epochs_per_slice(20, 2, 2)
        assert e_r == Fraction(40, 5)
        assert practical == 8
        e_r, practical = epochs_per_slice(20, 3, 1)
        assert e_r == Fraction(40, 4)
        assert practical == 10
        e_r, practical = epochs_per_slice(8, 2, 2)
        assert e_r == Fraction(16, 5)
        assert practical == 4


class TestRetrainFormulas:
    def test_average_matches_brute_force(self):
        """Closed form == enumeration over every removal position, exactly,
        for all c, r up to 8 and several per-slice epoch values."""
        for c in range(1, 9):
            for r in range(1, 9):
                for e_r in (1, 2, 3, Fraction(5, 3)):
                    closed = avg_retrain_steps(c, r, e_r)
                    brute = brute_force_avg_steps(c, r, e_r)
                    assert closed == brute, (c, r, e_r)

    def test_single_position_cases(self):
        """K(l) for hand-checkable corners: last chunk cheapest."""
        c, r, e_r = 4, 2, 2
        costs = [retrain_steps(l, c, r, e_r) for l in range(1, c + 1)]
        assert all(a > b for a, b in zip(costs, costs[1:]))
        # removing from the last chunk replays r slices at most
        assert costs[-1] == e_r * sum(range((c - 1) * r + 1, c * r + 1))

    def test_retrain_never_exceeds_full_training(self):
        for c in range(1, 7):
            for r in range(1, 7):
                e_r = Fraction(7, 2)
                full = e_r * sum(range(1, c * r + 1))
                for l in range(1, c + 1):
                    assert retrain_steps(l, c, r, e_r) <= full


class TestSpeedupFormulas:
    def test_factor_at_least_one_until_c_is_one(self):
        """Sharing the retraining among c chunks can only help: the
        student-side speed-up per constituent is >= 1, equal only at c=1."""
        for c in range(1, 65):
            for r in range(1, 65):
                factor = speedup_vs_n(1, c, r)
                if c == 1:
                    assert factor == 1
                else:
                    assert factor > 1

    def test_speedup_equivalence_when_m_equals_nc(self):
        for m in range(1, 65):
            for c in range(1, m + 1):
                if m % c:
                    continue
                n = m // c
                for r in (1, 2, 5):
                    assert speedup_vs_n(n, c, r) == speedup_vs_m(m, c, r)

    def test_vs_m_strictly_decreasing_in_c(self):
        for m in (8, 32, 64):
            for r in (1, 3, 8):
                values = [speedup_vs_m(m, c, r) for c in range(1, 17)]
                assert all(a > b for a, b in zip(values, values[1:]))

    def test_c_equals_one_gives_n(self):
        for n in (1, 4, 32):
            for r in (1, 2, 16):
                assert speedup_vs_n(n, 1, r) == n

    def test_known_value(self):
        """Frozen spot check: N=4, c=2, r=2."""
        expected = Fraction(4 * (6 * 4 * 2 + 6 * 2),
                            4 * 4 * 2 + 3 * 2 * 2 + 3 * 2 - 2 + 3)
        assert speedup_vs_n(4, 2, 2) == expected


class TestStudentSideLaw:
    def test_limit_fraction(self):
        assert student_side_cost_fraction(1) == 1
        assert student_side_cost_fraction(2) == Fraction(2, 3) + Fraction(1, 6)
        # large R approaches 2/3 from above
        assert student_side_cost_fraction(1000) - Fraction(2, 3) < Fraction(1, 1000)

    def test_enumerated_fraction_tracks_law(self):
        for slices in (2, 4, 8):
            law = Fraction(2, 3) + Fraction(1, 3 * slices)
            measured = expected_student_unlearn_fraction(240, slices)
            assert abs(measured - law) / law < Fraction(2, 100)


class TestCeilingBound:
    def test_zero_when_divisible(self):
        # 2e' divisible by cr+1: no rounding loss
        assert ceiling_effect_bound(10, 1, 4) == 0

    def test_matches_definition(self):
        e_r, practical = epochs_per_slice(20, 2, 2)
        assert ceiling_effect_bound(20, 2, 2) == \
            Fraction(practical) / e_r - 1


class TestSimulation:
    def test_c_one_ratio_is_exactly_n(self):
        run = simulate_teacher_requests(m=8, n=8, r=3, e_prime=24,
                                        dataset_size=960, n_requests=40,
                                        seed=3)
        assert run.measured_ratio == 8

    def test_mean_steps_hand_check(self):
        """One shard, one chunk, one slice: every request replays the
        whole shard at ceil(2e'/2) epochs."""
        run = simulate_teacher_requests(m=1, n=1, r=1, e_prime=5,
                                        dataset_size=100, n_requests=10,
                                        seed=0)
        assert run.mean_steps == math.ceil(Fraction(2 * 5, 2)) * 100

    def test_seed_determinism(self):
        a = simulate_teacher_requests(4, 2, 2, 20, 400, 25, seed=9)
        b = simulate_teacher_requests(4, 2, 2, 20, 400, 25, seed=9)
        assert a.per_request_steps == b.per_request_steps
        c = simulate_teacher_requests(4, 2, 2, 20, 400, 25, seed=10)
        assert a.per_request_steps != c.per_request_steps

    def test_measured_near_predicted_when_exact(self):
        """With slice sizes exact and e_R integral, the measured ratio over
        many requests approaches the closed form."""
        m, n, r, e_prime = 8, 4, 2, 18  # c=2; cr+1=5 doesn't divide 36
        run = simulate_teacher_requests(m, n, r, e_prime, dataset_size=1600,
                                        n_requests=400, seed=7)
        predicted = speedup_vs_n(n, m // n, r)
        deviation = abs(run.measured_ratio - predicted) / predicted
        assert deviation < ceiling_effect_bound(e_prime, m // n, r) + \
            Fraction(1, 10)
