"""Datasets, CSV round trips, and the shard/chunk/slice partition plan."""

import numpy as np
import pytest

from purgekd import (Dataset, NotFoundError, ParseError, PartitionError,
                     SyntheticSpec, even_split_sizes, gen_synthetic, load_csv,
                     make_partition, write_csv)
from purgekd.errors import DimensionError


class TestSyntheticGeneration:
    def test_shapes_and_ids(self):
        ds = gen_synthetic(SyntheticSpec(num_classes=4, points_per_class=25,
                                         feature_dim=6, seed=3))
        assert len(ds) == 100
        assert ds.feature_dim == 6
        assert ds.num_classes == 4
        assert list(ds.ids) == list(range(100))
        # ids are assigned class-major: first block is class 0, etc.
        assert list(ds.labels[:25]) == [0] * 25
        assert list(ds.labels[-25:]) == [3] * 25

    def test_seed_reproducibility(self):
        """Same spec, same bits; different seed, different features."""
        spec = SyntheticSpec(num_classes=3, points_per_class=10,
                             feature_dim=4, seed=9)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        np.testing.assert_array_equal(a.features, b.features)
        c = gen_synthetic(SyntheticSpec(num_classes=3, points_per_class=10,
                                        feature_dim=4, seed=10))
        assert not np.array_equal(a.features, c.features)

    def test_class_separation_scales_with_spread(self):
        """Wider center spread should push class means further apart."""
        def mean_center_gap(spread):
            ds = gen_synthetic(SyntheticSpec(
                num_classes=2, points_per_class=200, feature_dim=3,
                class_center_spread=spread, within_class_stddev=0.5, seed=1))
            m0 = ds.features[ds.labels == 0].mean(axis=0)
            m1 = ds.features[ds.labels == 1].mean(axis=0)
            return float(np.linalg.norm(m0 - m1))

        assert mean_center_gap(10.0) > mean_center_gap(0.5)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=1, points_per_class=10, feature_dim=3)
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=3, points_per_class=0, feature_dim=3)


class TestDatasetAccessors:
    def test_rows_for_and_missing_id(self, small_dataset):
        ids = [5, 17, 3]
        rows = small_dataset.rows_for(ids)
        np.testing.assert_array_equal(small_dataset.features[rows],
                                      small_dataset.features_for(ids))
        with pytest.raises(NotFoundError):
            small_dataset.rows_for([10_000])

    def test_arrays_are_read_only(self, small_dataset):
        """A manifest keeps a dataset's digest, so its arrays cannot change."""
        for array in (small_dataset.ids, small_dataset.labels, small_dataset.features):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]

    def test_rows_for_unsorted_ids(self):
        ds = Dataset(ids=np.array([50, 3, 17, 99]), features=np.zeros((4, 2)),
                     labels=np.array([0, 1, 0, 1]), num_classes=2)
        np.testing.assert_array_equal(ds.rows_for([99, 3, 50, 17]), [3, 1, 0, 2])
        assert len(ds.rows_for([])) == 0
        for missing in (-1, 4, 100):
            assert missing not in ds
            with pytest.raises(NotFoundError, match=str(missing)):
                ds.rows_for([3, missing])

    def test_rows_for_id_beyond_int64(self, small_dataset):
        """An id no int64 holds is unknown, like any other missing id."""
        for huge in (2**70, -2**70):
            with pytest.raises(NotFoundError):
                small_dataset.rows_for([3, huge])

    def test_contains(self, small_dataset):
        assert 0 in small_dataset
        assert 239 in small_dataset
        assert 240 not in small_dataset
        assert 2**70 not in small_dataset

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Dataset(ids=np.array([1, 1]), features=np.zeros((2, 2)),
                    labels=np.array([0, 1]), num_classes=2)


class TestCsvRoundTrip:
    def test_lossless(self, small_dataset, tmp_path):
        """Float features survive a write/read cycle bit-exactly."""
        path = tmp_path / "data.csv"
        write_csv(small_dataset, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.ids, small_dataset.ids)
        np.testing.assert_array_equal(back.features, small_dataset.features)
        np.testing.assert_array_equal(back.labels, small_dataset.labels)
        assert back.num_classes == small_dataset.num_classes

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("id,label,f1,f2\n0,1,1.5,-2.0\n1,0,0.25,3.5\n")
        ds = load_csv(path, has_header=True)
        assert len(ds) == 2
        assert ds.feature_dim == 2

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,1.0,2.0\n1,0,oops,2.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1,1.0,2.0\n1,0,1.0\n")
        with pytest.raises(DimensionError):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path)


class TestEvenSplit:
    def test_remainder_goes_to_lowest_indices(self):
        assert even_split_sizes(10, 3) == [4, 3, 3]
        assert even_split_sizes(12, 4) == [3, 3, 3, 3]
        assert even_split_sizes(7, 7) == [1] * 7

    def test_sizes_sum_to_n(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 500))
            groups = int(rng.integers(1, n + 1))
            sizes = even_split_sizes(n, groups)
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1

    def test_too_few_points(self):
        with pytest.raises(PartitionError):
            even_split_sizes(2, 3)


class TestPartitionPlan:
    def test_disjoint_cover(self, small_dataset):
        """Every id lands in exactly one slice."""
        plan = make_partition(small_dataset, [[3, 3]] * 4, seed=5)
        seen = []
        for k in range(1, plan.num_shards + 1):
            for l in range(1, plan.chunks_in_shard(k) + 1):
                for j in range(1, plan.slices_in_chunk(k, l) + 1):
                    seen.extend(plan.slice_ids(k, l, j))
        assert sorted(seen) == sorted(small_dataset.ids.tolist())
        assert len(seen) == len(set(seen))

    def test_locate_matches_brute_scan(self, small_dataset):
        plan = make_partition(small_dataset, [[2, 2]] * 3, seed=8)
        rng = np.random.default_rng(2)
        for pid in rng.choice(small_dataset.ids, size=40, replace=False):
            k, l, j = plan.locate(int(pid))
            assert int(pid) in plan.slice_ids(k, l, j)

    def test_locate_unknown_point(self, small_dataset):
        plan = make_partition(small_dataset, [[1]] * 2, seed=0)
        for unknown in (99_999, 2**70):
            assert unknown not in plan
            with pytest.raises(NotFoundError):
                plan.locate(unknown)

    def test_remove_preserves_order_of_survivors(self, small_dataset):
        plan = make_partition(small_dataset, [[2, 2]] * 2, seed=4)
        k, l, j = plan.locate(30)
        before = list(plan.slice_ids(k, l, j))
        plan.remove(30)
        after = list(plan.slice_ids(k, l, j))
        before.remove(30)
        assert after == before
        assert 30 not in plan
        with pytest.raises(NotFoundError):
            plan.locate(30)

    def test_seed_determinism(self, small_dataset):
        a = make_partition(small_dataset, [[2, 2]] * 4, seed=13)
        b = make_partition(small_dataset, [[2, 2]] * 4, seed=13)
        assert a.raw_slices() == b.raw_slices()
        c = make_partition(small_dataset, [[2, 2]] * 4, seed=14)
        assert a.raw_slices() != c.raw_slices()

    def test_nested_slice_counts(self, small_dataset):
        """Per-shard chunk structure may be ragged when given explicitly."""
        plan = make_partition(small_dataset, [[2, 1], [1, 1, 2]], seed=6)
        assert plan.chunks_in_shard(1) == 2
        assert plan.chunks_in_shard(2) == 3
        assert plan.slices_in_chunk(1, 1) == 2
        assert plan.slices_in_chunk(2, 3) == 2
        assert plan.total_slices_in_shard(1) == 3
        assert plan.total_slices_in_shard(2) == 4

    def test_copy_is_independent(self, small_dataset):
        plan = make_partition(small_dataset, [[2, 2]] * 2, seed=4)
        dup = plan.copy()
        victim = plan.slice_ids(1, 1, 1)[0]
        plan.remove(victim)
        assert victim not in plan
        assert victim in dup

    def test_rows_and_bounds_follow_ids_after_removals(self, small_dataset):
        """The row index and boundaries a round slices stay in step with the
        id listings as points leave the first, last and middle of chunks."""
        plan = make_partition(small_dataset, [[2, 2]] * 3, seed=9)
        for pid in (plan.chunk_ids(1, 1)[0], plan.chunk_ids(2, 2)[-1],
                    plan.slice_ids(3, 1, 2)[3]):
            plan.remove(pid)
        for k in range(1, 4):
            np.testing.assert_array_equal(plan.shard_rows(k),
                                          small_dataset.rows_for(plan.shard_ids(k)))
            offset = 0
            for l in range(1, 3):
                bounds = plan.chunk_bounds(k, l)
                assert bounds[0] == offset
                assert [bounds[j] - bounds[j - 1] for j in (1, 2)] == \
                    [len(plan.slice_ids(k, l, j)) for j in (1, 2)]
                offset = bounds[-1]
            assert offset == len(plan.shard_ids(k))
            assert not plan.shard_rows(k).flags.writeable

    def test_copy_keeps_its_rows(self, small_dataset):
        plan = make_partition(small_dataset, [[2, 2]] * 2, seed=4)
        dup = plan.copy()
        victim = plan.slice_ids(1, 1, 1)[0]
        plan.remove(victim)
        assert dup.shard_ids(1)[0] == victim
        assert dup.shard_rows(1)[0] == small_dataset.rows_for([victim])[0]
        assert dup.chunk_bounds(1, 2) == tuple(b + 1 for b in plan.chunk_bounds(1, 2))

    @pytest.mark.parametrize("seed", [0, 5, 2024])
    @pytest.mark.parametrize("shape", [[[1]] * 4, [[2, 2]] * 3, [[2, 1], [1, 1, 2]],
                                       [[3, 1, 2], [2], [1, 4]]])
    def test_layout_equals_a_permutation_of_the_ids(self, seed, shape):
        """A plan laid out over a permutation of the rows equals one cut from
        the same seed's permutation of the ids, on gapped, unsorted ids. The
        two agree only because numpy's shuffle moves positions whatever the
        values; this test fails if that ever changes."""
        n = 103
        ids = 7 + 10 * np.random.default_rng(seed + 1).permutation(n)
        ds = Dataset(ids, np.zeros((n, 2)), np.zeros(n, dtype=int), 2)
        plan = make_partition(ds, shape, seed)
        order = np.random.default_rng(seed).permutation(ids).tolist()
        reference, start = [], 0
        for size, counts in zip(even_split_sizes(n, len(shape)), shape):
            shard, start, chunks, end = order[start:start + size], start + size, [], 0
            for chunk_size, r in zip(even_split_sizes(size, len(counts)), counts):
                slices = []
                for width in even_split_sizes(chunk_size, r):
                    slices.append(shard[end:end + width])
                    end += width
                chunks.append(slices)
            reference.append(chunks)
        assert plan.raw_slices() == reference
        for k, chunks in enumerate(reference, start=1):
            for l, slices in enumerate(chunks, start=1):
                for j, members in enumerate(slices, start=1):
                    assert all(plan.locate(p) == (k, l, j) for p in members)

    def test_too_small_dataset_rejected(self, small_dataset):
        with pytest.raises(PartitionError):
            make_partition(small_dataset, [[1]] * 241, seed=0)
