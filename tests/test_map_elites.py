"""MAP-Elites archive: binning, elitist replacement, illumination budget and
determinism, and the text serialization round trip."""

import numpy as np
import pytest

from sela.map_elites import (
    Archive,
    ArchiveFormatError,
    ArchivePrior,
    Elite,
    OfferResult,
    bin_index,
    illuminate,
    load_archive,
    save_archive,
)
from sela.worlds import segment_walker_evaluator


def make_elite(descriptor, performance, behavior=None, outcome=(0.0, 0.0)):
    if behavior is None:
        behavior = [performance]
    return Elite(behavior, descriptor, performance, outcome)


class TestBinIndex:
    def test_interior_point(self):
        assert bin_index([0.55, 0.2], (10, 10)) == (5, 2)

    def test_top_edge_folds_into_last_bin(self):
        assert bin_index([1.0, 1.0], (10, 10)) == (9, 9)

    def test_out_of_range_clamped(self):
        assert bin_index([-0.3, 1.7], (10, 10)) == (0, 9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="coordinates"):
            bin_index([0.5], (10, 10))


class TestOffer:
    def test_insert_replace_reject(self):
        archive = Archive((10, 10), behavior_dim=1, outcome_dim=2)
        assert archive.offer(make_elite([0.55, 0.2], 1.0)) is OfferResult.INSERTED
        assert archive.offer(make_elite([0.55, 0.2], 2.0)) is OfferResult.REPLACED
        assert archive.offer(make_elite([0.55, 0.2], 1.5)) is OfferResult.REJECTED
        assert archive.cells[(5, 2)].performance == 2.0

    def test_equal_performance_keeps_incumbent(self):
        archive = Archive((4, 4), 1, 2)
        first = make_elite([0.1, 0.1], 1.0, behavior=[111.0])
        archive.offer(first)
        archive.offer(make_elite([0.1, 0.1], 1.0, behavior=[222.0]))
        assert archive.cells[(0, 0)].behavior[0] == 111.0

    def test_coverage_counts_occupied_cells(self):
        archive = Archive((4, 4), 1, 2)
        archive.offer(make_elite([0.1, 0.1], 1.0))
        archive.offer(make_elite([0.9, 0.9], 1.0))
        assert archive.coverage == pytest.approx(2 / 16)


class TestIlluminate:
    def evaluator_calls(self):
        calls = []

        def evaluator(behavior):
            calls.append(behavior.copy())
            return np.abs(behavior[:2]) % 1.0, float(behavior[0]), behavior[:2]

        return evaluator, calls

    def test_exact_budget(self):
        evaluator, calls = self.evaluator_calls()
        illuminate(evaluator, budget=250, seed=1, lower=[-1, -1, -1], upper=[1, 1, 1], grid_shape=(5, 5))
        assert len(calls) == 250

    @pytest.mark.parametrize(
        "descriptor, performance",
        [((np.nan, 0.5), 1.0), ((0.5, np.inf), 1.0), ((0.5, 0.5), np.nan), ((0.5, 0.5), -np.inf)],
    )
    def test_non_finite_evaluation_rejected(self, descriptor, performance):
        evaluator, calls = self.evaluator_calls()

        def breaks_at_130(behavior):
            result = evaluator(behavior)
            if len(calls) == 131:
                return np.array(descriptor), performance, result[2]
            return result

        with pytest.raises(ValueError, match="evaluation 130: evaluator returned a non-finite"):
            illuminate(
                breaks_at_130, budget=250, seed=1, lower=[-1] * 3, upper=[1] * 3, grid_shape=(5, 5)
            )

    def test_budget_equal_to_initial_batch_is_pure_random_search(self):
        evaluator, calls = self.evaluator_calls()
        archive = illuminate(
            evaluator, budget=100, seed=4, lower=[-1, -1, -1], upper=[1, 1, 1], grid_shape=(5, 5)
        )
        assert len(calls) == 100
        assert 0 < len(archive) <= 25

    def test_constant_descriptor_fills_one_cell_with_best(self):
        def evaluator(behavior):
            return np.array([0.5, 0.5]), float(behavior[0]), behavior[:2]

        archive = illuminate(
            evaluator, budget=120, seed=2, lower=[-1.0], upper=[1.0], grid_shape=(8, 8),
            init_batch=100,
        )
        assert len(archive) == 1
        elite = archive.elites()[0]
        assert elite.performance == pytest.approx(1.0, abs=0.05)

    def test_same_seed_reproduces_archive_exactly(self):
        results = []
        for _ in range(2):
            archive = illuminate(
                segment_walker_evaluator,
                budget=1200,
                seed=9,
                lower=-np.ones(4),
                upper=np.ones(4),
                grid_shape=(10, 10),
            )
            results.append(save_archive(archive))
        assert results[0] == results[1]

    def test_occupied_count_grows_monotonically(self):
        occupied = 0
        counts = []

        def on_offer(_cell, _candidate, result):
            nonlocal occupied
            if result is OfferResult.INSERTED:
                occupied += 1
            counts.append(occupied)

        def evaluator(behavior):
            return np.abs(behavior) % 1.0, float(np.sum(behavior)), behavior

        archive = illuminate(
            evaluator, budget=300, seed=3, lower=[-1, -1], upper=[1, 1],
            grid_shape=(6, 6), on_offer=on_offer,
        )
        assert len(counts) == 300
        assert counts == sorted(counts)
        assert counts[-1] == len(archive)

    def test_budget_below_initial_batch_rejected(self):
        evaluator, _ = self.evaluator_calls()
        with pytest.raises(ValueError, match="batch"):
            illuminate(evaluator, budget=50, seed=0, lower=[-1], upper=[1], grid_shape=(4,))


WALKER_KW = dict(lower=-np.ones(4), upper=np.ones(4), grid_shape=(8, 8))


class TestSerialization:
    def build_small(self):
        return illuminate(segment_walker_evaluator, budget=400, seed=5, **WALKER_KW)

    def test_round_trip_is_byte_identical(self):
        archive = self.build_small()
        data = save_archive(archive)
        assert save_archive(load_archive(data)) == data

    def test_header_describes_dimensions(self):
        data = save_archive(self.build_small())
        header = data.decode().splitlines()[0]
        assert header == "sela-archive v1 m=2 grid=8x8 b=4 d=2"

    def test_empty_archive_round_trips(self):
        empty = Archive((3, 3), behavior_dim=2, outcome_dim=2)
        data = save_archive(empty)
        loaded = load_archive(data)
        assert len(loaded) == 0
        assert save_archive(loaded) == data

    def test_malformed_header_reports_line_1(self):
        with pytest.raises(ArchiveFormatError, match="line 1"):
            load_archive(b"bogus v1 m=2\n")

    def test_bad_value_reports_its_line(self):
        data = save_archive(self.build_small()).decode().splitlines()
        data[3] = data[3].replace("perf=", "perf=abc", 1)
        with pytest.raises(ArchiveFormatError, match="line 4"):
            load_archive(("\n".join(data) + "\n").encode())

    def test_cell_outside_grid_rejected(self):
        empty = Archive((3, 3), 1, 2)
        line = "cell=7,0 behavior=0.0 descriptor=0.5,0.5 perf=1.0 outcome=0.0,0.0"
        data = save_archive(empty) + (line + "\n").encode()
        with pytest.raises(ArchiveFormatError, match="outside grid"):
            load_archive(data)


class TestArchivePrior:
    def test_exact_behavior_returns_cached_outcome(self):
        archive = illuminate(segment_walker_evaluator, budget=300, seed=6, **WALKER_KW)
        prior = ArchivePrior(archive)
        for elite in archive.elites()[:10]:
            np.testing.assert_array_equal(prior(elite.behavior), elite.outcome)

    def test_between_elites_uses_nearest(self):
        archive = Archive((2, 2), 1, 2)
        archive.offer(Elite([0.0], [0.2, 0.2], 1.0, [1.0, 0.0]))
        archive.offer(Elite([10.0], [0.8, 0.8], 1.0, [0.0, 1.0]))
        prior = ArchivePrior(archive)
        np.testing.assert_array_equal(prior(np.array([1.0])), [1.0, 0.0])
        np.testing.assert_array_equal(prior(np.array([9.0])), [0.0, 1.0])

    def test_repeated_queries_identical(self):
        archive = illuminate(segment_walker_evaluator, budget=300, seed=8, **WALKER_KW)
        prior = ArchivePrior(archive)
        x = np.array([0.3, -0.2, 0.9, 0.0])
        np.testing.assert_array_equal(prior(x), prior(x))

    def test_empty_archive_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ArchivePrior(Archive((2, 2), 1, 2))
