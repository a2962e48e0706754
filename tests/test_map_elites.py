"""MAP-Elites archive: binning, elitist replacement, illumination budget and
determinism, and the text serialization round trip."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sela.map_elites import (
    BLOCK,
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


def batched(evaluate_one):
    """A batch evaluator that runs a per-behavior one on each row in turn."""
    def evaluator(behaviors):
        results = [evaluate_one(row) for row in behaviors]
        descriptors, performances, outcomes = zip(*results)
        return np.array(descriptors, dtype=float), np.array(performances, dtype=float), np.array(outcomes)
    return evaluator


def make_elite(descriptor, performance, behavior=None, outcome=(0.0, 0.0)):
    if behavior is None:
        behavior = [performance]
    return Elite(behavior, descriptor, performance, outcome)


class TestBinIndex:
    def test_interior_point(self):
        assert bin_index([0.55, 0.2], (10, 10)).tolist() == [5, 2]

    def test_top_edge_folds_into_last_bin(self):
        assert bin_index([1.0, 1.0], (10, 10)).tolist() == [9, 9]

    def test_out_of_range_clamped(self):
        assert bin_index([-0.3, 1.7], (10, 10)).tolist() == [0, 9]

    def test_a_batch_bins_row_by_row(self):
        rows = [[0.55, 0.2], [1.0, 1.0], [-0.3, 1.7]]
        assert bin_index(rows, (10, 10)).tolist() == [[5, 2], [9, 9], [0, 9]]


class TestOffer:
    def test_coverage_counts_occupied_cells(self):
        archive = Archive((4, 4), 1, 2)
        archive.cells[(0, 0)] = make_elite([0.1, 0.1], 1.0)
        archive.cells[(3, 3)] = make_elite([0.9, 0.9], 1.0)
        assert archive.coverage == pytest.approx(2 / 16)

    def test_total_cells_of_a_huge_grid_is_exact(self):
        assert Archive((10**10, 10**10), 1, 2).total_cells == 10**20


class TestIlluminate:
    def evaluator_calls(self):
        calls = []

        def evaluator(behavior):
            calls.append(behavior.copy())
            return np.abs(behavior[:2]) % 1.0, float(behavior[0]), behavior[:2]

        return evaluator, calls

    def test_exact_budget(self):
        evaluator, calls = self.evaluator_calls()
        offers = []
        illuminate(batched(evaluator), budget=250, seed=1, lower=[-1, -1, -1], upper=[1, 1, 1], grid_shape=(5, 5),
                   on_offer=lambda cell, elite, result: offers.append(elite.behavior.tobytes()))
        assert len(offers) == 250
        # every offer was evaluated; a child drawn again after a rewind (an
        # insertion, or a replaced parent that it picked) is evaluated once more
        assert set(offers) <= {behavior.tobytes() for behavior in calls}
        assert len(calls) >= 250

    @pytest.mark.parametrize(
        "descriptor, performance",
        [((np.nan, 0.5), 1.0), ((0.5, np.inf), 1.0), ((0.5, 0.5), np.nan), ((0.5, 0.5), -np.inf)],
    )
    def test_non_finite_evaluation_rejected(self, descriptor, performance):
        kwargs = dict(budget=250, seed=1, lower=[-1] * 3, upper=[1] * 3, grid_shape=(5, 5))
        evaluator, _ = self.evaluator_calls()
        offers = []
        illuminate(batched(evaluator), **kwargs,
                   on_offer=lambda cell, elite, result: offers.append(elite.behavior.tobytes()))

        def breaks_at_130(behavior):
            # keyed on the behavior: the evaluator sees more rows than offers
            result = evaluator(behavior)
            if behavior.tobytes() == offers[130]:
                return np.array(descriptor), performance, result[2]
            return result

        before = []
        with pytest.raises(ValueError, match="^offer 130: evaluator returned a non-finite"):
            illuminate(batched(breaks_at_130), on_offer=lambda *offer: before.append(offer), **kwargs)
        assert len(before) == 130

    def test_budget_equal_to_initial_batch_is_pure_random_search(self):
        evaluator, calls = self.evaluator_calls()
        archive = illuminate(
            batched(evaluator), budget=100, seed=4, lower=[-1, -1, -1], upper=[1, 1, 1], grid_shape=(5, 5)
        )
        assert len(calls) == 100
        assert 0 < len(archive) <= 25

    def test_constant_descriptor_fills_one_cell_with_best(self):
        def evaluator(behavior):
            return np.array([0.5, 0.5]), float(behavior[0]), behavior[:2]

        archive = illuminate(
            batched(evaluator), budget=120, seed=2, lower=[-1.0], upper=[1.0], grid_shape=(8, 8),
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
            batched(evaluator), budget=300, seed=3, lower=[-1, -1], upper=[1, 1],
            grid_shape=(6, 6), on_offer=on_offer,
        )
        assert len(counts) == 300
        assert counts == sorted(counts)
        assert counts[-1] == len(archive)

    def test_budget_below_initial_batch_rejected(self):
        evaluator, _ = self.evaluator_calls()
        with pytest.raises(ValueError, match="batch"):
            illuminate(batched(evaluator), budget=50, seed=0, lower=[-1], upper=[1], grid_shape=(4,))

    @pytest.mark.parametrize("lower, upper", [(-1.0, 1.0), ([[-1.0, -1.0]], [[1.0, 1.0]])])
    def test_bounds_that_are_no_vectors_rejected(self, lower, upper):
        # scalar bounds would give (k,) noise against (k, 1) parents, a (k, k) block of children
        evaluator, calls = self.evaluator_calls()
        with pytest.raises(ValueError, match="^domain bounds must be vectors"):
            illuminate(batched(evaluator), budget=200, seed=0, lower=lower, upper=upper, grid_shape=(4,))
        assert calls == []

    def test_descriptor_of_the_wrong_length_rejected(self):
        def evaluator(behavior):
            return np.array([0.5, 0.5, 0.5]), 1.0, behavior

        with pytest.raises(ValueError, match=r"^offer 0: descriptors of shape \(64, 3\), grid has 2 axes$"):
            illuminate(batched(evaluator), budget=120, seed=0, lower=[-1], upper=[1], grid_shape=(4, 4))


def reference_bin_index(descriptor, grid_shape):
    """bin_index's numpy formula on one descriptor, as a tuple."""
    desc = np.clip(np.asarray(descriptor, dtype=float), 0.0, 1.0)
    shape = np.asarray(grid_shape, dtype=int)
    idx = np.minimum(np.floor(desc * shape).astype(int), shape - 1)
    return tuple(int(i) for i in idx)


def reference_illuminate(
    evaluator, budget, seed, lower, upper, grid_shape, mutation_sigma, init_batch, on_offer=None
):
    """The illumination loop before illuminate worked in blocks: one
    evaluator call per offer on a per-behavior evaluator, one uniform draw
    per initial behavior, an Elite built for every offer, the cell computed
    per offer, np.clip on every child."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rng = np.random.default_rng(seed)
    archive = None
    occupied = []

    def run_one(behavior):
        nonlocal archive
        descriptor, performance, outcome = evaluator(behavior)
        candidate = Elite(behavior, descriptor, float(performance), outcome)
        if archive is None:
            archive = Archive(grid_shape, candidate.behavior.size, candidate.outcome.size)
        cell = reference_bin_index(candidate.descriptor, archive.grid_shape)
        incumbent = archive.cells.get(cell)
        if incumbent is None:
            result = OfferResult.INSERTED
            occupied.append(cell)
        elif candidate.performance > incumbent.performance:
            result = OfferResult.REPLACED
        else:
            result = OfferResult.REJECTED
        if result is not OfferResult.REJECTED:
            archive.cells[cell] = candidate
        if on_offer is not None:
            on_offer(cell, candidate, result)

    for _ in range(init_batch):
        run_one(rng.uniform(lower, upper))
    for _ in range(init_batch, budget):
        parent = archive.cells[occupied[rng.integers(len(occupied))]]
        child = parent.behavior + rng.normal(0.0, mutation_sigma, size=lower.shape)
        run_one(np.clip(child, lower, upper))
    return archive


def make_evaluator(grid_shape, spread, on_edges, performance_kind):
    """Descriptors spread to [0.5 - spread, 0.5 + spread] (outside the unit
    cube when spread > 0.5), optionally snapped to cell edges k/n; the
    performance is constant (every offer to an occupied cell ties), rounded
    (frequent ties) or exact."""
    n = np.asarray(grid_shape, dtype=float)

    def evaluator(behavior):
        descriptor = np.resize(behavior, len(grid_shape)) * spread + 0.5
        if on_edges:
            descriptor = np.round(descriptor * n) / n
        total = float(np.sum(behavior))
        performance = {"constant": 1.0, "rounded": round(total, 1), "exact": total}
        return descriptor, performance[performance_kind], behavior[:2] * 2.0

    return evaluator


def assert_elites_own_their_behaviors(archive):
    """No behavior is a view into a batch array, which rows of one draw
    would be even though they never overlap."""
    elites = archive.elites()
    for i, a in enumerate(elites):
        assert a.behavior.flags.owndata
        for b in elites[i + 1:]:
            assert not np.shares_memory(a.behavior, b.behavior)


@st.composite
def illumination_cases(draw):
    m = draw(st.integers(1, 3))
    init_batch = draw(st.integers(1, 30))
    return dict(
        grid_shape=tuple(draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))),
        behavior_dim=draw(st.integers(1, 4)),
        init_batch=init_batch,
        budget=init_batch + draw(st.sampled_from([0, 1, 7, 60])),
        seed=draw(st.integers(0, 2**32 - 1)),
        mutation_sigma=draw(st.sampled_from([0.05, 0.3, 1.0])),
        spread=draw(st.sampled_from([0.25, 0.5, 1.5])),
        on_edges=draw(st.booleans()),
        performance_kind=draw(st.sampled_from(["constant", "rounded", "exact"])),
    )


@st.composite
def block_boundary_cases(draw):
    """Three or more blocks after an initial batch that is no multiple of
    BLOCK, on grids of 1x1 to 3x3 (later children of a block lose their
    parent to a replacement) or of 20x20 and more (cells still fill after the
    initial batch); either way the block's draws are undone and replayed."""
    side = st.integers(1, 3) if draw(st.booleans()) else st.integers(20, 40)
    init_batch = draw(st.integers(1, 4 * BLOCK).filter(lambda n: n % BLOCK))
    return dict(
        grid_shape=(draw(side), draw(side)),
        behavior_dim=draw(st.integers(1, 4)),
        init_batch=init_batch,
        budget=max(3 * BLOCK, init_batch) + draw(st.integers(0, 3 * BLOCK)),
        seed=draw(st.integers(0, 2**32 - 1)),
        mutation_sigma=draw(st.sampled_from([0.05, 0.3, 1.0])),
        spread=draw(st.sampled_from([0.5, 1.5])),
        on_edges=draw(st.booleans()),
        performance_kind=draw(st.sampled_from(["rounded", "exact"])),
    )


class TestIlluminateMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(illumination_cases())
    def test_same_archive_bytes_and_offer_sequence(self, case):
        self.assert_matches_reference(case)

    @settings(max_examples=60, deadline=None)
    @given(block_boundary_cases())
    def test_same_across_block_boundaries(self, case):
        self.assert_matches_reference(case)

    def assert_matches_reference(self, case):
        evaluator = make_evaluator(
            case["grid_shape"], case["spread"], case["on_edges"], case["performance_kind"]
        )
        kwargs = dict(
            budget=case["budget"],
            seed=case["seed"],
            lower=-np.ones(case["behavior_dim"]),
            upper=np.ones(case["behavior_dim"]),
            grid_shape=case["grid_shape"],
            mutation_sigma=case["mutation_sigma"],
            init_batch=case["init_batch"],
        )
        logs = ([], [])

        def recorder(log):
            def on_offer(cell, elite, result):
                log.append(
                    (cell, result, elite.behavior.tolist(), elite.descriptor.tolist(),
                     elite.performance)
                )
            return on_offer

        expected = save_archive(reference_illuminate(evaluator, on_offer=recorder(logs[0]), **kwargs))
        hooked = illuminate(batched(evaluator), on_offer=recorder(logs[1]), **kwargs)
        plain = illuminate(batched(evaluator), **kwargs)
        assert save_archive(hooked) == expected
        assert save_archive(plain) == expected
        assert logs[1] == logs[0]
        assert len(logs[1]) == case["budget"]

        assert_elites_own_their_behaviors(plain)


@st.composite
def descriptors_and_grids(draw):
    m = draw(st.integers(1, 4))
    grid = tuple(draw(st.lists(st.integers(1, 50), min_size=m, max_size=m)))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        coords = []
        for n in grid:
            coords.append(
                draw(
                    st.one_of(
                        st.floats(allow_nan=False),
                        st.floats(-0.5, 1.5),
                        st.integers(0, n).map(lambda k, n=n: k / n),  # cell edges, 1.0 included
                        st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1.0 - 2**-53, 1.0 + 2**-52]),
                    )
                )
            )
        rows.append(coords)
    return rows, grid


class TestBinIndexMatchesNumpyFormula:
    @settings(max_examples=500, deadline=None)
    @given(descriptors_and_grids())
    def test_a_batch_equals_the_formula_row_by_row(self, case):
        rows, grid = case
        expected = [list(reference_bin_index(coords, grid)) for coords in rows]
        assert bin_index(np.array(rows), grid).tolist() == expected
        assert bin_index(rows[0], grid).tolist() == expected[0]


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

    @pytest.mark.parametrize("dimensions", ["m=2 grid=0x5 b=1 d=2", "m=2 grid=3x3 b=-1 d=2",
                                            "m=1 grid=-2 b=1 d=2", "m=2 grid=3x3 b=1 d=0"])
    def test_non_positive_dimension_reports_line_1(self, dimensions):
        header = f"sela-archive v1 {dimensions}"
        want = re.escape(f"line 1: grid sizes, b and d must be positive in {header!r}")
        with pytest.raises(ArchiveFormatError, match=f"^{want}$"):
            load_archive(f"{header}\n".encode())

    def test_bad_value_reports_its_line(self):
        data = save_archive(self.build_small()).decode().splitlines()
        data[3] = data[3].replace("perf=", "perf=abc", 1)
        with pytest.raises(ArchiveFormatError, match="line 4"):
            load_archive(("\n".join(data) + "\n").encode())

    @pytest.mark.parametrize("field, value", [
        ("outcome", "nan,nan"),
        ("outcome", "0.1,inf"),
        ("behavior", "0.0,-inf,0.0,0.0"),
        ("descriptor", "nan,0.5"),
        ("perf", "nan"),
        ("perf", "-inf"),
    ])
    def test_non_finite_value_reports_its_line(self, field, value):
        # a NaN outcome would reach the prior, and every mission would then
        # run to the step cap without learning anything
        data = save_archive(self.build_small()).decode().splitlines()
        tokens = [f"{field}={value}" if token.startswith(f"{field}=") else token
                  for token in data[3].split()]
        data[3] = " ".join(tokens)
        with pytest.raises(ArchiveFormatError, match=f"line 4: non-finite {field}"):
            load_archive(("\n".join(data) + "\n").encode())

    def test_cell_outside_grid_rejected(self):
        empty = Archive((3, 3), 1, 2)
        line = "cell=7,0 behavior=0.0 descriptor=0.5,0.5 perf=1.0 outcome=0.0,0.0"
        data = save_archive(empty) + (line + "\n").encode()
        with pytest.raises(ArchiveFormatError, match="outside grid"):
            load_archive(data)

    @pytest.mark.parametrize("descriptor", ["1.5,-3.0", "0.25,1.0000000000000002", "-5e-324,0.25"])
    def test_descriptor_outside_the_unit_square_reports_its_line(self, descriptor):
        # Elite would clip it to [1.0, 0.0], and saving would not give the input
        header = "sela-archive v1 m=2 grid=2x2 b=1 d=2"
        line = f"cell=0,0 behavior=0.5 descriptor={descriptor} perf=1.0 outcome=0.0,0.0"
        with pytest.raises(ArchiveFormatError, match=r"^line 2: descriptor outside \[0, 1\]$"):
            load_archive(f"{header}\n{line}\n".encode())

    def test_descriptor_of_the_wrong_length_reports_its_line(self):
        header = "sela-archive v1 m=2 grid=2x2 b=1 d=2"
        line = "cell=0,0 behavior=0.5 descriptor=0.25 perf=1.0 outcome=0.0,0.0"
        with pytest.raises(ArchiveFormatError, match="^line 2: descriptor has 1 coordinates, expected 2$"):
            load_archive(f"{header}\n{line}\n".encode())

    @pytest.mark.parametrize("first, again", [("0.5,-1.0", "0.5,-1.0"), ("0.0,-0.0", "-0.0,0.0")])
    def test_repeated_behavior_reports_both_lines(self, first, again):
        # the candidate set would reject the repeat, without naming a line;
        # it compares values, so -0.0 repeats 0.0
        header = "sela-archive v1 m=2 grid=2x2 b=2 d=2"
        lines = [f"cell=0,0 behavior={first} descriptor=0.25,0.25 perf=1.0 outcome=0.0,0.0",
                 "cell=0,1 behavior=0.5,0.5 descriptor=0.25,0.75 perf=1.0 outcome=0.0,0.0",
                 f"cell=1,1 behavior={again} descriptor=0.75,0.75 perf=1.0 outcome=0.0,0.0"]
        with pytest.raises(ArchiveFormatError, match="^line 4: behavior already listed on line 2$"):
            load_archive("\n".join([header, *lines, ""]).encode())
        assert len(load_archive("\n".join([header, *lines[:2], ""]).encode())) == 2

    def test_descriptor_of_another_cell_reports_its_line(self):
        data = save_archive(self.build_small()).decode().splitlines()
        own, other = (dict(token.split("=") for token in data[i].split()) for i in (3, 4))
        data[3] = data[3].replace(f"descriptor={own['descriptor']}", f"descriptor={other['descriptor']}")
        binned, cell = (tuple(int(i) for i in line["cell"].split(",")) for line in (other, own))
        want = re.escape(f"line 4: descriptor bins to cell {binned}, not {cell}")
        with pytest.raises(ArchiveFormatError, match=f"^{want}$"):
            load_archive(("\n".join(data) + "\n").encode())
        # the top edge folds into the last bin, as when the archive was built
        header = "sela-archive v1 m=2 grid=2x2 b=1 d=2"
        line = "cell=1,0 behavior=0.5 descriptor=1.0,0.0 perf=1.0 outcome=0.0,0.0"
        assert load_archive(f"{header}\n{line}\n".encode()).cells[(1, 0)].descriptor.tolist() == [1.0, 0.0]


# Finite floats, with negative zero, subnormals and the largest doubles made likely.
archive_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 0.1, 1.0]),
)


@st.composite
def archives(draw):
    m = draw(st.integers(1, 3))
    grid = tuple(draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)))
    b = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    archive = Archive(grid, b, d)
    # every elite sits in the cell its descriptor bins to, and no behavior
    # is listed twice, as in a built archive
    unit = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 5e-324, 1.0]))
    behaviors = set()
    for descriptor in draw(st.lists(st.lists(unit, min_size=m, max_size=m), max_size=math.prod(grid))):
        cell = tuple(bin_index(descriptor, grid).tolist())
        vector = lambda size: draw(st.lists(archive_floats, min_size=size, max_size=size))
        behavior = np.array(vector(b))
        key = (behavior + 0.0).tobytes()   # -0.0 repeats 0.0
        if cell in archive.cells or key in behaviors:
            continue
        behaviors.add(key)
        archive.cells[cell] = Elite(
            behavior=behavior,
            descriptor=descriptor,
            performance=draw(archive_floats),
            outcome=vector(d),
        )
    return archive


class TestSerializationProperty:
    @settings(max_examples=200, deadline=None)
    @given(archives())
    def test_save_load_save_is_byte_identical(self, archive):
        data = save_archive(archive)
        loaded = load_archive(data)
        assert save_archive(loaded) == data
        assert [cell for cell, _ in loaded.items()] == [cell for cell, _ in archive.items()]
        for (_, a), (_, b) in zip(archive.items(), loaded.items()):
            assert a.behavior.tobytes() == b.behavior.tobytes()
            assert a.descriptor.tobytes() == b.descriptor.tobytes()
            assert a.outcome.tobytes() == b.outcome.tobytes()
            assert repr(a.performance) == repr(b.performance)


class TestArchivePrior:
    def test_each_elites_behavior_gives_its_outcome(self):
        archive = illuminate(segment_walker_evaluator, budget=300, seed=6, **WALKER_KW)
        prior = ArchivePrior(archive)
        for elite in archive.elites():
            assert prior(elite.behavior).tobytes() == elite.outcome.tobytes()

    def test_a_behavior_off_the_map_rejected(self):
        archive = Archive((2, 2), 1, 2)
        archive.cells[(0, 0)] = Elite([0.5], [0.2, 0.2], 1.0, [1.0, 0.0])
        archive.cells[(1, 1)] = Elite([10.0], [0.8, 0.8], 1.0, [0.0, 1.0])
        prior = ArchivePrior(archive)
        for query in (1.0, 9.0, 0.5 + 1e-16, 0.5 - 1e-16):
            with pytest.raises(ValueError, match=re.escape(f"no elite in the archive has behavior [{query!r}]")):
                prior(np.array([query]))

    def test_behavior_in_two_cells_gives_the_lower_cells_outcome(self):
        archive = Archive((2, 2), 1, 2)
        archive.cells[(1, 1)] = Elite([0.5], [0.8, 0.8], 1.0, [0.0, 1.0])
        archive.cells[(0, 0)] = Elite([0.5], [0.2, 0.2], 1.0, [1.0, 0.0])
        archive.cells[(0, 1)] = Elite([0.7], [0.2, 0.8], 1.0, [0.5, 0.5])
        prior = ArchivePrior(archive)
        np.testing.assert_array_equal(prior(np.array([0.5])), [1.0, 0.0])
        np.testing.assert_array_equal(prior(np.array([0.7])), [0.5, 0.5])

    def test_a_signed_zero_is_the_same_coordinate(self):
        archive = Archive((2, 2), 2, 2)
        archive.cells[(0, 0)] = Elite([0.0, 0.3], [0.2, 0.2], 1.0, [1.0, 0.0])
        archive.cells[(1, 1)] = Elite([-0.0, -0.0], [0.8, 0.8], 1.0, [0.0, 1.0])
        prior = ArchivePrior(archive)
        for query, outcome in (([-0.0, 0.3], [1.0, 0.0]), ([0.0, 0.3], [1.0, 0.0]),
                               ([0.0, 0.0], [0.0, 1.0]), ([-0.0, 0.0], [0.0, 1.0])):
            assert prior(np.array(query)).tobytes() == np.array(outcome).tobytes()

    def test_repeated_queries_identical(self):
        # each query gets its own copy, so changing one leaves the prior as it was
        archive = illuminate(segment_walker_evaluator, budget=300, seed=8, **WALKER_KW)
        prior = ArchivePrior(archive)
        elite = archive.elites()[3]
        first = prior(elite.behavior)
        first += 1.0
        np.testing.assert_array_equal(prior(elite.behavior), elite.outcome)
        np.testing.assert_array_equal(prior(list(elite.behavior)), prior(elite.behavior))

    def test_empty_archive_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ArchivePrior(Archive((2, 2), 1, 2))
