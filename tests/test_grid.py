"""Grids, point sets, densities, prefix fibers and the text format."""

import random
from fractions import Fraction

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcubes.toric import parse_polytope

from gridcubes.grid import (
    GridParams,
    PointSet,
    count_heavy_prefixes,
    format_point_set,
    max_pair_intersection,
    parse_point_set,
    split_by_prefix,
)


def small_set(N, n, rng, prob=0.5):
    grid = GridParams(N, n)
    return PointSet.from_indices(grid, [i for i in range(grid.size) if rng.random() < prob])


class TestGridParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridParams(1, 2)
        with pytest.raises(ValueError):
            GridParams(2, -1)

    def test_index_round_trip(self):
        # point_of's index is its base-N digits, first coordinate least significant
        grid = GridParams(3, 4)
        for idx in range(grid.size):
            assert sum(x * 3 ** i for i, x in enumerate(grid.point_of(idx))) == idx

    def test_index_outside_the_grid_is_refused(self):
        # both ends of [0, N^n): no index wraps around to a cell of the grid
        grid = GridParams(2, 2)
        assert PointSet.from_indices(grid, [0, 3]).points() == [(0, 0), (1, 1)]
        for idx in (4, 5, -1, -4):
            with pytest.raises(ValueError, match=rf"index {idx} outside \[0, 2\^2\)"):
                PointSet.from_indices(grid, [0, idx])
        assert GridParams(5, 0).point_of(0) == ()
        with pytest.raises(ValueError, match="index 1 outside"):
            GridParams(5, 0).point_of(1)

    def test_materialize_limit(self):
        # N >= 2, so n > 24 is refused without building N^n, and the message
        # names N^n rather than its digits
        for N, n in [(2, 24), (4096, 2), (5, 0)]:
            GridParams(N, n).require_materializable("sample")
        for N, n in [(2, 25), (4097, 2), (2, 10 ** 9)]:
            with pytest.raises(ValueError, match=rf"{N}\^{n} cells"):
                GridParams(N, n).require_materializable("sample")
        with pytest.raises(ValueError, match=r"2\^20000 cells"):
            GridParams(2, 20000).points()

    def test_zero_dim_grid(self):
        grid = GridParams(5, 0)
        assert grid.size == 1
        assert list(grid.points()) == [()]
        assert grid.check_point(()) == () and grid.point_of(0) == ()

    def test_check_point_messages(self):
        grid = GridParams(3, 2)
        assert grid.check_point(["2", 0.0]) == (2, 0)
        for point, message in [((1,), "point (1,) outside grid [3]^2"),
                               ((0, 1, 2), "point (0, 1, 2) outside grid [3]^2"),
                               ((-1, 0), "point (-1, 0) outside grid [3]^2"),
                               ((0, 3), "point (0, 3) outside grid [3]^2"),
                               (("1", "x"), "invalid literal for int() with base 10: 'x'")]:
            with pytest.raises(ValueError) as info:
                grid.check_point(point)
            assert str(info.value) == message
            with pytest.raises(ValueError) as info:
                PointSet(grid, [(0, 0), point])
            assert str(info.value) == message


class TestDensity:
    def test_empty(self):
        assert PointSet.empty(GridParams(2, 3)).density() == 0

    def test_full(self):
        assert PointSet.full(GridParams(2, 3)).density() == 1

    def test_direct_count(self):
        s = PointSet(GridParams(3, 2), [(0, 0), (1, 1)])
        d = s.density()
        assert d == Fraction(2, 9)
        assert isinstance(d, Fraction)


class TestSplitByPrefix:
    def test_full_grid_fibers_full(self):
        s = PointSet.full(GridParams(2, 2))
        fibers = split_by_prefix(s, 1)
        assert set(fibers) == {(0,), (1,)}
        for t in fibers.values():
            assert t.points() == [(0,), (1,)]

    def test_read_off(self):
        s = PointSet(GridParams(2, 2), [(0, 0), (0, 1), (1, 0)])
        fibers = split_by_prefix(s, 1)
        assert fibers[(0,)].points() == [(0,), (1,)]
        assert fibers[(1,)].points() == [(0,)]

    def test_empty_set(self):
        fibers = split_by_prefix(PointSet.empty(GridParams(3, 3)), 2)
        assert fibers == {}

    def test_range_errors(self):
        s = PointSet.full(GridParams(2, 2))
        for r in (0, 2, 5):
            with pytest.raises(ValueError):
                split_by_prefix(s, r)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 4), st.integers(0, 2 ** 16 - 1), st.integers(1, 3))
    def test_disjoint_union_and_reglue(self, N, n, mask, r_raw):
        grid = GridParams(N, n)
        s = PointSet.from_indices(grid, [i for i in range(grid.size) if mask >> (i % 16) & 1])
        r = 1 + r_raw % (n - 1)
        fibers = split_by_prefix(s, r)
        assert sum(len(t) for t in fibers.values()) == len(s)
        reglued = {a + p for a, t in fibers.items() for p in t.points()}
        assert reglued == s.tuple_set
        # density is additive over the decomposition
        total = sum(t.density() for t in fibers.values())
        assert s.density() == total / N ** r


class TestCountHeavyPrefixes:
    def test_full_grid(self):
        assert count_heavy_prefixes(PointSet.full(GridParams(2, 3)), 1, 1) == 2

    def test_empty(self):
        assert count_heavy_prefixes(PointSet.empty(GridParams(2, 3)), 1, Fraction(1, 2)) == 0

    def test_both_fibers_heavy(self):
        # fiber densities are 1 and 1/2, both at least 1/2
        s = PointSet(GridParams(2, 2), [(0, 0), (0, 1), (1, 0)])
        assert count_heavy_prefixes(s, 1, 1) == 2

    def test_chain_inequality(self):
        rng = random.Random(7)
        for _ in range(300):
            N = rng.choice([2, 3])
            n = rng.randint(2, 4)
            s = small_set(N, n, rng, rng.uniform(0.2, 0.9))
            r = rng.randint(1, n - 1)
            den = rng.randint(2, 8)
            c = Fraction(rng.randint(1, den), den)
            k_r = count_heavy_prefixes(s, r, c)
            assert s.density() <= Fraction(k_r, N ** r) + c / 2


class TestMaxPairIntersection:
    def test_identical_sets(self):
        grid = GridParams(4, 1)
        x = PointSet(grid, [(0,), (1,)])
        i, j, d = max_pair_intersection([x, x, x, x])
        assert d == Fraction(1, 2)

    def test_disjoint_only_pair(self):
        grid = GridParams(4, 1)
        fam = [PointSet(grid, [(0,), (1,)]), PointSet(grid, [(2,), (3,)])]
        assert max_pair_intersection(fam) == (0, 1, Fraction(0))

    def test_all_pairs_share_one(self):
        grid = GridParams(3, 1)
        fam = [
            PointSet(grid, [(0,), (1,)]),
            PointSet(grid, [(1,), (2,)]),
            PointSet(grid, [(0,), (2,)]),
        ]
        _, _, d = max_pair_intersection(fam)
        assert d == Fraction(1, 3)

    def test_needs_two_sets(self):
        with pytest.raises(ValueError):
            max_pair_intersection([PointSet.full(GridParams(2, 1))])


class TestTextFormat:
    def test_round_trip_examples(self):
        s = PointSet(GridParams(3, 2), [(0, 0), (2, 1), (1, 2)])
        assert parse_point_set(format_point_set(s)) == s

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 2 ** 20))
    def test_round_trip_random(self, N, n, mask):
        grid = GridParams(N, n)
        s = PointSet.from_indices(grid, [i for i in range(grid.size) if mask >> (i % 20) & 1])
        assert parse_point_set(format_point_set(s)) == s

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_point_set("2 2\n0 0\n0 0\n")

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_point_set("2\n0 0\n")

    def test_out_of_range_point(self):
        with pytest.raises(ValueError):
            parse_point_set("2 2\n0 2\n")

    def test_wrong_coordinate_count(self):
        with pytest.raises(ValueError):
            parse_point_set("2 2\n0 0 1\n")

    def test_deterministic_output(self):
        s = PointSet(GridParams(2, 2), [(1, 1), (0, 0), (1, 0)])
        assert format_point_set(s) == "2 2\n0 0\n1 0\n1 1\n"


# One fault per file, and the message each parser gives for it.  Point sets
# and polytopes share one row reader, so every row fault appears in both.
SINGLE_FAULTS = [
    (parse_point_set, "", "empty point-set file"),
    (parse_point_set, "  \n\n", "empty point-set file"),
    (parse_point_set, "2\n0 0\n", "header must be 'N n', got '2'"),
    (parse_point_set, "2 2 2\n", "header must be 'N n', got '2 2 2'"),
    (parse_point_set, "2 x\n0 0\n", "header must be two integers, got '2 x'"),
    (parse_point_set, "1 2\n0 0\n", "grid base must be an integer >= 2, got 1"),
    (parse_point_set, "2 -1\n", "grid dimension must be an integer >= 0, got -1"),
    (parse_point_set, "2 2\n0 0\n0 0 1\n", "expected 2 coordinates, got '0 0 1'"),
    (parse_point_set, "2 2\n0 x\n", "non-integer coordinate in '0 x'"),
    (parse_point_set, "2 2\n0 0\n1 1\n0  0\n", "duplicate point line '0  0'"),
    (parse_point_set, "2 2\n1 1\n0 2\n", "point (0, 2) outside grid [2]^2"),
    (parse_polytope, "", "empty polytope file"),
    (parse_polytope, "5\n0\n", "header must be 'q n', got '5'"),
    (parse_polytope, "5 1 1\n0\n", "header must be 'q n', got '5 1 1'"),
    (parse_polytope, "5 x\n0\n", "header must be two integers, got '5 x'"),
    (parse_polytope, "5 1\n", "polytope file lists no vertices"),
    (parse_polytope, "5 2\n0 0\n1\n", "expected 2 coordinates, got '1'"),
    (parse_polytope, "5 1\n0\nx\n", "non-integer coordinate in 'x'"),
    (parse_polytope, "5 1\n0\n2\n0\n", "duplicate vertex line '0'"),
]


@pytest.mark.parametrize("parse, text, message", SINGLE_FAULTS)
def test_single_fault_messages(parse, text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse(text)


class TestPointSetObject:
    def test_immutable(self):
        s = PointSet.full(GridParams(2, 2))
        with pytest.raises(AttributeError):
            s.grid = GridParams(2, 3)

    def test_intersection_requires_common_grid(self):
        a = PointSet.full(GridParams(2, 2))
        b = PointSet.full(GridParams(2, 3))
        with pytest.raises(ValueError):
            a.intersection(b)

    def test_sets_of_checked_points_are_not_checked_again(self, monkeypatch):
        # intersection, split_by_prefix and the sampler's returned set hold
        # points of sets or boxes already inside their grid
        from gridcubes.construct import SamplerConfig, moser_tardos_sample

        rng = random.Random(3)
        a, b = small_set(3, 3, rng), small_set(3, 3, rng)
        expected = (set(a.tuple_set & b.tuple_set),
                    {p: set(t.tuple_set) for p, t in split_by_prefix(a, 1).items()})
        sample_grid = GridParams(2, 5)
        config = SamplerConfig(p=Fraction(1, 2), seed=0, max_rounds=1)
        sample = set(moser_tardos_sample(sample_grid, 3, config).point_set.tuple_set)

        def refuse(grid, point):
            raise AssertionError(f"checked {point} again")

        monkeypatch.setattr(GridParams, "check_point", refuse)
        assert set(a.intersection(b).tuple_set) == expected[0]
        assert {p: set(t.tuple_set) for p, t in split_by_prefix(a, 1).items()} == expected[1]
        assert set(moser_tardos_sample(sample_grid, 3, config).point_set.tuple_set) == sample


@pytest.mark.parametrize("call, message", [
    (lambda: count_heavy_prefixes(PointSet.full(GridParams(2, 3)), 1, 0),
     "density threshold must lie in (0, 1], got 0"),
    (lambda: count_heavy_prefixes(PointSet.full(GridParams(2, 3)), 1, Fraction(3, 2)),
     "density threshold must lie in (0, 1], got 3/2"),
    (lambda: max_pair_intersection([]), "need at least two sets"),
    (lambda: max_pair_intersection([PointSet.full(GridParams(2, 1))]), "need at least two sets"),
    (lambda: max_pair_intersection([PointSet.full(GridParams(2, 1)), PointSet.full(GridParams(3, 1))]),
     "all sets must share one grid"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
