"""Affine cubes: vertex generation, notions, search, oracle, f_N(n, c)."""

import gc
import hashlib
import math
import random
import re
import sys
import weakref
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcubes import cubes
from gridcubes.construct import SamplerConfig, moser_tardos_sample
from gridcubes.cubes import (
    DEFAULT_BUDGET,
    AffineCube,
    CubeNotion,
    GridBox,
    SearchBudgetExceeded,
    _box_of,
    _leading_positive,
    _run_box_search,
    _search,
    _sub,
    extend_cube,
    f_exhaustive,
    find_cube,
    is_cube_in,
    m_value,
    m_value_oracle_all,
)
from gridcubes.grid import MATERIALIZE_LIMIT, GridParams, PointSet
from gridcubes.intlinalg import unit_columns
from gridcubes.toric import LatticePolytope, build_code, code_stats, minimum_distance

VI = CubeNotion.VERTEX_INJECTIVE
IND = CubeNotion.INDEPENDENT_GENERATORS
UNI = CubeNotion.UNIMODULAR


def pset(N, n, pts):
    return PointSet(GridParams(N, n), pts)


def seg_set():
    return pset(5, 1, [(0,), (1,), (2,), (3,)])


def all_witnesses(s, m, notion):
    """Every anchored cube of dimension m in S under the notion, by a scan
    that shares nothing with the search."""
    pts = s.points()
    tset = s.tuple_set
    out = []
    for z in pts:
        diffs = sorted(d for p in pts if p != z and _leading_positive(d := _sub(p, z)))
        for combo in combinations(diffs, m):
            cube = AffineCube(z, tuple(combo))
            verts = cube.vertices()
            if len(set(verts)) != 2 ** m:
                continue
            if any(v not in tset for v in verts):
                continue
            if cube.satisfies(notion):
                out.append(cube)
    return out


class TestCubeVertices:
    def test_unit_square(self):
        cube = AffineCube((0, 0), ((1, 0), (0, 1)))
        assert sorted(set(cube.vertices())) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_point_cube(self):
        assert sorted(set(AffineCube((0,)).vertices())) == [(0,)]

    def test_one_dim_generators(self):
        assert sorted(set(AffineCube((0,), ((1,), (2,))).vertices())) == [(0,), (1,), (2,), (3,)]

    def test_collision_shrinks_set(self):
        cube = AffineCube((0,), ((1,), (1,)))
        assert len(set(cube.vertices())) == 3  # not vertex-injective
        assert not cube.is_vertex_injective()

    def test_dimension_overflow(self):
        cube = AffineCube((0,) * 31, tuple(tuple(1 if i == j else 0 for j in range(31)) for i in range(31)))
        with pytest.raises(ValueError):
            cube.vertices()


class TestValidation:
    def test_generator_length_must_match_base(self):
        with pytest.raises(ValueError):
            AffineCube((0, 0), ((1,),))

    def test_notion_parsing(self):
        assert CubeNotion.from_string("unimodular") is UNI
        assert CubeNotion.from_string("UNIMODULAR") is UNI
        assert CubeNotion.from_string("independent-generators") is IND
        with pytest.raises(ValueError):
            CubeNotion.from_string("nope")


class TestNotions:
    def test_nesting_definitions(self):
        cube = AffineCube((0,), ((1,), (2,)))
        assert cube.satisfies(VI)
        assert not cube.satisfies(IND)  # two generators in one dimension
        assert not cube.satisfies(UNI)
        unit = AffineCube((0, 0), ((1, 0), (0, 1)))
        assert unit.satisfies(UNI)
        doubled = AffineCube((0, 0), ((2, 0), (0, 2)))
        assert doubled.satisfies(IND) and not doubled.satisfies(UNI)
        repeated = AffineCube((0,), ((1,), (1,)))  # vertices 0, 1, 1, 2
        assert not any(repeated.satisfies(notion) for notion in (VI, IND, UNI))


class TestCanonical:
    def test_flip_moves_base(self):
        cube = AffineCube((1, 0), ((-1, 0), (0, 1)))
        canon = cube.canonical()
        assert canon == AffineCube((0, 0), ((0, 1), (1, 0)))
        assert sorted(set(cube.vertices())) == sorted(set(canon.vertices()))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_idempotent_and_vertex_preserving(self, data):
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(0, 3))
        base = tuple(data.draw(st.integers(-3, 3)) for _ in range(n))
        gens = tuple(
            tuple(data.draw(st.integers(-2, 2)) for _ in range(n)) for _ in range(m)
        )
        cube = AffineCube(base, gens)
        canon = cube.canonical()
        assert canon.canonical() == canon
        assert sorted(cube.vertices()) == sorted(canon.vertices())

    def test_canonical_line_stable(self):
        cube = AffineCube((0, 0), ((1, 0), (0, 1)))
        assert cube.canonical_line(IND) == "independent-generators m=2 base=(0,0) gens=[0,1;1,0]"


class TestIsCubeIn:
    def test_unit_square_in_full(self):
        s = PointSet.full(GridParams(2, 2))
        cube = AffineCube((0, 0), ((1, 0), (0, 1)))
        for notion in CubeNotion:
            assert is_cube_in(s, cube, notion)

    def test_notion_gate(self):
        cube = AffineCube((0,), ((1,), (2,)))
        assert is_cube_in(seg_set(), cube, VI)
        assert not is_cube_in(seg_set(), cube, IND)

    def test_vertex_outside(self):
        s = pset(2, 2, [(0, 0), (1, 0)])
        assert not is_cube_in(s, AffineCube((0, 0), ((0, 1),)), VI)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_cube_in(seg_set(), AffineCube((0, 0)), VI)


class TestFindCube:
    def test_full_square(self):
        w = find_cube(PointSet.full(GridParams(2, 2)), 2, IND)
        assert w == AffineCube((0, 0), ((0, 1), (1, 0)))
        assert w.canonical() == w

    def test_single_point_has_no_segment(self):
        assert find_cube(pset(2, 2, [(1, 1)]), 1, VI) is None

    def test_segment_pair_witness(self):
        w = find_cube(seg_set(), 2, VI)
        assert w == AffineCube((0,), ((1,), (2,)))

    def test_m_zero(self):
        w = find_cube(seg_set(), 0, VI)
        assert w == AffineCube((0,))

    def test_budget_is_distinct_from_absent(self):
        s = PointSet.full(GridParams(2, 4))
        with pytest.raises(SearchBudgetExceeded):
            find_cube(s, 4, VI, budget=2)  # a 4-cube needs at least 4 checks
        with pytest.raises(SearchBudgetExceeded):
            m_value(s, VI, budget=2)
        assert find_cube(s, 4, VI) is not None  # same query, ample budget

    def test_bad_threads_and_budget_rejected(self):
        s = seg_set()
        # the search runs in one process and takes no thread count
        with pytest.raises(TypeError):
            m_value(s, threads=2)
        with pytest.raises(TypeError):
            find_cube(s, 1, threads=2)
        with pytest.raises(ValueError):
            m_value(s, budget=-5)
        with pytest.raises(ValueError):
            find_cube(s, 1, budget=-5)
        # rejected before the size checks that answer None unsearched
        for small, m in ((s, 3), (s, 31), (PointSet.empty(GridParams(2, 2)), 1)):
            with pytest.raises(ValueError):
                find_cube(small, m, budget=-5)

    def test_toric_takes_no_thread_count(self):
        # the minimum distance runs in one process too; budget is
        # keyword-only, so a stale positional thread count cannot become it
        seg = LatticePolytope([(0,), (2,)])
        with pytest.raises(TypeError):
            minimum_distance(build_code(seg, 5), threads=2)
        with pytest.raises(TypeError):
            code_stats(seg, 5, VI, 2)


class TestTooBigTargets:
    def test_core_answers_unsearched(self):
        # a target no set of |S| cells can hold, past log2 |S| or, for the
        # independent notions, past n, stops the core at its first base
        # with no check, so even budget 0 is conclusive; find_cube's
        # pre-check, which spares it the box, draws the same line
        none = cubes._SearchOutcome(0, None, True, 0)
        rng = random.Random(31)
        for N, n, masks in ((2, 3, range(1 << 8)), (3, 2, range(1 << 9)),
                            (2, 5, [rng.getrandbits(32) for _ in range(300)])):
            grid = GridParams(N, n)
            box = GridBox.of_grid(grid)
            for s_mask in masks:
                size = s_mask.bit_count()
                pts = PointSet(grid, [box.point(k) for k in GridBox.cells_of(s_mask)])
                for notion in CubeNotion:
                    top = size.bit_length() - 1  # floor(log2 |S|), -1 for the empty set
                    if notion is not VI:
                        top = min(top, n)
                    targets = [0] if size == 0 else []
                    targets += range(max(top + 1, 1), n + 3)
                    targets.append(cubes.VERTEX_CAP + 1)
                    for target in targets:
                        assert _run_box_search(box, s_mask, notion, target, 0) == none
                        assert _search(box, s_mask, notion, target, 0) == none
                        assert cubes._need(size, target - 1, n, notion is not VI)[0] > size
                        assert find_cube(pts, target, notion, budget=0) is None
                    for target in range(1, top + 1):
                        assert cubes._need(size, target - 1, n, notion is not VI)[0] <= size


class TestSearchChecksGate:
    """Upper bounds on the search's checks (valid shifts tried).  A change
    that improves pruning lowers a bound; none is raised without a
    CHANGES.md entry.  The tuple search that tried every difference at
    every node needed 14,953 and 13,160 checks on [3]^4 and 913,399 and
    864,907 on [2]^8."""

    CASES = [
        # (N, n, |S|, checks for M(S), checks for the absent (M+1)-cube)
        (3, 4, 36, 262, 261),
        (2, 8, 128, 5641, 5610),
    ]

    def test_checks_bounded(self):
        for N, n, size, max_checks, over_checks in self.CASES:
            grid = GridParams(N, n)
            s = PointSet.from_indices(grid, random.Random(0).sample(range(grid.size), size))
            for notion in CubeNotion:
                best = _run_box_search(*_box_of(s), notion, None, DEFAULT_BUDGET)
                assert best.conclusive and best.checks <= max_checks
                over = _run_box_search(*_box_of(s), notion, best.best_m + 1, DEFAULT_BUDGET)
                assert over.conclusive and over.cells is None
                assert over.checks <= over_checks


class TestReduceCallsGate:
    """An upper bound on the search's reduce_against calls.  A check that
    cannot raise the best dimension runs its notion tests only when its
    child passes the guarded count and is entered; testing every check
    first took 2,401 calls on this sweep, for the same 33,960 checks."""

    CASES = [(3, 4, 40), (3, 5, 60), (5, 3, 50)]  # (N, n, |S|), three seeded sets each
    MAX_CALLS = 194

    def test_reduce_calls_bounded(self, monkeypatch):
        calls = 0
        reduce_against = cubes.reduce_against

        def spy(*args):
            nonlocal calls
            calls += 1
            return reduce_against(*args)

        monkeypatch.setattr(cubes, "reduce_against", spy)
        for N, n, size in self.CASES:
            grid = GridParams(N, n)
            rng = random.Random(0)
            for _ in range(3):
                s = PointSet.from_indices(grid, rng.sample(range(grid.size), size))
                for notion in CubeNotion:
                    best = _run_box_search(*_box_of(s), notion, None, DEFAULT_BUDGET)
                    over = _run_box_search(*_box_of(s), notion, best.best_m + 1, DEFAULT_BUDGET)
                    assert best.conclusive and over.conclusive and over.cells is None
        assert 0 < calls <= self.MAX_CALLS


# A search outcome with its cells decoded to the witness cube, in the form
# (and under the name) whose repr TestSearchDigest pins.
Decoded = namedtuple("_SearchOutcome", "best_m witness conclusive checks")


def decoded(box, out):
    return Decoded(out.best_m, box.cube(out.cells) if out.cells else None, out.conclusive, out.checks)


class TestSearchDigest:
    """The search's whole outcome, witness and check count included, pinned
    over a seeded sweep by one digest, with the witness decoded from the
    answer's cells.  A change to how the search walks or decodes its cells
    must leave every outcome as it is; a change that means to alter one
    records a new digest in CHANGES.md."""

    GRIDS = [(2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5),
             (4, 2), (4, 3), (5, 2), (5, 3), (7, 2)]
    DIGEST = "9767942c2cee740c1e82c2ee16e29f7b35bfb12e7b8f971c841e3bcb33fe8956"

    def outcomes(self):
        rng = random.Random(20)
        for N, n in self.GRIDS:
            grid = GridParams(N, n)
            whole = GridBox.of_grid(grid)  # shared by every set of the grid, as in the f loop
            for _ in range(5):
                size = rng.randint(2, grid.size)
                s = PointSet.from_indices(grid, rng.sample(range(grid.size), size))
                for box, s_mask in (_box_of(s), (whole, whole.mask(map(whole.cell, s)))):
                    for notion in CubeNotion:
                        for target in (None, 0, 1, 2, 3, 4):
                            full = _run_box_search(box, s_mask, notion, target, DEFAULT_BUDGET)
                            yield N, n, size, notion.value, target, DEFAULT_BUDGET, decoded(box, full)
                            if full.checks:  # a budget below the checks runs out
                                budget = rng.randrange(min(full.checks, 201))
                                cut = _run_box_search(box, s_mask, notion, target, budget)
                                yield N, n, size, notion.value, target, budget, decoded(box, cut)

    def test_outcomes_match_the_recorded_digest(self):
        lines = [repr(out) for out in self.outcomes()]
        assert len(lines) == 3616
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST


class TestEncodingEdges:
    def test_oracle_differential_on_corner_sets(self):
        # The search indexes the cells of S's bounding box in mixed radix, so
        # a cell x plus a shift such as (1, -1) can land on the index of
        # another cell when x + d leaves the box in some coordinate.  The
        # guard masks drop those cells from each child; sets holding grid
        # corners put such shifts next to points on the box boundary.
        rng = random.Random(2718)
        for N, n in [(7, 1), (3, 2), (5, 2), (4, 3), (2, 6)]:
            grid = GridParams(N, n)
            corners = [p for p in grid.points() if all(x in (0, N - 1) for x in p)]
            for _ in range(6):
                pts = {(0,) * n, (N - 1,) * n}
                pts.update(rng.sample(corners, min(len(corners), rng.randint(2, 8))))
                pts.update(map(grid.point_of, rng.sample(range(grid.size), rng.randint(0, 8))))
                s = PointSet(grid, pts)
                oracle = m_value_oracle_all(s)
                for notion in CubeNotion:
                    m, w = m_value(s, notion)
                    assert m == oracle[notion], (N, n, notion)
                    expected = (
                        min(all_witnesses(s, m, notion), key=lambda c: (c.base, c.generators))
                        if m else AffineCube(min(pts))
                    )
                    assert w == expected
                    assert find_cube(s, m, notion) == expected
                    assert find_cube(s, m + 1, notion) is None


class TestCellCodes:
    """A box's cell codes and guard masks against brute force, on own boxes
    of translated sets (nonzero lows, unequal widths): decode gives the
    mixed-radix point of a cell, a difference of half codes names exactly
    one half of a shift, and a guard mask is the set of cells that the
    shift keeps inside the box on coordinates 1..n-1."""

    # the lows and widths of each box; n = 0, 1, 2, 3 and 5
    BOXES = [((), ()), ((3,), (5,)), ((2, 7), (3, 4)), ((1, 0, 4), (2, 3, 4)),
             ((1, 2, 0, 3, 5), (2, 3, 2, 3, 2))]

    def boxes(self):
        rng = random.Random(77)
        for lows, widths in self.BOXES:
            n = len(widths)
            highs = tuple(lo + w - 1 for lo, w in zip(lows, widths))
            inner = [tuple(rng.randint(lo, hi) for lo, hi in zip(lows, highs)) for _ in range(6)]
            s = PointSet(GridParams(12, n), [lows, highs, *inner])
            box, s_mask = _box_of(s)
            assert (tuple(box.lows), tuple(box.widths)) == (lows, widths)
            yield box, s_mask

    def test_decode_gives_the_mixed_radix_point(self):
        for box, _ in self.boxes():
            ranges = [range(lo, lo + w) for lo, w in zip(box.lows, box.widths)]
            points = list(product(*ranges))  # lex order, first coordinate most significant
            assert len(points) == box.cells
            for k, p in enumerate(points):
                assert box.decode(k)[0] == p == box.point(k)
                assert box.cell(p) == k

    def test_code_differences_name_half_shifts(self):
        for box, _ in self.boxes():
            n, h = box.dim, box.h
            codes = [box.decode(k) for k in range(box.cells)]
            for half, coords in ((1, range(1, h)), (2, range(h, n))):
                by_key, by_shift = {}, {}
                for a, b in product(codes, repeat=2):
                    key = b[half] - a[half]
                    shift = tuple(b[0][i] - a[0][i] for i in coords)
                    by_key.setdefault(key, set()).add(shift)
                    by_shift.setdefault(shift, set()).add(key)
                assert all(len(v) == 1 for v in by_key.values()), (box.widths, half)
                assert all(len(v) == 1 for v in by_shift.values()), (box.widths, half)

    def test_guard_masks_are_the_cells_kept_inside(self):
        kept = 0
        for box, s_mask in self.boxes():
            n, h = box.dim, box.h
            for notion in CubeNotion:  # the searches fill the box's kept masks
                _run_box_search(box, s_mask, notion, None, DEFAULT_BUDGET)

            def inside(d, coords):
                return sum(1 << j for j in range(box.cells)
                           if all(0 <= box.point(j)[i] + d[i] - box.lows[i] < box.widths[i] for i in coords))

            for iz, k in product(range(box.cells), repeat=2):
                z, hz, lz = box.decode(iz)
                p, hc, lc = box.decode(k)
                d = _sub(p, z)
                hi, lo = inside(d, range(1, h)), inside(d, range(h, n))
                assert box.guard({}, 0, range(1, h), k, z) == hi
                assert box.guard({}, 0, range(h, n), k, z) == lo
                assert hi & lo == inside(d, range(1, n))
                if hc - hz in box.guard_hi:
                    assert box.guard_hi[hc - hz] == hi
                    kept += 1
                if lc - lz in box.guard_lo:
                    assert box.guard_lo[lc - lz] == lo
                    kept += 1
        assert kept >= 1000


class TestNotionCollapseAtTwo:
    """In {0,1}^n a valid shift has support disjoint from every earlier
    generator, so the three notions agree and the search skips their tests;
    the oracle checks rank and unimodularity directly."""

    def check(self, s):
        oracle = m_value_oracle_all(s)
        assert len(set(oracle.values())) == 1
        results = {m_value(s, notion) for notion in CubeNotion}
        assert len(results) == 1
        (m, witness), = results
        assert m == oracle[VI]
        for notion in CubeNotion:
            assert is_cube_in(s, witness, notion)

    def test_every_subset_of_the_3_cube(self):
        grid = GridParams(2, 3)
        pts = list(grid.points())
        for mask in range(1, 1 << 8):
            self.check(PointSet(grid, [pts[i] for i in range(8) if mask >> i & 1]))

    def test_seeded_subsets_up_to_dimension_7(self):
        rng = random.Random(1618)
        for n, count, max_size in [(4, 40, 16), (5, 30, 24), (6, 20, 26), (7, 10, 24)]:
            grid = GridParams(2, n)
            for _ in range(count):
                size = rng.randint(1, max_size)
                self.check(PointSet.from_indices(grid, rng.sample(range(grid.size), size)))


class TestBoxIndexing:
    def test_translate_into_a_huge_grid(self):
        # only the bounding box of S is indexed, so the grid size is free
        rng = random.Random(1009)
        big = GridParams(10 ** 6, 3)
        offset = (123456, 999990, 7)
        for N in (2, 3, 4):
            grid = GridParams(N, 3)
            for _ in range(8):
                small = PointSet.from_indices(grid, rng.sample(range(grid.size), rng.randint(1, grid.size)))
                moved = PointSet(big, [tuple(a + b for a, b in zip(p, offset)) for p in small])
                for notion in CubeNotion:
                    m, w = m_value(small, notion)
                    shifted = AffineCube(tuple(a + b for a, b in zip(w.base, offset)), w.generators)
                    assert m_value(moved, notion) == (m, shifted)
                    assert find_cube(moved, m, notion) == shifted
                    assert find_cube(moved, m + 1, notion) is None

    def test_grid_box_matches_own_box(self):
        # The f loop and the sampler search cell masks of the whole grid's
        # box, one box shared by every subset; cells outside S are never
        # valid shifts, so the answer and the check count must not depend
        # on the box.  Every subset here has a box strictly inside the grid.
        rng = random.Random(4242)
        for N, n, count in [(2, 4, 12), (2, 5, 12), (2, 6, 10), (2, 7, 6),
                            (3, 3, 12), (3, 4, 10), (4, 3, 10)]:
            grid = GridParams(N, n)
            box = GridBox.of_grid(grid)
            for _ in range(count):
                spans = [sorted(rng.sample(range(N), 2)) for _ in range(n)]
                spans[rng.randrange(n)] = [rng.randrange(N)] * 2  # one flat coordinate
                cells = [p for p in grid.points() if all(a <= x <= b for x, (a, b) in zip(p, spans))]
                s = PointSet(grid, rng.sample(cells, rng.randint(1, min(len(cells), 24))))
                assert math.prod(hi - lo + 1 for lo, hi in
                                 zip(map(min, zip(*s)), map(max, zip(*s)))) < grid.size
                s_mask = box.mask(map(box.cell, s))
                own_box, own_mask = _box_of(s)
                for notion in CubeNotion:
                    best = _run_box_search(own_box, own_mask, notion, None, DEFAULT_BUDGET)
                    whole = _run_box_search(box, s_mask, notion, None, DEFAULT_BUDGET)
                    assert decoded(box, whole) == decoded(own_box, best)
                    for target in (best.best_m, best.best_m + 1):
                        own = _run_box_search(own_box, own_mask, notion, target, DEFAULT_BUDGET)
                        whole = _run_box_search(box, s_mask, notion, target, DEFAULT_BUDGET)
                        assert decoded(box, whole) == decoded(own_box, own)

    def test_vertex_cells_are_the_cells_of_the_vertices(self):
        # the removal search and the sampler read a cube's vertex cells off
        # the search's answer, with no AffineCube: they must be the cells of
        # AffineCube.vertices(), in its order, on own boxes and grid boxes
        rng = random.Random(5150)
        cubes_seen = 0
        for N, n in [(2, 5), (3, 4), (4, 3), (5, 3), (7, 2)]:
            grid = GridParams(N, n)
            whole = GridBox.of_grid(grid)
            cell_of = whole.index_map()
            # the sampler sorts vertex cells by cell_of as by their point_of index
            assert all(grid.point_of(cell_of(whole.cell(p))) == p for p in grid.points())
            for _ in range(4):
                s = PointSet.from_indices(grid, rng.sample(range(grid.size), rng.randint(2, grid.size)))
                for box, s_mask in (_box_of(s), (whole, whole.mask(map(whole.cell, s)))):
                    for notion in CubeNotion:
                        best = _run_box_search(box, s_mask, notion, None, DEFAULT_BUDGET)
                        for target in (None, *range(1, best.best_m + 1)):
                            out = _run_box_search(box, s_mask, notion, target, DEFAULT_BUDGET)
                            cube = box.cube(out.cells)
                            assert is_cube_in(s, cube, notion) and cube.m == out.best_m
                            assert box.vertex_cells(out.cells) == [box.cell(v) for v in cube.vertices()]
                            cubes_seen += 1
        assert cubes_seen >= 300

    def test_search_decodes_only_the_cells_it_visits(self, monkeypatch):
        # a search that hits at its first base of the 4,096 cells of [4]^6
        # decodes the base and the shifts it checks, not the whole set; each
        # search starts from a cold box, since a kept box would have decoded
        # its cells in an earlier search
        seen = []
        decode = GridBox.decode
        monkeypatch.setattr(GridBox, "decode", lambda box, k: seen.append(k) or decode(box, k))
        grid = GridParams(4, 6)
        full = PointSet.full(grid)
        for notion in CubeNotion:
            for m in (1, 2, 3):
                for make in (lambda: (GridBox.of_grid(grid), (1 << grid.size) - 1), lambda: _box_of(full)):
                    cubes._grid_box.cache_clear()
                    box, s_mask = make()
                    seen.clear()
                    out = _run_box_search(box, s_mask, notion, m, DEFAULT_BUDGET)
                    assert len(seen) <= 12, (notion, m, len(seen))
                    assert box.cube(out.cells).base == (0,) * 6 and out.checks <= 9

    def test_box_limit(self):
        # 10^18 cells: a ValueError (not MemoryError) shows the box is
        # refused before any mask is allocated
        huge = PointSet(GridParams(10 ** 6, 3), [(0, 0, 0), (999999,) * 3])
        with pytest.raises(ValueError, match="bounding box"):
            m_value(huge)
        with pytest.raises(ValueError, match="bounding box"):
            find_cube(huge, 1)
        side = math.isqrt(MATERIALIZE_LIMIT)
        assert side * side == MATERIALIZE_LIMIT
        over = PointSet(GridParams(side + 1, 2), [(0, 0), (side, side - 1)])
        with pytest.raises(ValueError, match="bounding box"):
            m_value(over, VI)
        at_limit = PointSet(GridParams(side, 2), [(0, 0), (side - 1, side - 1)])
        assert m_value(at_limit, VI) == (1, AffineCube((0, 0), ((side - 1, side - 1),)))


class TestKeptBox:
    """The package builds its boxes through cubes._grid_box, which keeps the
    boxes of the last eight geometries asked for: searches on one geometry
    share a box across calls, which may change no answer and no check
    count, and a ninth geometry frees the least recently used box."""

    def test_one_geometry_one_box(self):
        grid = GridParams(3, 3)
        box = GridBox.of_grid(grid)
        assert GridBox.of_grid(grid) is box
        assert _box_of(PointSet.full(grid))[0] is box
        assert _box_of(pset(3, 3, [(0, 0, 0), (2, 1, 2)]))[0] is not box

    def test_one_box_is_kept(self):
        # one box per geometry, for eight geometries; with the cyclic
        # collector off: a search leaves no cycle that holds its box, so a
        # box no cache keeps is freed at once
        gc.disable()
        try:
            cubes._grid_box.cache_clear()
            kept = {n: weakref.ref(GridBox.of_grid(GridParams(2, n))) for n in range(4, 12)}
            assert cubes._grid_box.cache_info().currsize == 8
            f_exhaustive(2, 6, Fraction(1, 4), samples=2, seed=0)
            f_exhaustive(2, 4, Fraction(1, 2))  # [2]^4 was the least recently used
            assert all(ref() is not None for ref in kept.values())
            m_value(PointSet.full(GridParams(3, 2)))  # a ninth geometry
            assert kept.pop(5)() is None  # [2]^5 is now the least recently used
            assert all(ref() is not None for ref in kept.values())
            assert cubes._grid_box.cache_info().currsize == 8
            for N in range(4, 11):  # seven more geometries free the other seven boxes
                m_value(PointSet.full(GridParams(N, 2)))
                assert cubes._grid_box.cache_info().currsize == 8
            assert all(ref() is None for ref in kept.values())
        finally:
            gc.enable()

    def test_refused_box_leaves_the_kept_box(self):
        box = GridBox.of_grid(GridParams(2, 6))
        side = math.isqrt(MATERIALIZE_LIMIT)
        over = PointSet(GridParams(side + 1, 2), [(0, 0), (side, side - 1)])
        with pytest.raises(ValueError, match="bounding box"):
            m_value(over, VI)
        with pytest.raises(ValueError, match="bounding box"):
            GridBox.of_grid(GridParams(side + 1, 2))
        assert GridBox.of_grid(GridParams(2, 6)) is box

    def test_warm_box_answers_as_a_cold_one(self):
        # each call once on a cold box (the kept one dropped first), then all
        # of them in a shuffled order, twice, each on whatever box the calls
        # before it left: another notion, target or grid, or its own
        def on_grid_box(s, *args):
            box = GridBox.of_grid(s.grid)
            return _run_box_search(box, box.mask(map(box.cell, s)), *args)

        rng = random.Random(23)
        calls = []
        for N, n in [(2, 5), (2, 6), (3, 3), (3, 4), (4, 2), (5, 2)]:
            grid = GridParams(N, n)
            for _ in range(3):
                s = PointSet.from_indices(grid, rng.sample(range(grid.size), rng.randint(2, grid.size)))
                for notion in CubeNotion:
                    for target in (None, 1, 2, 3):
                        for budget in (DEFAULT_BUDGET, rng.randrange(30)):
                            a = (notion, target, budget)
                            calls.append(lambda s=s, a=a: _run_box_search(*_box_of(s), *a))
                            calls.append(lambda s=s, a=a: on_grid_box(s, *a))
            for notion in CubeNotion:
                for seed in range(2):
                    config = SamplerConfig(p=Fraction(1, 2), seed=seed, max_rounds=20, notion=notion)
                    calls.append(lambda g=grid, c=config: moser_tardos_sample(g, 2, c))
                    calls.append(lambda N=N, n=n, a=(notion, 4, seed): f_exhaustive(N, n, Fraction(1, 3), *a))
        for notion in CubeNotion:
            calls.append(lambda a=notion: f_exhaustive(2, 4, Fraction(1, 2), a))
            calls.append(lambda a=notion: f_exhaustive(4, 2, Fraction(1, 2), a))
        cold = []
        for call in calls:
            cubes._grid_box.cache_clear()
            cold.append(call())
        order = list(range(len(calls))) * 2
        rng.shuffle(order)
        for i in order:
            assert calls[i]() == cold[i], i
        assert sum(isinstance(out, cubes._SearchOutcome) for out in cold) == 864


def need_in_place(size, goal, n, independent):
    """The thresholds of a search built as the search once built them, a
    list rebuilt in place: the slow path of cubes._need."""
    need = [0] * (size.bit_length() + 1)
    for m in range(len(need)):
        f = goal - m
        cap = (size >> m).bit_length() - 1
        if cap <= f or (independent and n - m <= f):
            need[m] = size + 1
        else:
            need[m] = (1 << (f + 1)) - 1 if f >= 0 else 1
    return need


class TestKeptTables:
    """What a box's geometry fixes is built once and kept: the box keeps its
    index map and unit columns, and the thresholds of a search come from one
    bounded table cache."""

    GRIDS = [(2, 0), (2, 5), (2, 6), (3, 4), (5, 3), (7, 1)]

    def test_index_map_is_kept(self):
        for N, n in self.GRIDS:
            grid = GridParams(N, n)
            box = GridBox.of_grid(grid)
            cell_of = box.index_map()
            assert box.index_map() is cell_of, (N, n)
            for i in range(grid.size):
                assert cell_of(i) == box.cell(grid.point_of(i)), (N, n, i)

    def test_each_box_builds_its_tables_once(self):
        maps = []
        cubes._grid_box.cache_clear()
        grid = GridParams(2, 6)
        for seed in range(200):
            config = SamplerConfig(p=Fraction(1, 2), seed=seed, notion=list(CubeNotion)[seed % 3])
            moser_tardos_sample(grid, 3, config)
            maps.append(GridBox.of_grid(grid).cell_of)
        for seed in range(20):
            f_exhaustive(2, 6, Fraction(1, 2), list(CubeNotion)[seed % 3], samples=20, seed=seed)
            maps.append(GridBox.of_grid(grid).cell_of)
        assert maps[0] is not None and all(cell_of is maps[0] for cell_of in maps)

    def test_thresholds_match_the_in_place_loop(self):
        for independent in (False, True):
            for n in range(13):
                for goal in range(11):
                    for size in range(1, 301):
                        got = cubes._need(size, goal, n, independent)
                        assert list(got) == need_in_place(size, goal, n, independent), (size, goal, n)
        info = cubes._need.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_searches_leave_the_unit_columns(self):
        rng = random.Random(31)
        for N, n in [(3, 4), (3, 5), (5, 3)]:
            grid = GridParams(N, n)
            box = GridBox.of_grid(grid)
            for _ in range(6):
                s = PointSet.from_indices(grid, rng.sample(range(grid.size), rng.randint(8, grid.size // 2)))
                own_box, own_mask = _box_of(s)
                s_mask = box.mask(map(box.cell, s))
                for notion in CubeNotion:
                    best = _run_box_search(box, s_mask, notion, None, DEFAULT_BUDGET)
                    _run_box_search(own_box, own_mask, notion, None, DEFAULT_BUDGET)
                    for target in range(1, best.best_m + 2):
                        _run_box_search(box, s_mask, notion, target, DEFAULT_BUDGET)
                    for kept in (box, own_box):
                        assert kept.units == tuple(unit_columns(n))
            assert box.units == tuple(unit_columns(n)) and all(type(c) is tuple for c in box.units)


class TestMValue:
    def test_full_grids(self):
        for n in range(1, 5):
            assert m_value(PointSet.full(GridParams(2, n)), IND)[0] == n
        assert m_value(PointSet.full(GridParams(3, 2)), IND)[0] == 2

    def test_singleton(self):
        m, w = m_value(pset(3, 2, [(1, 2)]))
        assert m == 0 and w == AffineCube((1, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            m_value(PointSet.empty(GridParams(2, 2)))

    def test_notion_separation_segment(self):
        assert m_value(seg_set(), VI)[0] == 2
        assert m_value(seg_set(), IND)[0] == 1
        assert m_value(seg_set(), UNI)[0] == 1

    def test_notion_separation_unimodular(self):
        s = pset(3, 2, [(0, 0), (2, 0), (0, 2), (2, 2)])
        assert m_value(s, VI)[0] == 2
        assert m_value(s, IND)[0] == 2
        assert m_value(s, UNI)[0] == 0

    def test_nesting_on_random_sets(self):
        rng = random.Random(23)
        for _ in range(40):
            N = rng.choice([2, 3, 4])
            n = rng.randint(1, 3 if N > 2 else 4)
            grid = GridParams(N, n)
            s = PointSet.from_indices(grid, rng.sample(range(grid.size), rng.randint(1, grid.size)))
            vals = [m_value(s, notion)[0] for notion in (UNI, IND, VI)]
            assert vals[0] <= vals[1] <= vals[2]
            assert vals[1] <= n

    def test_witness_is_canonical_and_contained(self):
        rng = random.Random(29)
        for _ in range(25):
            grid = GridParams(3, 2)
            s = PointSet.from_indices(grid, rng.sample(range(9), rng.randint(2, 9)))
            for notion in CubeNotion:
                m, w = m_value(s, notion)
                assert w.canonical() == w
                assert w.m == m
                assert is_cube_in(s, w, notion)

    def test_invariance_under_symmetries(self):
        rng = random.Random(31)
        for _ in range(15):
            N, n = 3, 2
            grid = GridParams(N, n)
            s = PointSet.from_indices(grid, rng.sample(range(9), rng.randint(1, 9)))
            base = {notion: m_value(s, notion)[0] for notion in CubeNotion}
            for perm in permutations(range(n)):
                mapped = PointSet(grid, [tuple(p[i] for i in perm) for p in s.points()])
                for notion in CubeNotion:
                    assert m_value(mapped, notion)[0] == base[notion]
            reflected = PointSet(grid, [tuple(N - 1 - x for x in p) for p in s.points()])
            for notion in CubeNotion:
                assert m_value(reflected, notion)[0] == base[notion]


class TestOracle:
    def test_all_subsets_of_2x2(self):
        grid = GridParams(2, 2)
        pts = list(grid.points())
        for mask in range(1, 16):
            s = PointSet(grid, [pts[i] for i in range(4) if mask >> i & 1])
            oracle = m_value_oracle_all(s)
            for notion in CubeNotion:
                assert m_value(s, notion)[0] == oracle[notion]

    def test_segment_agreement(self):
        for notion in CubeNotion:
            assert m_value_oracle_all(seg_set())[notion] == m_value(seg_set(), notion)[0]

    def test_random_3x3x3(self):
        rng = random.Random(37)
        for _ in range(30):
            grid = GridParams(3, 3)
            idxs = [i for i in range(27) if rng.random() < 0.5]
            if not idxs:
                continue
            s = PointSet.from_indices(grid, idxs)
            oracle = m_value_oracle_all(s)
            for notion in CubeNotion:
                assert m_value(s, notion)[0] == oracle[notion]

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            m_value_oracle_all(PointSet.full(GridParams(2, 10)))

    def test_diverse_grids(self):
        # wider bases make non-primitive and dependent generators common
        rng = random.Random(987)
        for N, n, count in [(4, 2, 25), (5, 2, 20), (7, 1, 25), (2, 5, 15)]:
            grid = GridParams(N, n)
            for _ in range(count):
                size = rng.randint(1, min(grid.size, 20))
                s = PointSet.from_indices(grid, rng.sample(range(grid.size), size))
                oracle = m_value_oracle_all(s)
                for notion in CubeNotion:
                    assert m_value(s, notion)[0] == oracle[notion]


class TestWitnessMinimality:
    def test_first_found_is_lexicographic_minimum(self):
        # enumerate every canonical witness of the maximal dimension by a
        # separate anchored scan; the search must return the smallest
        rng = random.Random(31337)
        for _ in range(60):
            N = rng.choice([2, 3, 4])
            n = rng.randint(1, 3 if N < 4 else 2)
            grid = GridParams(N, n)
            size = rng.randint(2, min(grid.size, 14))
            s = PointSet.from_indices(grid, rng.sample(range(grid.size), size))
            for notion in CubeNotion:
                m, w = m_value(s, notion)
                if m == 0:
                    continue
                expected = min(all_witnesses(s, m, notion), key=lambda c: (c.base, c.generators))
                assert w == expected
                assert find_cube(s, m, notion) == expected


class TestExtendCube:
    def test_point_to_segment(self):
        seg = extend_cube((0,), (1,), AffineCube((1,)))
        assert seg == AffineCube((0, 1), ((1, 0),))
        assert sorted(set(seg.vertices())) == [(0, 1), (1, 1)]

    def test_segment_to_square(self):
        inner = AffineCube((0,), ((1,),))
        lifted = extend_cube((0, 0), (1, 1), inner)
        assert lifted.generators == ((1, 1, 0), (0, 0, 1))
        assert lifted.base == (0, 0, 0)

    def test_vertices_are_both_fibers(self):
        rng = random.Random(41)
        for _ in range(30):
            r = rng.randint(1, 2)
            inner_dim = rng.randint(1, 2)
            a = tuple(rng.randint(0, 2) for _ in range(r))
            b = tuple(rng.randint(0, 2) for _ in range(r))
            if a == b:
                continue
            base = tuple(rng.randint(0, 2) for _ in range(inner_dim))
            gens = tuple(
                tuple(rng.randint(-1, 1) for _ in range(inner_dim)) for _ in range(rng.randint(0, 2))
            )
            inner = AffineCube(base, gens)
            if not inner.is_vertex_injective():
                continue
            lifted = extend_cube(a, b, inner)
            expected = {a + v for v in inner.vertices()} | {b + v for v in inner.vertices()}
            assert set(lifted.vertices()) == expected
            assert lifted.is_vertex_injective()

    def test_independence_preserved(self):
        inner = AffineCube((0, 0), ((1, 0), (0, 1)))
        lifted = extend_cube((2,), (0,), inner)
        assert lifted.satisfies(IND)

    def test_equal_prefixes_rejected(self):
        with pytest.raises(ValueError):
            extend_cube((0,), (0,), AffineCube((1,)))


def f_by_subsets(box, k_min, notion, budget=DEFAULT_BUDGET):
    """Exact f by every k_min-subset of the box in lex order, skipping
    those with a cube of the least dimension found so far (M is monotone
    under inclusion, so larger subsets cannot lower the minimum)."""
    masks = map(box.mask, combinations(range(box.cells), k_min))
    mu = None
    for s_mask in masks:
        if mu is not None and _search(box, s_mask, notion, mu, budget).cells is not None:
            continue  # M(sub) >= mu, cannot lower the minimum
        mu = _search(box, s_mask, notion, None, budget).best_m
        if mu == 0:
            return 0
    return mu


class TestFExhaustive:
    def test_density_one_is_dimension(self):
        for n in range(1, 4):
            assert f_exhaustive(2, n, 1, IND) == n

    def test_half_density_on_a_line(self):
        assert f_exhaustive(2, 1, Fraction(1, 2), IND) == 0

    def test_monotone_in_c(self):
        values = [
            f_exhaustive(2, 3, c, IND)
            for c in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
        ]
        assert values == sorted(values)

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError, match="samples"):
            f_exhaustive(2, 5, Fraction(1, 2))

    def test_sampled_variant_runs(self):
        v = f_exhaustive(2, 5, Fraction(1, 2), IND, samples=5, seed=3)
        assert 0 <= v <= 5

    def test_sampled_stops_at_zero(self, monkeypatch):
        # no set has a smaller M than 0, so the sampled loop returns at the
        # first sample with M = 0: on [3]^1 a unimodular cube needs a unit
        # step, and {0, 2} has none
        searches = []
        search = cubes._search
        monkeypatch.setattr(cubes, "_search", lambda *args: searches.append(args) or search(*args))
        for c, made in ((Fraction(2, 3), 7), (Fraction(1, 3), 1)):
            searches.clear()
            assert f_exhaustive(3, 1, c, UNI, samples=10, seed=0) == 0
            assert len(searches) == made
            assert f_exhaustive(3, 1, c, UNI) == 0

    def test_sampled_default_seed(self, monkeypatch):
        # with no seed the draws are those of seed 1729, the CLI's default,
        # not of system entropy
        draws = []
        sample = random.Random.sample
        monkeypatch.setattr(random.Random, "sample",
                            lambda rng, *args: draws.append(sample(rng, *args)) or draws[-1])
        runs = []
        for seed in ({}, {}, {"seed": 1729}):
            draws.clear()
            value = f_exhaustive(2, 6, Fraction(1, 4), IND, samples=6, **seed)
            runs.append((value, list(draws)))
        assert runs[0] == runs[1] == runs[2] and len(runs[0][1]) == 6
        assert cubes.DEFAULT_SEED == 1729

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            f_exhaustive(2, 2, 0)
        with pytest.raises(ValueError):
            f_exhaustive(2, 2, Fraction(3, 2))
        # the loop searches masks, not PointSets, so the budget is checked at entry
        for samples in (None, 3):
            with pytest.raises(ValueError, match="budget"):
                f_exhaustive(2, 2, Fraction(1, 2), samples=samples, budget=-1)

    def test_exhaustive_against_oracle(self):
        # slow path: every subset of the least qualifying size, in the
        # same lex order, through PointSet and the naive oracle
        for N, n, ks in [(2, 1, (1, 2)), (5, 1, range(1, 6)), (2, 2, range(1, 5)),
                         (2, 3, range(1, 9)), (3, 2, range(1, 10)), (2, 4, (13, 14, 16)),
                         (4, 2, (14, 15))]:
            grid = GridParams(N, n)
            for k in ks:
                c = Fraction(k, grid.size)
                values = {notion: [] for notion in CubeNotion}
                for pts in combinations(grid.points(), k):
                    oracle = m_value_oracle_all(PointSet(grid, pts))
                    for notion in CubeNotion:
                        values[notion].append(oracle[notion])
                for notion in CubeNotion:
                    assert f_exhaustive(N, n, c, notion) == min(values[notion]), (N, n, k, notion)

    def test_removal_search_against_subset_loop(self):
        # slow path: the k_min-subset loop on the same box and notion
        for N, n, ks in [(2, 3, range(1, 9)), (3, 2, range(1, 10)), (5, 1, range(1, 6)),
                         (8, 1, range(1, 9)), (2, 4, (2, 7, 8, 9, 13)), (4, 2, (2, 7, 8, 9, 13)),
                         (16, 1, (2, 7, 8, 9, 13))]:
            grid = GridParams(N, n)
            box = GridBox.of_grid(grid)
            for k in ks:
                for notion in CubeNotion:  # VI first
                    if N > 2 or notion is VI:  # on [2]^n the three notions coincide
                        expected = f_by_subsets(box, k, notion)
                    assert f_exhaustive(N, n, Fraction(k, grid.size), notion) == expected, (N, n, k, notion)

    def test_each_lowering_set_qualifies_and_has_no_cube(self, monkeypatch):
        # every maximize-mode search after the first is on a set the removal
        # search found: at least k_min cells, and by the naive oracle no cube
        # of the dimension it lowers
        searched = []

        def spy(box, s_mask, notion, target, budget):
            out = _search(box, s_mask, notion, target, budget)
            if target is None:
                searched.append((box, s_mask, out.best_m))
            return out

        monkeypatch.setattr(cubes, "_search", spy)
        lowered = 0
        for N, n, k in [(2, 4, 8), (2, 4, 10), (4, 2, 8), (4, 2, 12), (3, 2, 5), (16, 1, 6), (2, 3, 4)]:
            grid = GridParams(N, n)
            for notion in CubeNotion:
                searched.clear()
                f = f_exhaustive(N, n, Fraction(k, grid.size), notion)
                box, first, mu = searched[0]
                assert first == (1 << k) - 1
                for box, s_mask, m in searched[1:]:
                    s = PointSet(grid, [box.point(j) for j in box.cells_of(s_mask)])
                    assert len(s) >= k
                    assert m == m_value_oracle_all(s)[notion] < mu, (N, n, k, notion)
                    mu = m
                    lowered += 1
                assert f == mu
        assert lowered >= 10

    def test_child_searches_start_at_the_parent_base(self, monkeypatch):
        # a branch removes a vertex cell of the cube its parent found, so its
        # set is a subset of the parent's, and it searches only the cells at
        # or above that cube's base; a branch is told from its removals left
        searches = []

        def spy(box, s_mask, notion, m, budget):
            out = _search(box, s_mask, notion, m, budget)
            caller = sys._getframe(1).f_locals
            if "t" in caller:  # a removal branch's search
                searches.append((caller["t"], s_mask, out.cells))
            return out

        monkeypatch.setattr(cubes, "_search", spy)
        children = cut = 0
        for N, n, k in [(2, 4, 8), (2, 4, 10), (4, 2, 8), (4, 2, 12), (3, 2, 5), (16, 1, 6), (2, 3, 4)]:
            for notion in CubeNotion:
                searches.clear()
                f_exhaustive(N, n, Fraction(k, N ** n), notion)
                parents = {}
                for t, s_mask, cells in searches:
                    if t < N ** n - k:
                        mask, found = parents[t + 1]
                        assert s_mask & ~mask == 0
                        assert s_mask & ((1 << found[0]) - 1) == 0
                        children += 1
                        cut += found[0] > 0
                    parents[t] = s_mask, cells
        assert children >= 1000 and cut >= 500

    def test_removal_checks_pinned(self, monkeypatch):
        # the summed checks of every search of exhaustive f, unimodular;
        # searching each branch from the first cell of its set, they were
        # 1,326, 10,024 and 213
        total = []
        run = cubes._run_box_search

        def spy(*args):
            out = run(*args)
            total.append(out.checks)
            return out

        monkeypatch.setattr(cubes, "_run_box_search", spy)
        for N, n, c, f, checks in [(2, 4, Fraction(5, 8), 2, 1271), (2, 4, Fraction(1, 2), 2, 7920),
                                   (4, 2, Fraction(1, 2), 1, 213)]:
            total.clear()
            assert f_exhaustive(N, n, c, UNI) == f
            assert sum(total) == checks, (N, n, c)

    def test_builds_no_cube(self, monkeypatch):
        # both modes read only dimensions and vertex cells off the searches'
        # answers, so no AffineCube is built, however many searches run
        built = []
        post_init = AffineCube.__post_init__
        monkeypatch.setattr(AffineCube, "__post_init__", lambda cube: built.append(cube) or post_init(cube))
        searches = []
        run = cubes._run_box_search
        monkeypatch.setattr(cubes, "_run_box_search", lambda *args: searches.append(args) or run(*args))
        for notion in CubeNotion:
            assert f_exhaustive(2, 4, Fraction(5, 8), notion) == 2
            assert f_exhaustive(4, 2, Fraction(1, 2), notion) >= 1
            assert f_exhaustive(3, 4, Fraction(1, 5), notion, samples=10, seed=2) >= 1
        assert len(searches) >= 1000 and built == []

    def test_sampled_against_oracle(self):
        # slow path: the same rng.sample draws of point_of indices
        for N, n, c, samples, seed in [(2, 6, Fraction(1, 4), 12, 0), (2, 9, Fraction(1, 32), 6, 1),
                                       (3, 4, Fraction(1, 5), 10, 2), (3, 5, Fraction(1, 15), 6, 3),
                                       (5, 3, Fraction(1, 8), 8, 4), (8, 3, Fraction(1, 32), 6, 5),
                                       (7, 2, Fraction(1, 3), 8, 6)]:
            grid = GridParams(N, n)
            k = math.ceil(c * grid.size)
            rng = random.Random(seed)
            sets = [PointSet.from_indices(grid, rng.sample(range(grid.size), k)) for _ in range(samples)]
            oracles = [m_value_oracle_all(s) for s in sets]
            for notion in CubeNotion:
                expected = min(o[notion] for o in oracles)
                got = f_exhaustive(N, n, c, notion, samples=samples, seed=seed)
                assert got == expected, (N, n, notion)


@pytest.mark.parametrize("call, message", [
    (lambda: extend_cube((0,), (0, 1), AffineCube((1,))), "prefixes must have equal length"),
    (lambda: extend_cube((0,), (0,), AffineCube((1,))), "prefixes must be distinct"),
    (lambda: extend_cube((0,), (1,), AffineCube((0,), ((1,), (1,)))), "inner cube must be vertex-injective"),
    (lambda: find_cube(seg_set(), -1), "cube dimension must be >= 0, got -1"),
    (lambda: find_cube(PointSet.empty(GridParams(2, 2)), -2), "cube dimension must be >= 0, got -2"),
])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
