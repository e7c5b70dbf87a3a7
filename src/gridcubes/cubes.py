"""Affine hypercubes in grid subsets and exact maximal-dimension search.

A dimension-m affine cube is the image of the vertex set {0,1}^m under an
affine map y -> Ay + z, stored as the base z plus the m generator vectors
(columns of A).  Three nested notions are distinguished:

* VERTEX_INJECTIVE: the 2^m subset sums are pairwise distinct points;
* INDEPENDENT_GENERATORS: generators are also linearly independent over Q;
* UNIMODULAR: generators also extend to a basis of the lattice Z^n.

The search grows a cube by doubling: the current vertex set V extends by a
shift d to V u (V+d) when the translate stays inside S and misses V, which
is exactly the prefix-extension mechanism the density lemmas use.  Every
cube has a unique anchored representation (each generator with positive
leading entry, generators sorted lexicographically, base at the anchor
vertex), and shifts are enumerated in that canonical order, so the search
is exhaustive and visits each cube once.

Each search node carries only the shifts still valid for it, those d with
V + d inside S (the candidate-set idea of Bron-Kerbosch): after adding d,
the shift e stays valid iff d + e was valid too.  Adding k more generators
needs 2^k - 1 valid shifts, their nonzero subset sums, so a node with few
left is cut.  The valid shifts of a node are one integer bitmask over the
cells of a GridBox around S, numbered in mixed radix with the first
coordinate most significant, so bit order is lex order and the canonical
shifts from a base z are the bits above z; one shift and AND, with a guard
mask against indices that wrap around the box, gives each child (as in
bit-parallel clique search, San Segundo et al. 2011).  find_cube and
m_value search S's own bounding box; f_exhaustive and the resampling loop
of construct search cell masks of one box of the whole grid, whose guard
masks, decoded cells, unit columns and index map all their subsets
share.  Every box comes from one cached constructor that keeps the boxes
of the last eight geometries built in the process, so the searches of
later calls on those geometries share them too: the next sampler call on
a grid, the next sampled f on it, and the next M(S) of a set with the
same bounding box, though other geometries come between, as in a pool
that cycles through five.  A process keeps at most eight boxes beyond
the one its running search holds.  A search pays for the cells it
visits, not for |S|: it walks the bases low bit first straight off S's
mask and stops at the first base with too few cells of S above it, and it
decodes a cell only when it needs the cell's point, once per box.  A
shift's notion tests run first only where they can raise the best
dimension found; elsewhere they run only for a child that passes its count
and is entered, since the count rejects most shifts and costs less.  For a
subset of [2]^n the three notions coincide and the search tests none of
them.  Every search of the package enters through _search, and answers in
cells, its cube's base cell and generator cells; GridBox.cube makes an
AffineCube of them only where a cube is printed or returned, so the f loop
and the sampler build none.  A box of more than grid.MATERIALIZE_LIMIT
cells is refused.  The API and PointSet stay tuple-only.

Exhaustive f runs on the cells removed from the grid, not on its subsets:
a qualifying set with no m-cube is the complement of a set of at most
N^n - k_min cells that meets every m-cube, and such a set holds a vertex of
whichever m-cube the search finds, so the removal sets are a bounded search
tree that branches on the vertex cells of found cubes.  Gunderson and Rodl
(Combin. Probab. Comput. 1998) study these extremal numbers for cubes of
integers.

A search on a set that only shrinks resumes at the last cube's base.  The
search takes bases in ascending cell order and a cube's cells all lie at or
above its base cell, so a search whose first cube has base cell iz proved
that no base below iz holds one, in that set and in each of its subsets.
A removal branch and a resampling round of construct search their set with
the cells below that base cleared, s_mask & (-1 << iz), and find the same
first cube as a search over the whole set.
"""

from __future__ import annotations

import enum
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .grid import MATERIALIZE_LIMIT, GridParams, Point, PointSet
from .intlinalg import eliminate, is_primitive_system, rational_rank, reduce_against, unit_columns

DEFAULT_BUDGET = 10 ** 8
DEFAULT_SEED = 1729  # the seed of sampled f and of the constructions when none is given

ORACLE_GRID_CAP = 512  # the naive oracle refuses anything bigger
VERTEX_CAP = 30  # 2^m vertices must stay enumerable

_Cells = tuple[int, tuple[int, ...]]  # a search's cube: its base cell and generator cells


class CubeNotion(enum.Enum):
    VERTEX_INJECTIVE = "vertex-injective"
    INDEPENDENT_GENERATORS = "independent-generators"
    UNIMODULAR = "unimodular"

    @classmethod
    def from_string(cls, name: str) -> "CubeNotion":
        for notion in cls:
            if name in (notion.value, notion.name, notion.name.lower()):
                return notion
        raise ValueError(f"unknown cube notion {name!r}")


DEFAULT_NOTION = CubeNotion.INDEPENDENT_GENERATORS


class SearchBudgetExceeded(RuntimeError):
    """A search's budget ran out before it could certify its answer.  bounds
    holds what it proved, the fields of an inconclusive result: best_m, the
    best cube dimension a cube search found, or min_distance_lower and
    min_distance_upper, the bracket on d of a minimum distance stopped by
    toric.MESSAGE_CAP."""

    def __init__(self, message: str, **bounds: int):
        super().__init__(message)
        self.bounds = bounds


def _leading_positive(v: Sequence[int]) -> bool:
    for x in v:
        if x > 0:
            return True
        if x < 0:
            return False
    return True  # zero vector needs no sign flip


def _add(p: Point, d: Sequence[int]) -> Point:
    return tuple(a + b for a, b in zip(p, d))


def _sub(p: Point, q: Point) -> tuple[int, ...]:
    return tuple(map(sub, p, q))


@dataclass(frozen=True)
class AffineCube:
    """Base point plus generator vectors; dimension m = len(generators)."""

    base: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        for v in self.generators:
            if len(v) != len(self.base):
                raise ValueError("generator length differs from base length")

    @property
    def m(self) -> int:
        return len(self.generators)

    @property
    def dim(self) -> int:
        return len(self.base)

    def vertices(self) -> list[Point]:
        """All 2^m subset sums, ordered by subset bitmask (with duplicates
        if the cube is not vertex-injective)."""
        if self.m > VERTEX_CAP:
            raise ValueError(f"cube dimension {self.m} exceeds the vertex cap {VERTEX_CAP}")
        verts = [self.base]
        for v in self.generators:
            verts += [_add(w, v) for w in verts]
        return verts

    def is_vertex_injective(self) -> bool:
        verts = self.vertices()
        return len(set(verts)) == len(verts)

    def satisfies(self, notion: CubeNotion) -> bool:
        if not self.is_vertex_injective():
            return False
        if notion is CubeNotion.VERTEX_INJECTIVE:
            return True
        if notion is CubeNotion.INDEPENDENT_GENERATORS:
            return rational_rank(self.generators) == self.m
        return is_primitive_system(self.generators)

    def canonical(self) -> "AffineCube":
        """Flip generators to positive leading entry (moving the base to the
        anchor vertex), then sort generators lexicographically."""
        base = list(self.base)
        gens = []
        for v in self.generators:
            if not _leading_positive(v):
                base = [b + x for b, x in zip(base, v)]
                v = tuple(-x for x in v)
            gens.append(v)
        gens.sort()
        return AffineCube(tuple(base), tuple(gens))

    def to_record(self, notion: CubeNotion) -> dict:
        return {
            "notion": notion.value,
            "m": self.m,
            "base": list(self.base),
            "generators": [list(v) for v in self.generators],
        }

    def canonical_line(self, notion: CubeNotion) -> str:
        """Single-line canonical text form for golden tests."""
        cube = self.canonical()
        base = ",".join(str(x) for x in cube.base)
        gens = ";".join(",".join(str(x) for x in v) for v in cube.generators)
        return f"{notion.value} m={cube.m} base=({base}) gens=[{gens}]"


def is_cube_in(s: PointSet, cube: AffineCube, notion: CubeNotion = DEFAULT_NOTION) -> bool:
    """True iff the cube satisfies the notion and every vertex lies in S."""
    if cube.dim != s.grid.dim:
        raise ValueError(f"cube dimension {cube.dim} does not match grid dimension {s.grid.dim}")
    if not cube.satisfies(notion):
        return False
    tset = s.tuple_set
    return all(w in tset for w in cube.vertices())


def extend_cube(a: Sequence[int], b: Sequence[int], inner: AffineCube) -> AffineCube:
    """Lift a cube over the suffix grid to one dimension higher over the
    full grid: base a x z, first generator (b-a) x 0, rest 0 x v_i."""
    a = tuple(int(x) for x in a)
    b = tuple(int(x) for x in b)
    if len(a) != len(b):
        raise ValueError("prefixes must have equal length")
    if a == b:
        raise ValueError("prefixes must be distinct")
    if not inner.is_vertex_injective():
        raise ValueError("inner cube must be vertex-injective")
    r = len(a)
    zeros_suffix = (0,) * inner.dim
    zeros_prefix = (0,) * r
    first = _sub(b, a) + zeros_suffix
    gens = (first,) + tuple(zeros_prefix + v for v in inner.generators)
    return AffineCube(a + inner.base, gens)


class GridBox:
    """The cells of a box of grid points, numbered in mixed radix with the
    first coordinate most significant, so bit order is lex order: a subset
    of the box is one int mask over its cells.

    A cell is decoded on first use, in one pass over its digits, to its
    point and the codes of its two halves of coordinates, 1..h-1 and
    h..n-1 with h = ceil(n/2), that key the guard masks.  A decoded cell
    is kept, because a search looks up the same cells again and again.
    The box also keeps the guard masks that the searches over its subsets
    share (see _run_box_search).  A box of more than MATERIALIZE_LIMIT
    cells raises ValueError before any mask is built.

    It keeps three more things, each built once: whether it spans at most
    two values per coordinate (two_valued, where no notion test runs), the
    unit columns of the coordinates it spans, width >= 2 (units, never
    changed: eliminate copies them, reduce_against only reads them), and
    the function of index_map with its two digit tables of at most
    N^ceil(n/2) entries, built on its first call.

    Everything a box holds, its decoded cells, its guard masks and the
    three above, is a pure function of its lows and widths, so one box
    serves every search on its geometry with the same checks and answers,
    and the package builds its boxes through _grid_box, which keeps the
    boxes of the last eight geometries.  Nothing search-specific
    may be stored on a box.
    """

    __slots__ = ("dim", "lows", "widths", "strides", "cells", "origin", "h", "decoded",
                 "guard_hi", "guard_lo", "two_valued", "units", "cell_of", "__weakref__")

    def __init__(self, lows: Sequence[int], widths: Sequence[int]):
        cells = math.prod(widths)
        if cells > MATERIALIZE_LIMIT:
            raise ValueError(
                f"bounding box of the set has {cells} cells, more than the search limit {MATERIALIZE_LIMIT}"
            )
        n = len(widths)
        strides = [1] * n
        for i in range(n - 2, -1, -1):
            strides[i] = strides[i + 1] * widths[i + 1]
        self.dim = n
        self.lows = list(lows)
        self.widths = list(widths)
        self.strides = strides
        self.cells = cells
        self.origin = sum(map(mul, lows, strides))
        self.h = (n + 1) // 2
        self.decoded: dict[int, tuple[Point, int, int]] = {}
        self.guard_hi: dict[int, int] = {}
        self.guard_lo: dict[int, int] = {}
        self.two_valued = max(widths, default=2) <= 2
        self.units = tuple(unit_columns(n, [i for i, w in enumerate(widths) if w > 1]))
        self.cell_of: Optional[Callable[[int], int]] = None

    @staticmethod
    def of_grid(grid: GridParams) -> "GridBox":
        """The box of the whole grid, kept by _grid_box."""
        return _grid_box((0,) * grid.dim, (grid.base,) * grid.dim)

    def cell(self, p: Sequence[int]) -> int:
        return sum(map(mul, p, self.strides)) - self.origin

    def decode(self, k: int) -> tuple[Point, int, int]:
        """The point at cell k with its codes over coordinates 1..h-1 and
        h..n-1, in base 2w_i - 1 (a difference of codes names one half of
        d), in one pass over k's digits, last coordinate first; kept in
        self.decoded."""
        p = [0] * self.dim
        rest, code, scale, low = k, 0, 1, 0
        for i in range(self.dim - 1, -1, -1):
            if i == self.h - 1:  # the second half's code is complete
                low, code, scale = code, 0, 1
            rest, x = divmod(rest, self.widths[i])
            p[i] = x = x + self.lows[i]
            if i:
                code += x * scale
                scale *= 2 * self.widths[i] - 1
        self.decoded[k] = cell = (tuple(p), code, low)
        return cell

    def point(self, k: int) -> Point:
        """The point at cell k."""
        return (self.decoded.get(k) or self.decode(k))[0]

    def cube(self, cells: _Cells) -> AffineCube:
        """The cube of a search answer, its base cell and generator cells:
        the one place a search's cells become tuples."""
        iz, ks = cells
        z = self.point(iz)
        return AffineCube(z, tuple(_sub(self.point(k), z) for k in ks))

    @staticmethod
    def vertex_cells(cells: _Cells) -> list[int]:
        """The vertex cells of a search answer, in the order of
        AffineCube.vertices(): a cell's number is affine in its point, so
        z + sum of g_j for j in T is at iz + sum of (k_j - iz) for j in T,
        for every vertex of a cube inside the box."""
        iz, ks = cells
        verts = [iz]
        for k in ks:
            o = k - iz
            verts += [v + o for v in verts]
        return verts

    def mask(self, cells: Iterable[int]) -> int:
        bits = bytearray((self.cells + 7) >> 3)
        for k in cells:
            bits[k >> 3] |= 1 << (k & 7)
        return int.from_bytes(bits, "little")

    @staticmethod
    def cells_of(mask: int) -> list[int]:
        """The set bits of mask, low first (lex order of their points)."""
        bits = bin(mask)[:1:-1]
        out = []
        k = bits.find("1")
        while k >= 0:
            out.append(k)
            k = bits.find("1", k + 1)
        return out

    def index_map(self) -> Callable[[int], int]:
        """For the box of a whole grid: the cell of an index in the order
        of GridParams.point_of, first coordinate least significant.  The
        digits are reversed by one table over the first n // 2 coordinates
        and one over the rest, so neither has more than N^ceil(n/2)
        entries: sqrt(N^n) for even n, N^((n+1)/2) for odd n (N^2 at n = 3,
        N at n = 1).  Built on the first call and kept, so every call
        returns the same function, and a sampler call or a sampled f on the
        grid builds no table."""
        if self.cell_of is None:
            tables = []
            for part in (slice(0, self.dim // 2), slice(self.dim // 2, None)):
                table = [0]
                for stride, width in zip(self.strides[part], self.widths[part]):
                    table = [t + x * stride for x in range(width) for t in table]
                tables.append(table)
            low, high = tables
            split = len(low)
            self.cell_of = lambda index: low[index % split] + high[index // split]
        return self.cell_of

    def guard(self, cache: dict, key: int, coords: range, k: int, z: Point) -> int:
        """Cells x with x_i + d_i in the box for i in coords, d = cell k - z."""
        mask = (1 << self.cells) - 1
        p = self.point(k)
        for i in coords:
            d = p[i] - z[i]
            if not d:
                continue
            a, b = max(0, -d), self.widths[i] - 1 - max(0, d)
            stride = self.strides[i]
            run = ((1 << ((b - a + 1) * stride)) - 1) << (a * stride)
            span = stride * self.widths[i]
            while span < self.cells:  # repeat the run in every block of coordinate i
                run |= run << span
                span <<= 1
            mask &= run
        cache[key] = mask
        return mask


@functools.lru_cache(maxsize=8)
def _grid_box(lows: tuple[int, ...], widths: tuple[int, ...]) -> GridBox:
    """The GridBox of these lows and widths, the boxes of the last eight
    geometries asked for kept per process, least recently used freed
    first: repeated searches on one geometry share what its box keeps
    across calls, its decoded cells, guard masks, two-valued flag, unit
    columns and index map, even when the calls cycle through several
    geometries, as a run of commands on five grids does.  A box refused
    over MATERIALIZE_LIMIT raises and leaves the kept boxes in place."""
    return GridBox(lows, widths)


def _box_of(s: PointSet) -> tuple[GridBox, int]:
    """S's own bounding box, kept by _grid_box, and S as a cell mask."""
    pts = s.tuple_set
    columns = list(zip(*pts)) or [(0,)] * s.grid.dim
    lows = tuple(map(min, columns))
    box = _grid_box(lows, tuple(hi - lo + 1 for hi, lo in zip(map(max, columns), lows)))
    return box, box.mask(map(box.cell, pts))


@functools.lru_cache(maxsize=1024)
def _need(size: int, goal: int, n: int, independent: bool) -> tuple[int, ...]:
    """need[m] for every m <= log2(size) + 1: the fewest valid shifts left
    that let a node with m generators of a search on `size` cells try one,
    when its cubes count only above dimension goal (best_m, or target - 1),
    in n dimensions, under an independent notion or not; k more generators
    need 2^k - 1 of them.  Searches on sets of one size share their tables,
    the last 1,024 kept, each of at most log2(MATERIALIZE_LIMIT) + 2
    entries."""
    need = []
    for m in range(size.bit_length() + 1):
        f = goal - m
        # doubling can multiply |V| = 2^m by at most size // 2^m in total
        cap = (size >> m).bit_length() - 1
        if cap <= f or (independent and n - m <= f):
            need.append(size + 1)
        else:
            need.append((1 << (f + 1)) - 1 if f >= 0 else 1)
    return tuple(need)


class _SearchOutcome(NamedTuple):
    best_m: int
    cells: Optional[_Cells]  # target mode: the target-dimension cube, if found
    conclusive: bool
    checks: int


def _run_box_search(
    box: GridBox,
    s_mask: int,
    notion: CubeNotion,
    target: Optional[int],
    budget: int,
) -> _SearchOutcome:
    """Depth-first doubling search from every base of S in lex order, where
    S is the set of cells in s_mask.

    target=None: exhaust the tree and report the maximal dimension with its
    first (lexicographically minimal) witness.  target=m: stop at the first
    cube of dimension exactly m.  `conclusive` is False only when the budget
    ran out before the answer was certain.  The witness is its base cell
    and generator cells (see GridBox.cube and GridBox.vertex_cells).

    The box's cells, widths w_i, are numbered in mixed radix, first
    coordinate most significant, so bit order is lex order.  A node is a
    cube with base z, generators g_1 < ... < g_m and vertex set V; it
    carries the bitmask of the cells z + d for the canonical shifts d > g_m
    with V + d inside S (at a base, the cells of S above z), and takes them
    low bit first.  With `rest` the bits above d and o the index offset of
    d, the child is rest & (rest >> o) & guard(d), since V u (V + d) + e
    lies in S iff e and d + e are valid.  guard(d) keeps the cells x with
    x + d inside the box in coordinates 1..n-1, where the index of x plus o
    could name another cell; past the box in the first coordinate it names
    no cell.  guard(d) is the AND of two masks keyed by d's coordinates
    1..h-1 and h..n-1, h = ceil(n/2), built on first use and kept by the
    box: at most prod_{0<i<h} (2w_i - 1) + prod_{h<=i<n} (2w_i - 1) masks of
    prod w_i bits, whatever |S|, the budget, the number of checks or the
    number of subsets searched (972 masks of 512 bytes for [2]^12).  Cells
    outside S are never valid, so the valid shifts, the checks and the
    witness do not depend on which box around S is used.

    The bases are the bits of s_mask, walked low bit first with no list
    of them: `rest` holds the bits above the base, and its count `left`
    falls by one per base, while need[0] never falls (best_m only grows),
    so the walk ends at the first base with fewer than need[0] cells above
    it, and no later base could start a check.  A base's point and half
    codes are decoded when its node is entered, a shift's point only when
    the independence test of a check or the first build of a guard needs
    it, and a shift's half codes when its child is counted with the guard.
    The box decodes each cell once (see GridBox), so nothing here costs a
    pass over S.

    A check is one valid shift tried.  Its notion tests (admit) are
    injectivity, V and V + d disjoint as vmask & (vmask << o)
    (vertex-injective notion only; independence implies it), then
    independence and unimodularity: a node carries the free columns left by
    eliminating its generators (see intlinalg), d is rejected when
    red = reduce_against(d, cols) is None or, for the unimodular notion,
    gcd(red) != 1, and the child gets eliminate(red, cols).  At a base the
    free columns are the unit columns that the box keeps, one per
    coordinate it spans, off which every shift is zero, so red = d without
    a call when it spans all n.  Only a check with m >= best_m can raise
    best_m, so only it runs its tests first; any other check runs them
    only once its child has passed the guarded count and is about to be
    entered.  A failed test only keeps the child out, so the deferral
    changes no check, witness or bound, and it spares the tests of the
    checks the count ends, about nine in ten (as bit-parallel clique search
    pays for per-vertex work only on the branches it takes).  When the box
    spans at most two values per coordinate (box.two_valued), as every box of [2]^n does, every notion
    holds and no test runs: on the support of g_j both v and v + g_j lie
    in {a, a + 1}, so a valid d is zero there, and distinct nonzero
    {-1, 0, 1} vectors with disjoint supports are injective, independent
    and extend to a basis, and the search builds no generator tuple at all.

    k more generators need 2^k - 1 valid shifts (their nonzero subset sums),
    2^k <= |S| / |V|, and k <= n - m for the independent notions, so a node
    stops once too few shifts are left for m + k to beat the best or reach
    the target.  That count is need[m], over the depths m <= log2 |S| + 1,
    read from one table per (|S|, goal, n, independent notion or not) that
    _need builds once and keeps; a search rebinds need only when best_m
    grows (never in target mode).  A child that would stop before its
    first check is not entered; the guard only removes bits, so its count
    is first bounded without it.  A stop, the target found or the budget
    spent, returns True up the recursion rather than raising: unwinding an
    exception costs as much as several checks, and most searches of the f
    loop and the sampler make only a few.
    """
    decoded, decode = box.decoded, box.decode
    first = (s_mask & -s_mask).bit_length() - 1  # -1 for the empty set
    if target == 0 or first < 0:
        return _SearchOutcome(0, (first, ()) if first >= 0 else None, True, 0)
    n, h = box.dim, box.h
    guard_hi, guard_lo, guard = box.guard_hi, box.guard_lo, box.guard

    size = s_mask.bit_count()
    independent = notion is not CubeNotion.VERTEX_INJECTIVE
    unimodular = notion is CubeNotion.UNIMODULAR
    test_injective = not independent and not box.two_valued
    test_linalg = independent and not box.two_valued
    units = box.units if test_linalg else None
    spans_all = len(box.units) == n  # then red = d at a base

    best_m = 0
    best = (first, ())  # base and generator cells of the best cube
    checks = 0
    need = _need(size, 0 if target is None else target - 1, n, independent)

    def admit(k, o, z, m, vmask, cols):
        """The notion's tests of shift k, cell k - z: None when it fails
        them, else the reduced shift, that eliminate takes for the child's
        free columns (() for the vertex-injective notion)."""
        if test_injective:
            return None if vmask & (vmask << o) else ()
        red = _sub((decoded.get(k) or decode(k))[0], z)
        if m or not spans_all:
            red = reduce_against(red, cols)
            if red is None:
                return None
        if unimodular and math.gcd(*red) != 1:
            return None
        return red

    if box.two_valued:
        admit = None  # every notion holds: no test runs

    # descend's closure holds 19 names.  At exactly 20, CPython 3.11 and
    # 3.12 keep up to 2,000 freed closure tuples that they never reuse,
    # about 400 KB of peak memory.
    def descend(z, iz, hz, lz, rest, left, ks, vmask, cols) -> bool:
        """Search the subtree of a node; True when the search stops there."""
        nonlocal best_m, best, checks, need
        m = len(ks)
        stop, stop_child = need[m], need[m + 1]
        while left >= stop:
            checks += 1
            if checks > budget:
                return True
            low = rest & -rest
            rest ^= low
            left -= 1
            k = low.bit_length() - 1
            o = k - iz
            tested = m >= best_m  # only such a check can raise best_m: test it now
            if tested:
                if admit and (red := admit(k, o, z, m, vmask, cols)) is None:
                    continue
                best_m = m + 1
                best = (iz, ks + (k,))
                if best_m == target:
                    return True
                if target is None:
                    need = _need(size, best_m, n, independent)
                    stop, stop_child = need[m], need[m + 1]
            if left < stop_child:
                continue  # the child's shifts are among the ones left
            child = rest & (rest >> o)
            if child.bit_count() < stop_child:
                continue  # the guard only removes bits
            _, hc, lc = decoded.get(k) or decode(k)
            gh = guard_hi.get(hc - hz)
            if gh is None:
                gh = guard(guard_hi, hc - hz, range(1, h), k, z)
            gl = guard_lo.get(lc - lz)
            if gl is None:
                gl = guard(guard_lo, lc - lz, range(h, n), k, z)
            child &= gh & gl
            count = child.bit_count()
            if count < stop_child:
                continue
            if admit and not tested and (red := admit(k, o, z, m, vmask, cols)) is None:
                continue
            if descend(
                z, iz, hz, lz, child, count, ks + (k,),
                vmask | (vmask << o) if test_injective else vmask,
                eliminate(red, cols) if test_linalg else cols,
            ):
                return True
            stop, stop_child = need[m], need[m + 1]
        return False

    conclusive = True
    try:
        rest, left = s_mask, size
        while rest:
            low = rest & -rest
            rest ^= low  # the cells of S above the base
            left -= 1
            if left < need[0]:
                break  # left falls by one per base, and need[0] never falls
            iz = low.bit_length() - 1
            z, hz, lz = decoded.get(iz) or decode(iz)
            if descend(z, iz, hz, lz, rest, left, (), low, units):
                conclusive = best_m == target  # else the budget ran out
                break
    finally:
        del descend  # the recursive closure holds itself, and through it the box
    if target is not None and best_m != target:
        return _SearchOutcome(best_m, None, conclusive, checks)
    return _SearchOutcome(best_m, best, conclusive, checks)


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")


def _search(
    box: GridBox, s_mask: int, notion: CubeNotion, target: Optional[int], budget: int
) -> _SearchOutcome:
    """The one way into _run_box_search, for every search of the package,
    when its answer is certain: the cells of the target-dimension cube or
    None (target mode), or of the maximal cube (target=None) of a nonempty
    S.  A target that no set of |S| cells can hold stops the core at its
    first base, with no check (see _need).  Raises SearchBudgetExceeded,
    whose bounds hold best_m, the best dimension so far, when the budget ran
    out before the answer was certain; the caller checks the budget and the
    target."""
    out = _run_box_search(box, s_mask, notion, target, budget)
    if out.conclusive:
        return out
    raise SearchBudgetExceeded(
        f"budget {budget} exhausted before the answer was certified", best_m=out.best_m)


def find_cube(
    s: PointSet,
    m: int,
    notion: CubeNotion = DEFAULT_NOTION,
    budget: int = DEFAULT_BUDGET,
) -> Optional[AffineCube]:
    """Canonical-form witness of dimension exactly m inside S, or None.

    The search is exhaustive and runs in this process: None means no such
    cube exists.  Running out of budget raises SearchBudgetExceeded instead
    (never reported as None), so the answer depends only on S, the notion
    and the budget.
    """
    _check_budget(budget)
    if m < 0:
        raise ValueError(f"cube dimension must be >= 0, got {m}")
    if _need(len(s), m - 1, s.grid.dim, notion is not CubeNotion.VERTEX_INJECTIVE)[0] > len(s):
        return None  # the core would stop at its first base: spare the box
    box, s_mask = _box_of(s)
    cells = _search(box, s_mask, notion, m, budget).cells
    return box.cube(cells) if cells else None


def m_value(
    s: PointSet,
    notion: CubeNotion = DEFAULT_NOTION,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, AffineCube]:
    """The largest cube dimension inside S with a canonical witness."""
    _check_budget(budget)
    if len(s) == 0:
        raise ValueError("M(S) is undefined for the empty set")
    box, s_mask = _box_of(s)
    out = _search(box, s_mask, notion, None, budget)
    return out.best_m, box.cube(out.cells)


def anchored_cubes(s: PointSet, m: int) -> Iterator[tuple]:
    """The generators of every vertex-injective m-cube inside S, by naive
    anchored enumeration.

    For each base z in S, every increasing m-tuple of differences p - z
    (p in S) with positive leading entry is tried; its vertices are built by
    doubling, in subset-bitmask order, and the tuple is dropped at the first
    vertex outside S.  No search-tree pruning, no shift ordering, no integer
    codes.  Each cube has an anchor vertex from which all its generators
    have positive leading entry (flipping a generator negates it and moves
    the base, preserving the vertex set, the rank, and unimodularity), so
    anchored enumeration misses nothing.
    """
    tset = s.tuple_set
    pts = s.points()
    for z in pts:
        diffs = sorted(d for p in pts if p != z and _leading_positive(d := _sub(p, z)))
        for gens in combinations(diffs, m):
            verts = [z]
            for d in gens:
                new = [_add(v, d) for v in verts]
                if not all(w in tset for w in new):
                    break
                verts += new
            else:
                if len(set(verts)) == len(verts):
                    yield gens


def m_value_oracle_all(s: PointSet) -> dict[CubeNotion, int]:
    """Ground-truth M(S) for every notion: for each dimension m, the
    generator tuples of anchored_cubes, tested for rank and unimodularity
    directly.  It is the slow path the cube search is checked against."""
    if s.grid.size > ORACLE_GRID_CAP:
        raise ValueError(f"oracle instance too large: {s.grid.size} > {ORACLE_GRID_CAP}")
    if len(s) == 0:
        raise ValueError("M(S) is undefined for the empty set")
    results = {notion: 0 for notion in CubeNotion}
    alive = set(CubeNotion)
    m = 1
    while alive and 2 ** m <= len(s):
        found: set[CubeNotion] = set()
        for gens in anchored_cubes(s, m):
            found.add(CubeNotion.VERTEX_INJECTIVE)
            if CubeNotion.INDEPENDENT_GENERATORS in alive or CubeNotion.UNIMODULAR in alive:
                if rational_rank(gens) == m:
                    found.add(CubeNotion.INDEPENDENT_GENERATORS)
                    if CubeNotion.UNIMODULAR in alive and is_primitive_system(gens):
                        found.add(CubeNotion.UNIMODULAR)
            if alive <= found:
                break
        for notion in found & alive:
            results[notion] = m
        alive &= found  # a notion absent at m stays absent above (monotone)
        m += 1
    return results


def _least_m_over_removals(box: GridBox, k_min: int, notion: CubeNotion, budget: int) -> int:
    """f over the subsets of at least k_min cells of box, by a search over
    the cells removed from it.

    mu starts at M of the first k_min cells.  A set S of at least k_min
    cells with no mu-cube is the complement of a set T of at most
    |box| - k_min cells that meets every mu-cube.  Such a T holds a vertex
    of the first mu-cube found, so the search removes each of its vertex
    cells in turn, barring the cells of the earlier branches (the bounded
    search tree for hitting sets: at most (2^mu)^t leaves for t removals
    left, and no removal set twice).  A branch's set is a subset of its
    parent's, which has no mu-cube based below the base cell of the cube
    the parent found, so the branch searches only the cells from that base
    up and finds the cube a search of its whole set would find.  A set found
    with no mu-cube lowers mu to its M, as validly as one of exactly k_min
    cells, since M is monotone under inclusion, and the search starts again
    from the whole box; when none is found, f is mu.
    """
    mu = _search(box, (1 << k_min) - 1, notion, None, budget).best_m
    while mu:
        s_mask = _without_cube(box, notion, budget, mu, (1 << box.cells) - 1, box.cells - k_min, 0, 0)
        if s_mask is None:
            break
        mu = _search(box, s_mask, notion, None, budget).best_m
    return mu


def _without_cube(box: GridBox, notion: CubeNotion, budget: int, mu: int,
                  s_mask: int, t: int, barred: int, base: int) -> Optional[int]:
    """A set with no mu-cube left from s_mask by at most t removals of
    cells outside barred, or None; s_mask has no mu-cube based below cell
    base."""
    cells = _search(box, s_mask & (-1 << base), notion, mu, budget).cells
    if cells is None:
        return s_mask
    if t:
        for k in box.vertex_cells(cells):
            bit = 1 << k
            if not barred & bit:
                found = _without_cube(box, notion, budget, mu, s_mask ^ bit, t - 1, barred, cells[0])
                if found is not None:
                    return found
                barred |= bit
    return None


def f_exhaustive(
    N: int,
    n: int,
    c,
    notion: CubeNotion = DEFAULT_NOTION,
    samples: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact f_N(n, c): the minimum of M(S) over subsets of density >= c.

    A subset qualifies iff |S| >= k_min = ceil(c * N^n).  Exhaustive mode
    (grid size capped at 16 cells) searches the sets of at most
    N^n - k_min cells that meet every cube of the least dimension found so
    far (see _least_m_over_removals), not the k_min-subsets one by one.
    Pass `samples` for a seeded sampled variant (an upper estimate, not
    exact): each sample is rng.sample(range(N^n), k_min) of grid indices,
    in the order of GridParams.point_of, and f is the least M among them.

    Every set searched is a cell mask of the GridBox of [N]^n that the
    process keeps (see _grid_box, which keeps eight geometries).  So the
    searches of this call and of the earlier calls on the same grid share
    what the box keeps: its decoded points, guard masks and unit columns,
    and the index map of the sampled variant.  No PointSet is built, and
    since the searches answer in cells, no AffineCube either.  Each search
    has the whole budget.
    """
    _check_budget(budget)
    c = Fraction(c)
    if not 0 < c <= 1:
        raise ValueError(f"density threshold must lie in (0, 1], got {c}")
    grid = GridParams(N, n)
    grid.require_materializable("search")
    cells = grid.size
    k_min = max(1, math.ceil(c * cells))
    if samples is None and cells > 16:
        raise ValueError(f"exhaustive mode handles at most 16 cells, got {cells}; pass samples=")
    if samples is not None and samples < 1:
        raise ValueError("sample count must be positive")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    box = GridBox.of_grid(grid)
    if samples is None:
        return _least_m_over_removals(box, k_min, notion, budget)
    cell_of = box.index_map()
    rng = random.Random(seed)
    mu: Optional[int] = None
    for _ in range(samples):
        s_mask = box.mask(map(cell_of, rng.sample(range(cells), k_min)))
        if mu is not None and _search(box, s_mask, notion, mu, budget).cells is not None:
            continue  # M(sub) >= mu, cannot lower the minimum
        mu = _search(box, s_mask, notion, None, budget).best_m
        if mu == 0:
            return 0
    return mu
