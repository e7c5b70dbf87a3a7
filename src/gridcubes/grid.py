"""Finite grids [N]^n and exact-density point sets.

The ambient space is [N]^n = {0,1,...,N-1}^n.  Points are plain integer
tuples.  A PointSet keeps its members as a frozenset of tuples, and every
density it reports is an exact Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence, TypeVar


Point = tuple[int, ...]
T = TypeVar("T")

# Largest grid an operation may materialize cell-by-cell (full grids,
# exhaustive subset scans, samplers).  The types themselves carry no cap.
MATERIALIZE_LIMIT = 1 << 24


@dataclass(frozen=True)
class GridParams:
    """The grid [N]^n: `base` is N >= 2, `dim` is n >= 0."""

    base: int
    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.base, int) or self.base < 2:
            raise ValueError(f"grid base must be an integer >= 2, got {self.base!r}")
        if not isinstance(self.dim, int) or self.dim < 0:
            raise ValueError(f"grid dimension must be an integer >= 0, got {self.dim!r}")

    @property
    def size(self) -> int:
        return self.base ** self.dim

    def contains(self, point: Sequence[int]) -> bool:
        return len(point) == self.dim and (not point or 0 <= min(point) and max(point) < self.base)

    def check_point(self, point: Sequence[int]) -> Point:
        p = tuple(map(int, point))
        if not self.contains(p):
            raise ValueError(f"point {p} outside grid [{self.base}]^{self.dim}")
        return p

    def point_of(self, index: int) -> Point:
        """The point of an index in [0, N^n), its base-N digits with the
        first coordinate least significant: the order in which the sampler
        and sampled f draw cells."""
        coords, rest = [], index
        for _ in range(self.dim):
            rest, rem = divmod(rest, self.base)
            coords.append(rem)
        if rest:  # past N^n, or negative: the quotient never reaches 0
            N, n = self.base, self.dim
            raise ValueError(f"index {index} outside [0, {N}^{n}) of grid [{N}]^{n}")
        return tuple(coords)

    def require_materializable(self, action: str) -> None:
        """Raise ValueError unless N^n <= MATERIALIZE_LIMIT.  N >= 2, so
        n > 24 already exceeds 2^24 and N^n is only built when n is small;
        the message names N^n, never its digits."""
        if self.dim >= MATERIALIZE_LIMIT.bit_length() or self.size > MATERIALIZE_LIMIT:
            raise ValueError(
                f"grid [{self.base}]^{self.dim} has {self.base}^{self.dim} cells, "
                f"more than {MATERIALIZE_LIMIT}: too large to {action}"
            )

    def points(self) -> Iterator[Point]:
        """All grid points in lexicographic order. Requires a desk-scale grid."""
        self.require_materializable("materialize")
        return product(range(self.base), repeat=self.dim)


class PointSet:
    """An immutable finite subset of a grid with exact cardinality/density."""

    __slots__ = ("grid", "_points")

    def __init__(self, grid: GridParams, points: Iterable[Sequence[int]]):
        pts = frozenset(grid.check_point(p) for p in points)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_points", pts)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PointSet is immutable")

    @classmethod
    def _of_checked(cls, grid: GridParams, points: Iterable[Point]) -> "PointSet":
        """A PointSet of tuples already inside grid, which are not checked again."""
        s = cls.__new__(cls)
        object.__setattr__(s, "grid", grid)
        object.__setattr__(s, "_points", frozenset(points))
        return s

    @classmethod
    def from_indices(cls, grid: GridParams, indices: Iterable[int]) -> "PointSet":
        """The points of these indices, in the order of point_of (first
        coordinate least significant); an index outside [0, N^n) raises
        ValueError."""
        return cls(grid, map(grid.point_of, indices))

    @classmethod
    def full(cls, grid: GridParams) -> "PointSet":
        return cls(grid, grid.points())

    @classmethod
    def empty(cls, grid: GridParams) -> "PointSet":
        return cls(grid, ())

    @property
    def tuple_set(self) -> frozenset[Point]:
        return self._points

    def points(self) -> list[Point]:
        """Members as tuples, lexicographically sorted (deterministic)."""
        return sorted(self._points)

    def __contains__(self, point: Sequence[int]) -> bool:
        return tuple(point) in self._points

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and self.grid == other.grid
            and self._points == other._points
        )

    def __hash__(self) -> int:
        return hash((self.grid, self._points))

    def __repr__(self) -> str:
        return f"PointSet([{self.grid.base}]^{self.grid.dim}, {len(self)} points)"

    def density(self) -> Fraction:
        return Fraction(len(self._points), self.grid.size)

    def intersection(self, other: "PointSet") -> "PointSet":
        if self.grid != other.grid:
            raise ValueError("intersection requires a common grid")
        return PointSet._of_checked(self.grid, self._points & other._points)


def split_by_prefix(s: PointSet, r: int) -> dict[Point, PointSet]:
    """Fibers T_a = {p : a x p in S} for every prefix a of length r.

    Only nonempty fibers appear in the returned map; absent prefixes have
    empty fibers.  The prefix is the first r coordinates.
    """
    n = s.grid.dim
    if not 1 <= r < n:
        raise ValueError(f"prefix length must satisfy 1 <= r < {n}, got {r}")
    inner = GridParams(s.grid.base, n - r)
    buckets: dict[Point, set[Point]] = {}
    for p in s.tuple_set:
        buckets.setdefault(p[:r], set()).add(p[r:])
    return {a: PointSet._of_checked(inner, suffixes) for a, suffixes in buckets.items()}


def count_heavy_prefixes(s: PointSet, r: int, c) -> int:
    """Number of prefixes a in [N]^r whose fiber has density >= c/2."""
    c = Fraction(c)
    if not 0 < c <= 1:
        raise ValueError(f"density threshold must lie in (0, 1], got {c}")
    half = c / 2
    fibers = split_by_prefix(s, r)
    return sum(1 for t in fibers.values() if t.density() >= half)


def max_pair_intersection(family: Sequence[PointSet]) -> tuple[int, int, Fraction]:
    """Pair (i, j), i < j, maximizing the density of X_i intersect X_j.

    Indices are 0-based positions in `family`; ties resolve to the first
    pair in scan order.
    """
    if len(family) < 2:
        raise ValueError("need at least two sets")
    grid = family[0].grid
    for x in family[1:]:
        if x.grid != grid:
            raise ValueError("all sets must share one grid")
    best = None
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            d = Fraction(len(family[i].tuple_set & family[j].tuple_set), grid.size)
            if best is None or d > best[2]:
                best = (i, j, d)
    return best


def read_rows(text: str, kind: str, header: str, row: str, make: Callable[[int, int], T]
              ) -> tuple[T, list[Point]]:
    """Read the row format: a header of two integers a n, then one row of n
    integers per line; blank lines are skipped and a repeated row is refused.

    Returns make(a, n), called before any row is read, and the rows in file
    order.  kind, header and row name the file, its header and a row in the
    error messages.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"empty {kind} file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be '{header}', got {lines[0]!r}")
    try:
        a, n = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"header must be two integers, got {lines[0]!r}") from exc
    made = make(a, n)
    rows: dict[Point, None] = {}  # in file order
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n:
            raise ValueError(f"expected {n} coordinates, got {ln!r}")
        try:
            p = tuple(map(int, parts))
        except ValueError as exc:
            raise ValueError(f"non-integer coordinate in {ln!r}") from exc
        if p in rows:
            raise ValueError(f"duplicate {row} line {ln!r}")
        rows[p] = None
    return made, list(rows)


def format_rows(a: int, n: int, rows: Iterable[Sequence[int]]) -> str:
    """Write the row format read by read_rows: header "a n", then the rows.
    A row of 0 coordinates is refused, as the blank line read_rows skips."""
    lines = [f"{a} {n}"] + [" ".join(str(x) for x in p) for p in rows]
    if "" in lines:  # the header is never blank
        raise ValueError("the row format cannot hold a row of 0 coordinates")
    return "\n".join(lines) + "\n"


def parse_point_set(text: str) -> PointSet:
    """Parse the point-set text format: header "N n", one point per line.

    Duplicate point lines are rejected; the format round-trips through
    format_point_set losslessly.
    """
    grid, rows = read_rows(text, "point-set", "N n", "point", GridParams)
    return PointSet(grid, rows)


def format_point_set(s: PointSet) -> str:
    """Serialize in the text format, points in lexicographic order."""
    return format_rows(s.grid.base, s.grid.dim, s.points())
