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
V + d inside S, as a sorted list (the candidate-set idea of Bron-Kerbosch):
after adding d, the shift e stays valid iff d + e was valid too.  Adding k
more generators needs 2^k - 1 valid shifts, their nonzero subset sums, so a
node with a short list is cut.  Inside the search, points and shifts are
integers with coordinates in base 2N-1, first coordinate most significant:
integer order is lex order, a shift is canonical iff it is positive, and a
grid point plus a shift never aliases another grid point.  The API and
PointSet stay tuple-only.
"""

from __future__ import annotations

import enum
import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .exactmath import as_fraction
from .grid import GridParams, Point, PointSet
from .intlinalg import (
    is_primitive_system,
    pivot_index,
    rational_rank,
    reduce_against,
)

DEFAULT_BUDGET = 10 ** 8

ORACLE_GRID_CAP = 512  # the naive oracle refuses anything bigger
VERTEX_CAP = 30  # 2^m vertices must stay enumerable


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
    """The check budget ran out before the search could certify its answer."""

    def __init__(self, message: str, best_m: int = 0, witness: Optional["AffineCube"] = None):
        super().__init__(message)
        self.best_m = best_m
        self.witness = witness


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
    return tuple(a - b for a, b in zip(p, q))


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

    def sort_key(self):
        return (self.base, self.generators)

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


def cube_vertices(cube: AffineCube) -> list[Point]:
    """Distinct subset sums, sorted; has length 2^m iff vertex-injective."""
    return sorted(set(cube.vertices()))


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


class _SearchOutcome(NamedTuple):
    best_m: int
    witness: Optional[AffineCube]  # target mode: the target-dimension cube, if found
    conclusive: bool
    checks: int


class _Stop(Exception):
    pass


def _run_search(
    s: PointSet,
    notion: CubeNotion,
    target: Optional[int],
    budget: int,
    bases: Sequence[Point],
) -> _SearchOutcome:
    """Depth-first doubling search over the given top-level bases.

    target=None: exhaust the tree and report the maximal dimension with its
    first (lexicographically minimal) witness.  target=m: stop at the first
    cube of dimension exactly m.  `conclusive` is False only when the budget
    ran out before the answer was certain.

    A node is a cube with base z, generators g_1 < ... < g_m and vertex set
    V, and it carries the sorted list L of canonical shifts d > g_m with
    V + d inside S.  Adding L[i] = d gives the child list [e in L[i+1:] with
    d + e in L], since V u (V + d) + e lies in S iff e and d + e are valid.
    A check is one valid shift tried: it tests injectivity (vertex-injective
    notion only; independence implies it), then independence and the Smith
    form.  k more generators need 2^k - 1 valid shifts (their nonzero subset
    sums), and also 2^k <= |S| / |V|, so a node stops as soon as
    m + min of the two logs cannot beat the best or reach the target.

    Points and shifts are integers here, coordinates in base 2N-1 with the
    first most significant: lex order is integer order, canonical means
    positive, and a grid point plus a shift (digits in [-(N-1), N-1]) can
    never alias another grid point.  Tuples come back only for the linear
    algebra and the witness.
    """
    pts = s.points()
    radix = 2 * s.grid.base - 1
    codes = []
    for p in pts:
        c = 0
        for x in p:
            c = c * radix + x
        codes.append(c)
    point_of = dict(zip(codes, pts))
    position = {p: j for j, p in enumerate(pts)}
    size = len(pts)
    injective_only = notion is CubeNotion.VERTEX_INJECTIVE
    unimodular = notion is CubeNotion.UNIMODULAR
    n = s.grid.dim

    best_m = 0
    best_cube = AffineCube(pts[0]) if pts else None
    found: Optional[AffineCube] = None
    checks = 0

    if target == 0:
        return _SearchOutcome(0, best_cube, True, 0)

    def descend(z, cz, shifts, gens, verts, reduced):
        nonlocal best_m, best_cube, found, checks
        m = len(gens)
        # Doubling can multiply |V| = 2^m by at most size // 2^m in total.
        cap = (size >> m).bit_length() - 1
        if not injective_only:
            cap = min(cap, n - m)
        count = len(shifts)
        valid = set(shifts)
        for i, d in enumerate(shifts):
            # every nonzero subset sum of the new generators lies in shifts[i:]
            room = min(cap, (count - i + 1).bit_length() - 1)
            if m + room <= (best_m if target is None else target - 1):
                break
            checks += 1
            if checks > budget:
                raise _Stop
            if injective_only and any(v + d in verts for v in verts):
                continue
            g = _sub(point_of[cz + d], z)
            red = None
            if not injective_only:
                red = reduce_against(g, reduced)
                if red is None:
                    continue
                if unimodular and not is_primitive_system(gens + (g,)):
                    continue
            if m + 1 > best_m:
                best_m = m + 1
                best_cube = AffineCube(z, gens + (g,))
                if target is not None and best_m == target:
                    found = best_cube
                    raise _Stop
            descend(
                z, cz,
                [e for e in shifts[i + 1:] if d + e in valid],
                gens + (g,),
                verts | {v + d for v in verts} if injective_only else verts,
                reduced if injective_only else reduced + [(red, pivot_index(red))],
            )

    conclusive = True
    try:
        for z in bases:
            j = position[z]
            cz = codes[j]
            descend(z, cz, [c - cz for c in codes[j + 1:]], (), {cz}, [])
    except _Stop:
        conclusive = found is not None
    witness = found if target is not None else best_cube
    return _SearchOutcome(best_m, witness, conclusive, checks)


def map_chunks(fn: Callable[[Sequence], object], items: Sequence, threads: int) -> list:
    """fn applied to round-robin chunks of items, one result per chunk.

    There are at most min(threads, CPU count, len(items)) chunks.  A single
    chunk (the whole list) runs inline; more run in a process pool with one
    worker per chunk, so fn and its arguments must pickle.
    """
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    k = min(threads, os.cpu_count() or 1, len(items))
    if k <= 1:
        return [fn(items)]
    chunks = [items[i::k] for i in range(k)]
    with ProcessPoolExecutor(max_workers=k) as pool:
        return list(pool.map(fn, chunks))


def _best_of(outcomes: Iterable[_SearchOutcome]) -> Optional[AffineCube]:
    best_cube = None
    for out in outcomes:
        if out.witness is None:
            continue
        if best_cube is None or out.witness.m > best_cube.m or (
            out.witness.m == best_cube.m and out.witness.sort_key() < best_cube.sort_key()
        ):
            best_cube = out.witness
    return best_cube


def _check_limits(budget: int, threads: int) -> None:
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")


def _search(
    s: PointSet, notion: CubeNotion, target: Optional[int], budget: int, threads: int
) -> Optional[AffineCube]:
    """Run _run_search over every base of a nonempty S and merge the chunks.

    The bases are split as in map_chunks and each chunk gets the full
    budget; the merged witness equals the sequential one whenever the search
    completes.  Returns the target-dimension cube or None (target mode), or
    the maximal cube (target=None).
    """
    outcomes = map_chunks(partial(_run_search, s, notion, target, budget), s.points(), threads)
    cube = _best_of(outcomes)
    if all(out.conclusive for out in outcomes) or (target is not None and cube is not None):
        return cube
    raise SearchBudgetExceeded(
        f"budget {budget} exhausted before the answer was certified",
        best_m=max(out.best_m for out in outcomes),
        witness=cube,
    )


def find_cube(
    s: PointSet,
    m: int,
    notion: CubeNotion = DEFAULT_NOTION,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> Optional[AffineCube]:
    """Canonical-form witness of dimension exactly m inside S, or None.

    The search is exhaustive: None means no such cube exists.  Running out
    of budget raises SearchBudgetExceeded instead (never reported as None).
    With threads > 1 the top-level bases are split across processes and each
    worker gets the full budget; the merged answer equals the sequential one
    whenever the search completes.
    """
    _check_limits(budget, threads)
    if m < 0:
        raise ValueError(f"cube dimension must be >= 0, got {m}")
    if len(s) == 0:
        return None
    if m > VERTEX_CAP or len(s) < 2 ** m:
        return None
    if notion is not CubeNotion.VERTEX_INJECTIVE and m > s.grid.dim:
        return None
    return _search(s, notion, m, budget, threads)


def m_value(
    s: PointSet,
    notion: CubeNotion = DEFAULT_NOTION,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> tuple[int, AffineCube]:
    """The largest cube dimension inside S with a canonical witness."""
    _check_limits(budget, threads)
    if len(s) == 0:
        raise ValueError("M(S) is undefined for the empty set")
    cube = _search(s, notion, None, budget, threads)
    return cube.m, cube


def anchored_cubes(s: PointSet, m: int) -> Iterator[tuple[Point, tuple, list[Point]]]:
    """Every vertex-injective m-cube inside S by naive anchored enumeration.

    Yields (base, generators, vertices).  For each base z in S, every
    increasing m-tuple of differences p - z (p in S) with positive leading
    entry is tried; its vertices are built by doubling, in subset-bitmask
    order, and the tuple is dropped at the first vertex outside S.  No
    search-tree pruning, no shift ordering, no integer codes.  Each cube has
    an anchor vertex from which all its generators have positive leading
    entry (flipping a generator negates it and moves the base, preserving
    the vertex set, the rank, and the Smith form), so anchored enumeration
    misses nothing.
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
                    yield z, gens, verts


def m_value_oracle_all(s: PointSet) -> dict[CubeNotion, int]:
    """Ground-truth M(S) for every notion, by looping over anchored_cubes
    for each dimension m and testing rank and Smith form directly."""
    if s.grid.size > ORACLE_GRID_CAP:
        raise ValueError(f"oracle instance too large: {s.grid.size} > {ORACLE_GRID_CAP}")
    if len(s) == 0:
        raise ValueError("M(S) is undefined for the empty set")
    results = {notion: 0 for notion in CubeNotion}
    alive = set(CubeNotion)
    m = 1
    while alive and 2 ** m <= len(s):
        found: set[CubeNotion] = set()
        for _, gens, _ in anchored_cubes(s, m):
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


def m_value_oracle(s: PointSet, notion: CubeNotion = DEFAULT_NOTION) -> int:
    """Independent brute-force value of M(S); see m_value_oracle_all."""
    return m_value_oracle_all(s)[notion]


def f_exhaustive(
    N: int,
    n: int,
    c,
    notion: CubeNotion = DEFAULT_NOTION,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Exact f_N(n, c): the minimum of M(S) over subsets of density >= c.

    Exhaustive mode enumerates every subset of the least qualifying size
    (grid size capped at 16 cells); M is monotone under inclusion, so larger
    subsets cannot lower the minimum.  Pass `samples` for a seeded sampled
    variant (an upper estimate, not exact).  A subset qualifies iff
    |S| >= ceil(c * N^n).
    """
    c = as_fraction(c)
    if not 0 < c <= 1:
        raise ValueError(f"density threshold must lie in (0, 1], got {c}")
    grid = GridParams(N, n)
    cells = grid.size
    k_min = max(1, math.ceil(c * cells))
    if samples is None:
        if cells > 16:
            raise ValueError(
                f"exhaustive mode handles at most 16 cells, got {cells}; pass samples="
            )
        subsets = combinations(grid.points(), k_min)
    else:
        if samples < 1:
            raise ValueError("sample count must be positive")
        if cells > (1 << 24):
            raise ValueError("grid too large to sample point sets from")
        rng = random.Random(seed)
        subsets = (
            map(grid.point_of, rng.sample(range(cells), k_min)) for _ in range(samples)
        )
    mu: Optional[int] = None
    for points in subsets:
        sub = PointSet(grid, points)
        if mu is not None and find_cube(sub, mu, notion, budget=budget) is not None:
            continue  # M(sub) >= mu, cannot lower the minimum
        mu = m_value(sub, notion, budget=budget)[0]
        if mu == 0:
            return 0
    return mu
