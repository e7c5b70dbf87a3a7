"""Evaluation codes from lattice polytopes over prime fields.

A polytope P inside [0, q-2]^n defines a code of block length (q-1)^n: each
lattice point u of P contributes the row (t^u for t in the torus), where the
torus is all points with nonzero coordinates and t^u is the monomial product
t_1^{u_1} ... t_n^{u_n} mod q.  Geometry is exact: hull membership is decided
by rational phase-1 simplex pivoting, never floats.
"""

from __future__ import annotations

import os
import struct
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Optional, Sequence

from .cubes import CubeNotion, DEFAULT_BUDGET, DEFAULT_NOTION, m_value
from .grid import GridParams, Point, PointSet

BOX_CAP = 10 ** 7  # enumerable bounding-box volume
BLOCK_CAP = 10 ** 6  # largest torus we evaluate on
MESSAGE_CAP = 10 ** 7  # exhaustive minimum-distance enumeration
_LANE_FORMAT = {1: "B", 2: "H", 4: "I"}  # struct code per lane width


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """A prime modulus q; the code layer does its arithmetic with % q."""

    q: int

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")


def _in_hull(x: Sequence[int], vertices: Sequence[Point]) -> bool:
    """Exact feasibility of x = sum(lam_i v_i), sum(lam_i) = 1, lam >= 0.

    Phase-1 simplex over Fractions with Bland's rule (no cycling); the point
    is in the hull iff the artificial objective reaches zero.
    """
    k = len(vertices)
    m = len(x) + 1
    rows: list[list[Fraction]] = []
    for i in range(len(x)):
        rows.append([Fraction(v[i]) for v in vertices] + [Fraction(0)] * m + [Fraction(x[i])])
    rows.append([Fraction(1)] * k + [Fraction(0)] * m + [Fraction(1)])
    for i in range(m):
        if rows[i][-1] < 0:
            rows[i] = [-v for v in rows[i]]
        rows[i][k + i] = Fraction(1)
    basis = list(range(k, k + m))
    cost = [Fraction(0)] * k + [Fraction(1)] * m
    # Reduced costs for the artificial basis: z_j = sum_i rows[i][j] - cost_j.
    z = [sum(rows[i][j] for i in range(m)) - cost[j] for j in range(k + m)]
    obj = sum(rows[i][-1] for i in range(m))
    while True:
        enter = next((j for j in range(k + m) if z[j] > 0), None)  # Bland
        if enter is None:
            break
        leave = None
        best: Optional[Fraction] = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            break  # cannot happen: phase-1 objective is bounded below
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[leave])]
        f = z[enter]
        z = [a - f * b for a, b in zip(z, rows[leave][:-1])]
        obj -= f * rows[leave][-1]
        basis[leave] = enter
    return obj == 0


class LatticePolytope:
    """Integral polytope given by a nonempty vertex list; lattice points are
    the integer points of the convex hull of those vertices."""

    __slots__ = ("dim", "vertices", "_points")

    def __init__(self, vertices: Sequence[Sequence[int]]):
        verts = tuple(tuple(int(x) for x in v) for v in vertices)
        if not verts:
            raise ValueError("polytope needs at least one vertex")
        dim = len(verts[0])
        if any(len(v) != dim for v in verts):
            raise ValueError("vertices have mixed dimensions")
        self.dim = dim
        self.vertices = verts
        self._points: Optional[tuple[Point, ...]] = None

    def __repr__(self) -> str:
        return f"LatticePolytope(dim={self.dim}, vertices={len(self.vertices)})"

    def bounding_box(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (min(v[i] for v in self.vertices), max(v[i] for v in self.vertices))
            for i in range(self.dim)
        )

    def lattice_points(self) -> tuple[Point, ...]:
        if self._points is None:
            box = self.bounding_box()
            volume = 1
            for lo, hi in box:
                volume *= hi - lo + 1
            if volume > BOX_CAP:
                raise ValueError(f"bounding box volume {volume} exceeds cap {BOX_CAP}")
            vset = set(self.vertices)
            pts = []
            for p in product(*(range(lo, hi + 1) for lo, hi in box)):
                if p in vset or _in_hull(p, self.vertices):
                    pts.append(p)
            self._points = tuple(sorted(pts))
        return self._points


def _gf_rank(matrix: Sequence[Sequence[int]], q: int) -> int:
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % q), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        rows[rank] = [(x * inv) % q for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % q:
                f = rows[i][col]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


@dataclass(frozen=True)
class ToricCode:
    field: PrimeField
    polytope: LatticePolytope
    monomials: tuple[Point, ...]  # exponent vectors, one per matrix row
    matrix: tuple[tuple[int, ...], ...]
    block_length: int

    @property
    def dimension(self) -> int:
        return len(self.monomials)


def build_code(p: LatticePolytope, q: int) -> ToricCode:
    """Generator matrix of the evaluation code of P over F_q.

    Rows follow the lex-sorted lattice points of P; columns follow the
    lex-sorted torus points of [1, q-1]^n, so the matrix is reproducible.
    The lattice box and the block-length cap are checked before q is
    tested for primality, so for n >= 1 trial division never runs past
    q = BLOCK_CAP + 1.
    """
    n = p.dim
    pts = p.lattice_points()
    for u in pts:
        if any(not 0 <= x <= q - 2 for x in u):
            raise ValueError(f"lattice point {u} outside the box [0, {q - 2}]^{n}")
    if (n and q - 1 > BLOCK_CAP) or (q - 1) ** n > BLOCK_CAP:
        raise ValueError(f"block length {q - 1}^{n} exceeds cap {BLOCK_CAP}")
    field = PrimeField(q)
    block = (q - 1) ** n
    torus = list(product(range(1, q), repeat=n))
    matrix = tuple(
        tuple(_eval_monomial(u, t, q) for t in torus)
        for u in pts
    )
    if _gf_rank(matrix, q) != len(pts):
        raise ArithmeticError("evaluation matrix lost rank; polytope/field mismatch")
    return ToricCode(field, p, tuple(pts), matrix, block)


def _eval_monomial(u: Point, t: Point, q: int) -> int:
    val = 1
    for ui, ti in zip(u, t):
        val = (val * pow(ti, ui, q)) % q
    return val


def _min_weight_scan(matrix, q: int, prefixes: Sequence[tuple[int, ...]]) -> int:
    """Minimum Hamming weight over the projective messages (first nonzero
    symbol 1) whose leading symbols are one of prefixes.

    Scaling a column by a nonzero constant keeps every weight, so each column
    where the last row R is nonzero is scaled to make R[j] = -1.  The q
    messages that share the partial codeword P of the other rows and differ
    only in the last symbol m are then zero at such a column exactly when
    P[j] = m, and at a column with R[j] = 0 exactly when P[j] = 0, so one
    count of the symbols of P weighs all q of them.

    P is packed into one int, a lane of `width` bytes per column with the
    live columns (R[j] != 0) first: one byte for q <= 128, else two or four.
    Adding a row is one int addition and one branch-free reduction: a lane
    then holds at most 2q - 2 < 2^(8 width), so it never carries into the
    next lane, and adding 2^top - q to every lane (top = 8 width - 1) sets a
    lane's top bit exactly when it is >= q.  A leaf is weighed from P's
    bytes by C-level counts, one per symbol; wider lanes, which only q > 128
    and so k <= 3 reach, use a Counter.
    """
    *head, last = matrix
    block = len(last)
    cols = sorted(range(block), key=lambda j: not last[j])  # R[j] != 0 first
    live = block - last.count(0)
    scale = [pow(-last[j], q - 2, q) if last[j] else 1 for j in cols]
    width = 1 if q <= 128 else 2 if q <= 1 << 15 else 4
    fmt = f"<{block}{_LANE_FORMAT[width]}"
    size = block * width

    def pack(vec):
        return int.from_bytes(struct.pack(fmt, *vec), "little")

    top = 8 * width - 1
    ones = pack([1] * block)
    high, bias = ones << top, ones * ((1 << top) - q)
    rows = [pack([row[j] * c % q for j, c in zip(cols, scale)]) for row in head]
    syms = range(q)

    def add(x, r):
        x += r
        return x - (((x + bias) & high) >> top) * q

    def weigh(x, started):
        if width == 1:
            v = x.to_bytes(size, "little")
            p = v[:live]
            most = max(map(p.count, syms)) if started else p.count(1)
            return block - v.count(0, live) - most
        v = struct.unpack(fmt, x.to_bytes(size, "little"))
        cnt = Counter(v[:live])
        most = max(cnt.values(), default=0) if started else cnt[1]
        return block - v[live:].count(0) - most

    best = block + 1

    def rec(i, x, started):
        # rows i.. are still free; until a symbol is nonzero they take (0, 1)
        nonlocal best
        if i == len(rows):
            best = min(best, weigh(x, started))
            return
        r = rows[i]
        if i + 1 < len(rows):
            rec(i + 1, x, started)
            for _ in range(q - 1 if started else 1):
                x = add(x, r)
                rec(i + 1, x, True)
            return
        # the last head row: its q leaves are weighed in this frame, with
        # add() inlined, which saves two calls per leaf
        w = weigh(x, started)
        for _ in range(q - 1 if started else 1):
            x += r
            x -= (((x + bias) & high) >> top) * q
            w_m = weigh(x, True)
            if w_m < w:
                w = w_m
        best = min(best, w)

    for prefix in prefixes:
        x = 0
        for m_i, r in zip(prefix, rows):
            for _ in range(m_i):
                x = add(x, r)
        rec(len(prefix), x, any(prefix))
    return best


def minimum_distance(code: ToricCode, threads: int = 1) -> int:
    """Exhaustive minimum Hamming distance of the code.

    Scalar multiples have equal weight, so only the (q^k - 1)/(q - 1)
    messages whose first nonzero symbol is 1 are weighed, q at a time, on
    partial codewords packed into byte lanes of one int (see
    _min_weight_scan); the cap still applies to the whole space q^k.  The
    work splits by the projective prefixes of the first min(2, k - 1)
    symbols, up to q + 2 of them, dealt round-robin to at most
    min(threads, CPU count) worker processes; a single worker scans
    in-process.  The minimum does not depend on the split.  This scan is the
    only work that --threads splits: the cube search runs in one process.
    """
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    q = code.field.q
    k = code.dimension
    if q ** k > MESSAGE_CAP:
        raise ValueError(f"message space {q}^{k} exceeds cap {MESSAGE_CAP}")
    prefixes = [()]
    for _ in range(min(2, k - 1)):
        prefixes = [p + (v,) for p in prefixes for v in (range(q) if any(p) else (0, 1))]
    scan = partial(_min_weight_scan, code.matrix, q)
    workers = min(threads, os.cpu_count() or 1, len(prefixes))
    if workers == 1:
        return scan(prefixes)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return min(pool.map(scan, [prefixes[i::workers] for i in range(workers)]))


@dataclass(frozen=True)
class CodeStats:
    block_length: int
    dimension: int
    min_distance: int
    relative_min_distance: Fraction
    information_rate: Fraction
    max_cube_dim: int


def code_stats(
    p: LatticePolytope,
    q: int,
    notion: CubeNotion = DEFAULT_NOTION,
    threads: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> CodeStats:
    """All six statistics of the code of P over F_q.

    The cube dimension is computed on the lattice-point set of P viewed
    inside the grid [q-1]^n, so q must be at least 3.
    """
    if q < 3:
        raise ValueError(
            f"code statistics need q >= 3, got q = {q}: the cube dimension is "
            f"taken in the grid [q-1]^n, whose base q-1 must be at least 2"
        )
    code = build_code(p, q)
    dmin = minimum_distance(code, threads=threads)
    pts = PointSet(GridParams(q - 1, p.dim), p.lattice_points())
    m, _ = m_value(pts, notion, budget=budget)
    return CodeStats(
        block_length=code.block_length,
        dimension=code.dimension,
        min_distance=dmin,
        relative_min_distance=Fraction(dmin, code.block_length),
        information_rate=Fraction(code.dimension, code.block_length),
        max_cube_dim=m,
    )


def parse_polytope(text: str) -> tuple[int, LatticePolytope]:
    """Parse the polytope text format: header "q n", one vertex per line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty polytope file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"header must be 'q n', got {lines[0]!r}")
    try:
        q, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"header must be two integers, got {lines[0]!r}") from exc
    if len(lines) < 2:
        raise ValueError("polytope file lists no vertices")
    seen = set()
    verts = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n:
            raise ValueError(f"expected {n} coordinates, got {ln!r}")
        try:
            v = tuple(int(x) for x in parts)
        except ValueError as exc:
            raise ValueError(f"non-integer coordinate in {ln!r}") from exc
        if v in seen:
            raise ValueError(f"duplicate vertex line {ln!r}")
        seen.add(v)
        verts.append(v)
    return q, LatticePolytope(verts)


def format_polytope(q: int, p: LatticePolytope) -> str:
    lines = [f"{q} {p.dim}"]
    lines.extend(" ".join(str(x) for x in v) for v in p.vertices)
    return "\n".join(lines) + "\n"
