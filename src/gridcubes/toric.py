"""Evaluation codes from lattice polytopes over prime fields.

A polytope P inside [0, q-2]^n defines a code of block length (q-1)^n: each
lattice point u of P contributes the row (t^u for t in the torus), where the
torus is all points with nonzero coordinates and t^u is the monomial product
t_1^{u_1} ... t_n^{u_n} mod q.  Geometry is exact: hull membership is decided
by phase-1 simplex pivoting in integers (fraction-free), never floats.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod
from typing import Iterator, Optional, Sequence

from .cubes import (CubeNotion, DEFAULT_BUDGET, DEFAULT_NOTION, SearchBudgetExceeded,
                    _check_budget, m_value)
from .grid import GridParams, Point, PointSet, format_rows, read_rows

BOX_CAP = 10 ** 7  # enumerable bounding-box volume
BLOCK_CAP = 10 ** 6  # largest torus we evaluate on
ENTRY_CAP = 4 * 10 ** 6  # largest generator matrix, k (q-1)^n entries
MESSAGE_CAP = 10 ** 7  # words weighed for one minimum distance with q^k above it
WORD_LANES = 64  # a word counts once toward MESSAGE_CAP per WORD_LANES lanes
SET_ENTRIES = 4  # entries reduced per word weighed while a systematic set is built
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

    Phase-1 simplex with Bland's rule (no cycling), pivoted fraction-free
    (J. Edmonds 1967; E. H. Bareiss 1968): each entry is the rational
    tableau's times D > 0, the last pivot, and a pivot on p maps an entry a
    to (a p - f b) // D exactly, f and b the entries of a's row in the
    entering column and of the pivot row in a's column.  Signs and ratios,
    compared by cross-products, are the rational ones, so is every pivot.
    The point is in the hull iff the artificial objective reaches zero.
    """
    k, m = len(vertices), len(x) + 1
    rows = [list(c) + [0] * m + [xi] for c, xi in zip(zip(*vertices), x)]
    rows.append([1] * k + [0] * m + [1])  # sum(lam_i) = 1
    for i, row in enumerate(rows):
        if row[-1] < 0:
            rows[i] = row = [-v for v in row]
        row[k + i] = 1
    basis = list(range(k, k + m))
    # reduced costs sum_i rows[i][j] - cost_j (1 on the artificials), objective last
    z = [sum(col) - (k <= j < k + m) for j, col in enumerate(zip(*rows))]
    d = 1
    while True:
        enter = next((j for j in range(k + m) if z[j] > 0), None)  # Bland
        if enter is None:
            break
        leave = None  # phase 1 is bounded below: some row leaves
        for i in range(m):
            a = rows[i][enter]
            if a > 0:  # c: the sign of rhs_i / a - rhs_leave / a_leave
                c = -1 if leave is None else rows[i][-1] * rows[leave][enter] - rows[leave][-1] * a
                if c < 0 or (c == 0 and basis[i] < basis[leave]):
                    leave = i
        b, p = rows[leave], rows[leave][enter]
        for i, row in enumerate(rows):
            if i != leave:
                f = row[enter]
                rows[i] = [(a * p - f * c) // d for a, c in zip(row, b)]
        f = z[enter]
        z = [(a * p - f * c) // d for a, c in zip(z, b)]
        basis[leave] = enter
        d = p
    return z[-1] == 0


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
            volume = prod(hi - lo + 1 for lo, hi in box)
            if volume > BOX_CAP:
                raise ValueError(f"bounding box volume {volume} exceeds cap {BOX_CAP}")
            vset = set(self.vertices)  # product() runs in lex order
            self._points = tuple(p for p in product(*(range(lo, hi + 1) for lo, hi in box))
                                 if p in vset or _in_hull(p, self.vertices))
        return self._points


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


def _capped_points(p: LatticePolytope, q: int) -> tuple[Point, ...]:
    """P's lattice points, once the caps of P's code over F_q let it be built.

    The vertices' box and the block-length cap are checked before q is
    tested for primality, so trial division never passes q = BLOCK_CAP + 1,
    at any n, and all three before the lattice points are enumerated; the
    k (q-1)^n entries are then checked against ENTRY_CAP.
    """
    n = p.dim
    for v in p.vertices:
        if any(not 0 <= x <= q - 2 for x in v):
            raise ValueError(f"vertex {v} outside the box [0, {q - 2}]^{n}")
    if q - 1 > BLOCK_CAP or (q - 1) ** n > BLOCK_CAP:
        # at n = 0 the block is one symbol, but trial division on q would not end
        size = f"block length {q - 1}^{n}" if n else f"q - 1 = {q - 1}"
        raise ValueError(f"{size} exceeds cap {BLOCK_CAP}")
    PrimeField(q)  # raises unless q is prime
    pts = p.lattice_points()
    block = (q - 1) ** n
    if len(pts) * block > ENTRY_CAP:
        raise ValueError(f"generator matrix {len(pts)} x {block} = {len(pts) * block} entries "
                         f"exceeds cap {ENTRY_CAP}")
    return pts


def build_code(p: LatticePolytope, q: int) -> ToricCode:
    """Generator matrix of the evaluation code of P over F_q, refused by
    _capped_points before any row is built.

    Rows follow the lex-sorted lattice points of P; columns follow the
    lex-sorted torus points of [1, q-1]^n, so the matrix is reproducible.
    The row of u is the Kronecker product r_{u_1} (x) ... (x) r_{u_n}, with
    r_a = (t^a mod q for t = 1..q-1) built only for the a that occur.

    The k rows have rank k, so no elimination checks it (J. P. Hansen 2000;
    J. Little and H. Schenck 2006).  Past the box check every lattice point
    lies in [0, q-2]^n, so points u != u' differ mod q - 1 in some
    coordinate i, and t = (1, .., g, .., 1), g a generator of F_q^* in
    coordinate i, separates the torus characters t -> t^u and t -> t^u'.
    Distinct characters are linearly independent over F_q (Dedekind).
    """
    pts = _capped_points(p, q)
    power = {a: [pow(t, a, q) for t in range(1, q)] for a in {a for u in pts for a in u}}
    rows = {(): [1]}  # Kronecker products of the points and their prefixes
    for u in sorted({u[:i] for u in pts for i in range(1, p.dim + 1)}, key=len):
        rows[u] = [x * y % q for x in rows[u[:-1]] for y in power[u[-1]]]
    return ToricCode(PrimeField(q), p, pts, tuple(tuple(rows[u]) for u in pts), (q - 1) ** p.dim)


class _Lanes:
    """Vectors over F_q of `block` symbols, packed into one int with a lane of
    `width` bytes per symbol, the first symbol lowest: one byte for
    q <= 128, else two or four.

    Every lane of a packed vector lies in [0, q), inside [0, 2^top) with
    top = 8 width - 1, and the sum of two holds at most 2q - 2 < 2^(8 width)
    per lane, so it never carries into the next lane.  Adding `bias`,
    2^top - q, to every lane sets a lane's top bit exactly when it is >= q,
    which add() turns into one branch-free subtraction of q.  A vector so
    biased, as multiples() yields them, keeps every lane in [0, 2^top).
    Adding `nonzero`, 2^top - 1, sets a lane's top bit exactly when it is
    nonzero, which weight() counts; on x ^ m, for x and m both plain or
    both biased, it counts the lanes where x and m differ.
    """

    __slots__ = ("q", "block", "width", "fmt", "top", "high", "bias", "nonzero")

    def __init__(self, q: int, block: int):
        self.q, self.block = q, block
        self.width = 1 if q <= 128 else 2 if q <= 1 << 15 else 4
        self.fmt = f"<{block}{_LANE_FORMAT[self.width]}"
        self.top = 8 * self.width - 1
        ones = self.pack([1] * block)
        self.high = ones << self.top
        self.bias = ones * ((1 << self.top) - q)
        self.nonzero = ones * ((1 << self.top) - 1)

    def pack(self, vec: Sequence[int]) -> int:
        return int.from_bytes(struct.pack(self.fmt, *vec), "little")

    def add(self, x: int, r: int) -> int:
        """x + r, reduced lane by lane."""
        x += r
        return x - (((x + self.bias) & self.high) >> self.top) * self.q

    def multiples(self, r: int) -> Iterator[int]:
        """c r for c = 1..q-1, which are the -c r for c = 1..q-1, biased:
        each is one addition of r after the last, and a biased lane passes
        2^top - 1, setting its top bit, exactly where the plain one passes
        q - 1, so one subtraction of q reduces it."""
        q, top, high = self.q, self.top, self.high
        m = r + self.bias
        for _ in range(q - 2):
            yield m
            m += r
            m -= ((m & high) >> top) * q
        yield m

    def weight(self, x: int) -> int:
        """Number of nonzero lanes."""
        return ((x + self.nonzero) & self.high).bit_count()


def _systematic(matrix, q: int, order: Sequence[int]) -> tuple[list[list[int]], list[Optional[int]]]:
    """Gauss-Jordan reduction of matrix (entries in [0, q)) over F_q,
    pivoting on the columns of order in turn until every row has a pivot:
    the reduced rows and each row's pivot column (None where the columns of
    order ran out first)."""
    k = len(matrix)
    rows = [list(row) for row in matrix]
    pivot: list[Optional[int]] = [None] * k
    left = k
    for c in order:
        i = next((i for i in range(k) if pivot[i] is None and rows[i][c]), None)
        if i is None:
            continue
        inv = pow(rows[i][c], q - 2, q)
        ri = rows[i] = [v * inv % q for v in rows[i]]
        for h, rh in enumerate(rows):
            f = rh[c]
            if f and h != i:
                rows[h] = [(a - f * b) % q for a, b in zip(rh, ri)]
        pivot[i] = c
        left -= 1
        if not left:
            break
    return rows, pivot


def _information_sets(matrix, q: int):
    """Yield greedy systematic forms of matrix on pairwise disjoint column
    sets, as (r, rows); nothing when matrix has rank < k.

    Each set pivots first on the columns no earlier set took, in column
    order.  While those reach rank k it is an information set; once they
    reach only r < k, the set is its r own pivots, completed to a basis by
    columns of earlier sets.  rows are _systematic's whole rows, the
    identity on the set's k pivots, so the word of a message of weight w
    weighs w plus its weight off the pivots.
    """
    k, n = len(matrix), len(matrix[0])
    used = bytearray(n)  # 1 where an earlier set took the column
    while True:
        order = [c for c in range(n) if not used[c]] + [c for c in range(n) if used[c]]
        rows, pivot = _systematic(matrix, q, order)
        own = [c for c in pivot if c is not None and not used[c]]
        if None in pivot or not own:
            return
        yield len(own), rows
        for c in own:
            used[c] = 1


def _level_words(q: int, k: int, w: int) -> int:
    """Projective messages of weight w: C(k, w) (q - 1)^(w - 1)."""
    return comb(k, w) * (q - 1) ** (w - 1)


def _gain(k: int, r: int, w: int) -> int:
    """Lower bound on the weight, on the own pivots of a set of rank r, of a
    codeword whose messages of weight <= w on that set were all weighed and
    missed it: max(0, w + 1 - (k - r))."""
    return max(0, w + 1 - (k - r))


def _plan(q: int, k: int, full: int, partial: Sequence[int], done: int, bound: int,
          w: int, setup: int = 0) -> int:
    """How many sets to keep for the cheapest way, in words weighed, to
    finish Brouwer-Zimmermann from level w.

    Levels 1..w-1 are done on `full` information sets and on sets of the
    ranks `partial` (decreasing), with lower bound `done`.  Keeping the
    first i sets, a run that stops after level s < k needs the least i
    whose lower bound reaches `bound` there; s = k needs one set, which
    sees every message.  A set dropped keeps the bound it earned.  With
    setup > 0 no set past the first is built yet: each is priced at setup,
    done must be 0, and a set not kept earns nothing.
    """
    earned = 0 if setup else w  # what a kept information set has earned
    best = None
    words = 0
    for s in range(w, k + 1):
        words += _level_words(q, k, s)
        if best is not None and words >= best[0]:
            break  # a later level costs more on any number of sets
        if s == k:
            return 1
        need = bound - done
        i = min(full, -(-need // (s + 1 - earned)))
        need -= i * (s + 1 - earned)
        for r in partial:
            if need <= 0:
                break
            need -= _gain(k, r, s) - (0 if setup else _gain(k, r, w - 1))
            i += 1
        i = max(i, 1)
        cost = i * words + (i - 1) * setup
        if need <= 0 and (best is None or cost < best[0]):
            best = (cost, i)
    return best[1]


def _kept_multiples(lanes: _Lanes, rows: Sequence[int], w: int) -> dict[int, tuple[int, ...]]:
    """The multiples (_Lanes.multiples) of each row j that more than one
    prefix of level w weighs against, by j.  Row j is the last row of
    C(j, w-1) (q-1)^(w-2) prefixes, so the rows are taken from the last,
    while the rows kept total at most ENTRY_CAP lanes."""
    q, lanes_per_row = lanes.q, (lanes.q - 1) * lanes.block
    kept = {}
    room = ENTRY_CAP
    for j in reversed(range(w - 1, len(rows))):
        if lanes_per_row > room or comb(j, w - 1) * (q - 1) ** (w - 2) < 2:
            break
        kept[j] = tuple(lanes.multiples(rows[j]))
        room -= lanes_per_row
    return kept


def _weigh_level(lanes: _Lanes, rows: Sequence[int], w: int) -> int:
    """Least weight of a word whose projective message has weight w on one
    systematic set, given as its packed whole rows.

    A word x + c r, with x its first w - 1 rows (first coefficient 1) and r
    its last row, is zero in a lane exactly where x equals m = -c r, so
    with both biased alike it weighs one XOR and one masked bit count.  The
    m of a row are made once per call and kept (_kept_multiples), or afresh
    for each prefix for the rows not kept.
    """
    k, q, add = len(rows), lanes.q, lanes.add
    if w == 1:
        return min(map(lanes.weight, rows))
    high, bias, nonzero, multiples = lanes.high, lanes.bias, lanes.nonzero, lanes.multiples

    def prefixes(start, x, left):
        # (index past the last row, word) for each way to add `left` more rows
        # of rows[start:] to x, each with a nonzero coefficient, that leaves a
        # row after them for the last
        if not left:
            yield start, x
            return
        for i in range(start, k - left):
            y, r = x, rows[i]
            for _ in range(q - 1):
                y = add(y, r)
                if left == 1:  # yielded here, without a generator per prefix
                    yield i + 1, y
                else:
                    yield from prefixes(i + 1, y, left - 1)

    kept = _kept_multiples(lanes, rows, w)
    least = lanes.block + 1
    for i in range(k - w + 1):
        for start, x in prefixes(i + 1, rows[i], w - 2):
            x += bias
            for j in range(start, k):
                for m in kept.get(j) or multiples(rows[j]):
                    v = (((x ^ m) + nonzero) & high).bit_count()
                    if v < least:
                        least = v
    return least


def _past_cap(low: int, high: int) -> SearchBudgetExceeded:
    """The stop of a minimum distance at MESSAGE_CAP, with low <= d <= high."""
    return SearchBudgetExceeded(
        f"minimum distance past the cap of {MESSAGE_CAP} words weighed: "
        f"{low} <= d <= {high}", min_distance_lower=low, min_distance_upper=high)


def _brouwer_zimmermann(matrix, q: int) -> int:
    """Minimum weight of the code of matrix by Brouwer-Zimmermann (K.-H.
    Zimmermann 1996; M. Grassl 2006).

    The matrix is put in systematic form on greedily chosen disjoint column
    sets (_information_sets); a rank-deficient matrix answers 0 at once.  At
    level w = 1, 2, ... the projective messages of weight w are weighed on
    every set, each word one XOR of the sum of its first w - 1 rows against
    a multiple of its last (_weigh_level).  A codeword not yet seen then
    has message weight >= w + 1 on every set, so weight >= w + 1 on an
    information set's columns and >= w + 1 - (k - r) on the own columns of
    a set of rank r < k.  The run stops once that
    lower bound reaches the least weight found (at first the Singleton
    bound n - k + 1), or after level k.

    Prices are in words weighed; building a set costs one word per
    SET_ENTRIES entries reduced, k n per pivot.  After the first set, _plan
    prices the rest against the least weight found, picks how many sets to
    build, and before each later level drops the sets it no longer needs.
    MESSAGE_CAP counts each word weighed once per WORD_LANES of its n - k
    lanes past the message, and each later set at its setup price before
    its elimination runs, once its k level-1 words are sure to fit (the
    first set's always do under ENTRY_CAP).  Only a code of more than
    MESSAGE_CAP messages (q^k) is stopped by the cap: it raises
    SearchBudgetExceeded whose bounds are min_distance_lower <= d <=
    min_distance_upper, the bounds found.  A smaller code always finishes.
    """
    k, n = len(matrix), len(matrix[0])
    setup = k * k * n // SET_ENTRIES
    unit = max(1, -(-(n - k) // WORD_LANES))  # what one word counts toward the cap
    capped = q ** k > MESSAGE_CAP
    best = n - k + 1
    spare = (n % k,) if n % k else ()  # what the columns past n // k sets might give
    lanes = _Lanes(q, n)
    sets = []  # (rank, packed whole rows) of each set kept
    low = weighed = 0  # the lower bound; what the cap has counted

    def admit(cost, ahead=0):
        # count `cost` toward the cap, and stop the run if it and `ahead` do not fit
        nonlocal weighed
        if capped and weighed + cost + ahead > MESSAGE_CAP:
            raise _past_cap(low, best)
        weighed += cost

    for r, rows in _information_sets(matrix, q):  # each set, and its level 1: its k rows
        weighed += k * unit
        sets.append((r, [lanes.pack(row) for row in rows]))
        best = min(best, _weigh_level(lanes, sets[-1][1], 1))
        low += _gain(k, r, 1)
        if k == 1 or low >= best:
            return best  # at k = 1 one set at level 1 has seen every message
        if len(sets) == 1:
            # price the rest, with the sets not built yet taken as information sets
            count = _plan(q, k, n // k, spare, 0, best, 2, setup)
        if len(sets) == count:
            break
        # the next set's elimination is paid for, and its level 1 must fit, before it
        # is built; its level 1 counts once the set is found
        admit(setup, k * unit)
    if not sets:
        return 0
    for w in range(2, k + 1):
        full = sum(r == k for r, _ in sets)
        count = _plan(q, k, full, [r for r, _ in sets[full:]], low, best, w)
        admit(count * _level_words(q, k, w) * unit)
        del sets[count:]  # a dropped set keeps its part of low
        for r, rows in sets:
            best = min(best, _weigh_level(lanes, rows, w))
            # this set has weighed level w; at w = k it has seen every message
            low += _gain(k, r, w) - _gain(k, r, w - 1)
            if w == k or low >= best:
                return best


def minimum_distance(code: ToricCode) -> int:
    """Exact minimum Hamming distance of the code, by Brouwer-Zimmermann
    (_brouwer_zimmermann) in this process.  Past q^k > MESSAGE_CAP, a run
    that would weigh more than MESSAGE_CAP words raises SearchBudgetExceeded
    with the bounds found so far.
    """
    return _brouwer_zimmermann(code.matrix, code.field.q)


def _product_distance(p: LatticePolytope, q: int, pts: Sequence[Point]) -> int:
    """Minimum distance of the code of P over F_q, pts P's lattice points S,
    by the product rule: only the code of the core left is built, and
    searched by Brouwer-Zimmermann.

    Coordinate i splits off S when |pi_i S| |pi_-i S| = |S|, pi_i the
    projection onto it and pi_-i onto the others: then S = pi_i S x pi_-i S
    and the code is C(pi_i S) (x) C(pi_-i S), whose distance is the product
    of the factors' (F. J. MacWilliams and N. J. A. Sloane 1977, ch. 18).
    pi_i S is the lattice points of a fiber of P, an interval of some width
    w, whose code is Reed-Solomon with d = q - 1 - w (J. P. Hansen 2000).
    One pass peels every coordinate that splits, since once i has split
    off, another coordinate splits off pi_-i S exactly when it splits off
    S.  P is then a box times the hull of the core points, so the core
    polytope, the projection of P's vertices onto the coordinates left, has
    exactly the projected points as its lattice points; a P with no
    coordinate that splits is its own core, and a box has none.  d is D
    times the core code's minimum_distance, D (scale) the product of the
    intervals' distances, and a core stopped by MESSAGE_CAP gives its
    bounds times D.
    """
    keep = list(range(p.dim))  # the core's coordinates
    pts = set(pts)  # S projected onto them
    scale = 1
    for j in reversed(range(p.dim)):  # deleting position j leaves positions < j in place
        axis = {u[j] for u in pts}
        rest = {u[:j] + u[j + 1:] for u in pts}
        if len(axis) * len(rest) == len(pts):
            scale *= q - 1 - (max(axis) - min(axis))
            pts = rest
            del keep[j]
    if not keep:
        return scale
    core = LatticePolytope(sorted({tuple(v[i] for i in keep) for v in p.vertices}))
    core._points = tuple(sorted(pts))
    code = build_code(core, q)
    try:
        return scale * minimum_distance(code)
    except SearchBudgetExceeded as stop:
        low, high = stop.bounds["min_distance_lower"], stop.bounds["min_distance_upper"]
        raise _past_cap(scale * low, scale * high) from None


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
    *,
    budget: int = DEFAULT_BUDGET,
) -> CodeStats:
    """All six statistics of the code of P over F_q.

    The caps of P's code refuse an input first (_capped_points), but no
    matrix of P's is built: the minimum distance peels off P's
    Reed-Solomon interval factors by the product rule and builds and
    searches only the code of the core left (_product_distance), none for
    a box, k = n among them.  The cube dimension is computed on the
    lattice-point set of P viewed inside the grid [q-1]^n, so q >= 3.
    """
    _check_budget(budget)
    if q < 3:
        raise ValueError(
            f"code statistics need q >= 3, got q = {q}: the cube dimension is "
            f"taken in the grid [q-1]^n, whose base q-1 must be at least 2"
        )
    lattice = _capped_points(p, q)
    n, k = (q - 1) ** p.dim, len(lattice)
    dmin = _product_distance(p, q, lattice)
    # the caps refused any vertex outside [0, q-2]^n, so every lattice
    # point, in the vertices' hull, lies in the grid [q-1]^n already
    pts = PointSet._of_checked(GridParams(q - 1, p.dim), lattice)
    m, _ = m_value(pts, notion, budget=budget)
    return CodeStats(
        block_length=n,
        dimension=k,
        min_distance=dmin,
        relative_min_distance=Fraction(dmin, n),
        information_rate=Fraction(k, n),
        max_cube_dim=m,
    )


def parse_polytope(text: str) -> tuple[int, LatticePolytope]:
    """Parse the polytope text format: header "q n", one vertex per line."""
    q, verts = read_rows(text, "polytope", "q n", "vertex", lambda q, n: q)
    if not verts:
        raise ValueError("polytope file lists no vertices")
    return q, LatticePolytope(verts)


def format_polytope(q: int, p: LatticePolytope) -> str:
    return format_rows(q, p.dim, p.vertices)
