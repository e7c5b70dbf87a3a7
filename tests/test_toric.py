"""Lattice polytopes, evaluation codes, and their exact statistics."""

import dataclasses
import random
import re
import struct
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from math import prod

import pytest
import toric_sweep

from gridcubes import toric
from gridcubes.cubes import SearchBudgetExceeded
from gridcubes.toric import (
    LatticePolytope,
    PrimeField,
    ToricCode,
    _in_hull,
    build_code,
    code_stats,
    format_polytope,
    minimum_distance,
    parse_polytope,
)


def segment(k):
    return LatticePolytope([(0,), (k,)])


def naive_min_distance(matrix, q):
    """Smallest weight over all nonzero messages, one codeword at a time."""
    best = None
    for msg in iproduct(range(q), repeat=len(matrix)):
        if not any(msg):
            continue
        w = sum(
            1
            for j in range(len(matrix[0]))
            if sum(m * row[j] for m, row in zip(msg, matrix)) % q
        )
        best = w if best is None else min(best, w)
    return best


def _monomial(u, t, q):
    """t^u = prod(t_i^u_i) mod q, one entry at a time."""
    val = 1
    for ui, ti in zip(u, t):
        val = val * pow(ti, ui, q) % q
    return val


def lightest(lanes, x: int, r: int, count: int, weigh, least: int) -> int:
    """min(least, weigh(x + c r) for c = 1..count), each word one add()
    after the last; weigh may weigh a whole subtree."""
    q, top, high, bias = lanes.q, lanes.top, lanes.high, lanes.bias
    for _ in range(count):
        x += r  # add(), inlined: this loop runs once per word
        x -= (((x + bias) & high) >> top) * q
        w = weigh(x)
        if w < least:
            least = w
    return least


def weigh_level_scan(lanes, rows, w: int) -> int:
    """Least weight of a word whose projective message has weight w on the
    packed rows, each word one add() away from its parent and weighed by
    weight(): an oracle for toric._weigh_level."""
    k, q, weight = len(rows), lanes.q, lanes.weight

    def rec(start, x, left):
        # the least weight once `left` more rows of rows[start:] are added,
        # each with a nonzero coefficient
        least = lanes.block + 1
        if left == 1:
            for r in rows[start:]:
                least = lightest(lanes, x, r, q - 1, weight, least)
            return least
        for i in range(start, k - left + 1):
            least = lightest(lanes, x, rows[i], q - 1, lambda y: rec(i + 1, y, left - 1), least)
        return least

    if w == 1:
        return min(map(weight, rows))
    return min(rec(i + 1, rows[i], w - 1) for i in range(k - w + 1))


def random_systematic(rng, q: int, k: int) -> list[list[int]]:
    """k random rows, the identity on k random columns, with zero columns
    among the others and, one time in three, a zero row."""
    block = rng.randint(k + 2, k + 14)
    rows = [[rng.randrange(q) for _ in range(block)] for _ in range(k)]
    cols = rng.sample(range(block), k + 2)
    for i, c in enumerate(cols[:k]):
        for h in range(k):
            rows[h][c] = int(h == i)
    for c in cols[k:]:
        for row in rows:
            row[c] = 0
    if rng.randrange(3) == 0:
        rows[rng.randrange(k)] = [0] * block
    return rows


def min_weight_scan(matrix, q: int, prefixes) -> int:
    """Minimum Hamming weight over the projective messages (first nonzero
    symbol 1) whose leading symbols are one of prefixes: an oracle for
    Brouwer-Zimmermann that shares only _Lanes with it.

    Scaling a column by a nonzero constant keeps every weight, so each column
    where the last row R is nonzero is scaled to make R[j] = -1.  The q
    messages that share the partial codeword P of the other rows and differ
    only in the last symbol m are then zero at such a column exactly when
    P[j] = m, and at a column with R[j] = 0 exactly when P[j] = 0, so one
    count of the symbols of P weighs all q of them.

    P is packed on _Lanes with the live columns (R[j] != 0) first, so adding
    a row is one int addition and one branch-free reduction.  A leaf is
    weighed from P's bytes by C-level counts, one per symbol; wider lanes,
    which only q > 128 and so k <= 3 reach, use a Counter.
    """
    *head, last = matrix
    block = len(last)
    cols = sorted(range(block), key=lambda j: not last[j])  # R[j] != 0 first
    live = block - last.count(0)
    scale = [pow(-last[j], q - 2, q) if last[j] else 1 for j in cols]
    lanes = toric._Lanes(q, block)
    rows = [lanes.pack([row[j] * c % q for j, c in zip(cols, scale)]) for row in head]
    narrow = lanes.width == 1
    syms = range(q)

    def unpack(x):  # the symbols of x: bytes for one-byte lanes, else a tuple
        if narrow:
            return x.to_bytes(block, "little")
        return struct.unpack(lanes.fmt, x.to_bytes(block * lanes.width, "little"))

    def weigh(x, started=True):
        v = unpack(x)
        if narrow:
            p = v[:live]
            most = max(map(p.count, syms)) if started else p.count(1)
            return block - v.count(0, live) - most
        cnt = Counter(v[:live])
        most = max(cnt.values(), default=0) if started else cnt[1]
        return block - v[live:].count(0) - most

    def rec(i, x, started):
        # the least weight once rows i.. are chosen too; until a symbol is
        # nonzero they take (0, 1)
        if i == len(rows):
            return weigh(x, started)
        count = q - 1 if started else 1
        if i + 1 == len(rows):  # the last head row: its q leaves in one frame
            return lightest(lanes, x, rows[i], count, weigh, weigh(x, started))
        return lightest(lanes, x, rows[i], count, lambda y: rec(i + 1, y, True),
                        rec(i + 1, x, started))

    best = block + 1
    for prefix in prefixes:
        x = 0
        for m_i, r in zip(prefix, rows):
            for _ in range(m_i):
                x = lanes.add(x, r)
        best = min(best, rec(len(prefix), x, any(prefix)))
    return best


class TestPrimeField:
    def test_prime_check(self):
        PrimeField(2)
        PrimeField(7)
        for bad in (1, 4, 9, 15):
            with pytest.raises(ValueError):
                PrimeField(bad)


def _in_hull_2d_oracle(x, verts):
    """Independent planar hull test: segment containment plus sign-consistent
    nondegenerate triangles."""
    from itertools import combinations

    def area2(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_seg(p, a, b):
        if area2(a, b, p) != 0:
            return False
        return (
            min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        )

    if x in verts:
        return True
    for a, b in combinations(verts, 2):
        if on_seg(x, a, b):
            return True
    for a, b, c in combinations(verts, 3):
        if area2(a, b, c) == 0:
            continue
        d1, d2, d3 = area2(x, a, b), area2(x, b, c), area2(x, c, a)
        if not ((d1 < 0 or d2 < 0 or d3 < 0) and (d1 > 0 or d2 > 0 or d3 > 0)):
            return True
    return False


def _in_hull_fraction(x, vertices, seen=None):
    """The phase-1 simplex over Fractions with Bland's rule, pivoting on the
    rational tableau itself.  seen, a Counter, records the rows flipped for
    a negative right side and the ratio ties that Bland's rule broke."""
    k = len(vertices)
    m = len(x) + 1
    rows = []
    for i in range(len(x)):
        rows.append([Fraction(v[i]) for v in vertices] + [Fraction(0)] * m + [Fraction(x[i])])
    rows.append([Fraction(1)] * k + [Fraction(0)] * m + [Fraction(1)])
    for i in range(m):
        if rows[i][-1] < 0:
            rows[i] = [-v for v in rows[i]]
            if seen is not None:
                seen["flip"] += 1
        rows[i][k + i] = Fraction(1)
    basis = list(range(k, k + m))
    cost = [Fraction(0)] * k + [Fraction(1)] * m
    z = [sum(rows[i][j] for i in range(m)) - cost[j] for j in range(k + m)]
    obj = sum(rows[i][-1] for i in range(m))
    while True:
        enter = next((j for j in range(k + m) if z[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if ratio == best and seen is not None:
                    seen["tie"] += 1
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            break
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


def _seeded_vertex_lists(rng, count):
    """(dim, vertices) of seeded polytopes in dimensions 1-4 with small
    coordinates, negative ones among them: full-dimensional ones, images of
    lower-dimensional ones (a segment or a polygon placed in 3 or 4
    dimensions), and lists made redundant by repeated vertices and by points
    of the hull listed as vertices."""
    out = []
    for j in range(count):
        dim = rng.randint(1, 4)
        kind = j % 3
        if kind == 1 and dim > 1:  # an affine image of a lower-dimensional set
            r = rng.randint(1, dim - 1)
            base = [rng.randint(-2, 2) for _ in range(dim)]
            gens = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(r)]
            verts = []
            for _ in range(rng.randint(1, 5)):
                w = [rng.randint(-1, 2) for _ in range(r)]
                verts.append(tuple(b + sum(wi * g[i] for wi, g in zip(w, gens))
                                   for i, b in enumerate(base)))
        else:
            verts = [tuple(rng.randint(-3, 3) for _ in range(dim))
                     for _ in range(rng.randint(1, dim + 3))]
        if kind == 2:  # redundant: a repeated vertex and the midpoints that are integral
            verts.append(rng.choice(verts))
            verts += [tuple((a + b) // 2 for a, b in zip(u, v)) for u in verts for v in verts
                      if all((a + b) % 2 == 0 for a, b in zip(u, v))][:3]
        out.append((dim, verts))
    return out


class TestHull:
    def test_triangle_membership(self):
        verts = ((0, 0), (2, 0), (0, 2))
        inside = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        outside = [(2, 2), (-1, 0), (2, 1), (3, 0)]
        for p in inside:
            assert _in_hull(p, verts)
        for p in outside:
            assert not _in_hull(p, verts)

    def test_segment_interior(self):
        assert _in_hull((1,), ((0,), (2,)))
        assert not _in_hull((3,), ((0,), (2,)))

    def test_redundant_vertex_list(self):
        # interior points listed as "vertices" must not change the hull
        verts = ((0,), (1,), (4,))
        assert _in_hull((3,), verts)
        assert not _in_hull((5,), verts)

    def test_against_planar_oracle(self):
        rng = random.Random(555)
        for _ in range(400):
            verts = tuple(
                tuple(rng.randint(-3, 5) for _ in range(2))
                for _ in range(rng.randint(1, 6))
            )
            x = tuple(rng.randint(-4, 6) for _ in range(2))
            assert _in_hull(x, verts) == _in_hull_2d_oracle(x, verts)

    def test_against_interval_oracle(self):
        rng = random.Random(556)
        for _ in range(200):
            verts = tuple((rng.randint(-5, 5),) for _ in range(rng.randint(1, 5)))
            x = (rng.randint(-6, 6),)
            lo = min(v[0] for v in verts)
            hi = max(v[0] for v in verts)
            assert _in_hull(x, verts) == (lo <= x[0] <= hi)


    def test_against_fraction_simplex(self):
        # the integer pivots against the rational ones, on 4,000 queries in
        # dimensions 1-4: points of the hull (vertices and integral
        # midpoints), near it and outside its box; the seeded mix must flip
        # rows and break ratio ties
        rng = random.Random(1401)
        seen = Counter()
        for dim, verts in _seeded_vertex_lists(rng, 500):
            for _ in range(8):
                if rng.random() < 0.25:
                    u, v = rng.choice(verts), rng.choice(verts)
                    x = tuple((a + b) // 2 for a, b in zip(u, v))
                else:
                    x = tuple(rng.randint(-4, 4) for _ in range(dim))
                want = _in_hull_fraction(x, verts, seen)
                seen[want] += 1
                assert _in_hull(x, verts) == want, (x, verts)
        assert min(seen[True], seen[False], seen["flip"], seen["tie"]) >= 100, seen


class TestLatticePoints:
    def test_segment(self):
        assert segment(2).lattice_points() == ((0,), (1,), (2,))

    def test_single_vertex(self):
        assert LatticePolytope([(3, 4)]).lattice_points() == ((3, 4),)

    def test_triangle(self):
        pts = LatticePolytope([(0, 0), (2, 0), (0, 2)]).lattice_points()
        assert len(pts) == 6
        assert pts == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))

    def test_square(self):
        pts = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)]).lattice_points()
        assert len(pts) == 4

    def test_box_cap(self):
        with pytest.raises(ValueError, match="cap"):
            LatticePolytope([(0, 0, 0), (300, 300, 300)]).lattice_points()


    def test_against_fraction_simplex(self):
        # every box point tested by the rational simplex, on the seeded
        # vertex lists in dimensions 1-4 whose boxes hold at most 200 points
        rng = random.Random(1402)
        for dim, verts in _seeded_vertex_lists(rng, 150):
            box = [range(min(v[i] for v in verts), max(v[i] for v in verts) + 1)
                   for i in range(dim)]
            if prod(map(len, box)) > 200:
                continue
            want = tuple(x for x in iproduct(*box) if _in_hull_fraction(x, verts))
            assert LatticePolytope(verts).lattice_points() == want, verts


class TestBuildCode:
    def test_constant_monomial_all_ones(self):
        code = build_code(LatticePolytope([(0,)]), 3)
        assert code.matrix == ((1, 1),)
        assert code.block_length == 2

    def test_vandermonde_rows(self):
        code = build_code(segment(2), 5)
        assert code.block_length == 4
        assert code.matrix == (
            (1, 1, 1, 1),
            (1, 2, 3, 4),
            (1, 4, 4, 1),  # squares mod 5 at t = 1,2,3,4
        )

    def test_rank_equals_lattice_points(self, gf_rank):
        # build_code checks no rank: distinct points of [0, q-2]^n give
        # distinct torus characters, independent over F_q.  The argument is
        # tight on the faces x_i = q - 2, where u_i = q - 2 and u'_i = 0 lie
        # one step apart mod q - 1, so every seeded polytope has a vertex there
        cases = [
            (segment(3), 7),
            (LatticePolytope([(0, 0), (1, 0), (0, 1)]), 3),
            (LatticePolytope([(0, 0), (2, 0), (0, 2)]), 5),
        ]
        rng = random.Random(1500)
        for q in (3, 5, 7, 11, 13):
            for dim in (1, 2, 3):
                cases.append((LatticePolytope([tuple(rng.randint(0, q - 2) for _ in range(dim))]), q))
                if (q - 1) ** dim <= 64:  # the full box [0, q-2]^n
                    cases.append((LatticePolytope(list(iproduct((0, q - 2), repeat=dim))), q))
                for _ in range(3 if dim < 3 else 1):
                    width = min(q - 2, (q - 2, 3, 1)[dim - 1])
                    verts = [[q - 2 - rng.randint(0, width) for _ in range(dim)]
                             for _ in range(rng.randint(1, 4))]
                    verts[0][rng.randrange(dim)] = q - 2
                    cases.append((LatticePolytope(verts), q))
        for poly, q in cases:
            code = build_code(poly, q)
            assert code.dimension == len(poly.lattice_points())
            assert gf_rank(code.matrix, q) == code.dimension, (q, poly.vertices)

    def test_out_of_box_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            build_code(segment(4), 5)  # exponent 4 > q-2 = 3
        with pytest.raises(ValueError):
            build_code(LatticePolytope([(-1,), (1,)]), 5)

    def test_caps_before_primality(self, monkeypatch):
        # trial division to sqrt(q) would never finish on 2^89 - 1, so the
        # block-length cap must refuse it before q is tested
        def refuse(q):
            raise AssertionError("is_prime called before the caps")

        monkeypatch.setattr(toric, "is_prime", refuse)
        with pytest.raises(ValueError, match="block length"):
            build_code(LatticePolytope([(0,)]), 2 ** 89 - 1)
        # at n = 0 the block is one symbol long, but q is bounded all the same
        with pytest.raises(ValueError, match=r"^q - 1 = 2305843009213693950 exceeds cap 1000000$"):
            build_code(LatticePolytope([()]), 2 ** 61 - 1)

    def test_entry_cap_before_power_rows(self, monkeypatch):
        # the segment [0, 10005] over F_10007 would hold 10006^2 = 10^8
        # entries, so the entry cap must refuse it before a power row is built
        def refuse(*args):
            raise AssertionError("power rows built before the entry cap")

        monkeypatch.setattr(toric, "pow", refuse, raising=False)
        with pytest.raises(ValueError, match=r"10006 x 10006 = 100120036 entries exceeds cap 4000000"):
            build_code(segment(10005), 10007)
        with pytest.raises(ValueError, match=r"5 x 999982 = 4999910 entries exceeds cap"):
            build_code(segment(4), 999983)

    def test_box_checked_before_lattice_points(self, monkeypatch):
        # enumerating these hulls would take seconds to minutes before the
        # box refused them; the vertices share the hull's bounding box
        def refuse(self):
            raise AssertionError("lattice points enumerated before the box check")

        monkeypatch.setattr(LatticePolytope, "lattice_points", refuse)
        tetra = LatticePolytope([(0, 0, 0), (40, 0, 0), (0, 40, 0), (0, 0, 40)])
        with pytest.raises(ValueError, match=r"vertex \(40, 0, 0\) outside the box \[0, 3\]\^3"):
            build_code(tetra, 5)
        with pytest.raises(ValueError, match=r"vertex \(3000, 0\) outside"):
            build_code(LatticePolytope([(0, 0), (3000, 0), (0, 3000)]), 5)
        with pytest.raises(ValueError, match="block length"):
            build_code(LatticePolytope([(0, 0), (1, 1)]), 1009)
        with pytest.raises(ValueError, match="not prime"):
            build_code(LatticePolytope([(0,), (2,)]), 9)

    def test_matrix_against_monomial_definition(self):
        # entry (u, t) is prod(t_i^u_i mod q), rows in the lex order of the
        # lattice points and columns in that of the torus [1, q-1]^n
        rng = random.Random(1403)
        for q in (3, 5, 7, 11, 13):
            for dim in (1, 2, 3):
                for _ in range(3 if dim < 3 else 1):
                    width = min(q - 2, (q - 2, 3, 1)[dim - 1])
                    low = [rng.randint(0, q - 2 - width) for _ in range(dim)]
                    poly = LatticePolytope([tuple(lo + rng.randint(0, width) for lo in low)
                                            for _ in range(rng.randint(1, 4))])
                    code = build_code(poly, q)
                    torus = list(iproduct(range(1, q), repeat=dim))
                    want = tuple(tuple(_monomial(u, t, q) for t in torus)
                                 for u in poly.lattice_points())
                    assert code.monomials == poly.lattice_points()
                    assert code.matrix == want, (q, poly.vertices)

    def test_large_prime_builds_only_the_used_power_rows(self, monkeypatch):
        # the segment [5000, 5002] over F_10007: three power rows of q - 1
        # entries, one pow call each; every power row would take
        # (q - 1)^2 = 10^8 calls
        q = 10007
        want = tuple(tuple(pow(t, a, q) for t in range(1, q)) for a in (5000, 5001, 5002))
        calls = []
        monkeypatch.setattr(toric, "pow", lambda *a: calls.append(1) or pow(*a), raising=False)
        code = build_code(LatticePolytope([(5000,), (5002,)]), q)
        assert code.matrix == want
        assert len(calls) == 3 * (q - 1)


class TestMinimumDistance:
    def test_reed_solomon_point(self):
        code = build_code(segment(2), 5)
        assert minimum_distance(code) == 2

    def test_constant_code_full_weight(self):
        code = build_code(LatticePolytope([(0,)]), 3)
        assert minimum_distance(code) == 2

    def test_at_least_one(self):
        for q, k in [(3, 1), (5, 2), (7, 3)]:
            assert minimum_distance(build_code(segment(k), q)) >= 1

    def test_against_flat_enumeration(self):
        rng = random.Random(77)
        done = 0
        while done < 20:
            q = rng.choice([3, 5])
            n = rng.choice([1, 2])
            verts = [
                tuple(rng.randint(0, q - 2) for _ in range(n))
                for _ in range(rng.randint(1, 4))
            ]
            poly = LatticePolytope(verts)
            if q ** len(poly.lattice_points()) > 4000:
                continue
            code = build_code(poly, q)
            assert minimum_distance(code) == naive_min_distance(code.matrix, q)
            done += 1

    def test_hand_built_matrices_against_flat_enumeration(self, hand_built, monkeypatch):
        # the codes of the hand-built matrices, distance 0 among them: each
        # answer is that of one Brouwer-Zimmermann run, in this process, on
        # the code's matrix over its field, with no floor and no ceiling
        runs = []
        bz = toric._brouwer_zimmermann
        monkeypatch.setattr(toric, "_brouwer_zimmermann", lambda *a: runs.append(a) or bz(*a))
        for q, k, matrix, want in hand_built:
            code = ToricCode(PrimeField(q), ((0,),) * k,
                             tuple(map(tuple, matrix)), len(matrix[0]))
            runs.clear()
            assert minimum_distance(code) == want, (q, matrix)
            assert runs == [(code.matrix, q, 0, None)]

    def test_lane_reduction_against_flat_weights(self):
        # the lane arithmetic Brouwer-Zimmermann weighs its words with, on
        # three rows R0, R1, R2: add() puts R1 onto R0 m times, giving x;
        # multiples() gives c R2 for c = 1..q-1, biased, and the masked bit
        # count of x, biased alike, XOR one of them weighs x - c R2;
        # weight() weighs one row.  All against the words computed one
        # column at a time, with lanes at 0 and at q - 1 in x, in R2 and in
        # the multiples.  q = 127 is the largest prime on 1-byte lanes,
        # q = 131 takes 2-byte lanes and q = 32771 4-byte lanes; blocks of 9
        # or more columns pack into ints of several machine words.
        rng = random.Random(506)
        for q, reps in ((127, 3), (131, 3), (32771, 1)):
            for _ in range(reps):
                block = rng.randint(9, 16)
                matrix = [[rng.randrange(q) for _ in range(block)] for _ in range(3)]
                zero, full = rng.sample(range(block), 2)
                for row, at_zero, at_full in zip(matrix, (0, 0, 0), (q - 1, 0, q - 1)):
                    row[zero], row[full] = at_zero, at_full
                lanes = toric._Lanes(q, block)
                first, middle, last = map(lanes.pack, matrix)
                mults = list(lanes.multiples(last))
                assert mults == [lanes.pack([c * v % q for v in matrix[2]]) + lanes.bias
                                 for c in range(1, q)]
                for m in (q - 1, rng.randrange(q)):
                    x = first
                    for _ in range(m):
                        x = lanes.add(x, middle)
                    word = [(a + m * b) % q for a, b in zip(*matrix[:2])]
                    assert x == lanes.pack(word) and word[zero] == 0 and word[full] == q - 1
                    assert lanes.weight(x) == block - word.count(0)
                    flat = [sum(1 for a, v in zip(word, matrix[2]) if (a - c * v) % q)
                            for c in range(1, q)]
                    x += lanes.bias
                    assert [(((x ^ y) + lanes.nonzero) & lanes.high).bit_count()
                            for y in mults] == flat
                assert lanes.weight(last) == block - matrix[2].count(0)

    def test_weigh_level_against_word_by_word(self):
        # the kernel against weigh_level_scan, which weighs each word with
        # weight() one add() after its parent, at every level w <= k on
        # random systematic rows with zero columns and zero rows: k up to 6
        # for q <= 7, 3 for q = 127 and 131, 2 for q = 32771 (4-byte lanes)
        rng = random.Random(3001)
        for q in (2, 3, 5, 7, 127, 131, 32771):
            for k in range(1, (6 if q < 8 else 3 if q < 1000 else 2) + 1):
                for _ in range(3 if q < 8 else 1):
                    rows = random_systematic(rng, q, k)
                    lanes = toric._Lanes(q, len(rows[0]))
                    packed = [lanes.pack(row) for row in rows]
                    for w in range(1, k + 1):
                        assert (toric._weigh_level(lanes, packed, w)
                                == weigh_level_scan(lanes, packed, w)), (q, rows, w)

    def test_entry_cap_bounds_the_multiples_kept(self, monkeypatch):
        # a random [22, 5] code over F_7 with ENTRY_CAP at two and a half
        # rows of multiples (6 words of 22 lanes each): at level 2, where
        # row j is the last row of j prefixes, a call keeps rows 4 and 3 and
        # streams rows 1 and 2, row 2 for want of room.  Each level's least
        # weight is the word-by-word scan's, and d the flat enumeration's
        q, block = 7, 22
        monkeypatch.setattr(toric, "ENTRY_CAP", 5 * (q - 1) * block // 2)
        rng = random.Random(3002)
        matrix = [[rng.randrange(q) for _ in range(block)] for _ in range(5)]
        calls = []
        keep, weigh = toric._kept_multiples, toric._weigh_level

        def spy_keep(lanes, rows, w):
            calls.append((w, keep(lanes, rows, w)))
            return calls[-1][1]

        def spy_weigh(lanes, rows, w):
            least = weigh(lanes, rows, w)
            assert least == weigh_level_scan(lanes, rows, w)
            return least

        monkeypatch.setattr(toric, "_kept_multiples", spy_keep)
        monkeypatch.setattr(toric, "_weigh_level", spy_weigh)
        assert toric._brouwer_zimmermann(matrix, q) == naive_min_distance(matrix, q)
        assert (2, [3, 4]) in [(w, sorted(kept)) for w, kept in calls]
        for w, kept in calls:
            assert sum(map(len, kept.values())) * block <= toric.ENTRY_CAP

    def test_message_cap(self, gf_rank):
        # a full-rank [12, 6] code over F_1009: past the cap in messages
        # (1009^6 > 10^7), and Brouwer-Zimmermann's level 3 on its two
        # information sets needs 2 C(6, 3) 1008^2 > 10^7 words
        rng = random.Random(94)
        matrix = tuple(tuple(rng.randrange(1009) for _ in range(12)) for _ in range(6))
        code = ToricCode(PrimeField(1009), ((0,),) * 6, matrix, 12)
        assert gf_rank(matrix, 1009) == 6
        with pytest.raises(SearchBudgetExceeded, match=r"cap.* \d+ <= d <= \d+$"):
            minimum_distance(code)

    def test_small_cap_refuses_before_weighing_past_it(self, monkeypatch):
        # the square [0,2]^2 over F_7 (k = 9, n = 36: words of 27 lanes,
        # each counted once; d = 16), where 7^9 > 3,000 leaves no scan.
        # Each call of _weigh_level weighs _level_words words.  A cap of 2,000
        # words: level 1 on three information sets counts 9 + 2 (729 + 9)
        # = 1,485, with 729 for each later set's elimination, and a fourth
        # set would take 738 more, so the words weighed are the 27 of level
        # 1 on three sets.  A cap of 3,000: the four sets fit (2,223), but
        # level 2 on them, 4 C(9, 2) 6 = 864 words, does not, and is refused
        # before any of its words is weighed: 36 words, all of level 1.
        code = build_code(LatticePolytope([(0, 0), (2, 0), (0, 2), (2, 2)]), 7)
        weigh = toric._weigh_level
        words = []  # the words of each _weigh_level call
        monkeypatch.setattr(toric, "_weigh_level", lambda lanes, rows, w: words.append(
            toric._level_words(lanes.q, len(rows), w)) or weigh(lanes, rows, w))
        for cap, weighed in ((2000, 3 * 9), (3000, 4 * 9)):
            monkeypatch.setattr(toric, "MESSAGE_CAP", cap)
            words.clear()
            with pytest.raises(SearchBudgetExceeded) as stop:
                minimum_distance(code)
            bounds = stop.value.bounds
            assert bounds["min_distance_lower"] <= 16 <= bounds["min_distance_upper"]
            assert sum(words) == weighed

    def test_cap_stops_only_codes_past_it_in_messages(self, monkeypatch):
        # the simplex of the origin and the unit vectors of dimension 4 over
        # F_7: k = 5, n = 1,296, q^k = 16,807.  Each word counts
        # ceil(1,291 / 64) = 21 toward the cap, and the run weighs more than
        # 16,807 / 21 words.  With the cap at q^k the code is not past it, so
        # the run finishes; one below, it stops with the bounds it had, 4 <=
        # d <= 1,080.
        code = build_code(LatticePolytope([(0,) * 4] + [tuple(int(i == j) for i in range(4))
                                                        for j in range(4)]), 7)
        qk = 7 ** code.dimension
        weigh = toric._weigh_level
        words = []  # the words of each _weigh_level call
        monkeypatch.setattr(toric, "_weigh_level", lambda lanes, rows, w: words.append(
            toric._level_words(lanes.q, len(rows), w)) or weigh(lanes, rows, w))
        monkeypatch.setattr(toric, "MESSAGE_CAP", qk)
        assert minimum_distance(code) == min_weight_scan(code.matrix, 7, [(0,), (1,)]) == 1080
        assert sum(words) * 21 > qk
        monkeypatch.setattr(toric, "MESSAGE_CAP", qk - 1)
        with pytest.raises(SearchBudgetExceeded) as stop:
            minimum_distance(code)
        assert stop.value.bounds == {"min_distance_lower": 4, "min_distance_upper": 1080}

    def test_sweep_subset_digest(self, subset_lines):
        # every eighth code of the committed sweep (tests/toric_sweep.py),
        # seven of them stopped by the cap: the same d, or the same bounds
        # and message, as when the digest was committed
        assert sum(" <= d <= " in line for line in subset_lines) == 7
        assert toric_sweep.digest(subset_lines) == toric_sweep.SUBSET_DIGEST


@pytest.fixture(scope="module")
def sweep_codes():
    """The committed sweep's codes, (family, q, vertices)."""
    return toric_sweep.codes()


@pytest.fixture(scope="module")
def subset_lines(sweep_codes):
    """The outcome lines of every eighth code of the sweep, by
    minimum_distance on the whole code."""
    return [toric_sweep.outcome(q, vertices)
            for _, q, vertices in sweep_codes[::toric_sweep.SUBSET_STRIDE]]


@pytest.fixture(scope="module")
def hand_built():
    """(q, k, matrix, flat minimum weight) for hand-built matrices: seeded
    random ones, and ones made of several information sets, columns from a
    subspace of lower rank and zero columns, in some with a last row that
    is a combination of the others, so that d = 0."""
    cases = []
    rng = random.Random(505)
    for q in (2, 3, 5, 7, 127, 131):
        for k in (1, 2, 3, 4) if q < 127 else (1, 2):
            for rep in range(4):
                block = rng.randint(1, 7) if rep < 2 else rng.randint(9, 70 if q < 127 else 16)
                matrix = [[rng.randrange(q) for _ in range(block)] for _ in range(k)]
                matrix[-1][rng.randrange(block)] = 0
                cases.append((q, k, matrix))
    rng = random.Random(506)
    for q in (2, 3, 5, 7, 127, 131):
        for k in (2, 3, 4) if q < 127 else (2,):
            for rep in range(3 if q < 127 else 1):
                basis = [[rng.randrange(q) for _ in range(k)] for _ in range(rng.randint(1, k - 1))]
                cols = [[rng.randrange(q) for _ in range(k)] for _ in range(rng.randint(1, 3) * k)]
                cols += [[sum(rng.randrange(q) * b[i] for b in basis) % q for i in range(k)]
                         for _ in range(rng.randint(1, k + 2))]
                cols += [[0] * k] * rng.randint(0, 2)
                rng.shuffle(cols)
                matrix = [list(row) for row in zip(*cols)]
                if rep == 1:  # the last row a combination of the others
                    coef = [rng.randrange(q) for _ in range(k - 1)]
                    matrix[-1] = [sum(c * x for c, x in zip(coef, col)) % q
                                  for col in zip(*matrix[:-1])]
                cases.append((q, k, matrix))
    return [(q, k, m, naive_min_distance(m, q)) for q, k, m in cases]


class TestBrouwerZimmermann:
    """minimum_distance, which is _brouwer_zimmermann, against independent
    answers."""

    def test_hand_built_against_flat_enumeration(self, hand_built):
        # k = 1 to 4; columns that are zero or lie in a subspace of lower
        # rank give sets of rank < k, and random rows may be dependent, so
        # distance 0 is covered too.  q = 127 takes 1-byte lanes and q = 131
        # 2-byte lanes; blocks of 9 or more columns pack into ints of several
        # machine words.
        for q, k, matrix, want in hand_built:
            assert toric._brouwer_zimmermann(matrix, q) == want, (q, matrix)

    def test_seeded_polytopes_against_scan(self):
        # 200 distinct codes of polytopes of dimension 1-3 with q^k <= 10^5,
        # against the scan over every projective message
        rng = random.Random(1301)
        seen = set()
        while len(seen) < 200:
            dim = rng.choice([1, 2, 2, 3])
            q = rng.choice([3, 5] if dim == 3 else [3, 5, 7] if dim == 2 else [5, 7, 11, 13])
            top = min(q - 2, (q, 3, 2)[dim - 1])
            poly = LatticePolytope([tuple(rng.randint(0, top) for _ in range(dim))
                                    for _ in range(rng.randint(1, 4))])
            pts = poly.lattice_points()
            if q ** len(pts) > 10 ** 5 or (q, pts) in seen:
                continue
            seen.add((q, pts))
            code = build_code(poly, q)
            prefixes = [()] if code.dimension == 1 else [(0,), (1,)]
            want = min_weight_scan(code.matrix, q, prefixes)
            assert toric._brouwer_zimmermann(code.matrix, q) == want, (q, poly.vertices)

    def test_sets_are_whole_systematic_forms(self, hand_built, monkeypatch):
        # each set yielded is the rows _systematic returned, the identity on
        # the k pivots it chose
        forms = []
        systematic = toric._systematic
        monkeypatch.setattr(toric, "_systematic", lambda *a: forms.append(systematic(*a)) or forms[-1])
        square = build_code(LatticePolytope([(0, 0), (2, 0), (0, 2), (2, 2)]), 7)
        sets = 0
        for q, k, matrix, _ in hand_built + [(7, 9, square.matrix, 16)]:
            forms.clear()
            for r, rows in toric._information_sets(matrix, q):
                got, pivot = forms[-1]
                assert rows is got and len(rows[0]) == len(matrix[0])
                assert [[row[c] for c in pivot] for row in rows] == [
                    [int(i == j) for j in range(k)] for i in range(k)]
                sets += 1
        assert sets > 4

    def test_boxes_under_the_cap(self):
        # q^k <= 10^7, so the word cap never stops these runs; the box
        # [0,a] x [0,b] has distance (q-1-a)(q-1-b)
        seg = build_code(segment(3), 17)
        rect = build_code(LatticePolytope([(0, 0), (1, 0), (0, 2), (1, 2)]), 11)
        for code, want in ((seg, naive_min_distance(seg.matrix, 17)), (rect, 9 * 8)):
            assert code.field.q ** code.dimension <= 10 ** 7
            assert minimum_distance(code) == want

    def test_boxes_past_the_old_cap(self):
        # the box [0,a] x [0,b] gives RS[q-1, a+1] (x) RS[q-1, b+1], whose
        # distance is (q-1-a)(q-1-b); each has q^k > 10^7
        for a, b, q in ((2, 2, 7), (1, 4, 7), (2, 3, 7), (2, 4, 7), (3, 2, 5)):
            code = build_code(LatticePolytope([(0, 0), (a, 0), (0, b), (a, b)]), q)
            assert q ** code.dimension > 10 ** 7
            assert minimum_distance(code) == (q - 1 - a) * (q - 1 - b), (a, b, q)


class TestCodeStats:
    def test_segment_statistics(self):
        stats = code_stats(segment(2), 5)
        assert (stats.block_length, stats.dimension, stats.min_distance) == (4, 3, 2)
        assert stats.relative_min_distance == Fraction(1, 2)
        assert stats.information_rate == Fraction(3, 4)
        assert stats.max_cube_dim == 1

    def test_point_statistics(self):
        stats = code_stats(LatticePolytope([(0,)]), 3)
        assert (stats.block_length, stats.dimension, stats.min_distance) == (2, 1, 2)
        assert stats.relative_min_distance == 1
        assert stats.information_rate == Fraction(1, 2)
        assert stats.max_cube_dim == 0

    def test_full_dimension_answers_one_without_elimination(self, monkeypatch):
        # k = n: the lattice points are the whole box [0, q-2]^n, which the
        # product rule splits into factors of width q - 2, each with d = 1.
        # The unit cube over F_3 is the benchmark's k = n = 8 shape.
        def refuse(*args):
            raise AssertionError("eliminated a k = n code")

        monkeypatch.setattr(toric, "_systematic", refuse)
        cube = LatticePolytope(list(iproduct((0, 1), repeat=3)))
        for poly, q, n in ((segment(3), 5, 4), (cube, 3, 8), (segment(129), 131, 130)):
            stats = code_stats(poly, q)
            assert (stats.block_length, stats.dimension, stats.min_distance) == (n, n, 1)
            assert stats.relative_min_distance == Fraction(1, n)

    def test_rank_deficient_square_matrix_still_answers_zero(self):
        # minimum_distance itself makes no k = n shortcut
        for q, matrix in ((5, [[1, 2], [2, 4]]), (3, [[1, 0, 1], [0, 1, 1], [1, 1, 2]])):
            code = ToricCode(PrimeField(q), ((0,),) * len(matrix),
                             tuple(map(tuple, matrix)), len(matrix[0]))
            assert minimum_distance(code) == naive_min_distance(matrix, q) == 0

    def test_field_of_two_rejected(self):
        code = build_code(LatticePolytope([(0,)]), 2)
        assert (code.block_length, code.dimension, minimum_distance(code)) == (1, 1, 1)
        with pytest.raises(ValueError, match=r"q >= 3, got q = 2.*\[q-1\]\^n"):
            code_stats(LatticePolytope([(0,)]), 2)

    def test_negative_budget_rejected_before_minimum_distance(self, monkeypatch):
        # only the budget check keeps the triangle's minimum distance, by the
        # product rule and the footprint bound, from running
        def refuse(*args, **kwargs):
            raise AssertionError("computed a minimum distance")

        monkeypatch.setattr(toric, "_product_distance", refuse)
        with pytest.raises(ValueError, match="budget must be >= 0"):
            code_stats(LatticePolytope([(0, 0), (1, 0), (0, 1)]), 5, budget=-1)

    def test_rates_at_most_one(self):
        for poly, q in [(segment(1), 3), (LatticePolytope([(0, 0), (1, 1)]), 5)]:
            stats = code_stats(poly, q)
            assert stats.information_rate <= 1
            assert stats.relative_min_distance <= 1


TRIANGLE = ((0, 0), (1, 0), (0, 1))
PARALLELOGRAM = ((0, 0), (1, 0), (1, 1), (2, 1))  # d = (q - 2)^2, the footprint's L = d - 1


def seeded_products(rng, count, base=TRIANGLE):
    """count distinct seeded products (q, polytope, core), each with q^k <=
    10^5 and placed as the sweep places its codes: boxes prod [0, a_i] of
    dimension 1-3, with a_i = 0 for a one-point factor, and base x [0, b],
    a prism, or at b = 0 base times one point; base is a polygon whose
    lattice points are its vertices.  core is the lattice points left once
    the interval factors are peeled: len(base) for the prism, 0 for a box."""
    out, seen = [], set()
    while len(out) < count:
        q = rng.choice((3, 5, 7, 11))
        if rng.random() < 0.5:
            sides = [rng.randint(0, min(q - 2, 3)) for _ in range(rng.randint(1, 3))]
            verts = {tuple(a * bit for a, bit in zip(sides, bits))
                     for bits in iproduct((0, 1), repeat=len(sides))}
            core = 0
        else:
            if max(map(max, base)) > q - 2:
                continue
            b = rng.randint(0, q - 2)
            verts = {v + (c,) for v in base for c in (0, b)}
            core = len(base)
        poly = LatticePolytope(toric_sweep._place(sorted(verts), q, rng))
        pts = poly.lattice_points()
        if q ** len(pts) <= 10 ** 5 and (q, pts) not in seen:
            seen.add((q, pts))
            out.append((q, poly, core))
    return out


class TestProductRule:
    """code_stats peels interval factors off a polytope's lattice points and
    runs Brouwer-Zimmermann only on the core left."""

    def test_products_against_the_whole_code(self, monkeypatch):
        # d from the factors and the core equals Brouwer-Zimmermann's on the
        # whole matrix.  A cap of 2,000 words, which may stop only codes of
        # more messages, stops no core here (Delta_2 over F_11: 11^3 =
        # 1,331), so code_stats answers the 16 whole codes past it
        draws = seeded_products(random.Random(3201), 60)
        want = [toric._brouwer_zimmermann(build_code(poly, q).matrix, q) for q, poly, _ in draws]
        monkeypatch.setattr(toric, "MESSAGE_CAP", 2000)
        assert [code_stats(poly, q).min_distance for q, poly, _ in draws] == want
        assert sum(q ** len(poly.lattice_points()) > 2000 for q, poly, _ in draws) == 16

    def test_brouwer_zimmermann_sees_only_the_core(self, monkeypatch):
        # a full product needs no search; a search on the parallelogram's
        # products, which the footprint bound leaves open, is on its 4 x
        # (q-1)^2 matrix alone
        seen = []
        bz = toric._brouwer_zimmermann
        monkeypatch.setattr(toric, "_brouwer_zimmermann", lambda matrix, q, *bounds: seen.append(
            (len(matrix), len(matrix[0]))) or bz(matrix, q, *bounds))
        kinds = set()
        for q, poly, core in seeded_products(random.Random(3202), 60, PARALLELOGRAM):
            seen.clear()
            code_stats(poly, q)
            assert seen == ([(core, (q - 1) ** 2)] if core else []), (q, poly.vertices)
            kinds.add((core, poly.dim))
        assert {(0, 1), (0, 2), (0, 3), (4, 3)} <= kinds

    def test_only_the_peel_finishes(self):
        # the parallelogram times [0, a_i] boxes: the footprint bound leaves
        # the whole lattice-point set open, and Brouwer-Zimmermann between
        # its ends stops at MESSAGE_CAP on the whole code, at the bounds
        # given; peeled, the parallelogram's 4 x (q-1)^2 code finishes
        for q, sides, d, capped in ((7, (2,), 100, (96, 100)), (11, (1,), 729, (720, 729)),
                                    (11, (2,), 648, (640, 648)), (13, (1,), 1331, (1320, 1331)),
                                    (7, (1, 1), 625, (600, 625))):
            poly = LatticePolytope([v + c for v in PARALLELOGRAM
                                    for c in iproduct(*((0, a) for a in sides))])
            assert code_stats(poly, q).min_distance == d, (q, sides)
            low, high = toric._footprint(q, set(poly.lattice_points()), poly.dim)
            with pytest.raises(SearchBudgetExceeded) as stop:
                minimum_distance(build_code(poly, q), low, high)
            bounds = stop.value.bounds
            assert (bounds["min_distance_lower"], bounds["min_distance_upper"]) == capped, (q, sides)

    def test_a_product_builds_no_power_row(self, monkeypatch):
        # the refusing spy of test_entry_cap_before_power_rows: d comes from
        # the factors alone, d = 999,979 for [0,3] over F_999983 (whose whole
        # code would hold 4 x 999,982 entries) and 8 * 8 for [0,2]^2 over F_11
        def refuse(*args):
            raise AssertionError("power rows built for a product")

        monkeypatch.setattr(toric, "pow", refuse, raising=False)
        assert code_stats(segment(3), 999983).min_distance == 999979
        square = LatticePolytope([(0, 0), (2, 0), (0, 2), (2, 2)])
        assert code_stats(square, 11).min_distance == 64

    def test_one_code_built_for_the_core(self, monkeypatch):
        # as (points, k, n): the prism parallelogram x [0, 1] builds its
        # parallelogram's code alone, the parallelogram, with no coordinate
        # that splits, builds its own code once, and a box, or a triangle,
        # which the footprint bound settles, builds none
        built = []
        build = toric._points_code

        def spy(field, pts, n):
            code = build(field, pts, n)
            built.append((pts, code.dimension, code.block_length))
            return code

        monkeypatch.setattr(toric, "_points_code", spy)
        prism = LatticePolytope([v + (c,) for c in (0, 1) for v in PARALLELOGRAM])
        parallelogram = LatticePolytope(PARALLELOGRAM)
        triangle = LatticePolytope([(0, 0), (3, 0), (0, 3)])
        box = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 2, 0), (0, 0, 1),
                               (1, 0, 1), (0, 2, 1), (1, 2, 1)])
        for poly, q, want, d in ((prism, 7, [(PARALLELOGRAM, 4, 36)], 25 * 5),
                                 (parallelogram, 7, [(PARALLELOGRAM, 4, 36)], 25),
                                 (triangle, 5, [], 4),
                                 (box, 7, [], 5 * 4 * 5)):
            built.clear()
            assert code_stats(poly, q).min_distance == d
            assert built == want, poly.vertices

    def test_one_primality_test_per_call(self, monkeypatch):
        # _capped_points tests q once and the core's code reuses its field:
        # code_stats on the prism over F_7 and on the triangle over F_5, and
        # build_code on the triangle
        calls = []
        prime = toric.is_prime
        monkeypatch.setattr(toric, "is_prime", lambda q: calls.append(q) or prime(q))
        prism = LatticePolytope([v + (c,) for c in (0, 1) for v in ((0, 0), (1, 0), (0, 1))])
        triangle = LatticePolytope([(0, 0), (3, 0), (0, 3)])
        for run, q in ((lambda: code_stats(prism, 7), 7), (lambda: code_stats(triangle, 5), 5),
                       (lambda: build_code(triangle, 5), 5)):
            calls.clear()
            run()
            assert calls == [q]

    def test_capped_core_scales_its_bounds(self):
        # a code of the sweep: one point (24) times a triangle over F_31, so
        # D = 30, and the cap stops Brouwer-Zimmermann alone on the triangle
        # at 4 <= d <= 780.  Given the footprint bound's 754 <= d <= 840 it
        # stops at 754 <= d <= 780.  On the whole code, alone, it stops at
        # 3 <= d <= 23,400.
        core = build_code(LatticePolytope([(16, 14), (15, 18), (14, 14)]), 31)
        with pytest.raises(SearchBudgetExceeded) as stop:
            minimum_distance(core)
        assert stop.value.bounds == {"min_distance_lower": 4, "min_distance_upper": 780}
        assert toric._footprint(31, set(core.monomials), 2) == (754, 840)
        with pytest.raises(SearchBudgetExceeded) as stop:
            code_stats(LatticePolytope([(24, 16, 14), (24, 15, 18), (24, 14, 14)]), 31)
        assert stop.value.bounds == {"min_distance_lower": 22620, "min_distance_upper": 23400}
        assert str(stop.value).endswith(
            "past the cap of 10000000 words weighed: 22620 <= d <= 23400")

    def test_caps_refuse_a_product_first(self):
        # the caps of the whole polytope's code are checked first, so a box
        # too big to build is refused although its d needs no matrix
        square = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        for poly, q, match in ((square, 2003, "block length"), (segment(4), 999983, "entries")):
            with pytest.raises(ValueError, match=match):
                code_stats(poly, q)


def is_down_set(pts):
    """Whether the point set is a down-set from some corner c of its box:
    with each u it holds every point between c and u.  Brute force, an
    oracle for the footprint bound's tests."""
    pts = set(pts)
    ends = [(min(c), max(c)) for c in zip(*pts)]
    return any(all(set(iproduct(*(range(min(x, y), max(x, y) + 1) for x, y in zip(c, u)))) <= pts
                   for u in pts)
               for c in iproduct(*ends))


def footprint_draws(rng, count):
    """count distinct seeded (q, polytope) with q^k <= 10^5, dimensions 1-3,
    placed as the sweep places its codes: down-sets, the hull of a few
    points with every projection that zeroes some of their coordinates;
    random polytopes, most of them no down-set; and, one draw in ten, the
    parallelogram over F_7 (d = 25, the footprint's L = 24)."""
    out, seen = [], set()
    while len(out) < count:
        dim = rng.choice((1, 2, 2, 2, 3, 3))
        q = rng.choice((3, 5, 7, 11, 13) if dim < 3 else (3, 5))
        top = min(q - 2, 3)
        kind = rng.random()
        if kind < 0.6:
            tips = [tuple(rng.randint(0, top) for _ in range(dim)) for _ in range(rng.randint(2, 3))]
            verts = sorted({tuple(x * b for x, b in zip(v, bits)) for v in tips
                            for bits in iproduct((0, 1), repeat=dim)})
        elif kind < 0.92:
            verts = [tuple(rng.randint(0, top) for _ in range(dim)) for _ in range(rng.randint(2, 5))]
        else:
            q, verts = 7, list(PARALLELOGRAM)
        poly = LatticePolytope(toric_sweep._place(verts, q, rng))
        pts = poly.lattice_points()
        box = len(pts) == prod(hi - lo + 1 for lo, hi in poly.bounding_box())
        if box and rng.random() < 0.6:
            continue  # a box needs only the product rule
        if q ** len(pts) <= 10 ** 5 and (q, pts) not in seen:
            seen.add((q, pts))
            out.append((q, poly))
    return out


class TestFootprint:
    """The footprint bound (toric._footprint) settles a down-set's minimum
    distance with no matrix and brackets the others' for Brouwer-Zimmermann."""

    HEXAGON = ((1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2))  # F_5: L = 6 = d < W = 9
    KITE = ((0, 0), (0, 1), (1, 2), (2, 2))  # 5 points; F_7: L = 24 = d < W = 30

    def test_against_flat_enumeration(self, monkeypatch):
        # d of code_stats, the naive enumeration and Brouwer-Zimmermann on
        # the whole matrix agree; L <= d <= W; a down-set builds no code and
        # tries one orientation, a box's empty core among them.  On the F_5
        # hexagon and the F_7 kite Brouwer-Zimmermann must stop at the
        # floor L = d, not at a word one heavier.  Codes of more than 7^4
        # messages, these among them, are scanned projectively instead of
        # enumerated.
        tried, built = [], []
        bounds, build = toric._orientation_bounds, toric._points_code
        monkeypatch.setattr(toric, "_orientation_bounds",
                            lambda *a: tried.append(a) or bounds(*a))
        monkeypatch.setattr(toric, "_points_code", lambda *a: built.append(a) or build(*a))
        rng = random.Random(3601)
        cases = footprint_draws(rng, 120)
        cases += [(q, LatticePolytope(toric_sweep._place(shape, q, rng)))
                  for q, shape in ((5, self.HEXAGON), (7, self.KITE)) for _ in range(3)]
        kinds = Counter()
        for q, poly in cases:
            pts = poly.lattice_points()
            matrix = build_code(poly, q).matrix
            want = (naive_min_distance(matrix, q) if q ** len(pts) <= 7 ** 4
                    else min_weight_scan(matrix, q, [(0,), (1,)]))
            tried.clear()
            built.clear()
            assert code_stats(poly, q).min_distance == want, (q, poly.vertices)
            assert toric._brouwer_zimmermann(matrix, q) == want, (q, poly.vertices)
            box = len(pts) == prod(hi - lo + 1 for lo, hi in poly.bounding_box())
            if is_down_set(pts):
                assert (len(tried), built) == (1, []), (q, poly.vertices)
                kinds["box" if box else "down-set"] += 1
            else:
                kinds["settled" if not built else "searched"] += 1
            low, high = toric._footprint(q, set(pts), poly.dim)
            assert low <= want <= high, (q, poly.vertices)
        assert kinds == {"box": 29, "down-set": 25, "settled": 2, "searched": 70}, kinds

    def test_capped_brackets_inside_brouwer_zimmermann_alone(self, monkeypatch):
        # under a cap of 300 words, what code_stats states, d or a
        # bracket, lies inside the bracket of Brouwer-Zimmermann alone on
        # the whole code, which the cap stops on 54 of the 150 codes; on 52
        # code_stats states more
        monkeypatch.setattr(toric, "MESSAGE_CAP", 300)

        def bracket(run):
            try:
                d = run()
                return d, d
            except SearchBudgetExceeded as stop:
                return stop.bounds["min_distance_lower"], stop.bounds["min_distance_upper"]

        tighter = capped = 0
        for q, poly in footprint_draws(random.Random(3602), 150):
            low, high = bracket(lambda: code_stats(poly, q).min_distance)
            alone = bracket(lambda: minimum_distance(build_code(poly, q)))
            assert alone[0] <= low <= high <= alone[1], (q, poly.vertices)
            tighter += (low, high) != alone
            capped += alone[0] < alone[1]
        assert (tighter, capped) == (52, 54)

    def test_down_set_past_the_word_cap(self, monkeypatch):
        # P_{10,5}, the 638 0/1 points of weight <= 5 in dimension 10, over
        # F_3: a down-set, so d = 2^5 from its points alone, in one
        # orientation; Brouwer-Zimmermann alone stops at 3 <= d <= 32
        pts = tuple(u for u in iproduct((0, 1), repeat=10) if sum(u) <= 5)
        field = PrimeField(3)
        code = toric._points_code(field, pts, 10)
        with pytest.raises(SearchBudgetExceeded) as stop:
            minimum_distance(code)
        assert stop.value.bounds == {"min_distance_lower": 3, "min_distance_upper": 32}
        tried = []
        bounds = toric._orientation_bounds

        def refuse(*args):
            raise AssertionError("built a code for a down-set")

        monkeypatch.setattr(toric, "_orientation_bounds", lambda *a: tried.append(a) or bounds(*a))
        monkeypatch.setattr(toric, "_points_code", refuse)
        assert toric._product_distance(field, pts, 10) == 32
        assert len(tried) == 1


class TestClosedForms:
    """The sweep's boxes and triangles against their closed forms
    (toric_sweep.closed_form)."""

    def test_boxes_through_code_stats(self, sweep_codes):
        # every box of the sweep, the 20 of more than MESSAGE_CAP messages
        # among them: Brouwer-Zimmermann alone stops 17 of those at the cap
        boxes = [(q, vertices) for family, q, vertices in sweep_codes if family == "box"]
        past = 0
        for q, vertices in boxes:
            poly = LatticePolytope(vertices)
            want = toric_sweep.closed_form("box", q, vertices)
            assert code_stats(poly, q).min_distance == want, (q, vertices)
            past += q ** len(poly.lattice_points()) > toric.MESSAGE_CAP
        assert (len(boxes), past) == (72, 20)

    def test_triangles_against_hansen(self, sweep_codes, subset_lines):
        # minimum_distance gives Hansen's form on each of the 55 triangles of
        # the sweep that the cap cannot stop, and bounds around it on the 4
        # of the subset that it stops; tests/toric_sweep.py checks them all
        cases = [(q, vertices, toric_sweep.outcome(q, vertices))
                 for family, q, vertices in sweep_codes if family == "triangle"
                 and q ** len(LatticePolytope(vertices).lattice_points()) <= toric.MESSAGE_CAP]
        cases += [(q, vertices, line) for (family, q, vertices), line
                  in zip(sweep_codes[::toric_sweep.SUBSET_STRIDE], subset_lines)
                  if family == "triangle" and " <= d <= " in line]
        exact = 0
        for q, vertices, line in cases:
            low, high = toric_sweep.bracket(line)
            assert low <= toric_sweep.closed_form("triangle", q, vertices) <= high, line
            exact += low == high
        assert (exact, len(cases) - exact) == (55, 4)


    def test_subset_against_the_footprint_bound(self, sweep_codes, subset_lines):
        # every eighth code of the sweep: the footprint bound agrees with
        # what Brouwer-Zimmermann alone found (toric_sweep.footprint_miss),
        # settling 39 of the 45, and each of the 6 simplices meets its
        # closed form
        settled = simplices = 0
        for (family, q, vertices), line in zip(sweep_codes[::toric_sweep.SUBSET_STRIDE],
                                               subset_lines):
            assert toric_sweep.footprint_miss(q, vertices, line) is None, line
            low, high = toric._footprint(q, set(LatticePolytope(vertices).lattice_points()),
                                         len(vertices[0]))
            settled += low == high
            if family == "simplex":
                lower, upper = toric_sweep.bracket(line)
                assert lower <= toric_sweep.closed_form(family, q, vertices) <= upper, line
                simplices += 1
        assert (settled, simplices, len(subset_lines)) == (39, 6, 45)


class TestReedSolomonFamily:
    def test_parameters_for_all_segments(self):
        for q in (3, 5, 7, 11, 13):
            for k in range(q - 1):
                if q ** (k + 1) > 10 ** 6:
                    break
                code = build_code(segment(k), q)
                dmin = minimum_distance(code)
                assert (code.block_length, code.dimension, dmin) == (q - 1, k + 1, q - 1 - k)

    def test_segments_past_the_old_cap(self):
        # q^(k+1) > 10^7, where the word cap may stop a run: Brouwer-Zimmermann
        # must still give the Reed-Solomon distance q - 1 - k
        for q in (11, 13):
            for k in range(q - 1):
                if q ** (k + 1) > 10 ** 7:
                    assert minimum_distance(build_code(segment(k), q)) == q - 1 - k, (q, k)


class TestMonotonicity:
    def test_nested_segments(self):
        prev_k, prev_d = 0, 10 ** 9
        for k in range(5):
            code = build_code(segment(k), 7)
            d = minimum_distance(code)
            assert code.dimension >= prev_k and d <= prev_d
            prev_k, prev_d = code.dimension, d

    def test_nested_planar(self):
        small = LatticePolytope([(0, 0), (1, 0), (0, 1)])
        large = LatticePolytope([(0, 0), (2, 0), (0, 2)])
        cs, cl = build_code(small, 5), build_code(large, 5)
        assert cl.dimension >= cs.dimension
        assert minimum_distance(cl) <= minimum_distance(cs)


class TestColumnOrderIndependence:
    def test_shuffled_columns(self, gf_rank):
        code = build_code(LatticePolytope([(0, 0), (1, 0), (0, 1)]), 3)
        rng = random.Random(3)
        cols = list(range(code.block_length))
        for _ in range(5):
            rng.shuffle(cols)
            shuffled = tuple(tuple(row[j] for j in cols) for row in code.matrix)
            assert gf_rank(shuffled, 3) == code.dimension
            shuffled_code = dataclasses.replace(code, matrix=shuffled)
            assert minimum_distance(shuffled_code) == minimum_distance(code)


class TestPolytopeFormat:
    def test_round_trip(self):
        q, poly = parse_polytope("5 2\n0 0\n2 0\n0 2\n")
        assert q == 5 and poly.vertices == ((0, 0), (2, 0), (0, 2))
        assert parse_polytope(format_polytope(q, poly))[1].vertices == poly.vertices

    def test_rejections(self):
        for text in ("", "5\n0\n", "5 2\n0\n", "5 1\n0\nx\n", "5 1\n0\n0\n", "5 1\n"):
            with pytest.raises(ValueError):
                parse_polytope(text)


@pytest.mark.parametrize("vertices, message", [
    ([], "polytope needs at least one vertex"),
    ([(0, 0), (1,)], "vertices have mixed dimensions"),
    ([(0,), (1, 2), (3,)], "vertices have mixed dimensions"),
])
def test_polytope_refusals(vertices, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LatticePolytope(vertices)
