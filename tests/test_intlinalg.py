"""Exact rank and primitivity, and the incremental column Euclid behind
both, cross-checked against a minors-gcd oracle."""

import random
from itertools import combinations
from math import gcd

from gridcubes.intlinalg import (
    eliminate,
    is_primitive_system,
    rational_rank,
    reduce_against,
    unit_columns,
)


def det(rows):
    """Laplace expansion, exact integers (tiny matrices only)."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = 0
    for j in range(k):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det(minor)
    return total


def minors_gcd_divisors(mat):
    """Elementary divisors via d_k = gcd of all k x k minors; independent of
    the reduction algorithm under test."""
    m, n = len(mat), len(mat[0]) if mat else 0
    divisors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                g = gcd(g, det([[mat[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def random_matrix(rng):
    """Up to 5 columns and one row more than columns, either count may be
    zero; some matrices get an all-zero row or column, and some a last row
    that is an integer combination of the rows above it."""
    n = rng.randint(0, 5)
    m = rng.randint(0, n + 1)
    r = rng.choice((1, 4))
    mat = [[rng.randint(-r, r) for _ in range(n)] for _ in range(m)]
    if m and rng.random() < 0.15:
        mat[rng.randrange(m)] = [0] * n
    if n and rng.random() < 0.15:
        j = rng.randrange(n)
        for row in mat:
            row[j] = 0
    if m >= 2 and rng.random() < 0.3:
        mat[-1] = [sum(rng.randint(-2, 2) * row[j] for row in mat[:-1]) for j in range(n)]
    return mat


class TestRank:
    def test_examples(self):
        assert rational_rank([(1, 0), (0, 1)]) == 2
        assert rational_rank([(1, 2), (2, 4)]) == 1
        assert rational_rank([(2, 3), (4, 6), (1, 0)]) == 2
        assert rational_rank([]) == 0
        assert rational_rank([(0, 0)]) == 0

    def test_reduce_against_detects_dependence(self):
        cols = unit_columns(3)
        red = reduce_against((2, 4, 6), cols)
        assert red == (2, 4, 6)  # coordinates on the unit columns
        cols = eliminate(red, cols)
        assert len(cols) == 2
        assert reduce_against((1, 2, 3), cols) is None
        assert reduce_against((-4, -8, -12), cols) is None
        assert reduce_against((0, 1, 0), cols) is not None

    def test_random_against_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            mat = random_matrix(rng)
            oracle = len(minors_gcd_divisors(mat))
            assert rational_rank(mat) == oracle


class TestPrimitivity:
    def test_examples(self):
        assert is_primitive_system([(1, 0)])
        assert not is_primitive_system([(2, 0)])
        assert is_primitive_system([(1, 0), (0, 1)])
        assert is_primitive_system([(1, 0), (1, 1)])  # det 1
        assert not is_primitive_system([(1, 1), (1, -1)])  # det -2
        assert not is_primitive_system([(1, 2), (2, 4)])  # rank deficient
        assert is_primitive_system([])

    def test_primitive_iff_unit_divisors(self):
        rng = random.Random(19)
        for _ in range(300):
            mat = random_matrix(rng)
            d = minors_gcd_divisors(mat)
            m = len(mat)
            expected = len(d) == m and all(x == 1 for x in d)
            assert is_primitive_system(mat) == expected


class TestIncrementalEuclid:
    def test_prefixes_against_oracle(self):
        """Rows fed one at a time: reduce_against is None iff the rank does
        not grow, and every gcd so far is 1 iff the prefix is primitive.
        eliminate changes neither argument (sibling search nodes share the
        parent's columns)."""
        rng = random.Random(23)
        for _ in range(300):
            mat = random_matrix(rng)
            cols = unit_columns(len(mat[0])) if mat else []
            rank = 0
            primitive = True
            for i, row in enumerate(mat):
                prefix = mat[: i + 1]
                d = minors_gcd_divisors(prefix)
                red = reduce_against(row, cols)
                assert (red is None) == (len(d) == rank)
                primitive = primitive and red is not None and gcd(*red) == 1
                assert primitive == (len(d) == i + 1 and all(x == 1 for x in d))
                if red is not None:
                    red, before = list(red), list(cols)
                    new = eliminate(red, cols)
                    assert red == list(reduce_against(row, cols)) and cols == before
                    assert len(new) == len(cols) - 1
                    # every row so far is zero on the free columns left
                    assert all(reduce_against(r, new) is None for r in prefix)
                    cols = new
                    rank += 1
                assert rank == len(d)
