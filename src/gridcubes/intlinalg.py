"""Exact integer linear algebra for generator systems.

Two questions come up in the cube search: is a set of integer vectors
linearly independent over the rationals, and does it extend to a basis of
the integer lattice Z^n?  The first is answered by fraction-free Gaussian
elimination, the second by reducing the rows to lower triangular form with
unimodular column operations (the system is extendable iff every diagonal
entry is +-1).  Everything is plain Python integers; no floating point is
allowed near these decisions.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

IntVector = Sequence[int]


def _normalize(v: list[int]) -> tuple[int, ...]:
    """Divide out the content and make the leading nonzero entry positive."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g > 1:
        v = [x // g for x in v]
    for x in v:
        if x > 0:
            break
        if x < 0:
            v = [-x for x in v]
            break
    return tuple(v)


def reduce_against(vec: IntVector, reduced: list[tuple[tuple[int, ...], int]]) -> Optional[tuple[int, ...]]:
    """Fraction-free reduction of vec against an echelon list of rows.

    `reduced` holds (row, pivot_index) pairs where each row is zero at the
    pivots of all earlier rows.  Returns the normalized reduced vector, or
    None when vec is a rational combination of the rows.
    """
    v = list(vec)
    for row, piv in reduced:
        if v[piv]:
            a, b = row[piv], v[piv]
            v = [a * x - b * y for x, y in zip(v, row)]
    if not any(v):
        return None
    return _normalize(v)


def pivot_index(row: Sequence[int]) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    raise ValueError("zero row has no pivot")


def rational_rank(rows: Sequence[IntVector]) -> int:
    """Rank over Q of a list of integer vectors."""
    reduced: list[tuple[tuple[int, ...], int]] = []
    for row in rows:
        red = reduce_against(row, reduced)
        if red is not None:
            reduced.append((red, pivot_index(red)))
    return len(reduced)


def is_primitive_system(rows: Sequence[IntVector]) -> bool:
    """True iff the vectors extend to a basis of Z^n.

    Column swaps and subtracting an integer multiple of one column from
    another keep that property, and keep each row's gcd.  Column Euclid
    leaves the first row one nonzero entry, which is +-1 iff the row's gcd
    is 1; the rows then extend iff the rows below do on the other columns,
    so that column is dropped.  Either every row's gcd is 1 and the rows end
    lower triangular [L | 0] with a +-1 diagonal, or the answer is False at
    the first row whose gcd is not 1 (0 when it depends on the rows above,
    or when there are more rows than columns).  The empty system is True.
    """
    a = [list(r) for r in rows]
    while a:
        top = a[0]
        if gcd(*top) != 1:
            return False
        live = [j for j, x in enumerate(top) if x]
        while len(live) > 1:
            p = min(live, key=lambda j: abs(top[j]))
            for j in live:
                if j != p:
                    q = top[j] // top[p]
                    for r in a:
                        r[j] -= q * r[p]
            live = [j for j in live if top[j]]
        p = live[0]
        a = [r[:p] + r[p + 1:] for r in a[1:]]
    return True
