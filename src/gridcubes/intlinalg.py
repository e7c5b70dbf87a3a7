"""Exact integer linear algebra for generator systems.

Two questions come up in the cube search: is a set of integer vectors
linearly independent over the rationals, and does it extend to a basis of
the integer lattice Z^n?  One incremental column Euclid answers both.  Rows
are taken one at a time against the free columns, the columns of a
unimodular matrix not yet used up, which start as the unit columns: a row's
free coordinates are its products with them (reduce_against), and
eliminate subtracts integer multiples of one free column from another until
one keeps +-gcd of them, then drops it.  Each eliminated row is then zero on
every free column and lower triangular with a nonzero diagonal on the
dropped ones.  So a row depends on the rows before it iff its free
coordinates are all zero, and if the rows before it extend to a basis, it
keeps that property iff their gcd is 1.  No floating point is allowed near
these decisions.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence

IntVector = Sequence[int]


def unit_columns(n: int, axes: Optional[Iterable[int]] = None) -> list[tuple[int, ...]]:
    """The free columns before any row is eliminated: the unit columns e_j
    of Z^n for j in axes, every j by default.  Rows that are zero off axes
    are independent, or extend to a basis, in Z^n exactly when their
    coordinates on axes are or do in that sublattice."""
    return [tuple(int(i == j) for i in range(n)) for j in (range(n) if axes is None else axes)]


def reduce_against(vec: IntVector, cols: Sequence[IntVector]) -> Optional[tuple[int, ...]]:
    """vec's coordinates on the free columns, or None when they are all zero
    (vec is a rational combination of the rows eliminated so far)."""
    red = tuple(sum(map(mul, vec, c)) for c in cols)
    return red if any(red) else None


def eliminate(red: IntVector, cols: Sequence[IntVector]) -> list[tuple[int, ...]]:
    """The free columns left after eliminating a row with free coordinates
    red (not all zero).  Neither argument is changed."""
    red, cols = list(red), list(cols)
    live = [j for j, x in enumerate(red) if x]
    while len(live) > 1:
        p = min(live, key=lambda j: abs(red[j]))
        for j in live:
            if j != p:
                q = red[j] // red[p]
                red[j] -= q * red[p]
                cols[j] = tuple(a - q * b for a, b in zip(cols[j], cols[p]))
        live = [j for j in live if red[j]]
    del cols[live[0]]
    return cols


def rational_rank(rows: Sequence[IntVector]) -> int:
    """Rank over Q of a list of integer vectors."""
    cols = unit_columns(len(rows[0])) if rows else []
    rank = 0
    for row in rows:
        red = reduce_against(row, cols)
        if red is not None:
            cols = eliminate(red, cols)
            rank += 1
    return rank


def is_primitive_system(rows: Sequence[IntVector]) -> bool:
    """True iff the vectors extend to a basis of Z^n: each row's free
    coordinates have gcd 1 (0 when the row depends on the rows before it, or
    no free column is left).  The empty system is True."""
    cols = unit_columns(len(rows[0])) if rows else []
    for row in rows:
        red = reduce_against(row, cols)
        if red is None or gcd(*red) != 1:
            return False
        cols = eliminate(red, cols)
    return True
