"""Oracles shared by the test modules."""

from typing import Sequence

import pytest

from gridcubes.cubes import CubeNotion, anchored_cubes
from gridcubes.intlinalg import is_primitive_system, rational_rank


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


@pytest.fixture
def gf_rank():
    """Rank over F_q by a Gauss-Jordan elimination of its own, independent
    of toric._systematic."""
    return _gf_rank


def _has_cube_naive(s, r: int, notion) -> bool:
    """Whether S holds an r-cube under notion: the generator tuples of
    cubes.anchored_cubes at r alone, tested for rank and unimodularity
    directly.  Unlike m_value_oracle_all it enumerates no other level."""
    for gens in anchored_cubes(s, r):
        if notion is CubeNotion.VERTEX_INJECTIVE:
            return True
        if rational_rank(gens) == r and (notion is CubeNotion.INDEPENDENT_GENERATORS
                                         or is_primitive_system(gens)):
            return True
    return False


@pytest.fixture
def has_cube_naive():
    """The naive target-mode oracle: does S hold an r-cube under notion."""
    return _has_cube_naive
