"""Seeded property suites: the library checking its own theorems.

Each suite generates pseudorandom instances from a seed, checks one exact
statement on every instance, and reports (checks, violations).  The suites
back the `verify` CLI subcommand and the acceptance tests, which demand
zero violations over large instance counts.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

from .bounds import alpha_of, lower_bound_closed_form, lower_bound_iterated
from .construct import containment_probability
from .cubes import (
    CubeNotion,
    extend_cube,
    f_exhaustive,
    is_cube_in,
    m_value,
    m_value_oracle_all,
)
from .grid import GridParams, PointSet, max_pair_intersection, split_by_prefix


def intersection_lemma_suite(seed: int = 0, count: int = 1000) -> dict:
    """Among t >= ceil(2/c) subsets of [k] of density >= c, some pair meets
    in density at least 2/((2/c)+1)^2; checked exactly per instance."""
    rng = random.Random(seed)
    violations = 0
    for _ in range(count):
        k = rng.randint(4, 40)
        den = rng.randint(2, 6)
        c = Fraction(rng.randint(1, den), den)
        t = math.ceil(Fraction(2) / c) + rng.randint(0, 3)
        size_min = max(1, math.ceil(c * k))
        grid = GridParams(k, 1)
        family = []
        for _ in range(t):
            size = rng.randint(size_min, k)
            family.append(PointSet(grid, [(x,) for x in rng.sample(range(k), size)]))
        _, _, dens = max_pair_intersection(family)
        threshold = 2 / (Fraction(2) / c + 1) ** 2
        if dens < threshold:
            violations += 1
    return {"checks": count, "violations": violations}


def prefix_lemma_suite(seed: int = 0, count: int = 1000) -> dict:
    """M(S) >= M(T_a cap T_b) + 1 witnessed constructively: the lifted cube
    built from an intersection witness must itself sit inside S."""
    rng = random.Random(seed)
    violations = 0
    done = 0
    while done < count:
        N = rng.choice([2, 2, 3])
        n = rng.randint(2, 6 if N == 2 else 4)
        grid = GridParams(N, n)
        density = rng.uniform(0.4, 0.9)
        s = PointSet.from_indices(
            grid, [i for i in range(grid.size) if rng.random() < density]
        )
        if len(s) == 0:
            continue
        r = rng.randint(1, n - 1)
        fibers = split_by_prefix(s, r)
        pair = None
        prefixes = sorted(fibers)
        for i in range(len(prefixes)):
            for j in range(i + 1, len(prefixes)):
                inter = fibers[prefixes[i]].intersection(fibers[prefixes[j]])
                if len(inter) > 0:
                    pair = (prefixes[i], prefixes[j], inter)
                    break
            if pair:
                break
        if pair is None:
            continue  # no two fibers meet; the lemma has nothing to say
        a, b, inter = pair
        m_inner, witness = m_value(inter, CubeNotion.INDEPENDENT_GENERATORS)
        lifted = extend_cube(a, b, witness)
        if lifted.m != m_inner + 1 or not is_cube_in(s, lifted, CubeNotion.INDEPENDENT_GENERATORS):
            violations += 1
        done += 1
    return {"checks": count, "violations": violations}


def hypergeometric_suite(seed: int = 0, count: int = 1000) -> dict:
    """Exact-density containment probability < c^(2^r) for c < 1, checked
    as an exact rational inequality."""
    rng = random.Random(seed)
    violations = 0
    for _ in range(count):
        N = rng.randint(2, 4)
        n = rng.randint(1, 4)
        cells = N ** n
        r = rng.randint(1, min(3, cells.bit_length() - 1))  # keep 2^r <= N^n
        c = Fraction(rng.randint(1, cells - 1), cells)  # c*N^n integral, c < 1
        prod = containment_probability(N, n, r, c)
        if not prod < c ** (2 ** r):
            violations += 1
    return {"checks": count, "violations": violations}


def oracle_suite(seed: int = 0, count: int = 200) -> dict:
    """m_value against the naive oracle: every subset of [2]^3 (including
    agreement that the empty set is rejected) plus `count` seeded random
    subsets of [3]^3, all three notions."""
    violations = 0
    checks = 0
    grid = GridParams(2, 3)
    pts = list(grid.points())
    for mask in range(256):
        s = PointSet(grid, [pts[i] for i in range(8) if mask >> i & 1])
        checks += 1
        if len(s) == 0:
            ok = False
            try:
                m_value(s)
            except ValueError:
                try:
                    m_value_oracle_all(s)
                except ValueError:
                    ok = True
            if not ok:
                violations += 1
            continue
        oracle = m_value_oracle_all(s)
        for notion in CubeNotion:
            if m_value(s, notion)[0] != oracle[notion]:
                violations += 1
    rng = random.Random(seed)
    grid3 = GridParams(3, 3)
    done = 0
    while done < count:
        idxs = [i for i in range(grid3.size) if rng.random() < 0.5]
        if not idxs:
            continue
        s = PointSet.from_indices(grid3, idxs)
        oracle = m_value_oracle_all(s)
        checks += 1
        for notion in CubeNotion:
            if m_value(s, notion)[0] != oracle[notion]:
                violations += 1
        done += 1
    return {"checks": checks, "violations": violations}


def nesting_suite(seed: int = 0, count: int = 300) -> dict:
    """m under UNIMODULAR <= INDEPENDENT_GENERATORS <= VERTEX_INJECTIVE on
    random sets, plus the two fixed separating examples."""
    rng = random.Random(seed)
    violations = 0
    checks = 0

    def check(s: PointSet, expect=None):
        nonlocal violations, checks
        checks += 1
        vals = {notion: m_value(s, notion)[0] for notion in CubeNotion}
        if not (
            vals[CubeNotion.UNIMODULAR]
            <= vals[CubeNotion.INDEPENDENT_GENERATORS]
            <= vals[CubeNotion.VERTEX_INJECTIVE]
        ):
            violations += 1
        if expect is not None and vals != expect:
            violations += 1

    check(
        PointSet(GridParams(5, 1), [(0,), (1,), (2,), (3,)]),
        {
            CubeNotion.VERTEX_INJECTIVE: 2,
            CubeNotion.INDEPENDENT_GENERATORS: 1,
            CubeNotion.UNIMODULAR: 1,
        },
    )
    check(
        PointSet(GridParams(3, 2), [(0, 0), (2, 0), (0, 2), (2, 2)]),
        {
            CubeNotion.VERTEX_INJECTIVE: 2,
            CubeNotion.INDEPENDENT_GENERATORS: 2,
            CubeNotion.UNIMODULAR: 0,
        },
    )
    for _ in range(count - 2):
        N = rng.choice([2, 3, 4, 5])
        n = rng.randint(1, {2: 5, 3: 3, 4: 2, 5: 2}[N])
        grid = GridParams(N, n)
        idxs = rng.sample(range(grid.size), rng.randint(1, grid.size))
        check(PointSet.from_indices(grid, idxs))
    return {"checks": checks, "violations": violations}


def monotonicity_suite(seed: int = 0, count: int = 0) -> dict:
    """f_exhaustive is nonincreasing as c decreases, and both lower bounds
    stay below it, on every exhaustively computable N=2 instance."""
    del seed, count  # the instance list is fixed and exhaustive
    cs = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    violations = 0
    checks = 0
    for n in range(1, 4):
        values = {}
        for c in cs:
            values[c] = f_exhaustive(2, n, c, CubeNotion.INDEPENDENT_GENERATORS)
        for lo, hi in zip(cs, cs[1:]):
            checks += 1
            if values[lo] > values[hi]:
                violations += 1
        for c in cs:
            checks += 1
            if lower_bound_iterated(n, c, 2) > values[c]:
                violations += 1
            if c < 1 and n >= 2:
                if lower_bound_closed_form(n, c, 2, alpha_of(Fraction(1, 2))).value > values[c]:
                    violations += 1
    return {"checks": checks, "violations": violations}


SUITES: dict[str, Callable[..., dict]] = {
    "intersection": intersection_lemma_suite,
    "prefix": prefix_lemma_suite,
    "hypergeometric": hypergeometric_suite,
    "oracle": oracle_suite,
    "nesting": nesting_suite,
    "monotonicity": monotonicity_suite,
}


def run_suite(name: str, seed: int = 0, count: int | None = None) -> dict:
    """Run one named suite (or 'lemmas' = the three lemma suites, or 'all')."""
    if count is not None and count < 0:
        raise ValueError(f"instance count must be >= 0, got {count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if name == "lemmas":
        members = ["intersection", "prefix", "hypergeometric"]
    elif name == "all":
        members = list(SUITES)
    elif name in SUITES:
        members = [name]
    else:
        raise KeyError(name)
    total = {"suite": name, "checks": 0, "violations": 0, "parts": {}}
    for offset, member in enumerate(members):
        kwargs = {"seed": seed + offset}
        if count is not None:
            kwargs["count"] = count
        part = SUITES[member](**kwargs)
        total["checks"] += part["checks"]
        total["violations"] += part["violations"]
        total["parts"][member] = part
    return total
