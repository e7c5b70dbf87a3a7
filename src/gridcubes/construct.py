"""Seeded randomized constructions of cube-free sets with certificates.

Two constructions are exposed: dense sets (density following the schedule
c_n) with no r-cube for r slightly above log2(n), and sparse near-full-entropy
sets with no r-cube for a fixed r depending only on the target entropy gap.
Both run the same resampling loop: sample every cell independently with
probability p, find a violating cube, redraw exactly its vertex cells, and
repeat.  Violation detection is the cube search itself: the bad events
(the vertex sets of all r-cubes of the grid) are never listed.

The sampler's own searches prove the returned set cube-free, so a
construction runs no second search:
- each round's set is a subset of the last, since every redrawn cell is a
  vertex of a cube inside the set and a redraw keeps it or drops it;
- round i's search, whose first cube has base cell iz, shows that no cube
  is based below iz, in its set and so in every later one, and the next
  round searches only the cells from iz up;
- the last round's "none" covers the rest.
A certificate's `verified` is the sampler's success, and its witness the
last round's cube; failure and budget exhaustion are first-class, clearly
distinguished outcomes.  verify_construction searches a set afresh.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor
from typing import Callable, Optional

from .bounds import (
    c_n_schedule,
    check_eq_ep,
    choose_r_dense,
    choose_r_sparse,
    count_affine_maps_bound,
    lll_condition,
)
from .cubes import (
    AffineCube,
    CubeNotion,
    DEFAULT_BUDGET,
    DEFAULT_NOTION,
    DEFAULT_SEED,
    GridBox,
    _check_budget,
    _search,
    find_cube,
)
from .exactmath import pow_at_least, require_bits
from .grid import GridParams, PointSet

PRINT_DIGITS = 4300  # Python's default limit on the digits of a printed int
DEFAULT_MAX_ROUNDS = 10 ** 5


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for one resampling run; a fixed config pins the run exactly."""

    p: Fraction
    seed: int = DEFAULT_SEED
    max_rounds: int = DEFAULT_MAX_ROUNDS
    notion: CubeNotion = DEFAULT_NOTION
    search_budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 < self.p < 1:
            raise ValueError(f"inclusion probability must lie in (0, 1), got {self.p}")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.search_budget < 0:
            raise ValueError(f"search_budget must be >= 0, got {self.search_budget}")


@dataclass(frozen=True)
class SampleOutcome:
    point_set: PointSet
    rounds: int
    success: bool
    last_violation: Optional[AffineCube]


def moser_tardos_sample(grid: GridParams, r: int, config: SamplerConfig) -> SampleOutcome:
    """Resample violating r-cubes until none remain or rounds run out.

    Deterministic for a fixed config: one random stream drives both the
    initial sample (one draw per cell, in the index order of
    GridParams.point_of) and every redraw, the violating cube is always the
    canonically smallest one, and its cells are redrawn in that order.  The
    current set is a cell mask of the grid's GridBox, kept by
    cubes._grid_box with the boxes of seven other geometries, so every
    round's search, and every search of a later call on the same grid, even
    after searches on other geometries, shares what the box keeps: its
    decoded cells, guard masks and unit columns, and the index map that
    takes point_of indices to cells, built by the first call on the grid.
    A round reads the violating cube's vertex cells straight from the
    search's answer, and the PointSet, and the last violation's AffineCube
    when rounds run out, are built once, at return.
    A round searches the set with the cells below the last cube's base
    cleared (see above), and finds the cube a search of the whole set
    would, so the rounds, the random stream and the outcome do not change;
    the whole set is what is redrawn and returned.  A search-budget blowup
    propagates as SearchBudgetExceeded (the outcome is then unknown, which
    is different from an honest failure).
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    grid.require_materializable("sample")
    rng = random.Random(config.seed)
    p = float(config.p)
    box = GridBox.of_grid(grid)
    cell_of = box.index_map()
    included = box.mask(cell_of(idx) for idx in range(grid.size) if rng.random() < p)
    rounds = 0
    searched = included  # the cells of included at or above the last cube's base
    while True:
        cells = _search(box, searched, config.notion, r, config.search_budget).cells
        if cells is None or rounds >= config.max_rounds:
            current = PointSet._of_checked(grid, map(box.point, box.cells_of(included)))
            return SampleOutcome(current, rounds, cells is None, box.cube(cells) if cells else None)
        # cell_of reverses the n base-N digits of an index, so it also takes
        # a cell to its point_of index
        for k in sorted(box.vertex_cells(cells), key=cell_of):
            bit = 1 << k
            included = included | bit if rng.random() < p else included & ~bit
        searched = included & (-1 << cells[0])
        rounds += 1


@dataclass(frozen=True)
class VerifyReport:
    verified: bool
    witness: Optional[AffineCube]
    density: Fraction
    cardinality: int

    def to_dict(self, notion: CubeNotion = DEFAULT_NOTION) -> dict:
        """Self-contained JSON-ready form; certificate_dict embeds it as is."""
        out = {
            "density_num": self.density.numerator,
            "density_den": self.density.denominator,
            "cardinality": self.cardinality,
            "verified": self.verified,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_record(notion)
        return out


def verify_construction(
    s: PointSet,
    r: int,
    notion: CubeNotion = DEFAULT_NOTION,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """Search S for an r-cube, r >= 1, and count S.  A budget blowup
    raises (inconclusive); it never reports verified."""
    _check_budget(budget)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")  # every nonempty set holds a 0-cube
    witness = find_cube(s, r, notion, budget=budget)
    return VerifyReport(witness is None, witness, s.density(), len(s))


class ConstructStatus(enum.Enum):
    VERIFIED = "verified"
    NO_VALID_R = "no-valid-r"
    CUBE_PERSISTS = "cube-persists"
    DENSITY_MISSED = "density-missed"
    SIZE_MISSED = "size-missed"


@dataclass(frozen=True)
class ConstructionResult:
    status: ConstructStatus
    r: Optional[int]
    point_set: Optional[PointSet]
    certificate: Optional[dict]
    detail: str = ""


def certificate_dict(
    grid: GridParams,
    r: int,
    notion: CubeNotion,
    p: Fraction,
    seed: int,
    rounds: int,
    report: VerifyReport,
    extras: Optional[dict] = None,
) -> dict:
    """Serializable run certificate with a stable field order."""
    cert = {
        "grid": {"base": grid.base, "dim": grid.dim},
        "r": r,
        "notion": notion.value,
        "p": str(p),
        "seed": seed,
        "rounds": rounds,
        **report.to_dict(notion),
    }
    if extras:
        cert.update(extras)
    return cert


def _sample_and_certify(grid: GridParams, r: int, config: SamplerConfig,
                        extras: Callable[[VerifyReport], dict]) -> ConstructionResult:
    """Resample at config.p and certify the set from the sampler's own
    searches (see above): CUBE_PERSISTS when its rounds ran out, else
    VERIFIED, which the caller may turn into a missed target."""
    outcome = moser_tardos_sample(grid, r, config)
    s = outcome.point_set
    report = VerifyReport(outcome.success, outcome.last_violation, s.density(), len(s))
    cert = certificate_dict(grid, r, config.notion, config.p, config.seed, outcome.rounds,
                            report, extras(report))
    if not outcome.success:
        return ConstructionResult(ConstructStatus.CUBE_PERSISTS, r, s, cert,
                                  detail=f"an {r}-cube persisted after {outcome.rounds} rounds")
    return ConstructionResult(ConstructStatus.VERIFIED, r, s, cert)


def sparse_exponent_chain(n: int, N: int, eps, r: int) -> dict:
    """Symbolic evaluation of the sparse feasibility chain.

    The headline comparison is the final exponent n(r+3) - 2^(r-1) eps n,
    negative exactly when r was chosen large enough; the looser middle step
    additionally needs eps*n >= 2.  Both are reported, together with the
    exact LLL comparison at L = N^(n(r+1)).
    """
    eps = Fraction(eps)
    exponent = n * (r + 3) - 2 ** (r - 1) * eps * n
    middle_ok = eps * n >= 2
    p = Fraction(1, N ** floor(eps * n)) if floor(eps * n) >= 1 else None
    exact_lll = None
    if p is not None and 2 ** r <= 10 ** 4:
        exact_lll = lll_condition(count_affine_maps_bound(N, n, r), p, r)
    return {
        "final_exponent": str(exponent),
        "final_exponent_negative": exponent < 0,
        "middle_step_valid": bool(middle_ok),
        "lll_condition_at_count_bound": exact_lll,
    }


def containment_probability(N: int, n: int, r: int, c) -> Fraction:
    """Probability that a uniform exact-density-c subset contains a fixed
    2^r-point set: the product of (cN^n - i)/(N^n - i) over i < 2^r.
    Needs r >= 0, 0 <= c <= 1 and c N^n an integer (the subset's size)."""
    c = Fraction(c)
    cells = N ** n
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if not 0 <= c <= 1:
        raise ValueError(f"c must lie in [0, 1], got {c}")
    if (c * cells).denominator != 1:
        raise ValueError(f"c * N^n = {c * cells} must be an integer")
    if 2 ** r > cells:
        return Fraction(0)  # no 2^r-point set fits in the grid at all
    prod = Fraction(1)
    for i in range(2 ** r):
        prod *= (c * cells - i) / (cells - i)
    return prod


def construct_dense_small_M(
    n: int,
    N: int,
    eps,
    seed: int = DEFAULT_SEED,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    budget: int = DEFAULT_BUDGET,
    notion: CubeNotion = DEFAULT_NOTION,
) -> ConstructionResult:
    """Dense set with no r-cube, r strictly between (1+eps/2)log2(n) and
    (1+eps)log2(n), at inclusion probability c_n.

    Success needs a cube-free set, certified by the sampler's searches,
    whose realized density sits within three binomial standard deviations
    of c_n.  At desk scale the feasibility inequality may simply fail, and
    an honest failure (or a budget blowup, raised) is a legitimate outcome.
    """
    eps = Fraction(eps)
    grid = GridParams(N, n)
    grid.require_materializable("sample")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if seed < 0:  # SamplerConfig's check, which the early returns below skip
        raise ValueError(f"seed must be >= 0, got {seed}")
    _check_budget(budget)
    r = choose_r_dense(n, eps)
    if r is None:
        return ConstructionResult(
            ConstructStatus.NO_VALID_R, None, None, None,
            detail=f"no integer strictly inside ((1+eps/2)log2({n}), (1+eps)log2({n}))",
        )
    p = c_n_schedule(n, N)
    eq_ep = check_eq_ep(n, eps, N)
    extras = {
        "eq_ep_holds": eq_ep.holds,
        "eq_ep_lhs": eq_ep.lhs,
        "eq_ep_rhs": eq_ep.rhs if p else None,  # log(1/c_n) is infinite at c_n = 0
    }
    if p == 0:
        # Degenerate schedule (n < N^N): the empty set is trivially cube-free.
        report = VerifyReport(True, None, p, 0)  # the empty set has density c_n = 0
        cert = certificate_dict(grid, r, notion, p, seed, 0, report, extras)
        return ConstructionResult(ConstructStatus.VERIFIED, r, PointSet.empty(grid), cert,
                                  detail="degenerate schedule c_n = 0")
    config = SamplerConfig(p=p, seed=seed, max_rounds=max_rounds,
                           notion=notion, search_budget=budget)
    res = _sample_and_certify(grid, r, config, lambda report: extras)
    density = res.point_set.density()
    # density < c_n - 3 sigma, sigma^2 = c_n (1 - c_n) / N^n, decided exactly
    if (res.status is ConstructStatus.VERIFIED and p > density
            and (p - density) ** 2 > 9 * p * (1 - p) / grid.size):
        return replace(res, status=ConstructStatus.DENSITY_MISSED,
                       detail=f"density {density} below c_n - 3 sigma")
    return res


def construct_sparse_bounded_M(
    n: int,
    N: int,
    eps,
    seed: int = DEFAULT_SEED,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    budget: int = DEFAULT_BUDGET,
    notion: CubeNotion = DEFAULT_NOTION,
) -> ConstructionResult:
    """Sparse set of size at least N^((1-eps)n) with no r-cube for the fixed
    r = choose_r_sparse(eps), at inclusion probability N^(-floor(eps n)).

    The size test is an exact big-integer comparison; missing it is an
    outcome distinct from a persisting cube.
    """
    eps = Fraction(eps)
    grid = GridParams(N, n)
    grid.require_materializable("sample")
    r = choose_r_sparse(eps)
    exponent = floor(eps * n)
    if exponent < 1:
        raise ValueError(f"eps*n = {eps * n} < 1 gives inclusion probability 1; increase n")
    require_bits(exponent * N.bit_length(), "the inclusion probability N^-floor(eps*n)")
    p = Fraction(1, N ** exponent)
    # 10^PRINT_DIGITS has more than 3 PRINT_DIGITS bits: most p skip the power
    if p.denominator.bit_length() > 3 * PRINT_DIGITS and p.denominator >= 10 ** PRINT_DIGITS:
        raise ValueError(
            f"eps = {eps} is too large: the inclusion probability {N}^-{exponent} needs "
            f"over {PRINT_DIGITS} decimal digits, too many for its certificate"
        )
    config = SamplerConfig(p=p, seed=seed, max_rounds=max_rounds,
                           notion=notion, search_budget=budget)
    res = _sample_and_certify(grid, r, config, lambda report: {
        "size_target": f"{N}^({n}*(1-{eps}))",
        "size_target_met": pow_at_least(report.cardinality, (1 - eps) * n, N),
        "exponent_chain": sparse_exponent_chain(n, N, eps, r),
    })
    if res.status is ConstructStatus.VERIFIED and not res.certificate["size_target_met"]:
        return replace(res, status=ConstructStatus.SIZE_MISSED,
                       detail=f"|S| = {len(res.point_set)} below the size target")
    return res
