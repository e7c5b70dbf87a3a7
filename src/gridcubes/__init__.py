"""gridcubes: affine hypercubes in dense grid subsets.

Exact computation of the maximal cube dimension M(S) for subsets of [N]^n,
the density machinery and closed-form bounds behind it, seeded resampling
constructions of cube-free sets with certificates, and toric evaluation
codes of small lattice polytopes.
"""

__version__ = "0.1.0"

from .bounds import (
    alpha_of,
    beta,
    c_n_schedule,
    check_eq_ep,
    choose_r_dense,
    choose_r_sparse,
    count_affine_maps_bound,
    inductive_step,
    lll_condition,
    lower_bound_closed_form,
    lower_bound_iterated,
)
from .construct import (
    ConstructStatus,
    ConstructionResult,
    SamplerConfig,
    construct_dense_small_M,
    construct_sparse_bounded_M,
    containment_probability,
    moser_tardos_sample,
    verify_construction,
)
from .cubes import (
    AffineCube,
    CubeNotion,
    DEFAULT_NOTION,
    SearchBudgetExceeded,
    extend_cube,
    f_exhaustive,
    find_cube,
    is_cube_in,
    m_value,
    m_value_oracle_all,
)
from .grid import (
    GridParams,
    PointSet,
    count_heavy_prefixes,
    format_point_set,
    max_pair_intersection,
    parse_point_set,
    split_by_prefix,
)
from .toric import (
    CodeStats,
    LatticePolytope,
    PrimeField,
    ToricCode,
    build_code,
    code_stats,
    format_polytope,
    minimum_distance,
    parse_polytope,
)

__all__ = [name for name in dir() if not name.startswith("_")]
