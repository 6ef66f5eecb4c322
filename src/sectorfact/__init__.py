"""Exact verification toolkit for finite orthogonal categories, their
prefactorization operads, double-cone causal geometry in Minkowski space,
and a finite-dimensional sector calculus on nets of matrix algebras."""

__version__ = "0.1.0"

from .linalg import GaussianRational, GMat
from .minkowski import (
    DoubleCone,
    MPoint,
    SpatialConvex,
    WitnessDiagram,
    build_witness,
    causally_disjoint,
    cauchy_lift,
    certify_segment_spacelike,
    check_projection_inequality,
    chron_after,
    cone_contains,
    cone_included,
    homotopy_point,
    project_cone,
    segment_lightcone_hit,
    sq_interval,
)
from .configspace import (
    CausalConfig,
    certify_homotopy,
    sample_causal_config,
)
from .orthcat import (
    GroupActionSpec,
    OrthCategory,
    OrthFunctor,
    check_assumption_extension,
    check_assumption_orthocomplement,
    check_filtered,
    validate_category,
    validate_group_action,
)
from .operad import (
    PrefactOperation,
    compose,
    enumerate_operations,
    permute,
    validate_algebra,
    validate_equivariant_algebra,
    validate_operad,
)
from .sectors import (
    Intertwiner,
    LocalizedEndo,
    MatrixAlg,
    MatrixNet,
    SectorGroupData,
    bicommutant,
    check_haag_duality,
    check_localized,
    check_perp_commutativity,
    check_perp_commutativity_sectors,
    check_transportable,
    commutant,
    diamond,
    diamond_covariance,
    diamond_mor,
    find_covariance,
    g_act_sector,
    pfa_structure_map,
    validate_theorem_3_11,
)

__all__ = [name for name in dir() if not name.startswith("_")]
