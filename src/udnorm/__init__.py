"""Exact unit-distance graph experiments and perturbation certificates for
planar polygonal norms."""

from .certify import (
    AngleBound,
    NormCertificate,
    OffsetBox,
    certify_box,
    enumerate_admissible,
    eta_separated,
    sample_verify,
    witness_norm,
)
from .checker import check_certificate
from .colored import EdgeColoredGraph, color_cover, min_degree_core, robust_core
from .dependence import (
    DependenceConfig,
    DependenceSystem,
    extract_dependences,
    signed_path_sum,
    verify_on_realization,
)
from .norms import (
    NormOracle,
    OffsetVector,
    SymmetricPolygon,
    choose_delta0,
    hausdorff,
    offset_polygon,
    polygon_approx,
)
from .pointsets import (
    PointSeq,
    flat_side_quadratic,
    grid_pointset,
    subset_sum_pointset,
)
from .ratlin import RatInterval, Vec2, left_null_basis, solve
from .udg import (
    DecoratedUDG,
    build_udg,
    canonical_direction,
    count_unit_distances,
    prune_to_proper,
    verify_realization,
)

__version__ = "0.1.0"
