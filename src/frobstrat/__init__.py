"""Frobenius stratification calculator for rank-3 bundles on a genus-2 curve
in characteristic 3: exact finite-field arithmetic, Harder-Narasimhan polygon
enumeration, the truncated local pull-back model, slope certificates, and the
strata dimension ledger."""

from .gfield import (
    FieldElement,
    FieldSpec,
    ProjectivePoint,
    field_inverse,
    field_make,
    projective_plane,
)
from .localmodel import (
    ModelSpec,
    SubmoduleV,
    SubspaceBasis,
    TensorElement,
    claim_results,
    classify_stratum,
    contains_monomial,
    intersection_colength,
    membership,
    pullback_span,
    quotient_classification,
    stratum_census,
    submodule_from_point,
    tau_power,
    tau_square_span,
    times_t_left,
    times_t_right,
)
from .polygon import (
    EQUAL,
    GREATER_OR_EQUAL,
    INCOMPARABLE,
    LESS_OR_EQUAL,
    OTHER,
    PSI1,
    PSI2,
    PSI3,
    PSI4,
    PSI_LABELS,
    SEMISTABLE,
    CurveParams,
    LatticePolygon,
    bruteforce_destabilized_polygons,
    dominates,
    enumerate_destabilized_polygons,
    make_polygon,
    max_slope_gap,
    name_polygon,
    polygon_of_filtration,
    psi_polygon,
    slopes,
)
from .slopecalc import (
    BundleData,
    CertificateReport,
    SubrankBound,
    canonical_filtration_degrees,
    degree_from_colength,
    embedding_certificate,
    euler_characteristic,
    nonsplit_predicate,
    pullback_degree,
    pushforward_degree,
    stability_certificate,
    sun_upper_bound,
)
from .strata import (
    CURVE_DIM,
    StrataTable,
    StratumRecord,
    dualize_polygon,
    moduli_dimension,
    moduli_stratum_dimension,
    quot_fiber_dimension,
    quot_stratum_dimension,
    strata_table,
)

__version__ = "0.1.0"
