"""Dilations, inner multipliers and distinguished-variety norm bounds for
commuting contractive matrix pairs."""

from .colligation import Colligation, build_colligation, defect_series_residuals
from .dilation import (
    TruncatedDilation,
    build_dilation,
    compression_residuals,
    intertwining_residuals,
    minimality_defect,
    mpsi_isometry_residual,
)
from .errors import (
    AndovarError,
    ChainViolationError,
    CommutationError,
    ContractionError,
    DimensionMismatchError,
    InputError,
    NumericError,
    PurityError,
    ValidationError,
)
from .pair_analysis import (
    ContractionPair,
    DefectData,
    PairReport,
    Tolerances,
    defect,
    generate_pair,
    truncation_degree,
    validate_pair,
)
from .transfer import (
    Analysis,
    BoundaryScan,
    CanonicalSplit,
    TransferFunction,
    adjoint_transfer,
    analyze,
    boundary_scan,
    canonical_split,
    cnu_part,
    eval_tau,
    eval_tau_many,
    schur_identity_residual,
    split_residual,
    taylor_symbols,
)
from .variety import (
    VarietySample,
    boundary_samples,
    fibers,
    joint_eig_membership,
    symmetry_residual,
)
from .vn import (
    BivariatePolynomial,
    VNReport,
    eval_poly_pair,
    sup_on_bidisc,
    sup_on_variety,
    vn_report,
)

__version__ = "0.1.0"
