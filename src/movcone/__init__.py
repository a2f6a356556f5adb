"""Exact movable-cone dynamics and section-count growth for Picard-rank-2
Calabi-Yau threefold models."""

from .chow import (
    CIData,
    MultiProjAmbient,
    TruncPoly,
    ambient_tangent_chern,
    ci_chern,
    integrate,
    intersection_data,
)
from .cones import (
    C2Form,
    Cone2,
    CYModel,
    DivisorClass,
    LatticeMap,
    SigmaData,
    TriForm,
    area_coordinate,
    cone_contains,
    cone_coords,
    eigen_coords,
    eigen_sigma,
    fundamental_domain,
    in_open_movable,
    movable_cone,
    nef_problems,
    reduce_to_domain,
    sigma_problems,
    slope_coordinate,
    validate_model,
)
from .exact import QuadNum, RadicandMismatch, squarefree_decompose
from .growth import (
    FitReport,
    RounddownReport,
    SweepRecord,
    estimate_exponent,
    floor_class,
    geometric_grid,
    rounddown_check,
    sweep,
    write_csv,
)
from .hilbert import (
    BiPoly,
    BiPolyRing,
    FitInconsistency,
    IdealSpec,
    PolyParseError,
    RankDisagreement,
    default_sample_grid,
    fit_chi,
    hilbert_dim,
    load_ideal_file,
    merge_ideals,
    parse_ideal_text,
    parse_poly,
)
from .models import (
    ModelFile,
    ModelParseError,
    bundled_model_path,
    list_bundled_models,
    load_model,
    parse_model_text,
    save_model,
)
from .riemann_roch import ChamberCoveringError, chi_nef, h0_movable

__version__ = "0.1.0"
