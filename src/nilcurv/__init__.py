"""Curvature of left-invariant metrics on nilpotent Lie algebras.

Exact structure-constant algebra, Ricci/sectional curvature, diagonal
metric deformations with scaled Ricci limits and closed-form extremal
directions, metric-independent curvature-sign classification, and the
structural trichotomy behind the Ricci-extremal density results.
"""

from .algebra import NilpotentAlgebra, Subspace, ValidationReport
from .catalog import CatalogEntry, build, list_catalog
from .curvature import (
    Metric,
    MetricError,
    RicciReport,
    ricci_frame,
    ricci_operator,
    sectional_K,
    sectional_kappa,
)
from .classification import (
    ClassificationError,
    StructureVerdict,
    check_rk5,
    check_rk7,
    classify,
    cocycle_class_certificate,
    derivation_class_certificate,
    derivation_dimension,
    invariant_tuple,
    lemma6_classify,
    lemma7_classify,
    max_dimL_exact,
    restrict,
    shape_of_L,
    theorem2_expected_M,
)
from .deformation import (
    CandidateError,
    ConvergenceTrace,
    DeformationSpec,
    ExtremalCandidate,
    OverflowGuardError,
    ScaledRicciLimit,
    candidate_e1u2,
    candidate_T1_T2,
    complement_frame,
    convergence_check,
    deformed_ricci,
    deformed_ricci_frame,
    extremal_T,
    lemma5_candidates,
    lemma5a_deformation,
    projective_distance,
    scaled_ricci_limit,
    spec_for_pattern,
    two_step_deformation,
    worst_gap,
)
from .frames import FRAME_KEYS, NormalFormFrame, normal_form_frame
from .io import FormatError, load_algebra, load_deformation, load_gram, save_algebra
from .sign_sets import (
    PreconditionError,
    SignWitness,
    WitnessSearchError,
    classify_plane,
    classify_ric_vector,
    find_negative_K_witness,
    find_negative_ric_witness,
    find_positive_ric_witness,
    secdef_coefficients,
)
from .verify import run_suite

__all__ = [
    "NilpotentAlgebra", "Subspace", "ValidationReport",
    "CatalogEntry", "build", "list_catalog",
    "Metric", "MetricError", "RicciReport",
    "ricci_frame", "ricci_operator", "sectional_K", "sectional_kappa",
    "CandidateError", "ConvergenceTrace", "DeformationSpec",
    "ExtremalCandidate", "OverflowGuardError", "ScaledRicciLimit",
    "candidate_e1u2", "candidate_T1_T2", "complement_frame",
    "convergence_check", "deformed_ricci", "deformed_ricci_frame",
    "extremal_T",
    "lemma5_candidates", "lemma5a_deformation", "projective_distance",
    "scaled_ricci_limit", "spec_for_pattern", "two_step_deformation",
    "worst_gap",
    "FRAME_KEYS", "NormalFormFrame", "normal_form_frame",
    "FormatError", "load_algebra", "load_deformation", "load_gram",
    "save_algebra",
    "PreconditionError", "SignWitness", "WitnessSearchError",
    "classify_plane", "classify_ric_vector", "find_negative_K_witness",
    "find_negative_ric_witness", "find_positive_ric_witness",
    "secdef_coefficients",
    "ClassificationError", "StructureVerdict", "check_rk5", "check_rk7",
    "classify", "cocycle_class_certificate", "derivation_class_certificate",
    "derivation_dimension", "invariant_tuple", "lemma6_classify",
    "lemma7_classify", "max_dimL_exact", "restrict",
    "shape_of_L", "theorem2_expected_M",
    "run_suite",
]

__version__ = "0.1.0"
