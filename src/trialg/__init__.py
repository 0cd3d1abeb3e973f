"""Exact-arithmetic construction of triangular algebras, solvers for spaces
of structured linear maps (twisted derivations, centralizing maps,
generalized derivations, left multipliers), canonical decompositions, and
machine verification of the corresponding structure theorems."""

from .algebra import (
    Bimodule,
    CenterData,
    FDAlgebra,
    TriangularAlgebra,
    center,
    center_subspace,
    sigma_center_subspace,
    trivial_idempotents,
)
from .errors import (
    AssociativityViolation,
    BimoduleAxiomViolation,
    ConditionFailure,
    ConfigError,
    HypothesisNotMet,
    InvalidParts,
    NotAutomorphism,
    NotFaithful,
    PredicateNotSatisfied,
    ReconstructionMismatch,
    StructuralMismatch,
    TrialgError,
    UnitViolation,
    ZeroModule,
)
from .families import (
    Fixture,
    block_algebra,
    block_upper,
    fixture_n3,
    fixture_trian_AA0,
    full_matrix_algebra,
    trian_trunc,
    trunc_poly,
    upper_triangular,
)
from .fields import GF, QQ, PrimeField, RationalField, field_from_spec
from .linalg import Matrix, Subspace, kernel_basis, solve_linear
from .maps import (
    CheckResult,
    LinearEndo,
    MapSpace,
    Witness,
    abracket_sigma,
    associated_derivations,
    bracket_sigma,
    inner_automorphism,
    is_automorphism,
    is_derivation,
    is_generalized_pair,
    is_left_multiplier,
    is_sigma_derivation,
    predicate,
    solve_space,
)
from .structure import (
    AutParts,
    CentParts,
    DerParts,
    GenParts,
    MultParts,
    SigmaCenterData,
    centralizing_conditions,
    commuting_criterion,
    compose_automorphism,
    compose_centralizing,
    compose_generalized,
    compose_sigma_derivation,
    decompose_automorphism,
    decompose_centralizing,
    decompose_generalized,
    decompose_left_multiplier,
    decompose_sigma_derivation,
    sigma_center,
)
from .theorems import (
    TheoremReport,
    verify_gd_left_mult,
    verify_mayne,
    verify_posner,
    verify_sharma_dhara,
    verify_skew_zero,
)

__version__ = "0.1.0"
