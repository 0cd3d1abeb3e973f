"""Exact-arithmetic construction of triangular algebras, solvers for spaces
of structured linear maps (twisted derivations, centralizing maps,
generalized derivations, left multipliers), canonical decompositions, and
machine verification of the corresponding structure theorems.

``structure`` and ``theorems`` sit in ``sys.modules`` unexecuted until the
first access to an attribute (``importlib.util.LazyLoader``; on Python 3.11
that first access is not thread-safe), and ``__getattr__`` serves the names
re-exported from them, so a run that only solves never executes them."""

import importlib.util
import sys

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
    bracket_sigma,
    inner_automorphism,
    is_automorphism,
    is_generalized_pair,
    is_left_multiplier,
    is_sigma_derivation,
    predicate,
    solve_space,
)

def _deferred(name: str):
    """``trialg.<name>``, in ``sys.modules`` but executed on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


structure = _deferred("structure")
theorems = _deferred("theorems")

# every name the package re-exports from a deferred module, with that module
_DEFERRED_NAMES = dict.fromkeys(
    "AutParts CentParts DerParts GenParts MultParts SigmaCenterData commuting_criterion "
    "compose_automorphism compose_centralizing compose_generalized compose_sigma_derivation decompose_automorphism "
    "decompose_centralizing decompose_generalized decompose_left_multiplier decompose_sigma_derivation "
    "decompose_space description_space sigma_center".split(),
    structure,
) | dict.fromkeys(
    "TheoremReport verify_description verify_gd_left_mult verify_mayne verify_posner verify_sharma_dhara "
    "verify_skew_zero".split(),
    theorems,
)


def __getattr__(name: str):
    module = _DEFERRED_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__version__ = "0.1.0"
