"""Executable verification of the structure theorems on concrete instances.

Each verifier returns a :class:`TheoremReport` whose dimensions are exact and
reproducible; a failing report always carries a witness that has been
re-checked against the defining predicates before being reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

from .algebra import FDAlgebra, TriangularAlgebra
from .errors import HypothesisNotMet, StructuralMismatch
from .fields import Field
from .linalg import Matrix, Subspace, Vector, unit_vector
from .maps import (
    LinearEndo,
    as_algebra,
    as_endo,
    endo_of_vec,
    inner_automorphism,
    is_automorphism,
    is_left_multiplier,
    is_sigma_derivation,
    predicate,
    solve_space,
)
from .structure import AutParts, compose_automorphism, decompose_generalized, require_trivial_idempotents

POSNER = "posner"
MAYNE = "mayne"
SKEW_ZERO = "skew_zero"
SHARMA_DHARA = "sharma_dhara"
GD_LEFT_MULT = "gd_left_mult"


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    instance: str
    passed: bool
    dimensions: dict[str, int] = dataclass_field(default_factory=dict)
    details: dict = dataclass_field(default_factory=dict)
    witness: Matrix | None = None

    def __bool__(self) -> bool:
        return self.passed


def _sigma_for(t: TriangularAlgebra, sigma) -> LinearEndo:
    if sigma is None:
        return LinearEndo.identity(t.algebra)
    return as_endo(t.algebra, sigma)


def verify_posner(t: TriangularAlgebra, sigma=None, instance: str = "") -> TheoremReport:
    """Twisted derivations that are twisted-centralizing must vanish.

    Computes the two solved spaces and intersects them; passes iff the
    intersection is zero.
    """
    sigma = _sigma_for(t, sigma)
    require_trivial_idempotents(t, sigma, f"{POSNER} with a non-identity twist")
    der = solve_space(t, sigma, "sigma_derivation")
    cent = solve_space(t, sigma, "centralizing")
    inter = der.space.intersect(cent.space)
    witness = None
    rechecked = True
    if inter.dim:
        w = endo_of_vec(t.algebra, inter.basis[0])
        rechecked = bool(is_sigma_derivation(w, sigma)) and bool(predicate(w, sigma, "centralizing"))
        witness = w.matrix
    return TheoremReport(
        POSNER,
        instance or repr(t),
        passed=inter.dim == 0 and rechecked,
        dimensions={
            "twisted_derivations": der.dim,
            "twisted_centralizing": cent.dim,
            "intersection": inter.dim,
        },
        witness=witness,
    )


def verify_skew_zero(t: TriangularAlgebra, sigma=None, instance: str = "") -> TheoremReport:
    """Zero is the only twisted skew-commuting map (char != 2 is guaranteed
    by the admitted fields, so the algebra is 2-torsion-free)."""
    sigma = _sigma_for(t, sigma)
    require_trivial_idempotents(t, sigma, f"{SKEW_ZERO} with a non-identity twist")
    space = solve_space(t, sigma, "skew_commuting")
    witness = None
    rechecked = True
    if space.dim:
        w = space.endos()[0]
        rechecked = bool(predicate(w, sigma, "skew_commuting")) and not w.matrix.is_zero()
        witness = w.matrix
    return TheoremReport(
        SKEW_ZERO,
        instance or repr(t),
        passed=space.dim == 0 and rechecked,
        dimensions={"skew_commuting": space.dim},
        witness=witness,
    )


def verify_sharma_dhara(algebra, instance: str = "") -> TheoremReport:
    """Skew-centralizing maps degenerate to commuting maps (any 2-torsion-free
    algebra with a left identity; here: any unital algebra over our fields)."""
    alg = as_algebra(algebra)
    if not alg.is_unital:
        raise HypothesisNotMet("a (left) identity is required")
    ident = LinearEndo.identity(alg)
    skew = solve_space(alg, ident, "skew_centralizing")
    comm = solve_space(alg, ident, "commuting")
    included = skew.space.leq(comm.space)
    witness = None
    rechecked = True
    if not included:
        bad = next(v for v in skew.space.basis if not comm.space.contains(v))
        w = endo_of_vec(alg, bad)
        rechecked = bool(predicate(w, ident, "skew_centralizing")) and not bool(
            predicate(w, ident, "commuting")
        )
        witness = w.matrix
    return TheoremReport(
        SHARMA_DHARA,
        instance or repr(alg),
        passed=included and rechecked,
        dimensions={"skew_centralizing": skew.dim, "commuting": comm.dim},
        details={"inclusion": included},
        witness=witness,
    )


def verify_gd_left_mult(t: TriangularAlgebra, instance: str = "") -> TheoremReport:
    """Centralizing generalized derivations degenerate to left multipliers.

    Restricts the solved (D, d) pair space to pairs with centralizing D and
    checks, member by member: D is a left multiplier, the partner d is zero,
    and the decomposition has m_d = 0 and ξ = 0.
    """
    ident = LinearEndo.identity(t.algebra)
    pairs = solve_space(t, ident, "generalized_pair")
    cent = solve_space(t, ident, "centralizing")
    mult = solve_space(t, None, "left_multiplier")
    n2 = t.dim * t.dim
    f = t.field
    carrier = [v + (f.zero,) * n2 for v in cent.space.basis]
    carrier += [(f.zero,) * n2 + unit_vector(f, n2, j) for j in range(n2)]
    restricted = pairs.space.intersect(Subspace.from_vectors(f, 2 * n2, carrier))

    all_good = True
    witness = None
    checks = {"left_multiplier": True, "partner_zero": True, "decomposition_trivial": True}
    for v in restricted.basis:
        D = endo_of_vec(t.algebra, v[:n2])
        d = endo_of_vec(t.algebra, v[n2:])
        if not is_left_multiplier(D).ok:
            checks["left_multiplier"] = False
        if not d.matrix.is_zero():
            checks["partner_zero"] = False
        parts = decompose_generalized(t, ident, D, d)
        if any(parts.m_d) or not parts.xi.is_zero():
            checks["decomposition_trivial"] = False
        if not all(checks.values()):
            all_good = False
            witness = D.matrix
            break
    d_components = Subspace.from_vectors(f, n2, [v[:n2] for v in restricted.basis])
    inclusion = d_components.leq(mult.space)
    if not inclusion:
        all_good = False
    return TheoremReport(
        GD_LEFT_MULT,
        instance or repr(t),
        passed=all_good,
        dimensions={
            "generalized_pairs": pairs.dim,
            "centralizing_restriction": restricted.dim,
            "left_multipliers": mult.dim,
        },
        details={"restriction_inside_multipliers": inclusion, **checks},
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Mayne-style sampling


def _random_scalar(field: Field, rng: random.Random, nonzero: bool = False):
    if field.char == 0:
        lo, hi = (-3, 3)
        while True:
            x = field.from_int(rng.randint(lo, hi))
            if x or not nonzero:
                return x
    while True:
        x = field.from_int(rng.randrange(field.char))
        if x or not nonzero:
            return x


def _random_vector(field: Field, n: int, rng: random.Random) -> Vector:
    return tuple(_random_scalar(field, rng) for _ in range(n))


def _random_invertible(algebra: FDAlgebra, rng: random.Random) -> tuple[Vector, Vector]:
    """A random invertible element and its inverse (unital algebras only;
    retries until invertible)."""
    while True:
        u = _random_vector(algebra.field, algebra.dim, rng)
        inv = algebra.left_mul_matrix(u).inverse()
        if inv is not None:
            return u, inv.mul_vec(algebra.unit)


def _sample_parts_automorphism(t: TriangularAlgebra, rng: random.Random) -> LinearEndo:
    """Compose parts: inner f and g, intertwiner ν = s·(u·m·w⁻¹), random m_σ."""
    A, M, B = t.A, t.M, t.B
    field = t.field
    while True:  # the draws of _random_invertible, each u inverted once
        u = _random_vector(field, A.dim, rng)
        try:
            fmat = inner_automorphism(A, u).matrix
            break
        except ValueError:
            pass
    w, w_inv = _random_invertible(B, rng)
    gmat = inner_automorphism(B, w).matrix
    s = _random_scalar(field, rng, nonzero=True)
    nu_cols = [
        tuple(field.mul(s, x) for x in M.act_right(M.act_left(u, M.basis_vector(k)), w_inv))
        for k in range(M.dim)
    ]
    nu = Matrix.from_columns(field, nu_cols, nrows=M.dim)
    m_sigma = _random_vector(field, M.dim, rng)
    return compose_automorphism(t, AutParts(t, fmat, gmat, m_sigma, nu))


def _sample_conjugation_automorphism(t: TriangularAlgebra, rng: random.Random) -> LinearEndo:
    """Conjugation by a random (a, m, b) with a and b invertible, which makes
    it invertible with inverse (a⁻¹, −a⁻¹·m·b⁻¹, b⁻¹)."""
    a, _ = _random_invertible(t.A, rng)
    b, _ = _random_invertible(t.B, rng)
    m = _random_vector(t.field, t.M.dim, rng)
    return inner_automorphism(t.algebra, t.element(a, m, b))


def verify_mayne(t: TriangularAlgebra, samples: int = 50, seed: int = 0, instance: str = "") -> TheoremReport:
    """The identity is the only centralizing automorphism.

    The automorphisms of an algebra are not a linear space, so this is a
    seeded property test: the identity must be commuting, and every sampled
    non-identity automorphism (built from random canonical parts and from
    random conjugations, alternating) must fail the centralizing predicate.
    """
    if not t.trivial_idempotent_components:
        raise HypothesisNotMet("mayne verification needs diagonal algebras decided idempotent-free")
    rng = random.Random(seed)
    ident = LinearEndo.identity(t.algebra)
    identity_commutes = bool(predicate(ident, ident, "commuting"))
    tested = 0
    attempts = 0
    witness = None
    while tested < samples:
        attempts += 1
        if attempts > 50 * samples:
            raise StructuralMismatch("automorphism sampling failed to produce non-identity maps")
        sampler = _sample_parts_automorphism if attempts % 2 else _sample_conjugation_automorphism
        sigma = sampler(t, rng)
        if sigma.is_identity():
            continue
        chk = is_automorphism(sigma)
        if not chk.ok:
            raise StructuralMismatch(f"sampler produced a non-automorphism: {chk.witness}")
        if predicate(sigma, ident, "centralizing").ok:
            witness = sigma.matrix
            break
        tested += 1
    passed = witness is None and identity_commutes
    return TheoremReport(
        MAYNE,
        instance or repr(t),
        passed=passed,
        dimensions={"samples": tested},
        details={"identity_commuting": identity_commutes, "seed": seed},
        witness=witness,
    )
