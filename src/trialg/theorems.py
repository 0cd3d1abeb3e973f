"""Executable verification of the structure theorems on concrete instances.

Each verifier returns a :class:`TheoremReport` whose dimensions are exact and
reproducible.  A verifier takes no label for its instance: the CLI names the
instance in its own record.  Posner, skew-zero, Sharma–Dhara and
gd_left_mult are each one inclusion of solved spaces, and each ends in
:func:`_inclusion`, the one body of their verdict and report.  A failing
report carries a witness that :func:`_counterexample` builds and rechecks
against the defining predicates: for Posner, a σ-derivation that is
σ-centralizing; skew-zero, a skew-commuting map; Sharma–Dhara, a
skew-centralizing map that is not commuting; gd_left_mult, a generalized pair
(D, d) with centralizing D and d ≠ 0 or D no left multiplier; and the
description, a map on which the defining identity holds and a description
group fails (C outside K), or every group holds and the identity fails (K
outside C).  A witness that fails its recheck raises StructuralMismatch.
Mayne's verifier runs :func:`~trialg.maps.is_automorphism` on every sample
before it tests it, and raises StructuralMismatch if one fails.
"""

from __future__ import annotations

import random

from .algebra import FDAlgebra, TriangularAlgebra, require_hypotheses
from .errors import HypothesisNotMet, StructuralMismatch
from .fields import Field
from .linalg import Matrix, Subspace, Vector
from .maps import (
    LinearEndo,
    endo_of_vec,
    inner_automorphism,
    is_automorphism,
    is_generalized_pair,
    is_left_multiplier,
    is_sigma_derivation,
    predicate,
    resolve_twist,
    solve_space,
)
from .records import Record, field
from .structure import DESCRIPTION_KINDS, _IDENTITIES, _entries
from .structure import description_conditions, description_space

POSNER = "posner"
MAYNE = "mayne"
SKEW_ZERO = "skew_zero"
SHARMA_DHARA = "sharma_dhara"
GD_LEFT_MULT = "gd_left_mult"
DESCRIPTION = "description"


class TheoremReport(Record):
    theorem: str
    passed: bool
    dimensions: dict[str, int] = field(factory=dict)
    details: dict = field(factory=dict)
    witness: Matrix | None = None

    def __bool__(self) -> bool:
        return self.passed


def _counterexample(t, vectors, inside: Subspace | None, recheck) -> Matrix | None:
    """The first of ``vectors`` outside ``inside`` (None: zero) as a matrix of
    n columns (a pair's D above its d), or None; StructuralMismatch if the
    verifier's ``recheck`` (see the module docstring) rejects its maps (one
    map, or D then d)."""
    n = t.dim
    for v in vectors:
        if inside is None or not inside.contains(v):
            if not recheck(*(endo_of_vec(t, v[r : r + n * n]) for r in range(0, len(v), n * n))):
                raise StructuralMismatch("a counterexample fails its defining predicates")
            return Matrix(t.field, [v[r : r + n] for r in range(0, len(v), n)], ncols=n)
    return None


def _inclusion(theorem: str, t, dimensions: dict[str, int], vectors, inside: Subspace | None, recheck) -> TheoremReport:
    """The report of the statement that ``vectors`` span a subspace of
    ``inside`` (None: the zero space): it passes iff :func:`_counterexample`
    finds no witness, and when ``inside`` is a space the verdict is also
    ``details["inclusion"]``."""
    witness = _counterexample(t, vectors, inside, recheck)
    details = {} if inside is None else {"inclusion": witness is None}
    return TheoremReport(theorem, passed=witness is None, dimensions=dimensions, details=details, witness=witness)


def verify_posner(t: FDAlgebra, sigma=None) -> TheoremReport:
    """Twisted derivations that are twisted-centralizing must vanish.

    Computes the two solved spaces and intersects them; passes iff the
    intersection is zero.  Runs on any algebra under the identity twist.
    """
    sigma = resolve_twist(t, sigma)
    require_hypotheses(t, None, f"{POSNER} with a non-identity twist", sigma)
    der = solve_space(t, sigma, "sigma_derivation")
    cent = solve_space(t, sigma, "centralizing")
    inter = der.space.intersect(cent.space)

    def recheck(w):
        return is_sigma_derivation(w, sigma).ok and predicate(w, sigma, "centralizing").ok

    dimensions = {"twisted_derivations": der.dim, "twisted_centralizing": cent.dim, "intersection": inter.dim}
    return _inclusion(POSNER, t, dimensions, inter.basis, None, recheck)


def verify_skew_zero(t: FDAlgebra, sigma=None) -> TheoremReport:
    """Zero is the only twisted skew-commuting map (char != 2 is guaranteed
    by the admitted fields, so the algebra is 2-torsion-free).  Runs on any
    algebra under the identity twist."""
    sigma = resolve_twist(t, sigma)
    require_hypotheses(t, None, f"{SKEW_ZERO} with a non-identity twist", sigma)
    space = solve_space(t, sigma, "skew_commuting")

    def recheck(w):
        return predicate(w, sigma, "skew_commuting").ok

    return _inclusion(SKEW_ZERO, t, {"skew_commuting": space.dim}, space.space.basis, None, recheck)


def verify_sharma_dhara(alg: FDAlgebra) -> TheoremReport:
    """Skew-centralizing maps degenerate to commuting maps (any 2-torsion-free
    algebra with a left identity; here: any unital algebra over our fields)."""
    if not alg.is_unital:
        raise HypothesisNotMet("a (left) identity is required")
    ident = LinearEndo.identity(alg)
    skew = solve_space(alg, ident, "skew_centralizing")
    comm = solve_space(alg, ident, "commuting")

    def recheck(w):
        return predicate(w, ident, "skew_centralizing").ok and not predicate(w, ident, "commuting").ok

    dimensions = {"skew_centralizing": skew.dim, "commuting": comm.dim}
    return _inclusion(SHARMA_DHARA, alg, dimensions, skew.space.basis, comm.space, recheck)


def verify_gd_left_mult(t: TriangularAlgebra) -> TheoremReport:
    """Centralizing generalized derivations degenerate to left multipliers.

    Restricts the solved (D, d) pair space to the pairs R with centralizing
    D, and passes iff R lies in L × {0}, the solved left-multiplier space L
    with a zero partner.  A failure carries the first basis vector of R
    outside L × {0}, a pair whose d is nonzero or whose D is no left
    multiplier, as a matrix of n columns, D's rows above d's.
    """
    require_hypotheses(t, GD_LEFT_MULT)
    ident = LinearEndo.identity(t)
    pairs = solve_space(t, ident, "generalized_pair")
    cent = solve_space(t, ident, "centralizing")
    mult = solve_space(t, None, "left_multiplier")
    n2 = t.dim * t.dim
    restricted = pairs.space.restrict(cent.space, lambda v: v[:n2])
    # zeros appended to an RREF basis leave it in RREF, with the same pivots
    padded = [v + (t.field.zero,) * n2 for v in mult.space.basis]
    mult_pairs = Subspace(t.field, 2 * n2, padded, mult.space.pivots)

    def recheck(D, d):
        return (
            is_generalized_pair(D, d, ident).ok
            and predicate(D, ident, "centralizing").ok
            and (not d.matrix.is_zero() or not is_left_multiplier(D).ok)
        )

    dimensions = {
        "generalized_pairs": pairs.dim,
        "centralizing_restriction": restricted.dim,
        "left_multipliers": mult.dim,
    }
    return _inclusion(GD_LEFT_MULT, t, dimensions, restricted.basis, mult_pairs, recheck)


def verify_description(t: TriangularAlgebra, sigma=None) -> TheoremReport:
    """The paper's precise descriptions, each as one space equality.

    For every kind of :data:`trialg.structure.DESCRIPTION_KINDS` the kernel
    K of the description (:func:`trialg.structure.description_space`) must
    equal the solved space C, which decides both directions of the statement
    at once.  A failure carries the first basis vector of C missing from K,
    on which the defining identity holds and a description group fails, or
    else of K missing from C, on which every group holds and the identity
    fails, as a matrix of n columns (D's rows above d's for a pair).
    """
    sigma = resolve_twist(t, sigma)
    require_hypotheses(t, DESCRIPTION, f"{DESCRIPTION} with a non-identity twist", sigma)
    dimensions: dict[str, int] = {}
    details: dict = {}
    witness = None
    for kind in DESCRIPTION_KINDS:
        solved = solve_space(t, sigma, kind).space
        described = description_space(t, sigma, kind)
        dimensions[kind] = solved.dim
        dimensions[f"{kind}_description"] = described.dim
        details[kind] = described == solved
        if witness is None and not details[kind]:

            def verdicts(*maps):
                conditions = description_conditions(t, sigma, kind, [_entries(*maps)])[0]
                return _IDENTITIES[kind](sigma, *maps).ok, all(conditions.values())

            details["witness_missing_from"], details["witness_kind"] = "description", kind
            witness = _counterexample(t, solved.basis, described, lambda *m: verdicts(*m) == (True, False))
            if witness is None:
                details["witness_missing_from"] = "solved_space"
                witness = _counterexample(t, described.basis, solved, lambda *m: verdicts(*m) == (False, True))
    return TheoremReport(DESCRIPTION, passed=witness is None, dimensions=dimensions, details=details, witness=witness)


# ---------------------------------------------------------------------------
# Mayne-style sampling


def _random_vector(field: Field, n: int, rng: random.Random) -> Vector:
    if field.char == 0:
        return tuple(field.from_int(rng.randint(-3, 3)) for _ in range(n))
    return tuple(field.from_int(rng.randrange(field.char)) for _ in range(n))


def verify_mayne(t: TriangularAlgebra, samples: int = 50, seed: int = 0) -> TheoremReport:
    """The identity is the only centralizing automorphism.

    The automorphisms of an algebra are not a linear space, so this is a
    seeded property test: the identity must be commuting, and each of
    ``samples`` (at least 1) non-identity automorphisms must fail the
    centralizing predicate.  Each sample is the conjugation
    (:func:`~trialg.maps.inner_automorphism`) by a random unit of T, drawn
    coordinate by coordinate until it is invertible; (a, m, b) is a unit
    exactly when a and b are, with inverse (a⁻¹, −a⁻¹·m·b⁻¹, b⁻¹).  Every
    automorphism composed from inner corner parts is one of these: f = conj_u,
    g = conj_w, ν(m) = s·u·m·w⁻¹ and any m_σ give conjugation by
    (s·u, −m_σ·w, w).
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    require_hypotheses(t, MAYNE, MAYNE)
    ident = LinearEndo.identity(t)
    rng = random.Random(seed)
    identity_commutes = bool(predicate(ident, ident, "commuting"))
    tested = 0
    attempts = 0
    witness = None
    while tested < samples:
        attempts += 1
        if attempts > 50 * samples:
            raise StructuralMismatch("automorphism sampling failed to produce non-identity maps")
        try:
            sigma = inner_automorphism(t, _random_vector(t.field, t.dim, rng))
        except ValueError:
            continue
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
    details = {"identity_commuting": identity_commutes, "seed": seed}
    return TheoremReport(MAYNE, passed=passed, dimensions={"samples": tested}, details=details, witness=witness)
