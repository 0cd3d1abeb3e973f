"""Decomposition of verified maps into their canonical triangular components,
and the twisted center of a triangular algebra.

Each decomposition extracts components by composing the map with the corner
embeddings and projections, verifies every side condition of the relevant
structure statement once, and finally recomposes and compares with the
original map entry by entry.  Extraction formulas (m_σ from σ(p), m_d from
d(p), m_D from D(q)) come from evaluating the canonical forms at the diagonal
idempotents; reconstruction equality is the correctness oracle.  The
intertwining and ξ laws go through the basis-pair checker of
:mod:`trialg.maps`, and a left multiplier F is decomposed as the generalized
derivation (F, 0) of the identity.

The twisted center is computed as a kernel and, when the automorphism can be
decomposed, cross-checked against the structural form that its memoized
parts (m_σ, ν) determine, by the cross-check that :func:`trialg.algebra.center`
uses; η is read off the same structural pairs.  The centralizing round trip
is the check of the canonical module component, not a second comparison.

Decompositions for a non-identity twist require both diagonal algebras to be
decided free of nontrivial idempotents (:func:`trialg.algebra.trivial_idempotents`);
the identity twist bypasses the decision because the untwisted corollaries
carry no such hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .algebra import TriangularAlgebra, _pair_partners, _structural_pairs, center_subspace, sigma_center_subspace
from .errors import (
    ConditionFailure,
    HypothesisNotMet,
    InvalidParts,
    PredicateNotSatisfied,
    ReconstructionMismatch,
)
from .linalg import Matrix, Subspace, Vector, vec_add, vec_neg, vec_sub
from .maps import (
    CheckResult,
    LinearEndo,
    Witness,
    _leibniz_check,
    _pair_check,
    _units,
    as_endo,
    bracket_sigma,
    is_automorphism,
    is_sigma_derivation,
    predicate,
    require_automorphism,
)


# ---------------------------------------------------------------------------
# component extraction helpers


def _corner_matrix(t: TriangularAlgebra, endo: LinearEndo, out: str, into: str) -> Matrix:
    """The block of ``endo`` from corner ``into`` to corner ``out`` (each of
    ``"a"``, ``"m"``, ``"b"``): its projected rows by its embedded columns."""
    na, nm = t.A.dim, t.M.dim
    span = {"a": slice(0, na), "m": slice(na, na + nm), "b": slice(na + nm, t.dim)}
    rows, cols = span[out], span[into]
    return Matrix(t.field, [r[cols] for r in endo.matrix.entries[rows]], ncols=cols.stop - cols.start)


def _endo_from_corner_images(t: TriangularAlgebra, a_images, m_images, b_images) -> LinearEndo:
    cols = [t.element(*img) for img in a_images + m_images + b_images]
    return LinearEndo(t.algebra, Matrix.from_columns(t.field, cols, nrows=t.dim))


def _compare(t: TriangularAlgebra, recomposed: LinearEndo, original: LinearEndo) -> None:
    if recomposed.matrix == original.matrix:
        return
    for i in range(t.dim):
        if recomposed.matrix.column(i) != original.matrix.column(i):
            raise ReconstructionMismatch(i, original.matrix.column(i), recomposed.matrix.column(i))


# ---------------------------------------------------------------------------
# automorphisms


@dataclass(frozen=True)
class AutParts:
    """Canonical data (f, g, m_σ, ν) of a triangular-algebra automorphism."""

    t: TriangularAlgebra
    f_sigma: Matrix
    g_sigma: Matrix
    m_sigma: Vector
    nu_sigma: Matrix


def identity_aut_parts(t: TriangularAlgebra) -> AutParts:
    f = t.field
    return AutParts(
        t,
        Matrix.identity(f, t.A.dim),
        Matrix.identity(f, t.B.dim),
        t.M.zero(),
        Matrix.identity(f, t.M.dim),
    )


def _check_aut_parts(parts: AutParts) -> CheckResult:
    t = parts.t
    A, M, B = t.A, t.M, t.B
    nu = parts.nu_sigma
    # a part of the wrong shape fails here, before a sparse column of it is read
    for which, m, alg in (("first", parts.f_sigma, A), ("second", parts.g_sigma, B)):
        if not (m.nrows == m.ncols == alg.dim and is_automorphism(LinearEndo(alg, m)).ok):
            return CheckResult(False, Witness(f"{which} diagonal component is not an automorphism"))
    if not (nu.nrows == nu.ncols == M.dim and nu.rank() == M.dim):
        return CheckResult(False, Witness("module component is not bijective"))
    if len(parts.m_sigma) != M.dim:
        return CheckResult(False, Witness("corner element has wrong dimension"))
    # ν(a·m) = f(a)·ν(m) and ν(m·b) = ν(m)·g(b)
    chk = _pair_check(M._left, nu, ((parts.f_sigma._cols(), nu._cols()),), "left intertwining fails")
    if not chk.ok:
        return chk
    return _pair_check(M._right, nu, ((nu._cols(), parts.g_sigma._cols()),), "right intertwining fails")


def compose_automorphism(t: TriangularAlgebra, parts: AutParts) -> LinearEndo:
    """(a, m, b) -> (f(a), f(a)m_σ - m_σ g(b) + ν(m), g(b))."""
    chk = _check_aut_parts(parts)
    if not chk.ok:
        raise InvalidParts(chk.witness)
    A, M, B = t.A, t.M, t.B
    a_images = []
    for i in range(A.dim):
        fa = parts.f_sigma.column(i)
        a_images.append((fa, M.act_left(fa, parts.m_sigma), B.zero()))
    m_images = [(A.zero(), parts.nu_sigma.column(k), B.zero()) for k in range(M.dim)]
    b_images = []
    for j in range(B.dim):
        gb = parts.g_sigma.column(j)
        b_images.append((A.zero(), vec_neg(t.field, M.act_right(parts.m_sigma, gb)), gb))
    endo = _endo_from_corner_images(t, a_images, m_images, b_images)
    post = is_automorphism(endo)
    if not post.ok:
        raise InvalidParts(post.witness)
    return endo


def require_trivial_idempotents(t: TriangularAlgebra, sigma: LinearEndo, what: str) -> None:
    """Raise HypothesisNotMet unless σ is the identity or both diagonal algebras
    are decided idempotent-free, the hypothesis of the twisted statements."""
    if not sigma.is_identity() and not t.trivial_idempotent_components:
        raise HypothesisNotMet(f"{what} needs diagonal algebras decided idempotent-free")


def decompose_automorphism(t: TriangularAlgebra, sigma) -> AutParts:
    """Split a verified automorphism into (f, g, m_σ, ν); exact round trip."""
    sigma = as_endo(t.algebra, sigma)
    if not t.trivial_idempotent_components:
        raise HypothesisNotMet("both diagonal algebras must be decided idempotent-free")
    require_automorphism(sigma)
    f = _corner_matrix(t, sigma, "a", "a")
    g = _corner_matrix(t, sigma, "b", "b")
    nu = _corner_matrix(t, sigma, "m", "m")
    m_sigma = t.pi_m(sigma(t.p))
    parts = AutParts(t, f, g, m_sigma, nu)
    _compare(t, compose_automorphism(t, parts), sigma)
    return parts


def _aut_parts_for(t: TriangularAlgebra, sigma: LinearEndo) -> AutParts:
    if sigma.is_identity():
        return identity_aut_parts(t)
    key = ("automorphism_parts", sigma.matrix)
    if key not in t.memo:
        t.memo[key] = decompose_automorphism(t, LinearEndo(t.algebra, sigma.matrix))
    return t.memo[key]


# ---------------------------------------------------------------------------
# twisted centers


@dataclass(frozen=True)
class SigmaCenterData:
    """Twisted center of a triangular algebra.

    ``eta`` (present only when both diagonal algebras are decided
    idempotent-free, so that the automorphism can be decomposed) maps the
    B-part of a twisted-central element back to its forced A-part, column by
    column over the canonical basis of ``piB_part``.
    """

    sigma_center: Subspace
    piA_part: Subspace
    piB_part: Subspace
    eta: Matrix | None


def sigma_center(t: TriangularAlgebra, sigma) -> SigmaCenterData:
    """Twisted center of the triangular algebra for a verified automorphism.

    When both diagonal algebras are decided idempotent-free, the kernel
    computation is cross-checked against the structural form
    {(a, −m_σ·b, b) : a·m = ν(m)·b for all m} that the automorphism's parts
    determine, and eta is read off those pairs.
    """
    sigma = as_endo(t.algebra, sigma)
    # the memoized decomposition verifies σ, and later decompositions reuse it
    parts = _aut_parts_for(t, sigma) if t.trivial_idempotent_components else None
    if parts is None:
        require_automorphism(sigma)
    f = t.field
    space = sigma_center_subspace(t.algebra, sigma.matrix)
    piA = Subspace.from_vectors(f, t.A.dim, [t.pi_a(v) for v in space.basis])
    piB = Subspace.from_vectors(f, t.B.dim, [t.pi_b(v) for v in space.basis])
    eta = None
    if parts is not None:
        pairs = _structural_pairs(t, space, parts.nu_sigma, parts.m_sigma, "twisted center")
        eta = _pair_partners(t, pairs, piB.basis, from_a=False)
    return SigmaCenterData(space, piA, piB, eta)


# ---------------------------------------------------------------------------
# twisted derivations


@dataclass(frozen=True)
class DerParts:
    """Canonical data (d_A, d_B, m_d, ξ) of a twisted derivation."""

    t: TriangularAlgebra
    aut: AutParts
    d_A: Matrix
    d_B: Matrix
    m_d: Vector
    xi: Matrix


def compose_sigma_derivation(t: TriangularAlgebra, parts: DerParts) -> LinearEndo:
    """(a, m, b) -> (d_A(a), f(a)m_d - m_d b - m_σ d_B(b) + ξ(m), d_B(b))."""
    A, M, B = t.A, t.M, t.B
    f = t.field
    a_images = []
    for i in range(A.dim):
        fa = parts.aut.f_sigma.column(i)
        a_images.append((parts.d_A.column(i), M.act_left(fa, parts.m_d), B.zero()))
    m_images = [(A.zero(), parts.xi.column(k), B.zero()) for k in range(M.dim)]
    b_images = []
    for j in range(B.dim):
        db = parts.d_B.column(j)
        m_part = vec_neg(f, vec_add(f, M.act_right(parts.m_d, B.basis_vector(j)), M.act_right(parts.aut.m_sigma, db)))
        b_images.append((A.zero(), m_part, db))
    return _endo_from_corner_images(t, a_images, m_images, b_images)


def decompose_sigma_derivation(t: TriangularAlgebra, sigma, d) -> DerParts:
    sigma = as_endo(t.algebra, sigma)
    d = as_endo(t.algebra, d)
    chk = is_sigma_derivation(d, sigma)
    if not chk.ok:
        raise PredicateNotSatisfied(chk.witness)
    return _der_parts(t, sigma, d)


def _der_parts(t: TriangularAlgebra, sigma: LinearEndo, d: LinearEndo) -> DerParts:
    """The parts of a σ-derivation whose own rule is already checked."""
    aut = _aut_parts_for(t, sigma)
    d_A = _corner_matrix(t, d, "a", "a")
    d_B = _corner_matrix(t, d, "b", "b")
    xi = _corner_matrix(t, d, "m", "m")
    m_d = t.pi_m(d(t.p))
    parts = DerParts(t, aut, d_A, d_B, m_d, xi)
    _check_der_parts(parts)
    _compare(t, compose_sigma_derivation(t, parts), d)
    return parts


def _check_der_parts(parts: DerParts) -> None:
    t = parts.t
    A, M, B = t.A, t.M, t.B
    aut, xi = parts.aut, parts.xi._cols()
    chk = is_sigma_derivation(LinearEndo(A, parts.d_A), LinearEndo(A, aut.f_sigma))
    if not chk.ok:
        raise ConditionFailure("d_A twisted Leibniz", chk.witness)
    chk = is_sigma_derivation(LinearEndo(B, parts.d_B), LinearEndo(B, aut.g_sigma))
    if not chk.ok:
        raise ConditionFailure("d_B twisted Leibniz", chk.witness)
    compatibility = (
        ("xi left", M._left, ((parts.d_A._cols(), _units(M)), (aut.f_sigma._cols(), xi)), "ξ(am) ≠ d_A(a)m + f(a)ξ(m)"),
        ("xi right", M._right, ((xi, _units(B)), (aut.nu_sigma._cols(), parts.d_B._cols())), "ξ(mb) ≠ ξ(m)b + ν(m)d_B(b)"),
    )
    for side, table, terms, reason in compatibility:
        chk = _pair_check(table, parts.xi, terms, reason)
        if not chk.ok:
            raise ConditionFailure(f"{side} compatibility", chk.witness)


# ---------------------------------------------------------------------------
# twisted centralizing maps


CENT_CONDITION_LABELS = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "delta2_range", "mu2_range", "m_component")


@dataclass(frozen=True)
class CentParts:
    """The six corner maps of a twisted centralizing map.

    ``conditions`` holds the result of each named side condition (see
    :func:`centralizing_conditions`) once :func:`decompose_centralizing` has
    checked them.
    """

    t: TriangularAlgebra
    aut: AutParts
    delta1: Matrix
    delta2: Matrix
    delta3: Matrix
    mu1: Matrix
    mu2: Matrix
    mu3: Matrix
    conditions: dict[str, CheckResult] = field(default_factory=dict, compare=False)


def _extract_cent_parts(t: TriangularAlgebra, sigma: LinearEndo, theta: LinearEndo) -> CentParts:
    aut = _aut_parts_for(t, sigma)
    return CentParts(
        t,
        aut,
        delta1=_corner_matrix(t, theta, "a", "a"),
        delta2=_corner_matrix(t, theta, "a", "m"),
        delta3=_corner_matrix(t, theta, "a", "b"),
        mu1=_corner_matrix(t, theta, "b", "a"),
        mu2=_corner_matrix(t, theta, "b", "m"),
        mu3=_corner_matrix(t, theta, "b", "b"),
    )


def _cent_display_m_column(parts: CentParts, mu_of_x: Vector, m: Vector | None) -> Vector:
    """Module component of the canonical centralizing form on one basis element."""
    t = parts.t
    M = t.M
    f = t.field
    out = vec_neg(f, M.act_right(parts.aut.m_sigma, mu_of_x))
    if m is not None:
        one_a = tuple(t.A.unit)
        delta1_one = parts.delta1.mul_vec(one_a)
        mu1_one = parts.mu1.mul_vec(one_a)
        out = vec_add(f, out, M.act_left(delta1_one, m))
        out = vec_sub(f, out, M.act_right(parts.aut.nu_sigma.mul_vec(m), mu1_one))
    return out


def centralizing_conditions(parts: CentParts, theta: LinearEndo) -> dict[str, CheckResult]:
    """Each named side condition of the centralizing structure statement.

    Bilinear conditions are checked on basis pairs; the one quadratic
    condition (v) through its diagonal plus symmetrized off-diagonal values.
    """
    t = parts.t
    A, M, B = t.A, t.M, t.B
    f = t.field
    fa_endo = LinearEndo(A, parts.aut.f_sigma)
    gb_endo = LinearEndo(B, parts.aut.g_sigma)
    one_a, one_b = tuple(A.unit), tuple(B.unit)
    nu = parts.aut.nu_sigma
    results: dict[str, CheckResult] = {}

    results["i"] = predicate(LinearEndo(A, parts.delta1), fa_endo, "commuting")
    results["ii"] = predicate(LinearEndo(B, parts.mu3), gb_endo, "commuting")

    delta1_one = parts.delta1.mul_vec(one_a)
    mu1_one = parts.mu1.mul_vec(one_a)
    mu3_one = parts.mu3.mul_vec(one_b)
    delta3_one = parts.delta3.mul_vec(one_b)

    def cond_iii() -> CheckResult:
        for i in range(A.dim):
            ai = A.basis_vector(i)
            fa = parts.aut.f_sigma.column(i)
            for k in range(M.dim):
                mk = M.basis_vector(k)
                lhs = vec_sub(f, M.act_left(parts.delta1.mul_vec(ai), mk), M.act_right(nu.column(k), parts.mu1.mul_vec(ai)))
                base = vec_sub(f, M.act_left(delta1_one, mk), M.act_right(nu.column(k), mu1_one))
                rhs = M.act_left(fa, base)
                if lhs != rhs:
                    return CheckResult(False, Witness("condition (iii)", pair=(i, k), lhs=lhs, rhs=rhs))
        return CheckResult(True)

    def cond_iv() -> CheckResult:
        for k in range(M.dim):
            mk = M.basis_vector(k)
            nk = nu.column(k)
            base = vec_sub(f, M.act_right(nk, mu3_one), M.act_left(delta3_one, mk))
            for j in range(B.dim):
                bj = B.basis_vector(j)
                lhs = vec_sub(f, M.act_right(nk, parts.mu3.mul_vec(bj)), M.act_left(parts.delta3.mul_vec(bj), mk))
                rhs = M.act_right(base, bj)
                if lhs != rhs:
                    return CheckResult(False, Witness("condition (iv)", pair=(k, j), lhs=lhs, rhs=rhs))
        return CheckResult(True)

    def cond_v() -> CheckResult:
        def two_sided(k: int, l: int) -> tuple[Vector, Vector]:
            lhs = M.act_left(parts.delta2.column(k), M.basis_vector(l))
            rhs = M.act_right(nu.column(k), parts.mu2.column(l))
            return lhs, rhs

        for k in range(M.dim):
            lhs, rhs = two_sided(k, k)
            if lhs != rhs:
                return CheckResult(False, Witness("condition (v) diagonal", pair=(k, k), lhs=lhs, rhs=rhs))
            for l in range(k + 1, M.dim):
                l1, r1 = two_sided(k, l)
                l2, r2 = two_sided(l, k)
                if vec_add(f, l1, l2) != vec_add(f, r1, r2):
                    return CheckResult(False, Witness("condition (v) polarized", pair=(k, l)))
        return CheckResult(True)

    def cond_vi() -> CheckResult:
        for k in range(M.dim):
            mk = M.basis_vector(k)
            nk = nu.column(k)
            lhs = vec_sub(f, M.act_left(delta1_one, mk), M.act_right(nk, mu1_one))
            rhs = vec_sub(f, M.act_right(nk, mu3_one), M.act_left(delta3_one, mk))
            if lhs != rhs:
                return CheckResult(False, Witness("condition (vi)", pair=(k, k), lhs=lhs, rhs=rhs))
        return CheckResult(True)

    def cond_central(side: str) -> CheckResult:
        if side == "vii":
            amb, center_space, fendo = A, center_subspace(A), fa_endo
        else:
            amb, center_space, fendo = B, center_subspace(B), gb_endo
        for i in range(A.dim):
            for j in range(B.dim):
                if side == "vii":
                    val = bracket_sigma(fendo, A.basis_vector(i), parts.delta3.column(j))
                else:
                    val = bracket_sigma(fendo, B.basis_vector(j), parts.mu1.column(i))
                if not center_space.contains(val):
                    return CheckResult(False, Witness(f"condition ({side})", pair=(i, j), lhs=val))
        return CheckResult(True)

    results["iii"] = cond_iii()
    results["iv"] = cond_iv()
    results["v"] = cond_v()
    results["vi"] = cond_vi()
    results["vii"] = cond_central("vii")
    results["viii"] = cond_central("viii")

    zf = sigma_center_subspace(A, parts.aut.f_sigma)
    zg = sigma_center_subspace(B, parts.aut.g_sigma)
    bad = next((k for k in range(M.dim) if not zf.contains(parts.delta2.column(k))), None)
    results["delta2_range"] = (
        CheckResult(True) if bad is None else CheckResult(False, Witness("δ₂ image not twisted-central", pair=(bad, bad)))
    )
    bad = next((k for k in range(M.dim) if not zg.contains(parts.mu2.column(k))), None)
    results["mu2_range"] = (
        CheckResult(True) if bad is None else CheckResult(False, Witness("μ₂ image not twisted-central", pair=(bad, bad)))
    )

    # the A and B rows of the recomposed map are slices of θ, so the round
    # trip compares exactly the M rows that the canonical form derives
    recomposed = compose_centralizing(t, parts).matrix
    bad = next((i for i in range(t.dim) if recomposed.column(i) != theta.matrix.column(i)), None)
    witness = None if bad is None else Witness(
        "module component", pair=(bad, bad), lhs=theta.matrix.column(bad), rhs=recomposed.column(bad)
    )
    results["m_component"] = CheckResult(bad is None, witness)
    return results


def compose_centralizing(t: TriangularAlgebra, parts: CentParts) -> LinearEndo:
    """Rebuild the map from its corner components and the canonical M-column."""
    A, M, B = t.A, t.M, t.B
    a_images = [
        (parts.delta1.column(i), _cent_display_m_column(parts, parts.mu1.column(i), None), parts.mu1.column(i))
        for i in range(A.dim)
    ]
    m_images = [
        (parts.delta2.column(k), _cent_display_m_column(parts, parts.mu2.column(k), M.basis_vector(k)), parts.mu2.column(k))
        for k in range(M.dim)
    ]
    b_images = [
        (parts.delta3.column(j), _cent_display_m_column(parts, parts.mu3.column(j), None), parts.mu3.column(j))
        for j in range(B.dim)
    ]
    return _endo_from_corner_images(t, a_images, m_images, b_images)


def decompose_centralizing(t: TriangularAlgebra, sigma, theta) -> CentParts:
    """Decompose a twisted centralizing map and verify conditions (i)-(viii),
    the range constraints on δ₂/μ₂, and the canonical module component."""
    sigma = as_endo(t.algebra, sigma)
    theta = as_endo(t.algebra, theta)
    chk = predicate(theta, sigma, "centralizing")
    if not chk.ok:
        raise PredicateNotSatisfied(chk.witness)
    require_trivial_idempotents(t, sigma, "twisted decomposition")
    parts = _extract_cent_parts(t, sigma, theta)
    conditions = centralizing_conditions(parts, theta)
    for label, result in conditions.items():
        if not result.ok:
            raise ConditionFailure(label, result.witness)
    return replace(parts, conditions=conditions)


def commuting_criterion(parts: CentParts) -> bool:
    """δ₃(B) ⊆ twisted-center of A and μ₁(A) ⊆ twisted-center of B."""
    t = parts.t
    zf = sigma_center_subspace(t.A, parts.aut.f_sigma)
    zg = sigma_center_subspace(t.B, parts.aut.g_sigma)
    delta3_image = Subspace.from_vectors(t.field, t.A.dim, parts.delta3.columns())
    mu1_image = Subspace.from_vectors(t.field, t.B.dim, parts.mu1.columns())
    return delta3_image.leq(zf) and mu1_image.leq(zg)


# ---------------------------------------------------------------------------
# generalized twisted derivations


@dataclass(frozen=True)
class GenParts:
    """Components of a generalized twisted derivation, with its partner's data.

    ``display_matches`` records whether the variant module formula using
    D_B in place of d_B would also reconstruct the map; the variants
    disagree whenever m_σ·(D_B(b) - d_B(b)) is nonzero for some b, and the
    d_B form is the one that always round-trips.
    """

    t: TriangularAlgebra
    der: DerParts
    D_A: Matrix
    D_B: Matrix
    m_D: Vector
    display_matches: bool

    @property
    def aut(self) -> AutParts:
        return self.der.aut

    @property
    def m_d(self) -> Vector:
        return self.der.m_d

    @property
    def xi(self) -> Matrix:
        return self.der.xi


def compose_generalized(t: TriangularAlgebra, parts: GenParts, use_display_form: bool = False) -> LinearEndo:
    """(a,m,b) -> (D_A(a), f(a)m_d + m_D b - m_σ d_B(b) + ξ(m) + D_A(1)m, D_B(b))."""
    A, M, B = t.A, t.M, t.B
    f = t.field
    aut, der = parts.aut, parts.der
    one_a = tuple(A.unit)
    DA_one = parts.D_A.mul_vec(one_a)
    a_images = []
    for i in range(A.dim):
        fa = aut.f_sigma.column(i)
        a_images.append((parts.D_A.column(i), M.act_left(fa, der.m_d), B.zero()))
    m_images = [
        (A.zero(), vec_add(f, der.xi.column(k), M.act_left(DA_one, M.basis_vector(k))), B.zero())
        for k in range(M.dim)
    ]
    b_images = []
    for j in range(B.dim):
        corner = parts.D_B.column(j) if use_display_form else der.d_B.column(j)
        m_part = vec_sub(
            f,
            M.act_right(parts.m_D, B.basis_vector(j)),
            M.act_right(aut.m_sigma, corner),
        )
        b_images.append((A.zero(), m_part, parts.D_B.column(j)))
    return _endo_from_corner_images(t, a_images, m_images, b_images)


def decompose_generalized(t: TriangularAlgebra, sigma, D, d) -> GenParts:
    """Decompose a generalized twisted derivation with known partner d.

    The rules of d and then of D are checked once on the whole algebra; the
    corner rules of D_A and D_B are checked against the partner's parts."""
    sigma = as_endo(t.algebra, sigma)
    D = as_endo(t.algebra, D)
    d = as_endo(t.algebra, d)
    chk = is_sigma_derivation(d, sigma)
    if chk.ok:
        chk = _leibniz_check(D, d, sigma, "generalized Leibniz rule")
    if not chk.ok:
        raise PredicateNotSatisfied(chk.witness)
    require_trivial_idempotents(t, sigma, "twisted decomposition")
    der = _der_parts(t, sigma, d)
    D_A = _corner_matrix(t, D, "a", "a")
    D_B = _corner_matrix(t, D, "b", "b")
    m_D = t.pi_m(D(t.q))
    corners = (("D_A", t.A, D_A, der.d_A, der.aut.f_sigma), ("D_B", t.B, D_B, der.d_B, der.aut.g_sigma))
    for name, alg, D_c, d_c, sigma_c in corners:
        chk = _leibniz_check(LinearEndo(alg, D_c), LinearEndo(alg, d_c), LinearEndo(alg, sigma_c), "generalized Leibniz rule")
        if not chk.ok:
            raise ConditionFailure(f"{name} generalized Leibniz", chk.witness)
    parts = GenParts(t, der, D_A, D_B, m_D, display_matches=True)
    _compare(t, compose_generalized(t, parts), D)
    display = compose_generalized(t, parts, use_display_form=True)
    if display.matrix != D.matrix:
        parts = GenParts(t, der, D_A, D_B, m_D, display_matches=False)
    return parts


# ---------------------------------------------------------------------------
# left multipliers


@dataclass(frozen=True)
class MultParts:
    """Components (F_A, F_B, m_F) of a left multiplier F: the (D_A, D_B, m_D)
    of F as the generalized derivation (F, 0) of the identity."""

    t: TriangularAlgebra
    F_A: Matrix
    F_B: Matrix
    m_F: Vector


def decompose_left_multiplier(t: TriangularAlgebra, F) -> MultParts:
    """(a, m, b) -> (F_A(a), m_F b + F_A(1_A)m, F_B(b)), decomposed and
    round-tripped as the generalized derivation (F, 0)."""
    gen = decompose_generalized(t, LinearEndo.identity(t.algebra), F, LinearEndo.zero(t.algebra))
    return MultParts(t, gen.D_A, gen.D_B, gen.m_D)
