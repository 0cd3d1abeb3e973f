"""Decomposition of verified maps into their canonical triangular components,
and the twisted center of a triangular algebra.

Each precise description (σ-derivations, generalized σ-derivation pairs,
σ-centralizing maps and left multipliers) is stated once, as labelled groups
of linear rows in the map's own entries (:func:`_description_rows`): every
side condition, and every entry of the canonical form, is one group.  The
rows serve twice.  Their kernel K is the space the description defines
(:func:`description_space`), and evaluated on given maps they decide every
condition for every map (:func:`description_conditions`): a group holds on a
map exactly when all its rows vanish there.  A decomposition evaluates the
rows on its members and reads the parts off the blocks of each member: a
whole solved space at once (:func:`decompose_space`), or one map after the
one per-map body (:func:`_decompose_map`) has checked its defining
identity against the table :data:`_IDENTITIES`.  The canonical form is
among the rows, so a member on which they all vanish recomposes exactly.

An automorphism σ, the identity included, is split into (f, g, m_σ, ν) by
its blocks and m_σ = π_M σ(p), and the recomposed map is compared with σ
entry by entry.  A centralizing map θ splits into the corner maps δ₁, δ₂,
δ₃, μ₁, μ₂, μ₃; its canonical M-column is read off the module bracket
c_x(m) = δ(x)·m − ν(m)·μ(x) at x = 1_A.

The twisted center is computed as a kernel, and its projections, structural
cross-check and η come from the one function that builds the center's,
:func:`trialg.algebra._center_parts`: this module supplies only the memoized
parts (ν, m_σ) of the automorphism, or none when it cannot be decomposed.
The centralizing description takes its module brackets c_k from the builder
that gives the structural pairs, :func:`trialg.algebra._module_brackets`.

Every entry point resolves σ (:func:`trialg.maps.resolve_twist`) and gates
its hypotheses (:func:`trialg.algebra.require_hypotheses`) before any work: a
triangular algebra, and for a non-identity twist diagonal algebras decided
idempotent-free (the untwisted corollaries carry no such hypothesis).
"""

from __future__ import annotations

from itertools import chain

from .algebra import (
    TriangularAlgebra,
    _bilinear,
    _bracket_operator,
    _center_parts,
    _module_brackets,
    _twisted_brackets,
    center_subspace,
    require_hypotheses,
    sigma_center_subspace,
)
from .errors import (
    ConditionFailure,
    InvalidParts,
    NotAutomorphism,
    PredicateNotSatisfied,
    ReconstructionMismatch,
)
from .linalg import Matrix, Subspace, Vector, _plain_rows, _sparse, vec_add, vec_neg, vec_sub
from .maps import (
    CheckResult,
    LinearEndo,
    Witness,
    _bracket_equations,
    _corner_rows,
    _PASS,
    _Leibniz,
    _leibniz_check,
    _live,
    _pair_check,
    _System,
    _units,
    as_endo,
    endo_of_vec,
    is_automorphism,
    is_generalized_pair,
    is_sigma_derivation,
    predicate,
    resolve_twist,
    solve_space,
)
from .records import Record, field


# ---------------------------------------------------------------------------
# component extraction helpers


def _corner_matrix(t: TriangularAlgebra, endo: LinearEndo, out: str, into: str) -> Matrix:
    """The block of ``endo`` from corner ``into`` to corner ``out`` (each of
    ``"a"``, ``"m"``, ``"b"``): its projected rows by its embedded columns."""
    na, nm = t.A.dim, t.M.dim
    span = {"a": slice(0, na), "m": slice(na, na + nm), "b": slice(na + nm, t.dim)}
    rows, cols = span[out], span[into]
    return Matrix(t.field, [r[cols] for r in endo.matrix.entries[rows]], ncols=cols.stop - cols.start)


def _compare(t: TriangularAlgebra, recomposed: LinearEndo, original: LinearEndo) -> None:
    if recomposed.matrix == original.matrix:
        return
    for i in range(t.dim):
        if recomposed.matrix.column(i) != original.matrix.column(i):
            raise ReconstructionMismatch(i, original.matrix.column(i), recomposed.matrix.column(i))


# ---------------------------------------------------------------------------
# automorphisms


class AutParts(Record):
    """Canonical data (f, g, m_σ, ν) of a triangular-algebra automorphism."""

    t: TriangularAlgebra
    f_sigma: Matrix
    g_sigma: Matrix
    m_sigma: Vector
    nu_sigma: Matrix


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
    """(a, m, b) -> (f(a), f(a)m_σ - m_σ g(b) + ν(m), g(b)), parts and map checked."""
    require_hypotheses(t, "compose_automorphism")
    chk = _check_aut_parts(parts)
    if not chk.ok:
        raise InvalidParts(chk.witness)
    try:
        return resolve_twist(t, _composed(t, parts))
    except NotAutomorphism as exc:
        raise InvalidParts(exc.witness) from None


def _composed(t: TriangularAlgebra, parts: AutParts) -> LinearEndo:
    """The map the parts define, unchecked."""
    g = parts.g_sigma
    return _canonical(t, parts, parts.f_sigma, parts.m_sigma, parts.nu_sigma.columns(), t.M.zero(), g, g)


def _canonical(t: TriangularAlgebra, aut: AutParts, X_A, m_1, X_M, m_2, Y_B, X_B) -> LinearEndo:
    """The canonical form (a, m, b) ↦ (X_A(a), f(a)·m₁ + X_M(m) + m₂·b − m_σ·Y_B(b),
    X_B(b)), unchecked, with f and m_σ those of ``aut`` and X_M given by its
    columns."""
    A, M, B, f = t.A, t.M, t.B, t.field
    images = [(X_A.column(i), M.act_left(aut.f_sigma.column(i), m_1), B.zero()) for i in range(A.dim)]
    images += [(A.zero(), x, B.zero()) for x in X_M]
    for j in range(B.dim):
        m = vec_sub(f, M.act_right(m_2, B.basis_vector(j)), M.act_right(aut.m_sigma, Y_B.column(j)))
        images.append((A.zero(), m, X_B.column(j)))
    return LinearEndo.from_images(t, [t.element(*img) for img in images])


_TWISTED_DECOMPOSITION = "automorphism decomposition"


def decompose_automorphism(t: TriangularAlgebra, sigma) -> AutParts:
    """Split a verified automorphism into (f, g, m_σ, ν); exact round trip."""
    sigma = resolve_twist(t, sigma)
    require_hypotheses(t, "decompose_automorphism", _TWISTED_DECOMPOSITION, sigma)
    f = _corner_matrix(t, sigma, "a", "a")
    g = _corner_matrix(t, sigma, "b", "b")
    nu = _corner_matrix(t, sigma, "m", "m")
    m_sigma = t.pi_m(sigma(t.p))
    parts = AutParts(t, f, g, m_sigma, nu)
    _compare(t, _composed(t, parts), sigma)  # σ is checked, so these parts are too
    return parts


def _aut_parts_for(t: TriangularAlgebra, sigma: LinearEndo) -> AutParts:
    key = ("automorphism_parts", sigma.matrix)
    if key not in t.memo:
        t.memo[key] = decompose_automorphism(t, sigma)
    return t.memo[key]


# ---------------------------------------------------------------------------
# twisted centers


class SigmaCenterData(Record):
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
    require_hypotheses(t, "sigma_center")
    sigma = resolve_twist(t, sigma)
    parts = _aut_parts_for(t, sigma) if t.trivial_idempotent_components else None
    space = sigma_center_subspace(t, sigma.matrix)
    nu, m_sigma = (parts.nu_sigma, parts.m_sigma) if parts is not None else (None, None)
    piA, piB, eta = _center_parts(t, space, nu, m_sigma, "twisted center", from_a=False)
    return SigmaCenterData(space, piA, piB, eta)


# ---------------------------------------------------------------------------
# twisted derivations


class DerParts(Record):
    """Canonical data (d_A, d_B, m_d, ξ) of a twisted derivation."""

    t: TriangularAlgebra
    aut: AutParts
    d_A: Matrix
    d_B: Matrix
    m_d: Vector
    xi: Matrix


def compose_sigma_derivation(t: TriangularAlgebra, parts: DerParts) -> LinearEndo:
    """(a, m, b) -> (d_A(a), f(a)m_d - m_d b - m_σ d_B(b) + ξ(m), d_B(b))."""
    d_B = parts.d_B
    return _canonical(t, parts.aut, parts.d_A, parts.m_d, parts.xi.columns(), vec_neg(t.field, parts.m_d), d_B, d_B)


def decompose_sigma_derivation(t: TriangularAlgebra, sigma, d) -> DerParts:
    """Decompose a twisted derivation: its rule, then its description."""
    return _decompose_map("decompose_sigma_derivation", t, sigma, "sigma_derivation", d)


def _der_blocks(t: TriangularAlgebra, aut: AutParts, d: LinearEndo) -> DerParts:
    """(d_A, d_B, m_d, ξ) read off the blocks of d, unchecked."""
    xi = _corner_matrix(t, d, "m", "m")
    return DerParts(t, aut, _corner_matrix(t, d, "a", "a"), _corner_matrix(t, d, "b", "b"), t.pi_m(d(t.p)), xi)


# ---------------------------------------------------------------------------
# twisted centralizing maps


class CentParts(Record):
    """The six corner maps of a twisted centralizing map.

    ``conditions`` holds the result of each named side condition (see
    :func:`description_conditions`) once :func:`decompose_centralizing` has
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
    conditions: dict[str, CheckResult] = field(factory=dict, compare=False)


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


def _unit_bracket(parts: CentParts) -> list[Vector]:
    """c_{1_A}(m_k) = δ₁(1_A)·m_k − ν(m_k)·μ₁(1_A) on every basis vector m_k
    of M, evaluated on the sparse module tables."""
    t = parts.t
    M, f = t.M, t.field
    delta, mu = (_sparse(m.mul_vec(t.A.unit)).items() for m in (parts.delta1, parts.mu1))
    nu = parts.aut.nu_sigma._cols()
    return [
        vec_sub(f, _bilinear(f, M.dim, M._left, ((delta, e),)), _bilinear(f, M.dim, M._right, ((nu[k], mu),)))
        for k, e in enumerate(_units(M))
    ]


def compose_centralizing(t: TriangularAlgebra, parts: CentParts) -> LinearEndo:
    """Rebuild the map from its corner components and the canonical M-column:
    −m_σ·μ(x) on x in A or B, and c_{1_A}(m) − m_σ·μ₂(m) on m in M."""
    M, f = t.M, t.field
    minus_m_sigma = tuple((i, f.neg(v)) for i, v in _sparse(parts.aut.m_sigma).items())
    c_one_a = _unit_bracket(parts)
    corners = ((parts.delta1, parts.mu1, None), (parts.delta2, parts.mu2, c_one_a), (parts.delta3, parts.mu3, None))
    images = []
    for delta, mu, c_one in corners:
        for i, col in enumerate(mu._cols()):
            m = _bilinear(f, M.dim, M._right, ((minus_m_sigma, col),))
            images.append((delta.column(i), m if c_one is None else vec_add(f, c_one[i], m), mu.column(i)))
    return LinearEndo.from_images(t, [t.element(*img) for img in images])


def decompose_centralizing(t: TriangularAlgebra, sigma, theta) -> CentParts:
    """Decompose a twisted centralizing map and verify conditions (i)-(viii),
    the range constraints on δ₂/μ₂, and the canonical module component."""
    return _decompose_map("decompose_centralizing", t, sigma, "centralizing", theta)


def commuting_criterion(parts: CentParts) -> bool:
    """δ₃(B) ⊆ twisted-center of A and μ₁(A) ⊆ twisted-center of B, column
    by column: each image is spanned by its map's columns."""
    t = parts.t
    zf = sigma_center_subspace(t.A, parts.aut.f_sigma)
    zg = sigma_center_subspace(t.B, parts.aut.g_sigma)
    return all(map(zf.contains, parts.delta3.columns())) and all(map(zg.contains, parts.mu1.columns()))


# ---------------------------------------------------------------------------
# generalized twisted derivations


class GenParts(Record):
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


def compose_generalized(t: TriangularAlgebra, parts: GenParts) -> LinearEndo:
    """(a,m,b) -> (D_A(a), f(a)m_d + m_D b - m_σ d_B(b) + ξ(m) + D_A(1)m, D_B(b))."""
    M = t.M
    DA_one = parts.D_A.mul_vec(t.A.unit)
    X_M = [vec_add(t.field, xi, M.act_left(DA_one, M.basis_vector(k))) for k, xi in enumerate(parts.xi.columns())]
    return _canonical(t, parts.aut, parts.D_A, parts.m_d, X_M, parts.m_D, parts.der.d_B, parts.D_B)


def decompose_generalized(t: TriangularAlgebra, sigma, D, d) -> GenParts:
    """Decompose a generalized twisted derivation with known partner d.

    The pair's rule (:func:`trialg.maps.is_generalized_pair`: d's, then D's)
    is checked once on the whole algebra, then the description of the pair."""
    return _decompose_map("decompose_generalized", t, sigma, "generalized_pair", D, d)


def _gen_blocks(t: TriangularAlgebra, der: DerParts, D: LinearEndo) -> GenParts:
    """(D_A, D_B, m_D) read off the blocks of D, with the partner's parts.

    ``display_matches`` is decided for a D that the canonical form gives: the
    display form then differs from D only by m_σ·(D_B(b) − d_B(b)) on each b.
    """
    D_A, D_B = _corner_matrix(t, D, "a", "a"), _corner_matrix(t, D, "b", "b")
    M, f = t.M, t.field
    m_sigma = _sparse(der.aut.m_sigma).items()
    display = not m_sigma or not any(
        any(_bilinear(f, M.dim, M._right, ((m_sigma, _sparse(vec_sub(f, Db, db)).items()),)))
        for Db, db in zip(D_B.columns(), der.d_B.columns())
    )
    return GenParts(t, der, D_A, D_B, t.pi_m(D(t.q)), display_matches=display)


# ---------------------------------------------------------------------------
# left multipliers


class MultParts(Record):
    """Components (F_A, F_B, m_F) of a left multiplier F: the (D_A, D_B, m_D)
    of F as the generalized derivation (F, 0) of the identity."""

    t: TriangularAlgebra
    F_A: Matrix
    F_B: Matrix
    m_F: Vector


def decompose_left_multiplier(t: TriangularAlgebra, F) -> MultParts:
    """(a, m, b) -> (F_A(a), m_F b + F_A(1_A)m, F_B(b)): F's rule, which is
    the generalized Leibniz rule of (F, 0), then the left multiplier
    description."""
    return _decompose_map("decompose_left_multiplier", t, None, "left_multiplier", F)


# ---------------------------------------------------------------------------
# precise descriptions
#
# Every side condition of a structure statement, and every entry of its
# canonical form, is linear in the map.  So the statement is a system of
# rows in the map's own n² unknowns (2n² for a pair, D then d).  The maps it
# describes are the kernel K of those rows, and a given map satisfies a
# condition exactly when the condition's rows vanish on its entries.  The
# corner Leibniz rules are the solver's own equations (maps._Leibniz), taken
# on corner pairs and read on one corner.  The other rows are corner
# projections of T's identity, of its multiplications and of its twisted
# brackets (algebra._twisted_brackets), reduced against a corner's (twisted)
# center where a condition asks for membership.  K equals the solved space
# exactly when the statement is a precise description.

DESCRIPTION_KINDS = ("sigma_derivation", "generalized_pair", "centralizing", "left_multiplier")


def _after(P, Q) -> list:
    """The live rows of P∘Q, for operators given by their live rows."""
    q = dict(Q)
    out = []
    for r, prow in P:
        row: dict = {}
        for k, a in prow.items():
            for c, b in q.get(k, {}).items():
                row[c] = row.get(c, 0) + a * b
        if row:
            out.append((r, row))
    return out


def _description_rows(t: TriangularAlgebra, sigma: LinearEndo, kind: str) -> list[tuple[str, object]]:
    """The description of ``kind`` as ``(label, equations)`` groups, one
    group per condition, each equation a ``(pair, terms)`` in
    :class:`trialg.maps._System` form with ``pair`` the basis pair (or
    index, twice) of T it is taken at.

    Unknowns are the entries of the map (block 0; for a pair, D in block 0
    and its partner d in block 1).  Each equation is a sum of terms
    sign·P·X(v) with P a corner projection of one of T's operators, its rows
    indexed by T's coordinates.
    """
    if kind not in DESCRIPTION_KINDS:
        raise ValueError(f"unknown description kind {kind!r}")
    f = t.field
    na, nm = t.A.dim, t.M.dim
    spans = {"a": range(0, na), "m": range(na, na + nm), "b": range(na + nm, t.dim)}
    A, M, B = spans["a"], spans["m"], spans["b"]
    aut = _aut_parts_for(t, sigma)
    leibniz = _Leibniz(t, sigma)
    e = leibniz.basis
    p, q = _plain_rows(f, [_sparse(t.p), _sparse(t.q)])
    ident = {c: _corner_rows(leibniz.identity, span) for c, span in spans.items()}
    right_m = {j: _corner_rows(leibniz.right[j], M) for j in range(t.dim)}

    def left(x, corner):
        """L_x on T, x given by its ``(index, value)`` nonzeros, projected to a corner."""
        return _corner_rows(_live(_bracket_operator(t, x, (), 1)), spans[corner])

    f_cols = aut.f_sigma._cols()
    left_f = {i: left(f_cols[i], "m") for i in A}  # m ↦ f(a_i)·m
    left_m_sigma = left(tuple((na + k, v) for k, v in _sparse(aut.m_sigma).items()), "m")  # b ↦ m_σ·b

    def zero_blocks(X, blocks):
        return [((k, k), [(X, ident[out], e[k], 1)]) for out, into in blocks for k in spans[into]]

    off_diagonal = (("b", "a"), ("a", "m"), ("b", "m"), ("a", "b"))

    def derivation(d):
        """d(a, m, b) = (d_A(a), f(a)m_d − m_d b − m_σ d_B(b) + ξ(m), d_B(b))."""
        column = [((i, i), [(d, ident["m"], e[i], 1), (d, left_f[i], p, -1)]) for i in A]
        column += [((j, j), [(d, ident["m"], e[j], 1), (d, right_m[j], p, 1), (d, left_m_sigma, e[j], 1)]) for j in B]
        return [
            ("zero blocks", zero_blocks(d, off_diagonal)),
            ("M-column", column),
            ("d_A twisted Leibniz", leibniz.equations(d, d, A, A, A)),
            ("d_B twisted Leibniz", leibniz.equations(d, d, B, B, B)),
            ("xi left compatibility", leibniz.equations(d, d, A, M, M)),
            ("xi right compatibility", leibniz.equations(d, d, M, B, M)),
        ]

    if kind == "sigma_derivation":
        return derivation(0)
    if kind == "generalized_pair":
        # D(a, m, b) = (D_A(a), f(a)m_d + m_D b − m_σ d_B(b) + ξ(m) + D_A(1)m, D_B(b))
        column = [((i, i), [(0, ident["m"], e[i], 1), (1, left_f[i], p, -1)]) for i in A]
        column += [((k, k), [(0, ident["m"], e[k], 1), (1, ident["m"], e[k], -1), (0, right_m[k], p, -1)]) for k in M]
        column += [((j, j), [(0, ident["m"], e[j], 1), (0, right_m[j], q, -1), (1, left_m_sigma, e[j], 1)]) for j in B]
        return derivation(1) + [
            ("D zero blocks", zero_blocks(0, off_diagonal)),
            ("D M-column", column),
            ("D_A generalized Leibniz", leibniz.equations(0, 1, A, A, A)),
            ("D_B generalized Leibniz", leibniz.equations(0, 1, B, B, B)),
        ]
    if kind == "left_multiplier":
        # F(a, m, b) = (F_A(a), m_F b + F_A(1)m, F_B(b))
        column = [((k, k), [(0, ident["m"], e[k], 1), (0, right_m[k], p, -1)]) for k in M]
        column += [((j, j), [(0, ident["m"], e[j], 1), (0, right_m[j], q, -1)]) for j in B]
        return [
            ("zero blocks", zero_blocks(0, off_diagonal + (("m", "a"),))),
            ("M-column", column),
            ("F_A left multiplier", leibniz.equations(0, None, A, A, A)),
            ("F_B left multiplier", leibniz.equations(0, None, B, B, B)),
        ]

    # centralizing: θ(x) = (δ(x), ·, μ(x)); c_x(m_k) = δ(x)·m_k − ν(m_k)·μ(x)
    # is c_k θ(x) for the module bracket c_k(λ) = λ·m_k − ν(m_k)·λ, whose
    # kernel on A ⊕ B is also the structural form of the (twisted) center
    bracket = _twisted_brackets(t, sigma.matrix, -1)  # σ(e_i)λ − λe_i
    op = {i: _corner_rows(_live(bracket[i]), spans["a" if i in A else "b"]) for i in chain(A, B)}
    c = dict(zip(M, _module_brackets(t, aut.nu_sigma)))

    def on_b(rows):
        """Rows of an operator into B, moved to B's coordinates in T."""
        return [(na + nm + r, row) for r, row in _live(rows)]

    center_a, center_b = center_subspace(t.A), center_subspace(t.B)
    vii = {i: _live(center_a.reduce_rows(bracket[i][:na])) for i in A}
    viii = {j: on_b(center_b.reduce_rows(bracket[j][na + nm :])) for j in B}
    delta2 = _live(sigma_center_subspace(t.A, aut.f_sigma).reduce_rows([{r: 1} for r in A]))
    mu2 = on_b(sigma_center_subspace(t.B, aut.g_sigma).reduce_rows([{r: 1} for r in B]))
    component = [((x, x), [(0, ident["m"], e[x], 1), (0, left_m_sigma, e[x], 1)]) for x in chain(A, B)]
    component += [((k, k), [(0, ident["m"], e[k], 1), (0, c[k], p, -1), (0, left_m_sigma, e[k], 1)]) for k in M]
    return [
        ("i", _bracket_equations(op, A)),
        ("ii", _bracket_equations(op, B)),
        ("iii", (((i, k), [(0, c[k], e[i], 1), (0, _after(left_f[i], c[k]), p, -1)]) for i in A for k in M)),
        ("iv", (((k, j), [(0, c[k], e[j], 1), (0, _after(right_m[j], c[k]), q, -1)]) for k in M for j in B)),
        ("v", _bracket_equations(c, M)),
        ("vi", (((k, k), [(0, c[k], p, 1), (0, c[k], q, 1)]) for k in M)),
        ("vii", (((i, j), [(0, vii[i], e[j], 1)]) for i in A for j in B)),
        ("viii", (((i, j), [(0, viii[j], e[i], 1)]) for j in B for i in A)),
        ("delta2_range", (((k, k), [(0, delta2, e[k], 1)]) for k in M)),
        ("mu2_range", (((k, k), [(0, mu2, e[k], 1)]) for k in M)),
        ("m_component", component),
    ]


def _description_kernel(t: TriangularAlgebra, kind: str, groups) -> Subspace:
    """The solution space of the ``(label, equations)`` groups."""
    system = _System(t.field, t.dim, 2 if kind == "generalized_pair" else 1)
    return system.kernel(chain.from_iterable(equations for _, equations in groups))


def description_space(t: TriangularAlgebra, sigma, kind: str) -> Subspace:
    """The kernel K of the precise description of the σ-maps of ``kind``.

    ``kind`` is one of :data:`DESCRIPTION_KINDS`: ``sigma_derivation`` (the
    identity twist gives the derivations), ``generalized_pair`` (pairs
    (D, d), 2n² unknowns), ``centralizing`` (conditions (i)–(viii), both
    range conditions and the canonical module component; commuting maps
    are centralizing) and ``left_multiplier`` (the (F, 0) form, σ ignored).
    K is kept in ``t.memo``.
    """
    sigma = resolve_twist(t, sigma, kind)
    require_hypotheses(t, "description_space", "twisted description", sigma)
    key = ("description", kind, None if sigma.is_identity() else sigma.matrix)
    if key not in t.memo:
        t.memo[key] = _description_kernel(t, kind, _description_rows(t, sigma, kind))
    return t.memo[key]


def description_conditions(t: TriangularAlgebra, sigma, kind: str, vectors) -> list[dict[str, CheckResult]]:
    """Every condition of the description of ``kind`` on every map of ``vectors``.

    A vector holds a map's entries row by row (D's, then d's, for a pair),
    as the unknowns of :func:`description_space`; one of another length is
    a ValueError.  For each vector the result maps each group label of the
    description, in order, to whether all of the group's equations vanish
    on it; a failure's witness gives the pair of the first equation that
    does not, and its value there in T's coordinates.  Each equation is built once and evaluated on all the
    vectors at once, through the vectors' nonzero entries.
    """
    sigma = resolve_twist(t, sigma, kind)
    require_hypotheses(t, "description_conditions", "twisted description", sigma)
    vectors = list(vectors)
    f, n, p = t.field, t.dim, t.field.char
    system = _System(f, n, 2 if kind == "generalized_pair" else 1)
    entries: dict[int, list] = {}  # unknown -> the (vector, value) nonzeros there
    for m, v in enumerate(vectors):
        if len(v) != system.width:
            raise ValueError(f"a {kind} vector has {system.width} entries, got {len(v)}")
        for c, x in enumerate(v):
            if x:
                entries.setdefault(c, []).append((m, x))
    results: list[dict[str, CheckResult]] = [{} for _ in vectors]
    for label, equations in _description_rows(t, sigma, kind):
        failed: dict[int, CheckResult] = {}
        for pair, terms in equations:
            values: dict[int, dict] = {}  # vector -> {coordinate: nonzero value}
            for r, row in system.equation(terms):
                sums: dict[int, object] = {}
                for c, a in row.items():
                    for m, x in entries.get(c, ()):
                        sums[m] = sums.get(m, 0) + a * x
                for m, x in sums.items():
                    if p:
                        x %= p
                    if x and m not in failed:
                        values.setdefault(m, {})[r] = x
            for m, value in values.items():
                lhs = tuple(value.get(r, f.zero) for r in range(n))
                failed[m] = CheckResult(False, Witness(label, pair=pair, lhs=lhs))
        for m, conditions in enumerate(results):
            conditions[label] = failed.get(m, _PASS)
    return results


# ---------------------------------------------------------------------------
# decomposing members


# the defining identity of each described kind, on a member's maps (D, then d for a pair)
_IDENTITIES = {
    "sigma_derivation": lambda sigma, d: is_sigma_derivation(d, sigma),
    "generalized_pair": lambda sigma, D, d: is_generalized_pair(D, d, sigma),
    "centralizing": lambda sigma, theta: predicate(theta, sigma, "centralizing"),
    "left_multiplier": lambda sigma, F: _leibniz_check(F, None, None, "generalized Leibniz rule"),
}


def _entries(*maps: LinearEndo) -> Vector:
    """The entries of the maps, row by row and one map after another."""
    return tuple(x for X in maps for row in X.matrix.entries for x in row)


def _decompose_map(what: str, t: TriangularAlgebra, sigma, kind: str, *maps):
    """The per-map ``decompose_*`` named ``what``: σ resolved, hypotheses
    gated, the maps' identity checked (PredicateNotSatisfied), then decomposed."""
    sigma = resolve_twist(t, sigma, kind)
    require_hypotheses(t, what, _TWISTED_DECOMPOSITION, sigma)
    maps = [as_endo(t, X) for X in maps]
    chk = _IDENTITIES[kind](sigma, *maps)
    if not chk.ok:
        raise PredicateNotSatisfied(chk.witness)
    return _decompose_members(t, sigma, kind, [_entries(*maps)])[0]


def _decompose_members(t: TriangularAlgebra, sigma: LinearEndo, kind: str, vectors) -> list:
    """The parts of the maps of ``vectors`` (as :func:`description_conditions`
    takes them), whose defining identity holds: σ's parts (which gate the
    twisted hypothesis), then every condition of the description of ``kind``
    on every map, raising ConditionFailure at the first that fails, then the
    blocks of each map."""
    aut = _aut_parts_for(t, sigma)
    results = description_conditions(t, sigma, kind, vectors)
    for conditions in results:
        for label, result in conditions.items():
            if not result.ok:
                raise ConditionFailure(label, result.witness)
    half = t.dim**2
    if kind == "sigma_derivation":
        return [_der_blocks(t, aut, endo_of_vec(t, v)) for v in vectors]
    if kind == "generalized_pair":
        pairs = [(endo_of_vec(t, v[:half]), endo_of_vec(t, v[half:])) for v in vectors]
        return [_gen_blocks(t, _der_blocks(t, aut, d), D) for D, d in pairs]
    if kind == "centralizing":
        return [
            _extract_cent_parts(t, sigma, endo_of_vec(t, v)).replace(conditions=conditions)
            for v, conditions in zip(vectors, results)
        ]
    return [
        MultParts(t, _corner_matrix(t, F, "a", "a"), _corner_matrix(t, F, "b", "b"), t.pi_m(F(t.q)))
        for F in (endo_of_vec(t, v) for v in vectors)
    ]


# the description each decomposed kind is checked against
_DESCRIBED_BY = {
    "derivation": "sigma_derivation",
    "sigma_derivation": "sigma_derivation",
    "centralizing": "centralizing",
    "commuting": "centralizing",
    "generalized_pair": "generalized_pair",
    "left_multiplier": "left_multiplier",
}


def decompose_space(t: TriangularAlgebra, sigma, kind: str) -> list:
    """The parts of every member of the solved space of ``kind``, in basis order.

    The space is solved once (:func:`trialg.maps.solve_space`), so its
    members' defining identity holds; the description's rows are evaluated
    on all of them at once, and each member's parts are read off its blocks.
    ``derivation`` and ``left_multiplier`` ignore σ.  The hypotheses are
    checked before the space is solved.
    """
    if kind not in _DESCRIBED_BY:
        raise ValueError(f"unknown decompose kind {kind!r}")
    sigma = resolve_twist(t, sigma, kind)
    require_hypotheses(t, "decompose_space", _TWISTED_DECOMPOSITION, sigma)
    space = solve_space(t, sigma, kind)
    return _decompose_members(t, sigma, _DESCRIBED_BY[kind], space.space.basis) if space.dim else []
