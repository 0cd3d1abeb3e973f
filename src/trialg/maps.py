"""Linear self-maps, twisted brackets, map predicates, and the solver that
turns each defining identity into a homogeneous linear system.

Quantified conditions ("for all x") are handled by polarization: the value of
q(x) = [x, Θ(x)]_σ (or its anti-symmetric variant) expands bilinearly as
q(Σ x_i e_i) = Σ_i x_i² q(e_i) + Σ_{i<j} x_i x_j sym(i, j), so q vanishes for
every x exactly when all diagonal values and all symmetrized basis-pair
values vanish.  The bracket operators λ ↦ σ(e_i)λ ∓ λe_i, and the Leibniz
rule's L_{σ(e_i)} and R_{e_j}, come as sparse rows from the one builder that
also gives the twisted centers (:func:`trialg.algebra._bracket_operator`).
Conditions of the form "value lies in the center" are made linear by reducing
each operator's rows against the center's echelon basis
(:meth:`trialg.linalg.Subspace.reduce_rows`), the row form of the fixed
complement projection that annihilates the center.

One checker, :func:`_pair_check`, decides every identity X(e_i·e_j) =
Σ P(e_i)·Q(e_j) on basis pairs: multiplicativity and the Leibniz rules here,
and the intertwining and ξ laws of :mod:`trialg.structure` over the module
tables.  Each side is one sparse evaluation on the maps' cached columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import FDAlgebra, TriangularAlgebra, _bilinear, _bracket_operator, center_subspace
from .errors import NotAutomorphism
from .fields import Field, Scalar
# kernel_basis is re-exported: perfbench's tracer rebinds trialg.maps.kernel_basis.
from .linalg import Matrix, Subspace, Vector, _plain_rows, kernel_basis, sparse_kernel, sparse_solve  # noqa: F401
from .linalg import vec_add, vec_is_zero, vec_sub

SOLVE_KINDS = (
    "derivation",
    "sigma_derivation",
    "generalized_pair",
    "left_multiplier",
    "commuting",
    "centralizing",
    "skew_commuting",
    "skew_centralizing",
)

PREDICATE_MODES = ("commuting", "centralizing", "skew_commuting", "skew_centralizing")


@dataclass(frozen=True)
class Witness:
    """Concrete counterexample surfaced by a failed check."""

    reason: str
    pair: tuple[int, int] | None = None
    element: Vector | None = None
    lhs: Vector | None = None
    rhs: Vector | None = None

    def __repr__(self):
        bits = [self.reason]
        if self.pair is not None:
            bits.append(f"pair={self.pair}")
        return f"Witness({', '.join(bits)})"


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: Witness | None = None

    def __bool__(self) -> bool:
        return self.ok


_PASS = CheckResult(True)


class LinearEndo:
    """A linear self-map of an algebra; column j is the image of basis j."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: FDAlgebra, matrix: Matrix):
        if matrix.nrows != matrix.ncols or matrix.nrows != algebra.dim:
            raise ValueError("endomorphism matrix must be dim x dim")
        if matrix.field != algebra.field:
            raise ValueError("endomorphism field mismatch")
        self.algebra = algebra
        self.matrix = matrix

    @classmethod
    def identity(cls, algebra: FDAlgebra) -> "LinearEndo":
        return cls(algebra, Matrix.identity(algebra.field, algebra.dim))

    @classmethod
    def zero(cls, algebra: FDAlgebra) -> "LinearEndo":
        return cls(algebra, Matrix.zeros(algebra.field, algebra.dim, algebra.dim))

    @classmethod
    def from_images(cls, algebra: FDAlgebra, images: Sequence[Sequence[Scalar]]) -> "LinearEndo":
        return cls(algebra, Matrix.from_columns(algebra.field, images, nrows=algebra.dim))

    def __call__(self, v: Sequence) -> Vector:
        return self.matrix.mul_vec(v)

    def is_identity(self) -> bool:
        return self.matrix == Matrix.identity(self.algebra.field, self.algebra.dim)

    def __eq__(self, other):
        return isinstance(other, LinearEndo) and other.algebra is self.algebra and other.matrix == self.matrix

    def __hash__(self):
        return hash((id(self.algebra), self.matrix))

    def __repr__(self):
        return f"LinearEndo(dim={self.algebra.dim})"


def as_algebra(obj) -> FDAlgebra:
    return obj.algebra if isinstance(obj, TriangularAlgebra) else obj


def as_endo(algebra_or_t, obj) -> LinearEndo:
    """Coerce a LinearEndo or raw Matrix to an endomorphism of the algebra."""
    algebra = as_algebra(algebra_or_t)
    if isinstance(obj, LinearEndo):
        if obj.algebra is not algebra and obj.algebra.table != algebra.table:
            raise ValueError("endomorphism belongs to a different algebra")
        return obj
    return LinearEndo(algebra, obj)


# ---------------------------------------------------------------------------
# twisted brackets


def bracket_sigma(sigma: LinearEndo, x: Sequence, y: Sequence) -> Vector:
    """σ(x)·y − y·x."""
    alg = sigma.algebra
    f = alg.field
    prod = alg.mul(sigma(x), y)
    return tuple(f.sub(a, b) for a, b in zip(prod, alg.mul(y, x)))


def abracket_sigma(sigma: LinearEndo, x: Sequence, y: Sequence) -> Vector:
    """σ(x)·y + y·x."""
    alg = sigma.algebra
    return vec_add(alg.field, alg.mul(sigma(x), y), alg.mul(y, x))


# ---------------------------------------------------------------------------
# pointwise predicates


def _units(alg) -> list:
    """The basis vectors of an algebra or bimodule as ``(index, value)`` nonzeros."""
    return [((i, alg.field.one),) for i in range(alg.dim)]


def _pair_check(table, X: Matrix, terms, reason: str) -> CheckResult:
    """X(e_i·e_j) = Σ P(e_i)·Q(e_j) on every basis pair of a sparse structure
    table (an algebra's ``_sparse``, a bimodule's ``_left`` or ``_right``),
    each term ``(P, Q)`` given by the sparse columns of its maps, which skip
    the length check of :meth:`Matrix.mul_vec`: the shapes must fit the table."""
    for i, row in enumerate(table):
        for j, product in enumerate(row):
            lhs = X._apply(product)
            rhs = _bilinear(X.field, X.nrows, table, [(P[i], Q[j]) for P, Q in terms])
            if lhs != rhs:
                return CheckResult(False, Witness(reason, pair=(i, j), lhs=lhs, rhs=rhs))
    return _PASS


def is_automorphism(theta: LinearEndo) -> CheckResult:
    alg = theta.algebra
    n = alg.dim
    if theta.matrix.rank() != n:
        return CheckResult(False, Witness("not invertible"))
    if alg.is_unital and theta(alg.unit) != tuple(alg.unit):
        return CheckResult(False, Witness("unit not preserved", lhs=theta(alg.unit), rhs=tuple(alg.unit)))
    images = theta.matrix._cols()
    return _pair_check(alg._sparse, theta.matrix, ((images, images),), "multiplicativity")


def require_automorphism(theta: LinearEndo) -> LinearEndo:
    """``theta`` itself, or NotAutomorphism carrying the check's witness."""
    check = is_automorphism(theta)
    if not check.ok:
        raise NotAutomorphism(check.witness)
    return theta


def _leibniz_check(D: LinearEndo, d: LinearEndo | None, sigma: LinearEndo | None, reason: str) -> CheckResult:
    """D(e_i e_j) = D(e_i)e_j + σ(e_i)d(e_j) on all basis pairs; ``d=None``
    drops the σ term (the left multiplier rule)."""
    terms = [(D.matrix._cols(), _units(D.algebra))]
    if d is not None:
        terms.append((sigma.matrix._cols(), d.matrix._cols()))
    return _pair_check(D.algebra._sparse, D.matrix, terms, reason)


def is_sigma_derivation(d: LinearEndo, sigma: LinearEndo) -> CheckResult:
    """d(xy) = d(x)y + σ(x)d(y), checked on all basis pairs."""
    return _leibniz_check(d, d, sigma, "twisted Leibniz rule")


def is_derivation(d: LinearEndo) -> CheckResult:
    return is_sigma_derivation(d, LinearEndo.identity(d.algebra))


def is_generalized_pair(D: LinearEndo, d: LinearEndo, sigma: LinearEndo) -> CheckResult:
    """D(xy) = D(x)y + σ(x)d(y) with d a σ-derivation, on all basis pairs."""
    inner = is_sigma_derivation(d, sigma)
    if not inner.ok:
        return inner
    return _leibniz_check(D, d, sigma, "generalized Leibniz rule")


def is_left_multiplier(F: LinearEndo) -> CheckResult:
    """F(xy) = F(x)y on all basis pairs."""
    return _leibniz_check(F, None, None, "left multiplier rule")


def predicate(theta: LinearEndo, sigma: LinearEndo, mode: str) -> CheckResult:
    """Universally quantified bracket condition, decided by polarization.

    mode is one of ``commuting`` / ``centralizing`` / ``skew_commuting`` /
    ``skew_centralizing``; the skew variants use the anti-symmetric bracket
    and the centralizing variants only require the value to be central.
    A failure reports the lexicographically first violating basis pair and
    the element witness e_i (+ e_j) together with the bracket value there.
    """
    if mode not in PREDICATE_MODES:
        raise ValueError(f"unknown predicate mode {mode!r}")
    alg = theta.algebra
    f = alg.field
    skew = mode.startswith("skew")
    residual = center_subspace(alg).reduce if mode.endswith("centralizing") else (lambda v: v)
    e, ss, th = _units(alg), sigma.matrix._cols(), theta.matrix._cols()
    # the bracket σ(x)θ(y) ∓ θ(y)x: the second product takes θ(y) negated unless skew
    th_second = th if skew else [tuple((k, f.neg(a)) for k, a in col) for col in th]
    n = alg.dim
    for i in range(n):
        for j in range(i, n):
            # bracket(e_i, e_j), plus bracket(e_j, e_i) off the diagonal
            pairs = [(ss[i], th[j]), (th_second[j], e[i])]
            if i != j:
                pairs += [(ss[j], th[i]), (th_second[i], e[j])]
            val = alg._products(pairs)
            if not vec_is_zero(residual(val)):
                ei = alg.basis_vector(i)
                element = ei if i == j else vec_add(f, ei, alg.basis_vector(j))
                return CheckResult(
                    False, Witness(f"{mode} fails", pair=(i, j), element=element, lhs=val)
                )
    return _PASS


def inner_automorphism(alg: FDAlgebra, u: Sequence) -> LinearEndo:
    """Conjugation x -> u·x·u⁻¹ by an invertible element of a unital algebra.

    Raises ValueError when the algebra has no unit, or u has the wrong length
    or is not invertible.
    """
    if not alg.is_unital:
        raise ValueError("conjugation needs a unital algebra")
    if len(u) != alg.dim:
        raise ValueError("conjugating element has wrong length")
    left = alg.left_mul_matrix(u)
    inv = left.inverse()
    if inv is None:
        raise ValueError("conjugating element is not invertible")
    return LinearEndo(alg, left @ alg.right_mul_matrix(inv.mul_vec(alg.unit)))


# ---------------------------------------------------------------------------
# map spaces


def vec_of_endo(endo: LinearEndo) -> Vector:
    return tuple(x for row in endo.matrix.entries for x in row)


def endo_of_vec(algebra: FDAlgebra, v: Sequence) -> LinearEndo:
    n = algebra.dim
    rows = [v[r * n : (r + 1) * n] for r in range(n)]
    return LinearEndo(algebra, Matrix(algebra.field, rows, ncols=n))


@dataclass(frozen=True)
class MapSpace:
    """A solved space of endomorphisms (or (D, d) pairs) of one algebra."""

    algebra: FDAlgebra
    kind: str
    pair: bool
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def endos(self) -> list[LinearEndo]:
        if self.pair:
            raise ValueError("pair space: use endo_pairs()")
        return [endo_of_vec(self.algebra, v) for v in self.space.basis]

    def endo_pairs(self) -> list[tuple[LinearEndo, LinearEndo]]:
        if not self.pair:
            raise ValueError("not a pair space")
        half = self.algebra.dim ** 2
        return [
            (endo_of_vec(self.algebra, v[:half]), endo_of_vec(self.algebra, v[half:]))
            for v in self.space.basis
        ]

    def contains_endo(self, endo: LinearEndo) -> bool:
        if self.pair:
            raise ValueError("pair space: use contains_pair()")
        return self.space.contains(vec_of_endo(endo))

    def contains_pair(self, D: LinearEndo, d: LinearEndo) -> bool:
        return self.space.contains(vec_of_endo(D) + vec_of_endo(d))

    def first_component_space(self) -> Subspace:
        """Projection of a pair space onto its D-block."""
        half = self.algebra.dim ** 2
        return Subspace.from_vectors(
            self.algebra.field, half, [v[:half] for v in self.space.basis]
        )


class _System:
    """Sparse rows of a homogeneous system over endo-block unknowns.

    Unknown ``b·n² + r·n + k`` is entry (r, k) of the block-b map.  A row is
    a ``{column: value}`` dict of plain ints (Fractions only where the data
    has denominators); :func:`trialg.linalg.sparse_kernel` clears
    denominators and reduces mod p.  Every equation adds exactly n rows, empty
    or not, so rows stay paired with a right-hand side by position.
    """

    def __init__(self, field: Field, n: int, blocks: int):
        self.field = field
        self.n = n
        self.width = blocks * n * n
        self.rows: list[dict[int, Scalar]] = []

    def equation(self, terms) -> None:
        """Add the n coordinate rows of sum of terms = 0.

        Each term is (block, P, v, sign): the expression sign·P·X_block(v)
        with P a known matrix given by its n sparse rows and v a known vector
        given sparsely, both as ``{index: value}`` dicts in
        :func:`trialg.linalg._plain_rows` form, and sign ±1.
        """
        n = self.n
        rows: list[dict[int, Scalar]] = [{} for _ in range(n)]
        for block, P, v, sign in terms:
            offset = block * n * n
            for row, prow in zip(rows, P):
                for t, pt in prow.items():
                    c = sign * pt
                    base = offset + t * n
                    for k, vk in v.items():
                        col = base + k
                        row[col] = row.get(col, 0) + c * vk
        self.rows.extend(rows)

    def kernel(self) -> Subspace:
        return sparse_kernel(self.field, self.rows, self.width)


class _Leibniz:
    """Sparse operators of the twisted Leibniz rule for one algebra and twist."""

    def __init__(self, alg: FDAlgebra, sigma: LinearEndo):
        n, one, images = alg.dim, alg.field.one, sigma.matrix._cols()
        self.n = n
        # e_i in sparse form; as a list of rows it is also the identity matrix
        self.basis = [{i: 1} for i in range(n)]
        self.table = [_plain_rows(alg.field, map(dict, row)) for row in alg._sparse]
        self.right = [_bracket_operator(alg, (), ((j, one),), 1) for j in range(n)]
        self.left_sigma = [_bracket_operator(alg, images[i], (), 1) for i in range(n)]

    def add_to(self, system: _System, D_block: int, d_block: int | None) -> None:
        """X_D(e_i e_j) − X_D(e_i)e_j − σ(e_i)X_d(e_j) = 0 on all basis pairs;
        ``d_block=None`` drops the σ term (the left multiplier rule)."""
        n = self.n
        for i in range(n):
            for j in range(n):
                terms = [(D_block, self.basis, self.table[i][j], 1), (D_block, self.right[j], self.basis[i], -1)]
                if d_block is not None:
                    terms.append((d_block, self.left_sigma[i], self.basis[j], -1))
                system.equation(terms)


def solve_space(algebra_or_t, sigma: LinearEndo | None, kind: str) -> MapSpace:
    """Solve the full space of maps of the given kind as a kernel.

    ``sigma`` must be a verified automorphism for the twisted kinds and is
    ignored (replaced by the identity) for ``derivation`` and
    ``left_multiplier``.  Generalized pairs are solved jointly in the
    unknowns (D, d) with the twisted Leibniz constraint imposed on d.
    """
    if kind not in SOLVE_KINDS:
        raise ValueError(f"unknown solve kind {kind!r}")
    alg = as_algebra(algebra_or_t)
    f = alg.field
    n = alg.dim
    if kind in ("derivation", "left_multiplier"):
        sigma = LinearEndo.identity(alg)
    else:
        if sigma is None:
            raise ValueError(f"kind {kind!r} needs an automorphism")
        sigma = require_automorphism(as_endo(alg, sigma))

    pair = kind == "generalized_pair"
    system = _System(f, n, 2 if pair else 1)

    if kind in ("derivation", "sigma_derivation", "left_multiplier", "generalized_pair"):
        leibniz = _Leibniz(alg, sigma)
        leibniz.add_to(system, 0, None if kind == "left_multiplier" else int(pair))
        if pair:
            leibniz.add_to(system, 1, 1)
    else:
        # σ(e_i)λ − λe_i, or σ(e_i)λ + λe_i for the skew kinds
        sign = 1 if kind.startswith("skew") else -1
        images, one = sigma.matrix._cols(), f.one
        op = [_bracket_operator(alg, images[i], ((i, one),), sign) for i in range(n)]
        if kind.endswith("centralizing"):
            center = center_subspace(alg)
            op = [center.reduce_rows(rows) for rows in op]
        basis = [{i: 1} for i in range(n)]
        for i in range(n):
            system.equation([(0, op[i], basis[i], 1)])
            for j in range(i + 1, n):
                system.equation([(0, op[i], basis[j], 1), (0, op[j], basis[i], 1)])

    return MapSpace(alg, kind, pair, system.kernel())


def associated_derivations(D: LinearEndo, sigma: LinearEndo):
    """All σ-derivations d making (D, d) a generalized pair.

    Returns ``(particular, homogeneous)`` where the full solution set is
    particular + homogeneous, or None when no partner exists.  On a unital
    algebra the homogeneous part is zero, so the partner is unique.
    """
    alg = D.algebra
    f = alg.field
    n = alg.dim
    leibniz = _Leibniz(alg, sigma)
    system = _System(f, n, 1)
    rhs: list[Scalar] = []
    for i in range(n):
        D_ei = D(alg.basis_vector(i))
        for j in range(n):
            # known part: D(e_i e_j) - D(e_i) e_j must equal sigma(e_i) d(e_j)
            system.equation([(0, leibniz.left_sigma[i], leibniz.basis[j], 1)])
            rhs.extend(vec_sub(f, D(alg.table[i][j]), alg.mul(D_ei, alg.basis_vector(j))))
    # twisted Leibniz on d itself is homogeneous; stack it below the probes
    leibniz.add_to(system, 0, 0)
    rhs.extend([f.zero] * (len(system.rows) - len(rhs)))
    particular = sparse_solve(f, system.rows, rhs, system.width)
    if particular is None:
        return None
    return endo_of_vec(alg, particular), system.kernel()
