"""Finite-dimensional algebras, bimodules, triangular assembly, and centers.

An :class:`FDAlgebra` is given by structure constants over a fixed field; a
:class:`TriangularAlgebra` glues two unital algebras and a faithful bimodule
into the block algebra of formal upper-triangular 2x2 matrices.  The center
is the twisted center of the identity, and twisted centers are kernels of the
bracket operators λ ↦ σ(x)λ − λx, which one sparse builder reads from the
structure constants; :mod:`trialg.maps` takes its operators from the same
builder.  The (twisted) center of a triangular algebra is cross-checked
against its structural form, built from the pairs (a, b) with a·m = ν(m)·b,
and the corner maps τ and η are read off those pairs (the twisted-center
caller needs the automorphism decomposition and lives in
:mod:`trialg.structure`).  Whether a unital algebra has only the trivial
idempotents, the hypothesis of the paper's twisted structure theorems, is
decided from its structure constants by :func:`trivial_idempotents`.

Structure constants are public as dense tuples and are also held sparsely,
as the ``(t, s)`` nonzeros of each basis-pair product.  Every product and
module action, and the axiom checks made at construction, run through one
kernel, :func:`_bilinear`, that touches only nonzero coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    AssociativityViolation,
    BimoduleAxiomViolation,
    NotFaithful,
    StructuralMismatch,
    UnitViolation,
    ZeroModule,
)
from .fields import Field, Scalar
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _plain_rows,
    _sparse,
    kernel_basis,
    solve_linear,
    sparse_kernel,
    unit_vector,
    vec_neg,
    vec_zero,
)


def _sparse_table(table) -> tuple:
    """``table[i][j]`` as its ``(t, s)`` nonzeros."""
    return tuple(tuple(tuple(_sparse(v).items()) for v in row) for row in table)


def _bilinear(field: Field, dim: int, sparse, pairs) -> Vector:
    """Σ over ``(x, y)`` in ``pairs`` of Σ x_i·y_j·S_ij, for structure vectors
    S_ij given sparsely as ``sparse[i][j]``.

    Each ``x`` and ``y`` is an iterable of ``(index, value)`` nonzeros; ``y``
    is iterated once per nonzero of ``x``.  A difference of products is one
    call with the subtracted operand's values negated.  Returns the dense
    coordinates.
    """
    p = field.char
    out = [field.zero] * dim
    for x, y in pairs:
        for i, a in x:
            row = sparse[i]
            for j, b in y:
                c = a * b
                for t, s in row[j]:
                    acc = out[t] + c * s
                    out[t] = acc % p if p else acc
    return tuple(out)


class FDAlgebra:
    """Associative algebra with a distinguished basis and structure constants.

    ``table[i][j]`` holds the coordinates of the product of basis elements i
    and j; the same constants are kept sparsely for :meth:`mul`.
    Associativity (and the unit law, when a unit is declared) is verified on
    all basis triples at construction time.

    ``memo`` holds values derived from the (immutable) algebra, such as its
    center or its idempotent decision, computed once and freed with the
    algebra.
    """

    __slots__ = (
        "field", "labels", "table", "unit", "memo", "_sparse", "_basis", "__weakref__"
    )

    def __init__(
        self,
        field: Field,
        labels: Sequence[str],
        table: Sequence[Sequence[Sequence[Scalar]]],
        unit: Sequence[Scalar] | None = None,
    ):
        dim = len(labels)
        if dim == 0:
            raise ValueError("algebra must have positive dimension")
        if len(table) != dim or any(len(row) != dim for row in table):
            raise ValueError("structure constant table must be dim x dim")
        self.field = field
        self.labels = tuple(labels)
        self.table = tuple(tuple(tuple(v) for v in row) for row in table)
        for row in self.table:
            for v in row:
                if len(v) != dim:
                    raise ValueError("structure constant vectors must have length dim")
        self.unit = tuple(unit) if unit is not None else None
        self.memo: dict = {}
        self._sparse = _sparse_table(self.table)
        self._basis = tuple(unit_vector(field, dim, i) for i in range(dim))
        self._validate()

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    def zero(self) -> Vector:
        return vec_zero(self.field, self.dim)

    def basis_vector(self, i: int) -> Vector:
        return self._basis[i]

    def mul(self, x: Sequence, y: Sequence) -> Vector:
        return self._products(((_sparse(x).items(), _sparse(y).items()),))

    def _products(self, pairs) -> Vector:
        """Σ x·y over operand pairs given as ``(index, value)`` nonzeros (see :func:`_bilinear`)."""
        return _bilinear(self.field, self.dim, self._sparse, pairs)

    def left_mul_matrix(self, x: Sequence) -> Matrix:
        """Matrix of v -> x·v in the canonical basis."""
        xs, one = tuple(_sparse(x).items()), self.field.one
        cols = [self._products(((xs, ((l, one),)),)) for l in range(self.dim)]
        return Matrix.from_columns(self.field, cols, nrows=self.dim)

    def right_mul_matrix(self, x: Sequence) -> Matrix:
        """Matrix of v -> v·x in the canonical basis."""
        xs, one = tuple(_sparse(x).items()), self.field.one
        cols = [self._products(((((l, one),), xs),)) for l in range(self.dim)]
        return Matrix.from_columns(self.field, cols, nrows=self.dim)

    def _validate(self) -> None:
        # (e_i e_j) e_k − e_i (e_j e_k) on every triple, zero products too
        f, dim, S = self.field, self.dim, self._sparse
        e = [((i, f.one),) for i in range(dim)]
        minus_e = [((i, f.neg(f.one)),) for i in range(dim)]
        zero = self.zero()
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    if _bilinear(f, dim, S, ((S[i][j], e[k]), (minus_e[i], S[j][k]))) != zero:
                        left = _bilinear(f, dim, S, ((S[i][j], e[k]),))
                        right = _bilinear(f, dim, S, ((e[i], S[j][k]),))
                        raise AssociativityViolation(i, j, k, left, right)
        if self.unit is not None:
            if len(self.unit) != dim:
                raise ValueError("unit vector has wrong length")
            for i in range(dim):
                e = self.basis_vector(i)
                if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                    raise UnitViolation(i)

    def __repr__(self):
        kind = "unital" if self.is_unital else "non-unital"
        return f"FDAlgebra(dim={self.dim}, {kind}, field={self.field!r})"


class Bimodule:
    """A nonzero (A, B)-bimodule with basis and explicit action tables.

    ``left[i][k]`` is the coordinate vector of (i-th basis of A)·(k-th basis
    of M); ``right[k][j]`` that of (k-th basis of M)·(j-th basis of B).  Both
    tables are also kept sparsely for the actions.  The module axioms, the
    compatibility law (a·m)·b = a·(m·b) and the identity action of both units
    are all checked on basis triples.
    """

    __slots__ = ("left_algebra", "right_algebra", "labels", "left", "right", "_left", "_right", "_basis")

    def __init__(self, left_algebra: FDAlgebra, right_algebra: FDAlgebra, labels, left, right):
        if not labels:
            raise ZeroModule("bimodule must be nonzero")
        if not (left_algebra.is_unital and right_algebra.is_unital):
            raise ValueError("bimodule requires unital acting algebras")
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.labels = tuple(labels)
        self.left = tuple(tuple(tuple(v) for v in row) for row in left)
        self.right = tuple(tuple(tuple(v) for v in row) for row in right)
        if len(self.left) != left_algebra.dim or any(len(r) != self.dim for r in self.left):
            raise ValueError("left action table has wrong shape")
        if len(self.right) != self.dim or any(len(r) != right_algebra.dim for r in self.right):
            raise ValueError("right action table has wrong shape")
        self._left = _sparse_table(self.left)
        self._right = _sparse_table(self.right)
        self._basis = tuple(unit_vector(self.field, self.dim, k) for k in range(self.dim))
        self._validate()

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def field(self) -> Field:
        return self.left_algebra.field

    def zero(self) -> Vector:
        return vec_zero(self.field, self.dim)

    def basis_vector(self, k: int) -> Vector:
        return self._basis[k]

    def act_left(self, a: Sequence, m: Sequence) -> Vector:
        return _bilinear(self.field, self.dim, self._left, ((_sparse(a).items(), _sparse(m).items()),))

    def act_right(self, m: Sequence, b: Sequence) -> Vector:
        return _bilinear(self.field, self.dim, self._right, ((_sparse(m).items(), _sparse(b).items()),))

    def _validate(self) -> None:
        # every axiom on every basis triple, zero products too
        A, B = self.left_algebra, self.right_algebra
        f, dim, L, R = self.field, self.dim, self._left, self._right
        e = [((i, f.one),) for i in range(max(A.dim, dim, B.dim))]
        for i in range(A.dim):
            for j in range(A.dim):
                for k in range(dim):
                    if _bilinear(f, dim, L, ((A._sparse[i][j], e[k]),)) != _bilinear(f, dim, L, ((e[i], L[j][k]),)):
                        raise BimoduleAxiomViolation(f"(a{i}·a{j})·m{k} != a{i}·(a{j}·m{k})")
        for k in range(dim):
            for i in range(B.dim):
                for j in range(B.dim):
                    if _bilinear(f, dim, R, ((e[k], B._sparse[i][j]),)) != _bilinear(f, dim, R, ((R[k][i], e[j]),)):
                        raise BimoduleAxiomViolation(f"m{k}·(b{i}·b{j}) != (m{k}·b{i})·b{j}")
        for i in range(A.dim):
            for k in range(dim):
                for j in range(B.dim):
                    if _bilinear(f, dim, R, ((L[i][k], e[j]),)) != _bilinear(f, dim, L, ((e[i], R[k][j]),)):
                        raise BimoduleAxiomViolation(f"(a{i}·m{k})·b{j} != a{i}·(m{k}·b{j})")
        for k in range(self.dim):
            mk = self.basis_vector(k)
            if self.act_left(A.unit, mk) != mk:
                raise BimoduleAxiomViolation(f"1_A does not fix m{k}")
            if self.act_right(mk, B.unit) != mk:
                raise BimoduleAxiomViolation(f"1_B does not fix m{k}")

    def __repr__(self):
        return f"Bimodule(dim={self.dim})"


class TriangularAlgebra:
    """The block algebra of formal matrices [[a, m], [0, b]].

    Basis order: A's basis, then M's, then B's, so coordinate projections and
    embeddings are index slices.  ``p`` and ``q`` are the complementary
    diagonal idempotents (1_A, 0, 0) and (0, 0, 1_B).  M must be faithful
    on both sides (NotFaithful otherwise).  ``memo`` holds values derived from
    the algebra, computed once and freed with it.
    """

    __slots__ = ("A", "M", "B", "algebra", "p", "q", "memo", "__weakref__")

    def __init__(self, A: FDAlgebra, M: Bimodule, B: FDAlgebra):
        if not (A.is_unital and B.is_unital):
            raise ValueError("triangular assembly requires unital diagonal algebras")
        if M.left_algebra is not A or M.right_algebra is not B:
            raise ValueError("bimodule does not act for the given algebras")
        self.A, self.M, self.B = A, M, B
        self.memo: dict = {}
        self._check_faithful()
        self.algebra = self._assemble()
        self.p = self.element(A.unit, M.zero(), B.zero())
        self.q = self.element(A.zero(), M.zero(), B.unit)

    # -- coordinate bookkeeping ------------------------------------------

    @property
    def dim(self) -> int:
        return self.A.dim + self.M.dim + self.B.dim

    @property
    def field(self) -> Field:
        return self.A.field

    @property
    def trivial_idempotent_components(self) -> bool:
        """Both diagonal algebras are decided to have only trivial idempotents."""
        return trivial_idempotents(self.A) is True and trivial_idempotents(self.B) is True

    def element(self, a: Sequence, m: Sequence, b: Sequence) -> Vector:
        return tuple(a) + tuple(m) + tuple(b)

    def embed_a(self, a: Sequence) -> Vector:
        return self.element(a, self.M.zero(), self.B.zero())

    def embed_m(self, m: Sequence) -> Vector:
        return self.element(self.A.zero(), m, self.B.zero())

    def embed_b(self, b: Sequence) -> Vector:
        return self.element(self.A.zero(), self.M.zero(), b)

    def pi_a(self, x: Sequence) -> Vector:
        return tuple(x[: self.A.dim])

    def pi_m(self, x: Sequence) -> Vector:
        return tuple(x[self.A.dim : self.A.dim + self.M.dim])

    def pi_b(self, x: Sequence) -> Vector:
        return tuple(x[self.A.dim + self.M.dim :])

    # -- construction ------------------------------------------------------

    def _assemble(self) -> FDAlgebra:
        A, M, B = self.A, self.M, self.B
        na, nm, nb = A.dim, M.dim, B.dim
        labels = (
            tuple(f"a:{s}" for s in A.labels)
            + tuple(f"m:{s}" for s in M.labels)
            + tuple(f"b:{s}" for s in B.labels)
        )
        zero = vec_zero(self.field, na + nm + nb)
        table = [[zero] * (na + nm + nb) for _ in range(na + nm + nb)]
        for i in range(na):
            for j in range(na):
                table[i][j] = self.embed_a(A.table[i][j])
            for k in range(nm):
                table[i][na + k] = self.embed_m(M.left[i][k])
        for k in range(nm):
            for j in range(nb):
                table[na + k][na + nm + j] = self.embed_m(M.right[k][j])
        for i in range(nb):
            for j in range(nb):
                table[na + nm + i][na + nm + j] = self.embed_b(B.table[i][j])
        unit = self.element(A.unit, M.zero(), B.unit)
        return FDAlgebra(self.field, labels, table, unit)

    def _check_faithful(self) -> None:
        # a ↦ (m ↦ a·m) and b ↦ (m ↦ m·b) must be injective; the column of a
        # basis element stacks its action on every basis vector of M
        A, M, B = self.A, self.M, self.B
        left_cols = [[x for v in M.left[i] for x in v] for i in range(A.dim)]
        ker = kernel_basis(Matrix.from_columns(self.field, left_cols, nrows=M.dim * M.dim))
        if ker.dim:
            raise NotFaithful("left", ker.basis[0])
        right_cols = [[x for row in M.right for x in row[j]] for j in range(B.dim)]
        ker = kernel_basis(Matrix.from_columns(self.field, right_cols, nrows=M.dim * M.dim))
        if ker.dim:
            raise NotFaithful("right", ker.basis[0])

    def mul(self, x: Sequence, y: Sequence) -> Vector:
        return self.algebra.mul(x, y)

    def __repr__(self):
        return (
            f"TriangularAlgebra(dimA={self.A.dim}, dimM={self.M.dim}, "
            f"dimB={self.B.dim}, field={self.field!r})"
        )


# ---------------------------------------------------------------------------
# centers


def _bracket_operator(algebra: FDAlgebra, x, y, sign: int) -> list[dict]:
    """Sparse rows of the operator λ ↦ x·λ + sign·λ·y, one ``{column: value}``
    dict per coordinate, read from the sparse structure constants.

    ``x`` and ``y`` are ``(index, value)`` nonzeros; an empty one drops its
    side, so ``y = ()`` gives L_x and ``x = ()`` gives sign·R_y.  Values come
    out in :func:`trialg.linalg._plain_rows` form.
    """
    S = algebra._sparse
    rows: list[dict] = [{} for _ in range(algebra.dim)]
    for l in range(algebra.dim):
        for i, a in x:
            for t, s in S[i][l]:
                rows[t][l] = rows[t].get(l, 0) + a * s
        for j, b in y:
            for t, s in S[l][j]:
                rows[t][l] = rows[t].get(l, 0) + sign * b * s
    return _plain_rows(algebra.field, rows)


def center_subspace(algebra: FDAlgebra) -> Subspace:
    """The center, as the twisted center of the identity."""
    if "center" not in algebra.memo:
        algebra.memo["center"] = sigma_center_subspace(algebra, Matrix.identity(algebra.field, algebra.dim))
    return algebra.memo["center"]


def sigma_center_subspace(algebra: FDAlgebra, sigma: Matrix) -> Subspace:
    """Twisted center {λ : σ(x)λ = λx for all x}: the kernel of the operators
    λ ↦ σ(e_i)λ − λe_i stacked over the basis."""
    key = ("sigma_center", sigma)
    if key not in algebra.memo:
        images, one = sigma._cols(), algebra.field.one
        rows = [row for i in range(algebra.dim) for row in _bracket_operator(algebra, images[i], ((i, one),), -1)]
        algebra.memo[key] = sparse_kernel(algebra.field, rows, algebra.dim)
    return algebra.memo[key]


@dataclass(frozen=True)
class CenterData:
    """Center of a triangular algebra plus its diagonal shadow.

    ``tau`` maps the A-part of a central element to its forced B-part: its
    columns give the images (in B-coordinates) of the canonical basis of
    ``piA_center``.
    """

    center: Subspace
    piA_center: Subspace
    piB_center: Subspace
    tau: Matrix


def _structural_center_pairs(t: TriangularAlgebra, nu: Matrix) -> Subspace:
    """Solutions (a, b) of a·m = ν(m)·b for all m, in stacked (A|B)-coordinates."""
    A, M, B = t.A, t.M, t.B
    f = t.field
    rows = []
    for k in range(M.dim):
        nu_mk = nu.column(k)
        right = [M.act_right(nu_mk, B.basis_vector(j)) for j in range(B.dim)]
        for tcoord in range(M.dim):
            row = [M.left[i][k][tcoord] for i in range(A.dim)]
            row += [f.neg(r[tcoord]) for r in right]
            rows.append(row)
    return kernel_basis(Matrix(f, rows, ncols=A.dim + B.dim))


def _structural_pairs(t: TriangularAlgebra, space: Subspace, nu: Matrix, m_sigma: Vector, what: str) -> Subspace:
    """The pairs (a, b) with a·m = ν(m)·b for all m, once the elements
    (a, −m_σ·b, b) are checked to span ``space``, the kernel-computed
    (twisted) center; raises StructuralMismatch naming ``what`` otherwise."""
    na = t.A.dim
    pairs = _structural_center_pairs(t, nu)
    members = [t.element(v[:na], vec_neg(t.field, t.M.act_right(m_sigma, v[na:])), v[na:]) for v in pairs.basis]
    if Subspace.from_vectors(t.field, t.dim, members) != space:
        raise StructuralMismatch(f"{what} kernel differs from its structural form")
    return pairs


def _pair_partners(t: TriangularAlgebra, pairs: Subspace, parts: Sequence[Vector], from_a: bool) -> Matrix:
    """The matrix sending each of ``parts`` (A-parts of pairs when ``from_a``,
    else B-parts) to the other part of its pair, column by column.

    M is faithful, so each part of a pair (a, b) with a·m = ν(m)·b determines
    the other: a part's coordinates over the pair basis, found by
    :func:`solve_linear`, give its partner.
    """
    f, na = t.field, t.A.dim
    own, other = (slice(0, na), slice(na, None)) if from_a else (slice(na, None), slice(0, na))
    nrows = (na, t.B.dim) if from_a else (t.B.dim, na)
    known = Matrix.from_columns(f, [w[own] for w in pairs.basis], nrows=nrows[0])
    rest = Matrix.from_columns(f, [w[other] for w in pairs.basis], nrows=nrows[1])
    return Matrix.from_columns(f, [rest.mul_vec(solve_linear(known, v)) for v in parts], nrows=nrows[1])


def center(t: TriangularAlgebra) -> CenterData:
    """Center as a commutator kernel, cross-checked against its structural
    form {(a, 0, b) : a·m = m·b for all m}; raises StructuralMismatch if the
    cross-check fails.  τ is read off the structural pairs."""
    f = t.field
    oracle = center_subspace(t.algebra)
    pairs = _structural_pairs(t, oracle, Matrix.identity(f, t.M.dim), t.M.zero(), "center")
    piA = Subspace.from_vectors(f, t.A.dim, [t.pi_a(v) for v in oracle.basis])
    piB = Subspace.from_vectors(f, t.B.dim, [t.pi_b(v) for v in oracle.basis])
    if not piA.leq(center_subspace(t.A)):
        raise StructuralMismatch("projection of Z(T) is not central in A")
    if not piB.leq(center_subspace(t.B)):
        raise StructuralMismatch("projection of Z(T) is not central in B")
    return CenterData(oracle, piA, piB, _pair_partners(t, pairs, piA.basis, from_a=True))


# ---------------------------------------------------------------------------
# idempotents


def trivial_idempotents(algebra: FDAlgebra) -> bool | None:
    """Decide whether a unital algebra has no idempotents besides 0 and 1.

    ``False`` when a basis vector other than the unit is idempotent.  ``True``
    when the radical N of the trace form (x, y) ↦ tr(L_xy) has codimension 1
    and its powers reach 0 (L. E. Dickson 1923; L. Rónyai, J. Symbolic Comput.
    9, 1990).  N is an ideal of every associative algebra, as tr(L_a·L_x·L_y)
    = tr(L_x·L_y·L_a), so then A = K·1 ⊕ N is local; both checks are exact,
    so this holds in every characteristic.  ``None`` (undecided) otherwise, as
    for K[x]/(x^N) over F_p with p | N.  Computed once per algebra.
    """
    memo = algebra.memo
    if "trivial_idempotents" not in memo:
        if algebra.unit is None:
            raise ValueError("the idempotent decision needs a unital algebra")
        S, one = algebra._sparse, algebra.field.one
        if any(S[i][i] == ((i, one),) and algebra.basis_vector(i) != algebra.unit for i in range(algebra.dim)):
            decided = False
        else:
            radical = _trace_radical(algebra)
            decided = True if radical.dim == algebra.dim - 1 and _nilpotent(algebra, radical) else None
        memo["trivial_idempotents"] = decided
    return memo["trivial_idempotents"]


def _trace_radical(algebra: FDAlgebra) -> Subspace:
    """{x : tr(L_xy) = 0 for all y}, the radical of the trace form, as a kernel."""
    f, dim, table = algebra.field, algebra.dim, algebra.table
    # tr(L_{e_k}) sums the e_l-coefficients of e_k·e_l; tr(L_{e_i·e_j}) = Σ_k (e_i·e_j)_k·tr(L_{e_k})
    trace = [sum((table[k][l][l] for l in range(dim)), f.zero) for k in range(dim)]
    return kernel_basis(Matrix.from_columns(f, [Matrix(f, row).mul_vec(trace) for row in table]))


def _nilpotent(algebra: FDAlgebra, ideal: Subspace) -> bool:
    """Whether the powers N ⊇ N² ⊇ ... of an ideal reach 0."""
    power = ideal
    while power.dim:
        products = [algebra.mul(u, v) for u in power.basis for v in ideal.basis]
        nxt = Subspace.from_vectors(algebra.field, algebra.dim, products)
        if nxt.dim >= power.dim:
            return False
        power = nxt
    return True
