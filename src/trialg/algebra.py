"""Finite-dimensional algebras, bimodules, triangular assembly, and centers.

An :class:`FDAlgebra` is given by structure constants over a fixed field; a
:class:`TriangularAlgebra` glues two unital algebras and a faithful bimodule
into the block algebra of formal upper-triangular 2x2 matrices, and is itself
an :class:`FDAlgebra`.  The center is the twisted center of the identity, and
twisted centers are kernels of the bracket operators λ ↦ σ(e_i)λ − λe_i,
which one sparse builder reads from the structure constants for
:mod:`trialg.maps` and :mod:`trialg.structure` too.  The (twisted) center of
a triangular algebra is cross-checked against its structural form, whose
pairs (a, b) with a·m = ν(m)·b are the kernel on A ⊕ B of the module brackets
c_k(λ) = λ·m_k − ν(m_k)·λ; τ and η are read off those pairs (η in
:mod:`trialg.structure`, which decomposes the automorphism).
:func:`_module_brackets` builds the brackets once, on T, for these pairs, for
faithfulness and for the centralizing description.  Whether a unital algebra
has only the trivial idempotents, the hypothesis of the paper's twisted
structure theorems, is decided by :func:`trivial_idempotents`, and
:func:`require_hypotheses` is the one gate of it and of being triangular.

Structure constants are held in one form, as the ``(t, s)`` nonzeros of
each basis-pair product.  Every product and module action, and the axiom
checks made at construction, run through one kernel, :func:`_bilinear`, that
touches only nonzero coordinates; the associativity and bimodule laws are
checked by :func:`_associator` on the basis triples where a nonzero product
enters either side.  Both sides are 0 on the others, so the verdict and
first failure are those of all triples.  A triangular algebra is assembled
from its corners' sparse tables, since every nonzero product of its basis
elements is one corner product with shifted indices; it is associative with
unit (1_A, 0, 1_B) because A and B are and M is a unital bimodule, so its
laws follow from the corners' checks and are not checked again.  M is then
checked faithful on T, by the A and B columns of the brackets at ν = id.
"""

from __future__ import annotations

from typing import Sequence

from .errors import (
    AssociativityViolation,
    BimoduleAxiomViolation,
    HypothesisNotMet,
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
from .records import Record


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


def _associator(field: Field, dim: int, P, Q, X, Y):
    """The first basis triple (i, j, k), in lexicographic order, on which
    Σ_t P[i][j]_t·Q[t][k] ≠ Σ_t X[j][k]_t·Y[i][t] over sparse tables, as
    ``(i, j, k, left, right)`` with dense sides; ``None`` if there is none.
    Only the live triples, where a term of either side is nonzero, are
    evaluated: on the others both sides are the empty sum."""
    one = field.one
    q_cols = [[k for k, v in enumerate(row) if v] for row in Q]
    x_index: list[dict] = [{} for _ in X]  # x_index[j][t]: the k with t in the support of X[j][k]
    for index, row in zip(x_index, X):
        for k, v in enumerate(row):
            for t, _ in v:
                index.setdefault(t, []).append(k)
    for i, p_row in enumerate(P):
        y_support = [t for t, v in enumerate(Y[i]) if v]
        for j, p_ij in enumerate(p_row):
            live = {k for t, _ in p_ij for k in q_cols[t]}
            live.update(k for t in y_support for k in x_index[j].get(t, ()))
            for k in sorted(live):
                left = _bilinear(field, dim, Q, ((p_ij, ((k, one),)),))
                right = _bilinear(field, dim, Y, ((((i, one),), X[j][k]),))
                if left != right:
                    return i, j, k, left, right
    return None


class FDAlgebra:
    """Associative algebra with a distinguished basis and structure constants.

    The constructor's ``table[i][j]`` holds the coordinates of the product
    of basis elements i and j; they are kept sparsely, ``_sparse[i][j]``
    being the ``(t, s)`` nonzeros of that product.  Associativity is verified
    at construction on the basis triples where a nonzero product enters
    either side (both vanish on the others), and the unit law, when a unit
    is declared, on every basis element.

    ``memo`` holds values derived from the (immutable) algebra, such as its
    center or its idempotent decision, computed once and freed with the
    algebra.
    """

    __slots__ = (
        "field", "labels", "unit", "memo", "_sparse", "_basis", "__weakref__"
    )

    def __init__(
        self,
        field: Field,
        labels: Sequence[str],
        table: Sequence[Sequence[Sequence[Scalar]]],
        unit: Sequence[Scalar] | None = None,
    ):
        dim = len(labels)
        if len(table) != dim or any(len(row) != dim for row in table):
            raise ValueError("structure constant table must be dim x dim")
        if any(len(v) != dim for row in table for v in row):
            raise ValueError("structure constant vectors must have length dim")
        self._init(field, labels, _sparse_table(table), unit)._validate()

    def _init(self, field: Field, labels: Sequence[str], sparse: tuple, unit: Sequence[Scalar] | None) -> "FDAlgebra":
        """Set every attribute from structure constants in ``_sparse`` form,
        unchecked; returns the algebra."""
        self.field = field
        self.labels = tuple(labels)
        self.unit = tuple(unit) if unit is not None else None
        self.memo: dict = {}
        self._sparse = sparse
        self._basis = tuple(unit_vector(field, self.dim, i) for i in range(self.dim))
        return self

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

    def _validate(self) -> "FDAlgebra":
        """Check the dimension, associativity and the unit law; returns the algebra."""
        dim, S = self.dim, self._sparse
        if dim == 0:
            raise ValueError("algebra must have positive dimension")
        bad = _associator(self.field, dim, S, S, S, S)
        if bad:
            raise AssociativityViolation(*bad)
        if self.unit is not None:
            if len(self.unit) != dim:
                raise ValueError("unit vector has wrong length")
            for i in range(dim):
                e = self.basis_vector(i)
                if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                    raise UnitViolation(i)
        return self

    def __repr__(self):
        kind = "unital" if self.is_unital else "non-unital"
        return f"FDAlgebra(dim={self.dim}, {kind}, field={self.field!r})"


class Bimodule:
    """A nonzero (A, B)-bimodule with basis and explicit action tables.

    The constructor's ``left[i][k]`` is the coordinate vector of (i-th basis
    of A)·(k-th basis of M), and ``right[k][j]`` that of (k-th basis of
    M)·(j-th basis of B); both tables are kept sparsely, as ``_left`` and
    ``_right`` in the ``_sparse`` form of :class:`FDAlgebra`.  Every action
    vector must have length dim M.
    The two module laws and the compatibility law (a·m)·b = a·(m·b) are
    checked on the basis triples where a nonzero product enters either side
    (both vanish on the others), and the identity action of both units on
    every basis vector of M.
    """

    __slots__ = (
        "left_algebra", "right_algebra", "labels", "_left", "_right", "_basis"
    )

    def __init__(self, left_algebra: FDAlgebra, right_algebra: FDAlgebra, labels, left, right):
        if not labels:
            raise ZeroModule("bimodule must be nonzero")
        if not (left_algebra.is_unital and right_algebra.is_unital):
            raise ValueError("bimodule requires unital acting algebras")
        dim = len(labels)
        if len(left) != left_algebra.dim or any(len(r) != dim for r in left):
            raise ValueError("left action table has wrong shape")
        if len(right) != dim or any(len(r) != right_algebra.dim for r in right):
            raise ValueError("right action table has wrong shape")
        for side, table in (("left", left), ("right", right)):
            if any(len(v) != dim for row in table for v in row):
                raise ValueError(f"{side} action vectors must have length dim M")
        self._init(left_algebra, right_algebra, labels, _sparse_table(left), _sparse_table(right))._validate()

    def _init(self, left_algebra: FDAlgebra, right_algebra: FDAlgebra, labels, left: tuple, right: tuple) -> "Bimodule":
        """Set every attribute from action tables in ``_sparse`` form,
        unchecked; returns the bimodule."""
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.labels = tuple(labels)
        self._left, self._right = left, right
        self._basis = tuple(unit_vector(self.field, self.dim, k) for k in range(self.dim))
        return self

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

    def _validate(self) -> "Bimodule":
        """Check the module laws and the unit actions; returns the bimodule."""
        A, B, L, R = self.left_algebra, self.right_algebra, self._left, self._right
        # (P, Q, X, Y) of each law, its triple in the order its message names it
        laws = (
            ((A._sparse, L, L, L), "(a{0}·a{1})·m{2} != a{0}·(a{1}·m{2})"),
            ((R, R, B._sparse, R), "m{0}·(b{1}·b{2}) != (m{0}·b{1})·b{2}"),
            ((L, R, R, L), "(a{0}·m{1})·b{2} != a{0}·(m{1}·b{2})"),
        )
        for tables, law in laws:
            bad = _associator(self.field, self.dim, *tables)
            if bad:
                raise BimoduleAxiomViolation(law.format(*bad))
        for k in range(self.dim):
            mk = self.basis_vector(k)
            if self.act_left(A.unit, mk) != mk:
                raise BimoduleAxiomViolation(f"1_A does not fix m{k}")
            if self.act_right(mk, B.unit) != mk:
                raise BimoduleAxiomViolation(f"1_B does not fix m{k}")
        return self

    def __repr__(self):
        return f"Bimodule(dim={self.dim})"


class TriangularAlgebra(FDAlgebra):
    """The block algebra of formal matrices [[a, m], [0, b]], itself an
    :class:`FDAlgebra` with the unit (1_A, 0, 1_B).

    Basis order: A's basis, then M's, then B's, so coordinate projections and
    embeddings are index slices.  ``p`` and ``q`` are the complementary
    diagonal idempotents (1_A, 0, 0) and (0, 0, 1_B).  M must be faithful
    on both sides (NotFaithful otherwise).
    """

    __slots__ = ("A", "M", "B", "p", "q")

    def __init__(self, A: FDAlgebra, M: Bimodule, B: FDAlgebra):
        if not (A.is_unital and B.is_unital):
            raise ValueError("triangular assembly requires unital diagonal algebras")
        if M.left_algebra is not A or M.right_algebra is not B:
            raise ValueError("bimodule does not act for the given algebras")
        self.A, self.M, self.B = A, M, B
        self._assemble()
        self._check_faithful()
        self.p = self.element(A.unit, M.zero(), B.zero())
        self.q = self.element(A.zero(), M.zero(), B.unit)

    # -- coordinate bookkeeping ------------------------------------------

    @property
    def trivial_idempotent_components(self) -> bool:
        """Both diagonal algebras are decided to have only trivial idempotents."""
        return trivial_idempotents(self.A) is True and trivial_idempotents(self.B) is True

    def element(self, a: Sequence, m: Sequence, b: Sequence) -> Vector:
        return tuple(a) + tuple(m) + tuple(b)

    def pi_a(self, x: Sequence) -> Vector:
        return tuple(x[: self.A.dim])

    def pi_m(self, x: Sequence) -> Vector:
        return tuple(x[self.A.dim : self.A.dim + self.M.dim])

    def pi_b(self, x: Sequence) -> Vector:
        return tuple(x[self.A.dim + self.M.dim :])

    # -- construction ------------------------------------------------------

    def _assemble(self) -> None:
        """Set T's structure constants from its corners' sparse tables:
        a_i·a_j, a_i·m_k, m_k·b_j and b_i·b_j are corner products with shifted
        indices, and every other basis product is 0.  A, B and M were checked
        at construction, so T is associative with unit (1_A, 0, 1_B) and is
        not checked again."""
        A, M, B = self.A, self.M, self.B
        na, nm, nb = A.dim, M.dim, B.dim

        def shifted(table, offset):
            return [tuple(tuple((t + offset, s) for t, s in v) for v in row) for row in table]

        sparse = tuple(
            [a + m + ((),) * nb for a, m in zip(A._sparse, shifted(M._left, na))]
            + [((),) * (na + nm) + m for m in shifted(M._right, na)]
            + [((),) * (na + nm) + b for b in shifted(B._sparse, na + nm)]
        )
        labels = [f"a:{s}" for s in A.labels] + [f"m:{s}" for s in M.labels] + [f"b:{s}" for s in B.labels]
        self._init(A.field, labels, sparse, self.element(A.unit, M.zero(), B.unit))

    def _check_faithful(self) -> None:
        # a ↦ (m ↦ a·m) and b ↦ (m ↦ m·b) must be injective; at ν = id the module
        # brackets' A columns stack a·m_k over every k, their B columns −m_k·b
        f = self.field
        rows = [row for op in _module_brackets(self, Matrix.identity(f, self.M.dim)) for _, row in op]
        for side, cols in (("left", range(self.A.dim)), ("right", range(self.dim - self.B.dim, self.dim))):
            ker = sparse_kernel(f, [{c - cols.start: s for c, s in row.items() if c in cols} for row in rows], len(cols))
            if ker.dim:
                raise NotFaithful(side, ker.basis[0])

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


def _twisted_brackets(algebra: FDAlgebra, sigma: Matrix, sign: int) -> list[list[dict]]:
    """The sparse rows of λ ↦ σ(e_i)λ + sign·λe_i for every basis vector e_i,
    in basis order, as :func:`_bracket_operator` gives them."""
    images, one = sigma._cols(), algebra.field.one
    return [_bracket_operator(algebra, images[i], ((i, one),), sign) for i in range(algebra.dim)]


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
        rows = [row for op in _twisted_brackets(algebra, sigma, -1) for row in op]
        algebra.memo[key] = sparse_kernel(algebra.field, rows, algebra.dim)
    return algebra.memo[key]


class CenterData(Record):
    """Center of a triangular algebra plus its diagonal shadow.

    ``tau`` maps the A-part of a central element to its forced B-part: its
    columns give the images (in B-coordinates) of the canonical basis of
    ``piA_center``.
    """

    center: Subspace
    piA_center: Subspace
    piB_center: Subspace
    tau: Matrix


def _module_brackets(t: TriangularAlgebra, nu: Matrix) -> list[list[tuple[int, dict]]]:
    """For each basis vector m_k of M, the live rows, in T's coordinates, of
    the module bracket c_k(λ) = λ·m_k − ν(m_k)·λ, read through
    :func:`_bracket_operator`.  As c_k(a, m, b) = a·m_k − ν(m_k)·b, the rows
    are on M and the columns on A and B."""
    na, one = t.A.dim, t.field.one
    minus_nu = [tuple((na + r, -v) for r, v in col) for col in nu._cols()]
    ops = (_bracket_operator(t, x, ((na + k, one),), 1) for k, x in enumerate(minus_nu))
    return [[(r, row) for r, row in enumerate(rows) if row] for rows in ops]


def _structural_center_pairs(t: TriangularAlgebra, nu: Matrix) -> Subspace:
    """Solutions (a, b) of a·m = ν(m)·b for all m, in stacked (A|B)-coordinates:
    the kernel of the module brackets on A ⊕ B."""
    na, nm = t.A.dim, t.M.dim
    rows = [{c if c < na else c - nm: s for c, s in row.items()} for op in _module_brackets(t, nu) for _, row in op]
    return sparse_kernel(t.field, rows, na + t.B.dim)


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
    require_hypotheses(t, "center")
    f = t.field
    oracle = center_subspace(t)
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


def require_hypotheses(t, what: str | None, twisted: str | None = None, sigma=None) -> None:
    """HypothesisNotMet unless ``t`` is a triangular algebra (asked by the
    statement named ``what``) whose diagonal algebras are both decided
    idempotent-free (the hypothesis of the twisted statement named
    ``twisted``, which a given ``sigma`` that is the identity does not need).
    The first hypothesis not met is named."""
    triangular = isinstance(t, TriangularAlgebra)
    if what is not None and not triangular:
        raise HypothesisNotMet(f"{what} needs a triangular algebra")
    if twisted is None or sigma is not None and sigma.is_identity():
        return
    if not triangular:
        raise HypothesisNotMet(f"{twisted} needs a triangular algebra")
    if not t.trivial_idempotent_components:
        raise HypothesisNotMet(f"{twisted} needs diagonal algebras decided idempotent-free")


def _trace_radical(algebra: FDAlgebra) -> Subspace:
    """{x : tr(L_xy) = 0 for all y}, the radical of the trace form, as a kernel."""
    f, dim, S = algebra.field, algebra.dim, algebra._sparse
    # tr(L_{e_k}) sums the e_l-coefficients of e_k·e_l; tr(L_{e_i·e_j}) = Σ_k (e_i·e_j)_k·tr(L_{e_k})
    trace = Matrix(f, [[sum((s for l, v in enumerate(S[k]) for t, s in v if t == l), f.zero) for k in range(dim)]])
    return kernel_basis(Matrix(f, [[trace._apply(S[i][j])[0] for i in range(dim)] for j in range(dim)]))


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
