"""Exact linear algebra over Q and F_p: vectors, matrices, kernels, solving,
canonical subspaces.

Every echelon form, rank, kernel and solution comes from one sparse
elimination engine.  Its rows are ``{col: value}`` dicts of nonzero entries.
Over Q each row's denominators are cleared once on entry, elimination is
fraction-free on primitive integer rows, and ``Fraction`` appears only when the
pivot rows are normalized to leading one at the end; over F_p rows are ints
reduced mod p.  A column index sends each new pivot only into the pivot rows
that hold its column.  :func:`rref`, :func:`kernel_basis` and
:func:`solve_linear` take dense rows; :func:`sparse_kernel` takes sparse rows,
so a large sparse system never has to be stored densely.

A :class:`Subspace` is always stored by its reduced row-echelon basis, so two
subspaces are equal iff their representations are identical entry-wise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .fields import Field, Scalar

Vector = tuple


# ---------------------------------------------------------------------------
# vector helpers


def vec_zero(field: Field, n: int) -> Vector:
    return (field.zero,) * n


def unit_vector(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one if j == i else field.zero for j in range(n))


def vec_add(field: Field, u: Sequence, v: Sequence) -> Vector:
    return tuple(field.add(a, b) for a, b in zip(u, v, strict=True))


def vec_sub(field: Field, u: Sequence, v: Sequence) -> Vector:
    return tuple(field.sub(a, b) for a, b in zip(u, v, strict=True))


def vec_neg(field: Field, u: Sequence) -> Vector:
    return tuple(field.neg(a) for a in u)


def vec_scale(field: Field, c: Scalar, u: Sequence) -> Vector:
    return tuple(field.mul(c, a) for a in u)


def vec_is_zero(u: Sequence) -> bool:
    return not any(u)


# ---------------------------------------------------------------------------
# the elimination engine
#
# Pivot rows are kept fully reduced (zero in every other pivot column) and a
# new pivot always takes the row's leftmost nonzero column.  So reducing an
# incoming row touches each pivot column it holds exactly once, and the
# result is the canonical reduced row echelon form of the span.  The column
# index maps each non-pivot column to the pivots whose rows hold it, or held
# it before an entry cancelled: a new pivot back-substitutes only into the
# rows it names that still hold its column, and every column of the new
# pivot row is indexed to them (fill-in) and to the new pivot itself.


def _integer_rows(field: Field, rows: Iterable[dict]) -> Iterator[dict[int, int]]:
    """The engine's input: rows of ints, zeros dropped.

    Over Q each row is scaled once by the lcm of its denominators (an integral
    entry may be an ``int`` or a ``Fraction``); over F_p entries are reduced
    mod p.  A row can come out empty.
    """
    p = field.char
    for row in rows:
        if p:
            yield {c: a % p for c, a in row.items() if a % p}
        else:
            d = lcm(*(a.denominator for a in row.values()))
            yield {c: a.numerator * (d // a.denominator) for c, a in row.items() if a}


def _cancel(row: dict[int, int], prow: dict[int, int], c: int, p: int) -> None:
    """Clear column c of ``row`` with the pivot row ``prow``, in place.

    Over F_p (``prow[c] == 1``) this is row − row[c]·prow; over Z (p = 0) it
    is the fraction-free combination (prow[c]·row − row[c]·prow)/g with g the
    gcd of the two coefficients.
    """
    f = row[c]
    if p:
        for k, b in prow.items():
            a = (row.get(k, 0) - f * b) % p
            if a:
                row[k] = a
            else:
                del row[k]
        return
    lead = prow[c]
    g = gcd(lead, f)
    lead, f = lead // g, f // g
    if lead != 1:
        for k, a in row.items():
            row[k] = a * lead
    for k, b in prow.items():
        a = row.get(k, 0) - f * b
        if a:
            row[k] = a
        else:
            del row[k]


def _normalize(row: dict[int, int], lead_col: int, p: int) -> None:
    """Scale ``row`` in place: lead entry 1 over F_p, content 1 over Z."""
    if p:
        inv = pow(row[lead_col], -1, p)
        if inv != 1:
            for k, a in row.items():
                row[k] = a * inv % p
    else:
        g = gcd(*row.values())
        if g != 1:
            for k, a in row.items():
                row[k] = a // g


def _echelon(field: Field, rows: Iterable[dict]) -> list[tuple[int, dict]]:
    """Canonical RREF of sparse field-valued rows as ``(pivot_col, row)`` pairs.

    Rows come back sorted by pivot column with lead coefficient one; over Q
    their entries are ``Fraction`` values, over F_p ints.
    """
    p = field.char
    pivots: dict[int, dict[int, int]] = {}
    holders: dict[int, set[int]] = {}
    for row in _integer_rows(field, rows):
        for c in [c for c in row if c in pivots]:
            _cancel(row, pivots[c], c, p)
        if not row:
            continue
        lead_col = min(row)
        _normalize(row, lead_col, p)
        touched = [c for c in holders.pop(lead_col, ()) if lead_col in pivots[c]]
        for c in touched:
            _cancel(pivots[c], row, lead_col, p)
            _normalize(pivots[c], c, p)
        touched.append(lead_col)
        for k in row:
            if k != lead_col:
                holders.setdefault(k, set()).update(touched)
        pivots[lead_col] = row
    if p:
        return sorted(pivots.items())
    return [(c, {k: Fraction(a, pivots[c][c]) for k, a in pivots[c].items()}) for c in sorted(pivots)]


def _sparse(row: Sequence) -> dict:
    return {k: a for k, a in enumerate(row) if a}


def _plain_rows(field: Field, rows: Iterable[dict]) -> list[dict]:
    """Sparse rows with zeros dropped and values in their cheapest exact form:
    ints reduced mod p over F_p, integral rationals as ints over Q, so that
    assembling a system from them avoids ``Fraction`` arithmetic."""
    p = field.char
    if p:
        return [{c: a % p for c, a in row.items() if a % p} for row in rows]
    return [{c: a.numerator if a.denominator == 1 else a for c, a in row.items() if a} for row in rows]


def _dense_echelon(field: Field, rows: Iterable[dict], ncols: int) -> tuple[list[Vector], list[int]]:
    echelon = _echelon(field, rows)
    dense = []
    for _, row in echelon:
        out = [field.zero] * ncols
        for k, a in row.items():
            out[k] = a
        dense.append(tuple(out))
    return dense, [c for c, _ in echelon]


def rref(field: Field, rows: Iterable[Sequence], ncols: int) -> tuple[list[Vector], list[int]]:
    """Canonical reduced row echelon form of the span of ``rows``.

    Returns ``(echelon_rows, pivot_cols)`` with rows normalized to leading
    coefficient one and sorted by pivot column; zero rows are dropped.  The
    output depends only on the row span, so it is a canonical representative.
    """
    return _dense_echelon(field, (_sparse(row) for row in rows), ncols)


def sparse_kernel(field: Field, rows: Iterable[dict], ncols: int) -> "Subspace":
    """Canonical basis of ``{v : row·v = 0 for every row}`` for sparse rows."""
    echelon = _echelon(field, rows)
    free = {c: {c: field.one} for c in range(ncols)}
    for c, _ in echelon:
        del free[c]
    for c, prow in echelon:
        for k, a in prow.items():
            if k != c:
                free[k][c] = field.neg(a)
    return Subspace(field, ncols, *_dense_echelon(field, free.values(), ncols))


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable dense matrix over a single field, row-major tuples.

    ``_columns`` holds the nonzeros of each column as ``(row, value)`` pairs,
    computed once on first use and not part of equality.  Column j is the
    sparse image of basis vector j, so the map checks in :mod:`trialg.maps`
    read a map's basis images from it instead of multiplying unit vectors.
    """

    __slots__ = ("field", "nrows", "ncols", "entries", "_columns")

    def __init__(self, field: Field, entries: Sequence[Sequence[Scalar]], ncols: int | None = None):
        rows = tuple(tuple(r) for r in entries)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.entries = rows
        self._columns = None

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [unit_vector(field, n, i) for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, [vec_zero(field, ncols)] * nrows, ncols=ncols)

    @classmethod
    def from_columns(cls, field: Field, cols: Sequence[Sequence[Scalar]], nrows: int | None = None) -> "Matrix":
        if cols:
            return cls(field, list(zip(*cols)))
        return cls(field, [], ncols=0) if nrows is None else cls(field, [()] * nrows, ncols=0)

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def _cols(self) -> tuple:
        """The ``(row, value)`` nonzeros of every column, computed once."""
        if self._columns is None:
            cols = zip(*self.entries) if self.entries else [()] * self.ncols
            self._columns = tuple(tuple(_sparse(col).items()) for col in cols)
        return self._columns

    def _apply(self, items) -> Vector:
        """The product with the vector whose ``(index, value)`` nonzeros are ``items``."""
        cols = self._cols()
        p = self.field.char
        out = [self.field.zero] * self.nrows
        for j, x in items:
            for i, a in cols[j]:
                acc = out[i] + a * x
                out[i] = acc % p if p else acc
        return tuple(out)

    def mul_vec(self, v: Sequence) -> Vector:
        """The product with a column vector, over the nonzeros of ``v`` only."""
        if len(v) != self.ncols:
            raise ValueError("vector length does not match the column count")
        return self._apply((j, x) for j, x in enumerate(v) if x)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, column by column: ``self`` applied to each sparse column of ``other``."""
        if self.ncols != other.nrows or self.field != other.field:
            raise ValueError("incompatible matrix product")
        cols = [self._apply(col) for col in other._cols()]
        return Matrix(self.field, list(zip(*cols)) if cols else [()] * self.nrows, ncols=other.ncols)

    def is_zero(self) -> bool:
        return all(not a for r in self.entries for a in r)

    def rank(self) -> int:
        _, piv = rref(self.field, self.entries, self.ncols)
        return len(piv)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(a) for a in r) for r in self.entries)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def kernel_basis(m: Matrix) -> "Subspace":
    """Canonical basis of the right null space ``{v : m v = 0}``."""
    return sparse_kernel(m.field, (_sparse(row) for row in m.entries), m.ncols)


def solve_linear(m: Matrix, b: Sequence) -> Vector | None:
    """One solution of ``m x = b`` (free unknowns zero), or None if inconsistent."""
    if len(b) != m.nrows:
        raise ValueError("right-hand side length mismatch")
    n = m.ncols
    x = [m.field.zero] * n
    for c, prow in _echelon(m.field, (_sparse((*row, a)) for row, a in zip(m.entries, b))):
        if c == n:
            return None
        x[c] = prow.get(n, m.field.zero)
    return tuple(x)


# ---------------------------------------------------------------------------
# canonical subspaces


class Subspace:
    """A subspace of F^n held by its unique reduced row-echelon basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: Field, ambient_dim: int, basis: Sequence[Vector], pivots: Sequence[int]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(v) for v in basis)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows, piv = rref(field, vectors, ambient_dim)
        return cls(field, ambient_dim, rows, piv)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, [], [])

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(field, ambient_dim, Matrix.identity(field, ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Sequence) -> Vector:
        """Residual of v after reduction by the echelon basis.

        This is a linear map of v whose kernel is exactly the subspace, so it
        doubles as the fixed complement projection used to linearize
        "lies in this subspace" constraints (see :meth:`reduce_rows`).
        """
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        f = self.field
        out = list(v)
        for w, p in zip(self.basis, self.pivots):
            c = out[p]
            if c:
                for i, b in enumerate(w):
                    if b:
                        out[i] = f.sub(out[i], f.mul(c, b))
        return tuple(out)

    def reduce_rows(self, rows: Sequence[dict]) -> list[dict]:
        """The rows of R·P, for P given by its sparse rows and R the matrix of
        :meth:`reduce`: row i less w[i]·(row p) for each echelon basis vector
        w with pivot p.  Values come out in :func:`_plain_rows` form."""
        out = [dict(row) for row in rows]
        for w, p in zip(self.basis, self.pivots):
            for i, b in enumerate(w):
                if b:
                    target = out[i]
                    for c, a in rows[p].items():
                        target[c] = target.get(c, 0) - b * a
        return _plain_rows(self.field, out)

    def contains(self, v: Sequence) -> bool:
        return vec_is_zero(self.reduce(v))

    def leq(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return all(other.contains(v) for v in self.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The vectors of this space that ``other`` contains."""
        self._same_ambient(other)
        return self.restrict(other, lambda v: v)

    def restrict(self, other: "Subspace", part) -> "Subspace":
        """The v in this space with ``part(v)`` in ``other``, for a linear
        map ``part`` into the ambient space of ``other``: Σ c_i·b_i over
        this basis, c in the kernel of the residues of the part(b_i) modulo
        ``other``, so the elimination is only dim(self) columns wide."""
        f = self.field
        residues = [other.reduce(part(b)) for b in self.basis]
        coefficients = sparse_kernel(f, (_sparse(col) for col in zip(*residues)), self.dim)
        combos = Matrix(f, coefficients.basis, ncols=self.dim) @ Matrix(f, self.basis, ncols=self.ambient_dim)
        return Subspace.from_vectors(f, self.ambient_dim, combos.entries)

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of F^{self.ambient_dim})"
