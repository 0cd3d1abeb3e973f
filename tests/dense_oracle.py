"""Dense reference path for the differential tests.

This is the elimination and the system assembly trialg used before its sparse
engine: dense rows of width dim² (or 2·dim² for pairs), one per coordinate
of every defining identity, eliminated by ``_rref_int`` (fraction-free over Q)
or ``_rref_mod`` (over F_p).  It also holds the dense product loops that
algebra multiplication, the module actions and matrix-vector products used
before they walked sparse structure constants.  It is slow and memory-hungry
on purpose and is kept only so the tests can check that the sparse paths give
identical results.

The map checkers and the corner extraction at the end of the module are the
ones trialg used before they read a map's basis images from its sparse
columns: every basis image is recomputed with a matrix-vector product and
every bracket with dense products and vector sums.

The idempotent oracle enumerates every element of a small algebra over F_p;
it was the library's certificate of the paper's idempotent hypothesis before
that hypothesis was decided from the trace form.

The partner solvers are the ones trialg used before it read the corner maps
τ and η off the structural pairs (a, b) with a·m = ν(m)·b: each image is
solved from the module identity directly, one system per basis vector.  The
reduction matrix is the dense form of :meth:`trialg.Subspace.reduce` that the
centralizing kinds were composed with before their operators' rows were
reduced sparsely.

The part checks are the intertwining and ξ-compatibility loops that
:mod:`trialg.structure` ran before it checked them through the one sparse
basis-pair checker of :mod:`trialg.maps`.

The construction checks are the loops :class:`trialg.FDAlgebra` and
:class:`trialg.Bimodule` ran before they skipped the basis triples on which
both sides of an axiom vanish by the structure constants: associativity and
the three bimodule laws on every basis triple, then the unit laws.

The partner solver for generalized pairs is the one trialg exported before
its sparse systems stopped storing empty rows: a right-hand side paired with
the rows by position needs every coordinate row, so it is assembled densely.

The centralizing conditions (iii)–(viii) and the canonical M-column are the
ones :mod:`trialg.structure` evaluated before it read them off the module
bracket c_x(m) = δ(x)·m − ν(m)·μ(x): every side is rebuilt per basis pair
from dense module actions of basis vectors, and (vii)/(viii) use the dense
twisted bracket.

The triangular assembly is the one trialg used before it read T's sparse
table off its corners' tables: the dense dim × dim table through the corner
embeddings, handed to the validating constructor, which checks T's
associativity and unit again.

The subspace intersection is the one :class:`trialg.Subspace` computed
before it eliminated in the coefficients of its own basis: the kernel of
both orthogonal complements stacked, each complement itself a kernel.

The matrix product is the dense triple loop ``Matrix.__matmul__`` ran
before it applied the left factor to the right factor's sparse columns.
The dense inverse stands in for ``Matrix.inverse``, which trialg dropped
when an element's inverse became one solve of u·x = 1; the tests still
change basis with it.

The generated subalgebra is the span of some basis vectors closed under
dense products until it stops growing: it checks the generating sets that
the Leibniz-type solves and checks scan (``trialg.maps._generators``).  The
change of basis gives algebras whose structure vectors have several terms,
where the families' tables are monomial.

The map helpers at the end are public names trialg dropped because only the
tests used them: the twisted anti-bracket, the plain derivation check, a
map's coordinates in a solved space, and the membership and projection
queries on solved spaces.  So is :func:`dense_table`, which writes out the
dense structure tables an algebra (``table``) and a bimodule (``left``,
``right``) once kept as views of their sparse tables; the dense paths here
read their constants through it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from trialg import (
    AssociativityViolation,
    BimoduleAxiomViolation,
    ConditionFailure,
    FDAlgebra,
    LinearEndo,
    Matrix,
    PrimeField,
    Subspace,
    UnitViolation,
    center_subspace,
    is_sigma_derivation,
    kernel_basis,
    sigma_center_subspace,
    solve_linear,
)
from trialg.algebra import _bilinear, _sparse_table
from trialg.linalg import unit_vector, vec_add, vec_is_zero, vec_neg, vec_sub, vec_zero
from trialg.maps import (
    PREDICATE_MODES,
    CheckResult,
    Witness,
    as_endo,
    bracket_sigma,
    endo_of_vec,
)


def dense_table(zero: Sequence, sparse) -> tuple:
    """The dense form of a sparse structure table (an algebra's ``_sparse``,
    a bimodule's ``_left`` or ``_right``): each vector of ``(index, value)``
    nonzeros written out over ``zero``."""

    def dense(items):
        out = list(zero)
        for t, s in items:
            out[t] = s
        return tuple(out)

    return tuple(tuple(dense(v) for v in row) for row in sparse)


def dense_bilinear(field, dim: int, table, x: Sequence, y: Sequence) -> tuple:
    """Σ x_i·y_j·table[i][j] over dense structure vectors of length ``dim``."""
    f = field
    out = [f.zero] * dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = table[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = f.mul(xi, yj)
            for t, s in enumerate(row[j]):
                if s:
                    out[t] = f.add(out[t], f.mul(c, s))
    return tuple(out)


def dense_mul_vec(m, v: Sequence) -> tuple:
    """The matrix-vector product, row by row."""
    f = m.field
    out = []
    for row in m.entries:
        acc = f.zero
        for a, x in zip(row, v, strict=True):
            if a and x:
                acc = f.add(acc, f.mul(a, x))
        out.append(acc)
    return tuple(out)


def dense_matmul(a, b) -> Matrix:
    """The matrix product, entry by entry over the rows of ``a`` and the columns of ``b``."""
    f = a.field
    cols = list(zip(*b.entries)) if b.entries else [()] * b.ncols
    rows = []
    for r in a.entries:
        row = []
        for c in cols:
            acc = f.zero
            for x, y in zip(r, c):
                if x and y:
                    acc = f.add(acc, f.mul(x, y))
            row.append(acc)
        rows.append(row)
    return Matrix(f, rows, ncols=b.ncols)


def rebased(alg, P: Matrix) -> FDAlgebra:
    """The algebra on the basis e'_i = Σ_k P[k][i]·e_k, for an invertible P:
    e'_i·e'_j and the unit in the new coordinates, P⁻¹ applied to the old."""
    f = alg.field
    inverse = dense_inverse(P)
    cols, old = P.columns(), dense_table(alg.zero(), alg._sparse)
    table = [[dense_mul_vec(inverse, dense_bilinear(f, alg.dim, old, x, y)) for y in cols] for x in cols]
    unit = None if alg.unit is None else dense_mul_vec(inverse, alg.unit)
    return FDAlgebra(f, [f"{label}'" for label in alg.labels], table, unit)


def dense_generated_dim(alg, indices: Sequence[int]) -> int:
    """The dimension of the subalgebra the basis vectors e_i, i in
    ``indices``, generate: their span, with all products of a basis of it
    added until the span stops growing."""
    f, n = alg.field, alg.dim
    span, table = [alg.basis_vector(i) for i in indices], dense_table(alg.zero(), alg._sparse)
    while True:
        products = [dense_bilinear(f, n, table, x, y) for x in span for y in span]
        rows, _ = dense_rref(f, span + products, n)
        if len(rows) == len(span):
            return len(span)
        span = rows


def _reduce_content(row: list[int]) -> None:
    g = 0
    for a in row:
        if a:
            g = gcd(g, a)
            if g == 1:
                return
    if g > 1:
        for i, a in enumerate(row):
            row[i] = a // g


def _rref_int(rows: Iterable[Sequence[int]]) -> dict[int, list[int]]:
    """Integer pseudo-RREF: pivot rows are primitive with positive pivot entry,
    fully reduced against each other (zeros in all other pivot columns)."""
    pivots: dict[int, list[int]] = {}
    for incoming in rows:
        row = list(incoming)
        if not any(row):
            continue
        for c, prow in pivots.items():
            f = row[c]
            if f:
                lead = prow[c]
                for i, b in enumerate(prow):
                    if b:
                        row[i] = row[i] * lead - f * b
                    else:
                        row[i] = row[i] * lead
                _reduce_content(row)
        lead_col = next((i for i, a in enumerate(row) if a), None)
        if lead_col is None:
            continue
        if row[lead_col] < 0:
            row = [-a for a in row]
        lead = row[lead_col]
        for prow in pivots.values():
            f = prow[lead_col]
            if f:
                for i, b in enumerate(row):
                    if b:
                        prow[i] = prow[i] * lead - f * b
                    else:
                        prow[i] = prow[i] * lead
                _reduce_content(prow)
        pivots[lead_col] = row
    return pivots


def _rref_mod(rows: Iterable[Sequence[int]], p: int) -> dict[int, list[int]]:
    """RREF over F_p with rows of ints in [0, p); pivot entries are 1."""
    pivots: dict[int, list[int]] = {}
    for incoming in rows:
        row = [a % p for a in incoming]
        for c, prow in pivots.items():
            f = row[c]
            if f:
                for i, b in enumerate(prow):
                    if b:
                        row[i] = (row[i] - f * b) % p
        lead_col = next((i for i, a in enumerate(row) if a), None)
        if lead_col is None:
            continue
        inv = pow(row[lead_col], -1, p)
        row = [a * inv % p for a in row]
        for prow in pivots.values():
            f = prow[lead_col]
            if f:
                for i, b in enumerate(row):
                    if b:
                        prow[i] = (prow[i] - f * b) % p
        pivots[lead_col] = row
    return pivots


def dense_rref(field, rows: Iterable[Sequence], ncols: int) -> tuple[list[tuple], list[int]]:
    """Canonical RREF as ``(rows, pivot_cols)``, leading coefficients one."""
    if field.char == 0:
        int_rows = []
        for row in rows:
            fracs = [Fraction(x) for x in row]
            if not any(fracs):
                continue
            d = lcm(*(f.denominator for f in fracs))
            int_rows.append([int(f * d) for f in fracs])
        pivots = _rref_int(int_rows)
        out = []
        for c in sorted(pivots):
            prow = pivots[c]
            lead = prow[c]
            out.append((c, tuple(Fraction(a, lead) for a in prow)))
    else:
        pivots = _rref_mod(rows, field.char)
        out = [(c, tuple(pivots[c])) for c in sorted(pivots)]
    return [r for _, r in out], [c for c, _ in out]


def dense_kernel(field, rows: Sequence[Sequence], ncols: int) -> tuple[list[tuple], list[int]]:
    """Canonical echelon basis of the right null space of ``rows``."""
    echelon, piv = dense_rref(field, rows, ncols)
    piv_set = set(piv)
    basis = []
    for free in range(ncols):
        if free in piv_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for prow, pcol in zip(echelon, piv):
            v[pcol] = field.neg(prow[free])
        basis.append(v)
    return dense_rref(field, basis, ncols)


def dense_solve(field, rows: Sequence[Sequence], b: Sequence, ncols: int) -> tuple | None:
    """One solution of ``rows · x = b`` with free unknowns zero, or None."""
    aug = [list(row) + [bv] for row, bv in zip(rows, b, strict=True)]
    echelon, piv = dense_rref(field, aug, ncols + 1)
    x = [field.zero] * ncols
    for prow, pcol in zip(echelon, piv):
        if pcol == ncols:
            return None
        x[pcol] = prow[-1]
    return tuple(x)


def dense_inverse(P: Matrix) -> Matrix | None:
    """P⁻¹ for a square P, one :func:`dense_solve` per column, or None if P
    is singular."""
    f, n = P.field, P.nrows
    cols = [dense_solve(f, P.entries, unit_vector(f, n, j), n) for j in range(n)]
    return None if None in cols else Matrix.from_columns(f, cols, nrows=n)


def dense_bracket_matrix(alg, x: Sequence, y: Sequence, sign: int) -> Matrix:
    """Matrix of λ ↦ x·λ + sign·λ·y, entry by entry from the left and right
    multiplication matrices; ``dense_bracket_matrix(alg, x, x, -1)`` is the
    inner derivation L_x − R_x."""
    f = alg.field
    combine = f.add if sign > 0 else f.sub
    rows = [
        [combine(a, b) for a, b in zip(left, right)]
        for left, right in zip(alg.left_mul_matrix(x).entries, alg.right_mul_matrix(y).entries)
    ]
    return Matrix(f, rows, ncols=alg.dim)


def reduction_matrix(subspace) -> Matrix:
    """Matrix of ``subspace.reduce``; annihilates the subspace, fixes a complement."""
    f = subspace.field
    rows = [list(unit_vector(f, subspace.ambient_dim, i)) for i in range(subspace.ambient_dim)]
    for w, p in zip(subspace.basis, subspace.pivots):
        for i, b in enumerate(w):
            if b:
                rows[i][p] = f.sub(rows[i][p], b)
    return Matrix(f, rows, ncols=subspace.ambient_dim)


class DenseSystem:
    """Dense rows of a homogeneous system over endo-block unknowns."""

    def __init__(self, field, n: int, blocks: int):
        self.field = field
        self.n = n
        self.width = blocks * n * n
        self.rows: list[list] = []

    def equation(self, terms) -> None:
        """Add the n coordinate rows of sum of terms = 0; each term is
        (block, P, v, sign) for sign·P·X_block(v), P a Matrix or None."""
        f = self.field
        n = self.n
        rows = [[f.zero] * self.width for _ in range(n)]
        for block, P, v, sign in terms:
            offset = block * n * n
            nz = [(k, vk) for k, vk in enumerate(v) if vk]
            for r in range(n):
                row = rows[r]
                if P is None:
                    for k, vk in nz:
                        row[offset + r * n + k] = f.add(row[offset + r * n + k], f.mul(sign, vk))
                    continue
                for t, pr in enumerate(P.entries[r]):
                    if not pr:
                        continue
                    c = f.mul(sign, pr)
                    for k, vk in nz:
                        row[offset + t * n + k] = f.add(row[offset + t * n + k], f.mul(c, vk))
        self.rows.extend(rows)


def dense_leibniz_terms(alg, sigma, D_block: int, d_block: int | None) -> dict:
    """The :class:`DenseSystem` terms of X_D(e_i e_j) − X_D(e_i)e_j −
    σ(e_i)X_d(e_j) = 0 on every basis pair, by pair (i, j) in order;
    ``d_block=None`` drops the σ term (the left multiplier rule)."""
    f = alg.field
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    right = [alg.right_mul_matrix(e) for e in basis]
    left_sigma = [alg.left_mul_matrix(sigma(e)) for e in basis]
    table = dense_table(alg.zero(), alg._sparse)
    one, minus = f.one, f.neg(f.one)
    equations = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            terms = [(D_block, None, table[i][j], one), (D_block, right[j], basis[i], minus)]
            if d_block is not None:
                terms.append((d_block, left_sigma[i], basis[j], minus))
            equations[i, j] = terms
    return equations


def _dense_leibniz(system: DenseSystem, alg, sigma, D_block: int, d_block: int | None) -> None:
    """The Leibniz-type rule of :func:`dense_leibniz_terms` on all basis pairs."""
    for terms in dense_leibniz_terms(alg, sigma, D_block, d_block).values():
        system.equation(terms)


def dense_solve_space(alg, sigma, kind: str) -> tuple[list[tuple], list[int]]:
    """Canonical basis and pivots of the map space ``solve_space`` returns."""
    f = alg.field
    n = alg.dim
    sigma = LinearEndo.identity(alg) if kind in ("derivation", "left_multiplier") else as_endo(alg, sigma)
    basis = [alg.basis_vector(i) for i in range(n)]
    pair = kind == "generalized_pair"
    system = DenseSystem(f, n, 2 if pair else 1)
    if kind in ("derivation", "sigma_derivation", "left_multiplier", "generalized_pair"):
        _dense_leibniz(system, alg, sigma, 0, None if kind == "left_multiplier" else int(pair))
        if pair:
            _dense_leibniz(system, alg, sigma, 1, 1)
    else:
        skew = kind.startswith("skew")
        proj = reduction_matrix(center_subspace(alg)) if kind.endswith("centralizing") else None
        op = []
        for i in range(n):
            m = dense_bracket_matrix(alg, sigma(basis[i]), basis[i], 1 if skew else -1)
            op.append(proj @ m if proj is not None else m)
        for i in range(n):
            system.equation([(0, op[i], basis[i], f.one)])
            for j in range(i + 1, n):
                system.equation([(0, op[i], basis[j], f.one), (0, op[j], basis[i], f.one)])
    return dense_kernel(f, system.rows, system.width)


def associated_derivations(D, sigma):
    """All σ-derivations d making (D, d) a generalized pair.

    Returns ``(particular, homogeneous)`` where the full solution set is
    particular + homogeneous, or None when no partner exists.  On a unital
    algebra the homogeneous part is zero, so the partner is unique.  The
    right-hand side pairs with the dense rows by position.
    """
    alg = D.algebra
    f = alg.field
    n = alg.dim
    basis = [alg.basis_vector(i) for i in range(n)]
    table = dense_table(alg.zero(), alg._sparse)
    system = DenseSystem(f, n, 1)
    rhs = []
    for i in range(n):
        left_sigma = alg.left_mul_matrix(sigma(basis[i]))
        D_ei = D(basis[i])
        for j in range(n):
            # known part: D(e_i e_j) - D(e_i) e_j must equal sigma(e_i) d(e_j)
            system.equation([(0, left_sigma, basis[j], f.one)])
            rhs.extend(vec_sub(f, D(table[i][j]), alg.mul(D_ei, basis[j])))
    # twisted Leibniz on d itself is homogeneous; stack it below the probes
    _dense_leibniz(system, alg, sigma, 0, 0)
    rhs.extend([f.zero] * (len(system.rows) - len(rhs)))
    particular = dense_solve(f, system.rows, rhs, system.width)
    if particular is None:
        return None
    homogeneous = Subspace(f, system.width, *dense_kernel(f, system.rows, system.width))
    return endo_of_vec(alg, particular), homogeneous


# ---------------------------------------------------------------------------
# map checkers and corner extraction

_PASS = CheckResult(True)


def dense_is_automorphism(theta) -> CheckResult:
    alg = theta.algebra
    n, table = alg.dim, dense_table(alg.zero(), alg._sparse)
    if theta.matrix.rank() != n:
        return CheckResult(False, Witness("not invertible"))
    if alg.is_unital and theta(alg.unit) != tuple(alg.unit):
        return CheckResult(False, Witness("unit not preserved", lhs=theta(alg.unit), rhs=tuple(alg.unit)))
    for i in range(n):
        for j in range(n):
            lhs = theta(table[i][j])
            rhs = alg.mul(theta(alg.basis_vector(i)), theta(alg.basis_vector(j)))
            if lhs != rhs:
                return CheckResult(False, Witness("multiplicativity", pair=(i, j), lhs=lhs, rhs=rhs))
    return _PASS


def dense_is_sigma_derivation(d, sigma) -> CheckResult:
    alg = d.algebra
    f = alg.field
    n, table = alg.dim, dense_table(alg.zero(), alg._sparse)
    for i in range(n):
        ei = alg.basis_vector(i)
        si = sigma(ei)
        for j in range(n):
            ej = alg.basis_vector(j)
            lhs = d(table[i][j])
            rhs = vec_add(f, alg.mul(d(ei), ej), alg.mul(si, d(ej)))
            if lhs != rhs:
                return CheckResult(False, Witness("twisted Leibniz rule", pair=(i, j), lhs=lhs, rhs=rhs))
    return _PASS


def dense_is_generalized_pair(D, d, sigma) -> CheckResult:
    inner = dense_is_sigma_derivation(d, sigma)
    if not inner.ok:
        return inner
    alg = D.algebra
    f = alg.field
    n, table = alg.dim, dense_table(alg.zero(), alg._sparse)
    for i in range(n):
        ei = alg.basis_vector(i)
        si = sigma(ei)
        for j in range(n):
            ej = alg.basis_vector(j)
            lhs = D(table[i][j])
            rhs = vec_add(f, alg.mul(D(ei), ej), alg.mul(si, d(ej)))
            if lhs != rhs:
                return CheckResult(False, Witness("generalized Leibniz rule", pair=(i, j), lhs=lhs, rhs=rhs))
    return _PASS


def dense_is_left_multiplier(F) -> CheckResult:
    alg = F.algebra
    n, table = alg.dim, dense_table(alg.zero(), alg._sparse)
    for i in range(n):
        fei = F(alg.basis_vector(i))
        for j in range(n):
            lhs = F(table[i][j])
            rhs = alg.mul(fei, alg.basis_vector(j))
            if lhs != rhs:
                return CheckResult(False, Witness("left multiplier rule", pair=(i, j), lhs=lhs, rhs=rhs))
    return _PASS


def dense_predicate(theta, sigma, mode: str) -> CheckResult:
    if mode not in PREDICATE_MODES:
        raise ValueError(f"unknown predicate mode {mode!r}")
    alg = theta.algebra
    f = alg.field
    skew = mode.startswith("skew")
    central = mode.endswith("centralizing")
    residual = center_subspace(alg).reduce if central else (lambda v: v)
    bracket = abracket_sigma if skew else bracket_sigma

    def value(x, y):
        return bracket(sigma, x, theta(y))

    n = alg.dim
    for i in range(n):
        ei = alg.basis_vector(i)
        for j in range(i, n):
            if i == j:
                element = ei
                val = value(ei, ei)
            else:
                ej = alg.basis_vector(j)
                element = vec_add(f, ei, ej)
                val = vec_add(f, value(ei, ej), value(ej, ei))
            if not vec_is_zero(residual(val)):
                return CheckResult(False, Witness(f"{mode} fails", pair=(i, j), element=element, lhs=val))
    return _PASS


def dense_corner_matrix(t, endo, project, embed, dim_in: int, dim_out: int):
    """project ∘ endo ∘ embed as a matrix, one unit vector at a time; ``embed``
    is one of :func:`embed_a`, :func:`embed_m`, :func:`embed_b`."""
    f = t.field
    cols = []
    for i in range(dim_in):
        unit = [f.zero] * dim_in
        unit[i] = f.one
        cols.append(project(endo(embed(t, tuple(unit)))))
    return Matrix.from_columns(f, cols, nrows=dim_out)


def has_only_trivial_idempotents_bruteforce(algebra, bound: int = 200_000) -> bool:
    """Enumerate all elements of an algebra over F_p and test e² = e.

    True iff the only idempotents are 0 and (when present) the unit.  Raises
    ValueError over Q and when p^dim exceeds the bound.
    """
    field = algebra.field
    if not isinstance(field, PrimeField):
        raise ValueError("brute-force idempotent search needs a prime field")
    total = field.p**algebra.dim
    if total > bound:
        raise ValueError(f"{total} elements exceed the bound {bound}")
    trivial, table = {(0,) * algebra.dim}, dense_table(algebra.zero(), algebra._sparse)
    if algebra.unit is not None:
        trivial.add(tuple(algebra.unit))
    for e in itertools.product(range(field.p), repeat=algebra.dim):
        if dense_bilinear(field, algebra.dim, table, e, e) == e and e not in trivial:
            return False
    return True


# ---------------------------------------------------------------------------
# corner maps of (twisted) centers


def solve_right_partner(t, a: Sequence) -> tuple | None:
    """Solve a·m = m·b for b, given a (faithfulness makes it unique)."""
    M = t.M
    right = dense_table(M.zero(), M._right)
    rows, rhs = [], []
    for k in range(M.dim):
        target = M.act_left(a, M.basis_vector(k))
        for tcoord in range(M.dim):
            rows.append([right[k][j][tcoord] for j in range(t.B.dim)])
            rhs.append(target[tcoord])
    return solve_linear(Matrix(t.field, rows, ncols=t.B.dim), rhs)


def solve_eta_image(t, nu, b: Sequence) -> tuple | None:
    """Solve η(b)·m = ν(m)·b for η(b) in A-coordinates."""
    M = t.M
    left = dense_table(M.zero(), M._left)
    rows, rhs = [], []
    for k in range(M.dim):
        target = M.act_right(nu.column(k), b)
        for tcoord in range(M.dim):
            rows.append([left[i][k][tcoord] for i in range(t.A.dim)])
            rhs.append(target[tcoord])
    return solve_linear(Matrix(t.field, rows, ncols=t.A.dim), rhs)


# ---------------------------------------------------------------------------
# side conditions of automorphism and twisted-derivation parts


def dense_check_aut_parts(parts) -> CheckResult:
    """Diagonal automorphisms, bijective ν, and the two intertwining laws
    ν(a·m) = f(a)·ν(m) and ν(m·b) = ν(m)·g(b) on basis pairs."""
    t = parts.t
    A, M, B = t.A, t.M, t.B
    f = t.field
    if not dense_is_automorphism(LinearEndo(A, parts.f_sigma)).ok:
        return CheckResult(False, Witness("first diagonal component is not an automorphism"))
    if not dense_is_automorphism(LinearEndo(B, parts.g_sigma)).ok:
        return CheckResult(False, Witness("second diagonal component is not an automorphism"))
    if parts.nu_sigma.rank() != M.dim:
        return CheckResult(False, Witness("module component is not bijective"))
    if len(parts.m_sigma) != M.dim:
        return CheckResult(False, Witness("corner element has wrong dimension"))
    left, right = dense_table(M.zero(), M._left), dense_table(M.zero(), M._right)
    for i in range(A.dim):
        fa = parts.f_sigma.column(i)
        for k in range(M.dim):
            lhs = dense_mul_vec(parts.nu_sigma, left[i][k])
            rhs = dense_bilinear(f, M.dim, left, fa, parts.nu_sigma.column(k))
            if lhs != rhs:
                return CheckResult(False, Witness("left intertwining fails", pair=(i, k), lhs=lhs, rhs=rhs))
    for k in range(M.dim):
        nk = parts.nu_sigma.column(k)
        for j in range(B.dim):
            lhs = dense_mul_vec(parts.nu_sigma, right[k][j])
            rhs = dense_bilinear(f, M.dim, right, nk, parts.g_sigma.column(j))
            if lhs != rhs:
                return CheckResult(False, Witness("right intertwining fails", pair=(k, j), lhs=lhs, rhs=rhs))
    return _PASS


def dense_check_der_parts(parts) -> None:
    """Twisted Leibniz on d_A and d_B, then ξ(am) = d_A(a)m + f(a)ξ(m) and
    ξ(mb) = ξ(m)b + ν(m)d_B(b) on basis pairs; raises ConditionFailure."""
    t = parts.t
    A, M, B = t.A, t.M, t.B
    f = t.field
    chk = dense_is_sigma_derivation(LinearEndo(A, parts.d_A), LinearEndo(A, parts.aut.f_sigma))
    if not chk.ok:
        raise ConditionFailure("d_A twisted Leibniz", chk.witness)
    chk = dense_is_sigma_derivation(LinearEndo(B, parts.d_B), LinearEndo(B, parts.aut.g_sigma))
    if not chk.ok:
        raise ConditionFailure("d_B twisted Leibniz", chk.witness)
    left, right = dense_table(M.zero(), M._left), dense_table(M.zero(), M._right)
    for i in range(A.dim):
        da = parts.d_A.column(i)
        fa = parts.aut.f_sigma.column(i)
        for k in range(M.dim):
            lhs = dense_mul_vec(parts.xi, left[i][k])
            rhs = vec_add(
                f,
                dense_bilinear(f, M.dim, left, da, M.basis_vector(k)),
                dense_bilinear(f, M.dim, left, fa, parts.xi.column(k)),
            )
            if lhs != rhs:
                raise ConditionFailure(
                    "xi left compatibility", Witness("ξ(am) ≠ d_A(a)m + f(a)ξ(m)", pair=(i, k), lhs=lhs, rhs=rhs)
                )
    for k in range(M.dim):
        nk = parts.aut.nu_sigma.column(k)
        for j in range(B.dim):
            lhs = dense_mul_vec(parts.xi, right[k][j])
            rhs = vec_add(
                f,
                dense_bilinear(f, M.dim, right, parts.xi.column(k), B.basis_vector(j)),
                dense_bilinear(f, M.dim, right, nk, parts.d_B.column(j)),
            )
            if lhs != rhs:
                raise ConditionFailure(
                    "xi right compatibility", Witness("ξ(mb) ≠ ξ(m)b + ν(m)d_B(b)", pair=(k, j), lhs=lhs, rhs=rhs)
                )


# ---------------------------------------------------------------------------
# construction axioms on every basis triple


def dense_validate_algebra(field, table, unit=None) -> None:
    """Associativity on every basis triple, zero products too, then the unit
    law; raises AssociativityViolation or UnitViolation."""
    f, dim, S = field, len(table), _sparse_table(table)
    e = [((i, f.one),) for i in range(dim)]
    minus_e = [((i, f.neg(f.one)),) for i in range(dim)]
    zero = (f.zero,) * dim
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if _bilinear(f, dim, S, ((S[i][j], e[k]), (minus_e[i], S[j][k]))) != zero:
                    left = _bilinear(f, dim, S, ((S[i][j], e[k]),))
                    right = _bilinear(f, dim, S, ((e[i], S[j][k]),))
                    raise AssociativityViolation(i, j, k, left, right)
    if unit is not None:
        for i in range(dim):
            ei = unit_vector(f, dim, i)
            if dense_bilinear(f, dim, table, unit, ei) != ei or dense_bilinear(f, dim, table, ei, unit) != ei:
                raise UnitViolation(i)


def dense_validate_bimodule(A, B, left, right) -> None:
    """The left and right module laws and the compatibility law on every basis
    triple, zero products too, then the unit actions; raises
    BimoduleAxiomViolation."""
    f, dim = A.field, len(right)
    L, R = _sparse_table(left), _sparse_table(right)
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
    for k in range(dim):
        mk = unit_vector(f, dim, k)
        if dense_bilinear(f, dim, left, A.unit, mk) != mk:
            raise BimoduleAxiomViolation(f"1_A does not fix m{k}")
        if dense_bilinear(f, dim, right, mk, B.unit) != mk:
            raise BimoduleAxiomViolation(f"1_B does not fix m{k}")


# ---------------------------------------------------------------------------
# side conditions of twisted centralizing maps


def dense_cent_m_column(parts, mu_of_x, m) -> tuple:
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


def dense_compose_centralizing(t, parts) -> LinearEndo:
    """The map rebuilt from its corner components and the canonical M-column."""
    A, M, B = t.A, t.M, t.B
    a_images = [
        (parts.delta1.column(i), dense_cent_m_column(parts, parts.mu1.column(i), None), parts.mu1.column(i))
        for i in range(A.dim)
    ]
    m_images = [
        (parts.delta2.column(k), dense_cent_m_column(parts, parts.mu2.column(k), M.basis_vector(k)), parts.mu2.column(k))
        for k in range(M.dim)
    ]
    b_images = [
        (parts.delta3.column(j), dense_cent_m_column(parts, parts.mu3.column(j), None), parts.mu3.column(j))
        for j in range(B.dim)
    ]
    cols = [t.element(*img) for img in a_images + m_images + b_images]
    return LinearEndo(t, Matrix.from_columns(t.field, cols, nrows=t.dim))


def dense_centralizing_conditions(parts, theta) -> dict:
    """Each named side condition of the centralizing structure statement, in
    the order the centralizing description groups them
    (:func:`trialg.structure.description_conditions`)."""
    t = parts.t
    A, M, B = t.A, t.M, t.B
    f = t.field
    fa_endo = LinearEndo(A, parts.aut.f_sigma)
    gb_endo = LinearEndo(B, parts.aut.g_sigma)
    one_a, one_b = tuple(A.unit), tuple(B.unit)
    nu = parts.aut.nu_sigma
    results: dict = {}

    results["i"] = dense_predicate(LinearEndo(A, parts.delta1), fa_endo, "commuting")
    results["ii"] = dense_predicate(LinearEndo(B, parts.mu3), gb_endo, "commuting")

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
        def two_sided(k: int, l: int) -> tuple:
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
            center_space, fendo = center_subspace(A), fa_endo
        else:
            center_space, fendo = center_subspace(B), gb_endo
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

    recomposed = dense_compose_centralizing(t, parts).matrix
    bad = next((i for i in range(t.dim) if recomposed.column(i) != theta.matrix.column(i)), None)
    witness = None if bad is None else Witness(
        "module component", pair=(bad, bad), lhs=theta.matrix.column(bad), rhs=recomposed.column(bad)
    )
    results["m_component"] = CheckResult(bad is None, witness)
    return results


# ---------------------------------------------------------------------------
# the triangular assembly through the corner embeddings


def embed_a(t, a: Sequence) -> tuple:
    return t.element(a, t.M.zero(), t.B.zero())


def embed_m(t, m: Sequence) -> tuple:
    return t.element(t.A.zero(), m, t.B.zero())


def embed_b(t, b: Sequence) -> tuple:
    return t.element(t.A.zero(), t.M.zero(), b)


def dense_assemble(t) -> FDAlgebra:
    """T's algebra from the dense corner tables, built and checked by the
    public constructor."""
    A, M, B = t.A, t.M, t.B
    na, nm, nb = A.dim, M.dim, B.dim
    labels = (
        tuple(f"a:{s}" for s in A.labels)
        + tuple(f"m:{s}" for s in M.labels)
        + tuple(f"b:{s}" for s in B.labels)
    )
    zero = vec_zero(t.field, na + nm + nb)
    table = [[zero] * (na + nm + nb) for _ in range(na + nm + nb)]
    a_table, b_table = dense_table(A.zero(), A._sparse), dense_table(B.zero(), B._sparse)
    left, right = dense_table(M.zero(), M._left), dense_table(M.zero(), M._right)
    for i in range(na):
        for j in range(na):
            table[i][j] = embed_a(t, a_table[i][j])
        for k in range(nm):
            table[i][na + k] = embed_m(t, left[i][k])
    for k in range(nm):
        for j in range(nb):
            table[na + k][na + nm + j] = embed_m(t, right[k][j])
    for i in range(nb):
        for j in range(nb):
            table[na + nm + i][na + nm + j] = embed_b(t, b_table[i][j])
    unit = t.element(A.unit, M.zero(), B.unit)
    return FDAlgebra(t.field, labels, table, unit)


# ---------------------------------------------------------------------------
# map helpers only the tests use


def abracket_sigma(sigma, x: Sequence, y: Sequence) -> tuple:
    """σ(x)·y + y·x."""
    alg = sigma.algebra
    return vec_add(alg.field, alg.mul(sigma(x), y), alg.mul(y, x))


def is_derivation(d) -> CheckResult:
    return is_sigma_derivation(d, LinearEndo.identity(d.algebra))


def vec_of_endo(endo) -> tuple:
    """A map's matrix entries, row by row: its coordinates in a solved space."""
    return tuple(x for row in endo.matrix.entries for x in row)


def contains_endo(space, endo) -> bool:
    if space.pair:
        raise ValueError("pair space: use contains_pair()")
    return space.space.contains(vec_of_endo(endo))


def contains_pair(space, D, d) -> bool:
    return space.space.contains(vec_of_endo(D) + vec_of_endo(d))


def first_component_space(space) -> Subspace:
    """Projection of a pair space onto its D-block."""
    half = space.algebra.dim ** 2
    return Subspace.from_vectors(space.algebra.field, half, [v[:half] for v in space.space.basis])


# ---------------------------------------------------------------------------
# subspace intersection through orthogonal complements


def orthogonal_complement(s: Subspace) -> Subspace:
    """Vectors annihilated by every basis functional (standard dot pairing)."""
    return kernel_basis(Matrix(s.field, s.basis, ncols=s.ambient_dim))


def intersect_by_complements(s: Subspace, t: Subspace) -> Subspace:
    stacked = list(orthogonal_complement(s).basis) + list(orthogonal_complement(t).basis)
    return kernel_basis(Matrix(s.field, stacked, ncols=s.ambient_dim))
