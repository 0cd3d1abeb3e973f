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
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from trialg import ConditionFailure, LinearEndo, Matrix, PrimeField, center_subspace, solve_linear
from trialg.linalg import unit_vector, vec_add, vec_is_zero
from trialg.maps import PREDICATE_MODES, CheckResult, Witness, abracket_sigma, as_algebra, as_endo, bracket_sigma


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


def dense_solve_space(algebra_or_t, sigma, kind: str) -> tuple[list[tuple], list[int]]:
    """Canonical basis and pivots of the map space ``solve_space`` returns."""
    alg = as_algebra(algebra_or_t)
    f = alg.field
    n = alg.dim
    sigma = LinearEndo.identity(alg) if kind in ("derivation", "left_multiplier") else as_endo(alg, sigma)
    basis = [alg.basis_vector(i) for i in range(n)]
    right = [alg.right_mul_matrix(e) for e in basis]
    left_sigma = [alg.left_mul_matrix(sigma(e)) for e in basis]
    pair = kind == "generalized_pair"
    system = DenseSystem(f, n, 2 if pair else 1)
    one, minus = f.one, f.neg(f.one)
    if kind in ("derivation", "sigma_derivation", "left_multiplier", "generalized_pair"):
        for i in range(n):
            for j in range(n):
                terms = [(0, None, alg.table[i][j], one), (0, right[j], basis[i], minus)]
                if kind != "left_multiplier":
                    terms.append((1 if pair else 0, left_sigma[i], basis[j], minus))
                system.equation(terms)
        if pair:
            for i in range(n):
                for j in range(n):
                    system.equation(
                        [
                            (1, None, alg.table[i][j], one),
                            (1, right[j], basis[i], minus),
                            (1, left_sigma[i], basis[j], minus),
                        ]
                    )
    else:
        skew = kind.startswith("skew")
        proj = reduction_matrix(center_subspace(alg)) if kind.endswith("centralizing") else None
        op = []
        for i in range(n):
            m = dense_bracket_matrix(alg, sigma(basis[i]), basis[i], 1 if skew else -1)
            op.append(proj @ m if proj is not None else m)
        for i in range(n):
            system.equation([(0, op[i], basis[i], one)])
            for j in range(i + 1, n):
                system.equation([(0, op[i], basis[j], one), (0, op[j], basis[i], one)])
    return dense_kernel(f, system.rows, system.width)


# ---------------------------------------------------------------------------
# map checkers and corner extraction

_PASS = CheckResult(True)


def dense_is_automorphism(theta) -> CheckResult:
    alg = theta.algebra
    n = alg.dim
    if theta.matrix.rank() != n:
        return CheckResult(False, Witness("not invertible"))
    if alg.is_unital and theta(alg.unit) != tuple(alg.unit):
        return CheckResult(False, Witness("unit not preserved", lhs=theta(alg.unit), rhs=tuple(alg.unit)))
    for i in range(n):
        for j in range(n):
            lhs = theta(alg.table[i][j])
            rhs = alg.mul(theta(alg.basis_vector(i)), theta(alg.basis_vector(j)))
            if lhs != rhs:
                return CheckResult(False, Witness("multiplicativity", pair=(i, j), lhs=lhs, rhs=rhs))
    return _PASS


def dense_is_sigma_derivation(d, sigma) -> CheckResult:
    alg = d.algebra
    f = alg.field
    n = alg.dim
    for i in range(n):
        ei = alg.basis_vector(i)
        si = sigma(ei)
        for j in range(n):
            ej = alg.basis_vector(j)
            lhs = d(alg.table[i][j])
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
    n = alg.dim
    for i in range(n):
        ei = alg.basis_vector(i)
        si = sigma(ei)
        for j in range(n):
            ej = alg.basis_vector(j)
            lhs = D(alg.table[i][j])
            rhs = vec_add(f, alg.mul(D(ei), ej), alg.mul(si, d(ej)))
            if lhs != rhs:
                return CheckResult(False, Witness("generalized Leibniz rule", pair=(i, j), lhs=lhs, rhs=rhs))
    return _PASS


def dense_is_left_multiplier(F) -> CheckResult:
    alg = F.algebra
    n = alg.dim
    for i in range(n):
        fei = F(alg.basis_vector(i))
        for j in range(n):
            lhs = F(alg.table[i][j])
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
    """project ∘ endo ∘ embed as a matrix, one unit vector at a time."""
    f = t.field
    cols = []
    for i in range(dim_in):
        unit = [f.zero] * dim_in
        unit[i] = f.one
        cols.append(project(endo(embed(tuple(unit)))))
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
    trivial = {(0,) * algebra.dim}
    if algebra.unit is not None:
        trivial.add(tuple(algebra.unit))
    for e in itertools.product(range(field.p), repeat=algebra.dim):
        if dense_bilinear(field, algebra.dim, algebra.table, e, e) == e and e not in trivial:
            return False
    return True


# ---------------------------------------------------------------------------
# corner maps of (twisted) centers


def solve_right_partner(t, a: Sequence) -> tuple | None:
    """Solve a·m = m·b for b, given a (faithfulness makes it unique)."""
    M = t.M
    rows, rhs = [], []
    for k in range(M.dim):
        target = M.act_left(a, M.basis_vector(k))
        for tcoord in range(M.dim):
            rows.append([M.right[k][j][tcoord] for j in range(t.B.dim)])
            rhs.append(target[tcoord])
    return solve_linear(Matrix(t.field, rows, ncols=t.B.dim), rhs)


def solve_eta_image(t, nu, b: Sequence) -> tuple | None:
    """Solve η(b)·m = ν(m)·b for η(b) in A-coordinates."""
    M = t.M
    rows, rhs = [], []
    for k in range(M.dim):
        target = M.act_right(nu.column(k), b)
        for tcoord in range(M.dim):
            rows.append([M.left[i][k][tcoord] for i in range(t.A.dim)])
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
    for i in range(A.dim):
        fa = parts.f_sigma.column(i)
        for k in range(M.dim):
            lhs = dense_mul_vec(parts.nu_sigma, M.left[i][k])
            rhs = dense_bilinear(f, M.dim, M.left, fa, parts.nu_sigma.column(k))
            if lhs != rhs:
                return CheckResult(False, Witness("left intertwining fails", pair=(i, k), lhs=lhs, rhs=rhs))
    for k in range(M.dim):
        nk = parts.nu_sigma.column(k)
        for j in range(B.dim):
            lhs = dense_mul_vec(parts.nu_sigma, M.right[k][j])
            rhs = dense_bilinear(f, M.dim, M.right, nk, parts.g_sigma.column(j))
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
    for i in range(A.dim):
        da = parts.d_A.column(i)
        fa = parts.aut.f_sigma.column(i)
        for k in range(M.dim):
            lhs = dense_mul_vec(parts.xi, M.left[i][k])
            rhs = vec_add(
                f,
                dense_bilinear(f, M.dim, M.left, da, M.basis_vector(k)),
                dense_bilinear(f, M.dim, M.left, fa, parts.xi.column(k)),
            )
            if lhs != rhs:
                raise ConditionFailure(
                    "xi left compatibility", Witness("ξ(am) ≠ d_A(a)m + f(a)ξ(m)", pair=(i, k), lhs=lhs, rhs=rhs)
                )
    for k in range(M.dim):
        nk = parts.aut.nu_sigma.column(k)
        for j in range(B.dim):
            lhs = dense_mul_vec(parts.xi, M.right[k][j])
            rhs = vec_add(
                f,
                dense_bilinear(f, M.dim, M.right, parts.xi.column(k), B.basis_vector(j)),
                dense_bilinear(f, M.dim, M.right, nk, parts.d_B.column(j)),
            )
            if lhs != rhs:
                raise ConditionFailure(
                    "xi right compatibility", Witness("ξ(mb) ≠ ξ(m)b + ν(m)d_B(b)", pair=(k, j), lhs=lhs, rhs=rhs)
                )
