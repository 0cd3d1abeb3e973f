"""Builders for the standard algebra families and the two worked fixtures.

Upper-triangular and block upper-triangular matrix algebras are realized on
matrix-unit bases and then re-assembled as triangular algebras along a chosen
diagonal split.  Truncated polynomial algebras K[x]/(x^N) stand in for K[x]
wherever an infinite-dimensional coefficient algebra is wanted.
"""

from __future__ import annotations

from .algebra import Bimodule, FDAlgebra, TriangularAlgebra
from .fields import Field
from .linalg import Matrix, unit_vector, vec_zero
from .maps import LinearEndo
from .records import Record, field


def _matrix_unit_algebra(field: Field, n: int, positions: list[tuple[int, int]]) -> FDAlgebra:
    """Span of matrix units e_ij at the given (0-based) positions.

    The position set must be closed under composition; products follow
    e_ij · e_kl = δ_jk e_il, so each structure vector is one unit or zero
    and the sparse table is written directly.
    """
    index = {pos: t for t, pos in enumerate(positions)}
    one = field.one
    labels = [f"e{i + 1}{j + 1}" for i, j in positions]
    sparse = []
    for i, j in positions:
        row = []
        for k, l in positions:
            if j != k:
                row.append(())
            elif (i, l) not in index:
                raise ValueError("matrix-unit support is not multiplicatively closed")
            else:
                row.append(((index[(i, l)], one),))
        sparse.append(tuple(row))
    unit = list(vec_zero(field, len(positions)))
    for i in range(n):
        unit[index[(i, i)]] = one
    return FDAlgebra.__new__(FDAlgebra)._init(field, labels, tuple(sparse), unit)._validate()


def full_matrix_algebra(n: int, field: Field) -> FDAlgebra:
    positions = [(i, j) for i in range(n) for j in range(n)]
    return _matrix_unit_algebra(field, n, positions)


def _block_positions(dims: tuple[int, ...]) -> list[tuple[int, int]]:
    """Row-major positions (i, j) of the block upper-triangular pattern."""
    n = sum(dims)
    block_of = []
    for b, d in enumerate(dims):
        block_of.extend([b] * d)
    return [(i, j) for i in range(n) for j in range(n) if block_of[i] <= block_of[j]]


def block_algebra(dims: tuple[int, ...], field: Field) -> FDAlgebra:
    """Block upper-triangular matrix algebra with the given diagonal block sizes."""
    if not dims or any(d < 1 for d in dims):
        raise ValueError("block sizes must be positive")
    n = sum(dims)
    return _matrix_unit_algebra(field, n, _block_positions(dims))


def _rectangle_bimodule(A: FDAlgebra, B: FDAlgebra, nrows: int, ncols: int,
                        a_positions: list[tuple[int, int]], b_positions: list[tuple[int, int]],
                        field: Field) -> Bimodule:
    """Full nrows x ncols matrices, acted on by matrix-unit algebras; the
    matrix unit m_rs is basis vector r·ncols + s, and each action of one
    matrix unit on another is one unit or zero."""
    labels = [f"m{r + 1}{s + 1}" for r in range(nrows) for s in range(ncols)]
    cells = [(r, s) for r in range(nrows) for s in range(ncols)]
    one = field.one
    left = tuple(tuple(((i * ncols + s, one),) if j == r else () for r, s in cells) for i, j in a_positions)
    right = tuple(tuple(((r * ncols + j, one),) if s == i else () for i, j in b_positions) for r, s in cells)
    return Bimodule.__new__(Bimodule)._init(A, B, labels, left, right)._validate()


def block_upper(dims: tuple[int, ...], split: int, field: Field) -> TriangularAlgebra:
    """Block upper-triangular algebra viewed as triangular along a block split.

    ``split`` counts how many diagonal blocks go to the upper-left corner;
    it must leave at least one block on each side.
    """
    dims = tuple(dims)
    if not 1 <= split <= len(dims) - 1:
        raise ValueError("split must leave blocks on both sides")
    top, bottom = dims[:split], dims[split:]
    ell, w = sum(top), sum(bottom)
    A = block_algebra(top, field)
    B = block_algebra(bottom, field)
    a_positions = _block_positions(top)
    b_positions = _block_positions(bottom)
    M = _rectangle_bimodule(A, B, ell, w, a_positions, b_positions, field)
    return TriangularAlgebra(A, M, B)


def upper_triangular(n: int, field: Field, split: int = 1) -> TriangularAlgebra:
    """T_n over the field, split as Trian(T_split, M, T_(n-split))."""
    if n < 2:
        raise ValueError("need n >= 2 to form a triangular algebra")
    return block_upper((1,) * n, split, field)


def trunc_poly(N: int, field: Field) -> FDAlgebra:
    """K[x]/(x^N), a local algebra."""
    if N < 1:
        raise ValueError("need N >= 1")
    labels = ["1"] + [f"x^{k}" if k > 1 else "x" for k in range(1, N)]
    one = field.one
    sparse = tuple(tuple(((i + j, one),) if i + j < N else () for j in range(N)) for i in range(N))
    return FDAlgebra.__new__(FDAlgebra)._init(field, labels, sparse, unit_vector(field, N, 0))._validate()


def trian_trunc(N: int, field: Field) -> TriangularAlgebra:
    """Trian(A, A, A) for A = K[x]/(x^N) acting on itself by multiplication."""
    A = trunc_poly(N, field)
    B = trunc_poly(N, field)
    M = Bimodule.__new__(Bimodule)._init(A, B, A.labels, A._sparse, A._sparse)._validate()
    return TriangularAlgebra(A, M, B)


class Fixture(Record):
    """A built-in worked example: an algebra plus its distinguished maps."""

    name: str
    description: str
    algebra: FDAlgebra
    maps: dict[str, LinearEndo] = field(compare=False)
    checks: tuple[str, ...] = ()


def fixture_n3(field: Field) -> Fixture:
    """Strictly upper-triangular 3x3 matrices with the sign twist and the
    corner-killing map that is twisted-skew-commuting but not skew-commuting."""
    zero = vec_zero(field, 3)
    e13 = (field.zero, field.one, field.zero)
    table = [[zero] * 3 for _ in range(3)]
    table[0][2] = e13  # e12·e23 = e13; every other product vanishes
    algebra = FDAlgebra(field, ("e12", "e13", "e23"), table, unit=None)
    one, neg = field.one, field.neg(field.one)
    sigma = LinearEndo(algebra, Matrix(field, [
        [neg, field.zero, field.zero],
        [field.zero, one, field.zero],
        [field.zero, field.zero, neg],
    ]))
    theta = LinearEndo(algebra, Matrix(field, [
        [one, field.zero, field.zero],
        [field.zero, field.zero, field.zero],
        [field.zero, field.zero, one],
    ]))
    return Fixture(
        name="n3",
        description="strictly upper-triangular 3x3 matrices with sign-twist automorphism",
        algebra=algebra,
        maps={"sigma": sigma, "theta": theta},
        checks=(
            "theta is skew-commuting for the twisted bracket",
            "theta is not skew-commuting for the plain bracket (witness e12 + e23)",
        ),
    )


def fixture_trian_AA0(N: int, field: Field) -> Fixture:
    """The algebra A ⊕ A with product (a,b)(c,d) = (ac, ad), A = K[x]/(x^N).

    Basis: u_k = (x^k, 0) and v_k = (0, x^k).  Carries the sign-twist
    automorphism, the twisted derivation d(a,b) = (0, σ_A(a)) and its
    generalized companion D(a,b) = (a, σ_A(a) + b).
    """
    if N < 2:
        raise ValueError("need N >= 2")
    dim = 2 * N
    zero = vec_zero(field, dim)
    labels = tuple(f"u{k}" for k in range(N)) + tuple(f"v{k}" for k in range(N))
    table = [[zero] * dim for _ in range(dim)]
    for i in range(N):
        for j in range(N):
            if i + j < N:
                table[i][j] = unit_vector(field, dim, i + j)
                table[i][N + j] = unit_vector(field, dim, N + i + j)
    algebra = FDAlgebra(field, labels, table, unit=None)

    sign = [field.one if k % 2 == 0 else field.neg(field.one) for k in range(N)]
    zcol = vec_zero(field, dim)

    def col(entries):
        v = list(zcol)
        for idx, val in entries:
            v[idx] = val
        return tuple(v)

    sigma_cols = [col([(k, sign[k])]) for k in range(N)] + [col([(N + k, sign[k])]) for k in range(N)]
    d_cols = [col([(N + k, sign[k])]) for k in range(N)] + [zcol] * N
    D_cols = [col([(k, field.one), (N + k, sign[k])]) for k in range(N)] + [col([(N + k, field.one)]) for k in range(N)]
    sigma = LinearEndo.from_images(algebra, sigma_cols)
    d = LinearEndo.from_images(algebra, d_cols)
    D = LinearEndo.from_images(algebra, D_cols)
    return Fixture(
        name="trian_AA0",
        description=f"A ⊕ A with (a,b)(c,d) = (ac, ad), A = K[x]/(x^{N})",
        algebra=algebra,
        maps={"sigma": sigma, "d": d, "D": D},
        checks=(
            "d is a twisted derivation but not a plain derivation (M-parts x^2 vs -x^2)",
            "(D, d) is a twisted generalized pair",
            "D admits no plain-derivation partner",
        ),
    )
