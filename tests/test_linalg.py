from fractions import Fraction

import pytest
from dense_oracle import reduction_matrix
from hypothesis import given, settings, strategies as st

from trialg import GF, QQ, Matrix, Subspace, kernel_basis, solve_linear


def qmat(rows):
    return Matrix(QQ, [[Fraction(x) for x in r] for r in rows])


def qvec(field, xs):
    return tuple(field.from_int(x) for x in xs)


def naive_rank(rows):
    """Independent oracle: plain forward elimination over Q, counting pivots."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    rank = 0
    cols = len(m[0])
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(Matrix.identity(QQ, 2)).dim == 0


def test_kernel_of_single_relation():
    k = kernel_basis(qmat([[1, 1]]))
    assert k.basis == ((Fraction(1), Fraction(-1)),)


def test_kernel_dim_matches_rank_oracle():
    rows = [[1, 2, 3], [2, 4, 6]]
    assert naive_rank(rows) == 1
    assert kernel_basis(qmat(rows)).dim == 3 - naive_rank(rows)


def test_solve_identity():
    x = solve_linear(Matrix.identity(QQ, 2), (Fraction(3), Fraction(5)))
    assert x == (Fraction(3), Fraction(5))


def test_solve_underdetermined():
    x = solve_linear(qmat([[1, 1]]), (Fraction(2),))
    assert x is not None and x[0] + x[1] == 2


def test_solve_inconsistent_returns_none():
    assert solve_linear(qmat([[1], [1]]), (Fraction(0), Fraction(1))) is None


def test_solve_length_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_linear(qmat([[1, 1]]), (Fraction(1), Fraction(2)))


def test_subspace_membership():
    s = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(0))])
    assert s.contains((Fraction(2), Fraction(0)))
    assert not s.contains((Fraction(0), Fraction(1)))


def test_subspace_leq_full_plane():
    s = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(0))])
    assert s.leq(Subspace.full(QQ, 2))
    assert not Subspace.full(QQ, 2).leq(s)


def test_subspace_intersection():
    plane = Subspace.full(QQ, 2)
    line = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(1))])
    assert plane.intersect(line) == line
    other = Subspace.from_vectors(QQ, 2, [(Fraction(1), Fraction(-1))])
    assert line.intersect(other).dim == 0


def test_subspace_dimension_mismatch_rejected():
    s = Subspace.full(QQ, 2)
    t = Subspace.full(QQ, 3)
    with pytest.raises(ValueError):
        s.leq(t)
    with pytest.raises(ValueError):
        s.contains((Fraction(1),))


def test_reduce_is_linear_and_annihilates_members():
    s = Subspace.from_vectors(QQ, 3, [(Fraction(1), Fraction(2), Fraction(0))])
    r = reduction_matrix(s)
    for v in s.basis:
        assert not any(r.mul_vec(v))
    v = (Fraction(3), Fraction(1), Fraction(4))
    assert r.mul_vec(v) == s.reduce(v)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_reduce_rows_is_the_reduction_matrix_times_the_rows(field):
    s = Subspace.from_vectors(field, 4, [qvec(field, [1, 2, 0, 3]), qvec(field, [0, 1, 1, 1])])
    p = Matrix(field, [qvec(field, row) for row in [[1, 0, 2], [0, 3, 1], [5, 0, 0], [1, 1, 1]]])
    reduced = s.reduce_rows([{c: a for c, a in enumerate(row) if a} for row in p.entries])
    dense = [tuple(row.get(c, field.zero) for c in range(p.ncols)) for row in reduced]
    assert dense == list((reduction_matrix(s) @ p).entries)


@st.composite
def q_matrix(draw, max_dim=8):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    scalar = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    entries = draw(
        st.lists(
            st.lists(scalar, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return Matrix(QQ, entries)


@st.composite
def f5_matrix(draw, max_dim=8):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(st.lists(st.integers(0, 4), min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)
    )
    return Matrix(GF(5), entries)


@given(q_matrix())
def test_kernel_vectors_are_exact_solutions_q(m):
    for v in kernel_basis(m).basis:
        assert not any(m.mul_vec(v))


@given(f5_matrix())
def test_kernel_vectors_are_exact_solutions_f5(m):
    for v in kernel_basis(m).basis:
        assert not any(m.mul_vec(v))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.randoms(use_true_random=False))
def test_rank_nullity_up_to_40(nrows, ncols, rng):
    entries = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
    m = Matrix(QQ, entries)
    assert kernel_basis(m).dim + m.rank() == ncols
    assert m.rank() == naive_rank(entries)


@given(q_matrix())
def test_canonicalization_is_idempotent(m):
    s = Subspace.from_vectors(QQ, m.ncols, m.entries)
    again = Subspace.from_vectors(QQ, m.ncols, s.basis)
    assert s == again
    assert s.basis == again.basis


@given(q_matrix(max_dim=6), q_matrix(max_dim=6))
def test_mutual_inclusion_is_equality(m1, m2):
    if m1.ncols != m2.ncols:
        m2 = Matrix(QQ, [r[: m1.ncols] + (0,) * max(0, m1.ncols - m2.ncols) for r in m2.entries])
        m2 = Matrix(QQ, [[Fraction(x) for x in r] for r in m2.entries])
    s = Subspace.from_vectors(QQ, m1.ncols, m1.entries)
    t = Subspace.from_vectors(QQ, m1.ncols, m2.entries)
    assert (s.leq(t) and t.leq(s)) == (s.basis == t.basis)


@given(q_matrix(max_dim=6))
def test_solution_of_constructed_system_is_exact(m):
    x0 = tuple(Fraction(i - 2) for i in range(m.ncols))
    b = m.mul_vec(x0)
    x = solve_linear(m, b)
    assert x is not None
    assert m.mul_vec(x) == b


@given(f5_matrix(max_dim=6))
def test_intersection_is_contained_in_both(m):
    half = max(1, m.nrows // 2)
    s = Subspace.from_vectors(GF(5), m.ncols, m.entries[:half])
    t = Subspace.from_vectors(GF(5), m.ncols, m.entries[half:]) if m.entries[half:] else Subspace.zero(GF(5), m.ncols)
    inter = s.intersect(t)
    assert inter.leq(s) and inter.leq(t)
    assert inter == t.intersect(s)
