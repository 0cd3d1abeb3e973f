"""The sparse elimination engine and the sparse product kernel against the
dense reference path."""

import pytest
from conftest import conjugation
from dense_oracle import (
    dense_bilinear,
    dense_kernel,
    dense_mul_vec,
    dense_rref,
    dense_solve,
    dense_solve_space,
)
from hypothesis import given, settings, strategies as st

from trialg import (
    GF,
    QQ,
    Matrix,
    block_upper,
    fixture_n3,
    fixture_trian_AA0,
    kernel_basis,
    solve_linear,
    solve_space,
    trian_trunc,
    upper_triangular,
)
from trialg.algebra import _bilinear, _sparse_table
from trialg.linalg import _sparse, rref
from trialg.maps import SOLVE_KINDS

FIELDS = {"Q": QQ, "F7": GF(7)}


def _twisted(t):
    """The triangular algebra with conjugation by p + 2q + m_0, which halves
    the module corner: the twist has denominators over Q."""
    f = t.field
    u = tuple(f.add(f.add(a, f.add(b, b)), c) for a, b, c in zip(t.p, t.q, t.embed_m(t.M.basis_vector(0))))
    return t, conjugation(t, u)


def _fixture(fx):
    return fx.algebra, fx.maps["sigma"]


FAMILIES = {
    "T2": lambda f: _twisted(upper_triangular(2, f)),
    "T3": lambda f: _twisted(upper_triangular(3, f)),
    "T4": lambda f: _twisted(upper_triangular(4, f)),
    "block": lambda f: _twisted(block_upper((1, 2, 1), 1, f)),
    "trian_trunc": lambda f: _twisted(trian_trunc(2, f)),
    "n3": lambda f: _fixture(fixture_n3(f)),
    "trian_AA0": lambda f: _fixture(fixture_trian_AA0(3, f)),
}

_instances: dict = {}


def _instance(family, field_name):
    key = (family, field_name)
    if key not in _instances:
        _instances[key] = FAMILIES[family](FIELDS[field_name])
    return _instances[key]


@pytest.mark.parametrize("kind", SOLVE_KINDS)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("field_name", FIELDS)
def test_solve_space_matches_dense_oracle(field_name, family, kind):
    alg, sigma = _instance(family, field_name)
    space = solve_space(alg, sigma, kind).space
    basis, pivots = dense_solve_space(alg, sigma, kind)
    assert space.basis == tuple(basis)
    assert space.pivots == tuple(pivots)


@st.composite
def systems(draw):
    """(field, rows, ncols) with zero rows and repeated rows mixed in."""
    field = draw(st.sampled_from([QQ, GF(5), GF(10007)]))
    ncols = draw(st.integers(0, 7))
    if field.char:
        scalar = st.integers(0, field.char - 1)
    else:
        scalar = st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=6))
    row = st.lists(scalar, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    zero = [field.zero] * ncols
    extra = draw(st.lists(st.one_of(st.just(zero), st.sampled_from(rows) if rows else st.just(zero)), max_size=4))
    return field, [tuple(r) for r in draw(st.permutations(rows + extra))], ncols


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_random_systems_match_dense_oracle(system, data):
    field, rows, ncols = system
    assert rref(field, rows, ncols) == dense_rref(field, rows, ncols)
    m = Matrix(field, rows, ncols=ncols)
    kernel = kernel_basis(m)
    basis, pivots = dense_kernel(field, rows, ncols)
    assert (kernel.basis, kernel.pivots) == (tuple(basis), tuple(pivots))
    if field.char:
        b = data.draw(st.lists(st.integers(0, field.char - 1), min_size=len(rows), max_size=len(rows)))
    else:
        b = data.draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=len(rows), max_size=len(rows)))
    assert solve_linear(m, b) == dense_solve(field, rows, b, ncols)


def _scalars(field):
    """Field scalars, half of them zero; over Q ints and fractions with denominators."""
    if field.char:
        nonzero = st.integers(1, field.char - 1)
    else:
        nonzero = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=6))
    return st.one_of(st.just(field.zero), nonzero)


def _vectors(field, n):
    return st.lists(_scalars(field), min_size=n, max_size=n).map(tuple)


def _assert_same(got, want):
    """Equal coordinates of equal types, so reports built from them stay identical."""
    assert got == want
    assert [type(a) for a in got] == [type(a) for a in want]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_bilinear_kernel_matches_dense_oracle(field, nx, ny, dim, data):
    table = data.draw(st.lists(st.lists(_vectors(field, dim), min_size=ny, max_size=ny), min_size=nx, max_size=nx))
    x, y = data.draw(_vectors(field, nx)), data.draw(_vectors(field, ny))
    got = _bilinear(field, dim, _sparse_table(table), _sparse(x).items(), _sparse(y).items())
    _assert_same(got, dense_bilinear(field, dim, table, x, y))


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("family", ["T3", "block", "trian_trunc"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_products_and_actions_match_dense_oracle(field_name, family, data):
    field = FIELDS[field_name]
    t, _ = _instance(family, field_name)
    alg, A, M, B = t.algebra, t.A, t.M, t.B
    x, y = data.draw(_vectors(field, alg.dim)), data.draw(_vectors(field, alg.dim))
    a, m, b = data.draw(_vectors(field, A.dim)), data.draw(_vectors(field, M.dim)), data.draw(_vectors(field, B.dim))
    _assert_same(alg.mul(x, y), dense_bilinear(field, alg.dim, alg.table, x, y))
    _assert_same(M.act_left(a, m), dense_bilinear(field, M.dim, M.left, a, m))
    _assert_same(M.act_right(m, b), dense_bilinear(field, M.dim, M.right, m, b))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(0, 5), st.integers(0, 5), st.data())
def test_mul_vec_matches_dense_oracle(field, nrows, ncols, data):
    rows = data.draw(st.lists(_vectors(field, ncols), min_size=nrows, max_size=nrows))
    m = Matrix(field, rows, ncols=ncols)
    v = data.draw(_vectors(field, ncols))
    _assert_same(m.mul_vec(v), dense_mul_vec(m, v))
    # the lazily stored sparse columns are not part of equality or hashing
    fresh = Matrix(field, rows, ncols=ncols)
    assert m == fresh and hash(m) == hash(fresh)
    with pytest.raises(ValueError):
        m.mul_vec(v + (field.one,))
    if v:
        with pytest.raises(ValueError):
            m.mul_vec(v[:-1])
