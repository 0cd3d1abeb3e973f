import pytest
from dense_oracle import dense_bracket_matrix, dense_kernel

from trialg import (
    GF,
    QQ,
    Matrix,
    block_upper,
    center_subspace,
    fixture_n3,
    fixture_trian_AA0,
    full_matrix_algebra,
    is_automorphism,
    is_generalized_pair,
    is_sigma_derivation,
    sigma_center_subspace,
    trian_trunc,
    trivial_idempotents,
    trunc_poly,
    upper_triangular,
)


def test_two_by_two_split():
    t = upper_triangular(2, QQ)
    assert (t.A.dim, t.M.dim, t.B.dim) == (1, 1, 1)
    assert trivial_idempotents(t.A) is True and trivial_idempotents(t.B) is True
    assert t.trivial_idempotent_components


def test_three_by_three_alternate_split():
    t = upper_triangular(3, QQ, split=2)
    assert (t.A.dim, t.M.dim, t.B.dim) == (3, 2, 1)
    assert trivial_idempotents(t.A) is False and trivial_idempotents(t.B) is True
    assert not t.trivial_idempotent_components


def test_block_two_one():
    t = block_upper((2, 1), 1, QQ)
    assert t.dim == 7
    assert (t.A.dim, t.M.dim, t.B.dim) == (4, 2, 1)
    assert trivial_idempotents(t.A) is False


def test_block_split_bounds():
    with pytest.raises(ValueError):
        block_upper((2, 1), 2, QQ)
    with pytest.raises(ValueError):
        block_upper((3,), 1, QQ)
    with pytest.raises(ValueError):
        upper_triangular(1, QQ)


def test_full_matrix_algebra_center_is_scalars():
    m2 = full_matrix_algebra(2, QQ)
    assert m2.dim == 4 and m2.is_unital
    assert center_subspace(m2).dim == 1


def test_truncated_polynomials_multiply_and_truncate():
    alg = trunc_poly(3, QQ)
    x = alg.basis_vector(1)
    assert alg.mul(x, x) == alg.basis_vector(2)
    assert not any(alg.mul(alg.basis_vector(2), x))
    assert trivial_idempotents(alg) is True
    with pytest.raises(ValueError):
        trunc_poly(0, QQ)


def test_trunc_triangular_has_idempotent_free_corners():
    t = trian_trunc(3, QQ)
    assert t.dim == 9
    assert t.trivial_idempotent_components


def _global_positions(t, top_dims, bottom_dims):
    """Matrix-unit position of every assembled basis element, in basis order."""
    ell = sum(top_dims)
    width = sum(bottom_dims)

    def block_positions(dims):
        n = sum(dims)
        block_of = []
        for b, d in enumerate(dims):
            block_of.extend([b] * d)
        return [(i, j) for i in range(n) for j in range(n) if block_of[i] <= block_of[j]]

    positions = list(block_positions(top_dims))
    positions += [(r, ell + s) for r in range(ell) for s in range(width)]
    positions += [(ell + i, ell + j) for i, j in block_positions(bottom_dims)]
    assert len(positions) == t.dim
    return positions


@pytest.mark.parametrize(
    "builder,top,bottom",
    [
        (lambda: upper_triangular(3, QQ, split=1), (1,), (1, 1)),
        (lambda: upper_triangular(3, QQ, split=2), (1, 1), (1,)),
        (lambda: upper_triangular(4, QQ, split=2), (1, 1), (1, 1)),
        (lambda: block_upper((2, 1), 1, QQ), (2,), (1,)),
        (lambda: block_upper((1, 2, 1), 2, QQ), (1, 2), (1,)),
    ],
)
def test_assembly_matches_matrix_unit_model(builder, top, bottom):
    t = builder()
    alg = t.algebra
    positions = _global_positions(t, top, bottom)
    index = {pos: k for k, pos in enumerate(positions)}
    for u, (p, q) in enumerate(positions):
        for v, (r, s) in enumerate(positions):
            got = alg.table[u][v]
            if q == r and (p, s) in index:
                assert got == alg.basis_vector(index[(p, s)])
            else:
                assert not any(got)


def test_n3_fixture_products_and_maps():
    fx = fixture_n3(QQ)
    alg = fx.algebra
    e12, e13, e23 = (alg.basis_vector(i) for i in range(3))
    assert alg.mul(e12, e23) == e13
    assert not any(alg.mul(e23, e12))
    assert not any(alg.mul(e13, e13))
    assert not alg.is_unital

    sig = fx.maps["sigma"]
    th = fx.maps["theta"]
    neg = QQ.neg(QQ.one)
    assert sig(e12) == tuple(QQ.mul(neg, c) for c in e12)
    assert sig(e13) == e13
    assert sig(e23) == tuple(QQ.mul(neg, c) for c in e23)
    assert th(e12) == e12 and not any(th(e13)) and th(e23) == e23
    assert is_automorphism(sig).ok


def test_trian_aa0_products():
    fx = fixture_trian_AA0(4, QQ)
    alg = fx.algebra
    u = [alg.basis_vector(k) for k in range(4)]
    v = [alg.basis_vector(4 + k) for k in range(4)]
    assert alg.mul(u[1], u[2]) == u[3]
    assert not any(alg.mul(u[2], u[3]))  # truncated at x^4
    assert alg.mul(u[1], v[1]) == v[2]
    assert not any(alg.mul(v[1], u[1]))
    assert not any(alg.mul(v[1], v[1]))
    assert not alg.is_unital


def test_trian_aa0_maps_satisfy_their_identities():
    for field in (QQ, GF(7)):
        fx = fixture_trian_AA0(4, field)
        sig, d, D = fx.maps["sigma"], fx.maps["d"], fx.maps["D"]
        assert is_automorphism(sig).ok
        assert is_sigma_derivation(d, sig).ok
        assert is_generalized_pair(D, d, sig).ok


def test_trian_aa0_needs_degree_two():
    with pytest.raises(ValueError):
        fixture_trian_AA0(1, QQ)


@pytest.mark.parametrize(
    "build",
    [
        lambda f: upper_triangular(3, f).algebra,
        lambda f: upper_triangular(3, f, split=2).algebra,
        lambda f: block_upper((1, 2), 1, f).algebra,
        lambda f: trian_trunc(3, f).algebra,
        lambda f: trunc_poly(3, f),
        lambda f: full_matrix_algebra(2, f),
        lambda f: fixture_n3(f).algebra,
        lambda f: fixture_trian_AA0(3, f).algebra,
    ],
    ids=["Tn", "Tn-split2", "block", "trian_trunc", "trunc_poly", "matrix", "n3", "trian_AA0"],
)
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_center_is_the_twisted_center_of_the_identity(build, field):
    alg = build(field)
    center = center_subspace(alg)
    assert center == sigma_center_subspace(alg, Matrix.identity(field, alg.dim))
    # against the commutator kernel, stacked densely row by row
    rows = []
    for i in range(alg.dim):
        e = alg.basis_vector(i)
        rows.extend(dense_bracket_matrix(alg, e, e, -1).entries)
    assert (list(center.basis), list(center.pivots)) == dense_kernel(field, rows, alg.dim)
