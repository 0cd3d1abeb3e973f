"""The sparse elimination engine, the sparse product kernel and the map
checkers against the dense reference path."""

from dataclasses import replace

import pytest
from dense_oracle import (
    dense_bilinear,
    dense_bracket_matrix,
    dense_check_aut_parts,
    dense_check_der_parts,
    dense_corner_matrix,
    dense_is_automorphism,
    dense_is_generalized_pair,
    dense_is_left_multiplier,
    dense_is_sigma_derivation,
    dense_kernel,
    dense_mul_vec,
    dense_predicate,
    dense_rref,
    dense_solve,
    dense_solve_space,
    solve_eta_image,
    solve_right_partner,
)
from conftest import diag_sign_automorphism
from hypothesis import given, settings, strategies as st

from trialg import (
    GF,
    QQ,
    ConditionFailure,
    LinearEndo,
    Matrix,
    block_upper,
    center,
    fixture_n3,
    fixture_trian_AA0,
    inner_automorphism,
    is_automorphism,
    is_generalized_pair,
    is_left_multiplier,
    is_sigma_derivation,
    PredicateNotSatisfied,
    decompose_generalized,
    decompose_sigma_derivation,
    kernel_basis,
    predicate,
    sigma_center,
    solve_linear,
    solve_space,
    trian_trunc,
    upper_triangular,
)
from trialg.algebra import _bilinear, _sparse_table
from trialg.linalg import _sparse, rref, vec_add, vec_scale
from trialg.maps import PREDICATE_MODES, SOLVE_KINDS, endo_of_vec, vec_of_endo
from trialg.structure import _check_aut_parts, _check_der_parts, _corner_matrix, decompose_automorphism

FIELDS = {"Q": QQ, "F7": GF(7)}


def _twisted(t):
    """The triangular algebra with conjugation by p + 2q + m_0, which halves
    the module corner: the twist has denominators over Q."""
    f = t.field
    u = tuple(f.add(f.add(a, f.add(b, b)), c) for a, b, c in zip(t.p, t.q, t.embed_m(t.M.basis_vector(0))))
    return t, inner_automorphism(t.algebra, u)


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
    pairs = data.draw(st.lists(st.tuples(_vectors(field, nx), _vectors(field, ny)), min_size=1, max_size=3))
    got = _bilinear(field, dim, _sparse_table(table), [(_sparse(x).items(), _sparse(y).items()) for x, y in pairs])
    want = dense_bilinear(field, dim, table, *pairs[0])
    for x, y in pairs[1:]:
        want = vec_add(field, want, dense_bilinear(field, dim, table, x, y))
    _assert_same(got, want)


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


# ---------------------------------------------------------------------------
# map checkers

CHECK_FAMILIES = ("T3", "block", "trian_trunc")
MEMBER_KINDS = (
    "automorphism",
    "sigma_derivation",
    "generalized_pair",
    "left_multiplier",
    "commuting",
    "centralizing",
    "skew_commuting",
    "skew_centralizing",
)

_spaces: dict = {}


def _twist(family, field_name, twist):
    t, sigma = _instance(family, field_name)
    return t, (LinearEndo.identity(t.algebra) if twist == "identity" else sigma)


def _space(family, field_name, twist, kind):
    key = (family, field_name, twist, kind)
    if key not in _spaces:
        t, sigma = _twist(family, field_name, twist)
        _spaces[key] = solve_space(t, sigma, kind).space
    return _spaces[key]


def _nonzero(field):
    return _scalars(field).filter(bool)


@pytest.mark.parametrize("twist", ["identity", "inner"])
@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("family", CHECK_FAMILIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_checkers_match_dense_oracle(family, field_name, twist, data):
    """Whole CheckResults, witnesses included, on solved members (which pass
    their own check) and on the same members with one entry of the member or
    of the twist perturbed.  A twist perturbed in column c first breaks the
    identities at the pairs that use σ(e_c), so failures also come late."""
    field = FIELDS[field_name]
    t, sigma = _twist(family, field_name, twist)
    alg = t.algebra
    kind = data.draw(st.sampled_from(MEMBER_KINDS))
    if kind == "automorphism":
        v = vec_of_endo(sigma)
    else:
        space = _space(family, field_name, twist, kind)
        v = (field.zero,) * space.ambient_dim
        for c, b in zip(data.draw(_vectors(field, space.dim)), space.basis):
            v = vec_add(field, v, vec_scale(field, c, b))

    def perturb(w):
        k = data.draw(st.integers(0, len(w) - 1))
        return w[:k] + (field.add(w[k], data.draw(_nonzero(field))),) + w[k + 1 :]

    perturbed = data.draw(st.sampled_from(["none", "member", "twist"]))
    if perturbed == "member":
        v = perturb(v)
    elif perturbed == "twist":
        sigma = endo_of_vec(alg, perturb(vec_of_endo(sigma)))
    perturbed = perturbed != "none"
    n2 = alg.dim**2
    if kind == "generalized_pair":
        D, d = endo_of_vec(alg, v[:n2]), endo_of_vec(alg, v[n2:])
        got = is_generalized_pair(D, d, sigma)
        assert got == dense_is_generalized_pair(D, d, sigma)
        assert got.ok or perturbed
        return
    theta = endo_of_vec(alg, v)
    results = {
        "automorphism": (is_automorphism(theta), dense_is_automorphism(theta)),
        "sigma_derivation": (is_sigma_derivation(theta, sigma), dense_is_sigma_derivation(theta, sigma)),
        "left_multiplier": (is_left_multiplier(theta), dense_is_left_multiplier(theta)),
    }
    for mode in PREDICATE_MODES:
        results[mode] = (predicate(theta, sigma, mode), dense_predicate(theta, sigma, mode))
    for got, want in results.values():
        assert got == want
    assert results[kind][0].ok or perturbed


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("family", CHECK_FAMILIES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_corner_matrix_matches_dense_extraction(family, field_name, data):
    field = FIELDS[field_name]
    t, _ = _instance(family, field_name)
    rows = data.draw(st.lists(_vectors(field, t.dim), min_size=t.dim, max_size=t.dim))
    endo = LinearEndo(t.algebra, Matrix(field, rows, ncols=t.dim))
    corners = {
        "a": (t.pi_a, t.embed_a, t.A.dim),
        "m": (t.pi_m, t.embed_m, t.M.dim),
        "b": (t.pi_b, t.embed_b, t.B.dim),
    }
    for out, (project, _, dim_out) in corners.items():
        for into, (_, embed, dim_in) in corners.items():
            want = dense_corner_matrix(t, endo, project, embed, dim_in, dim_out)
            assert _corner_matrix(t, endo, out, into) == want


# ---------------------------------------------------------------------------
# the corner maps τ and η against their direct solves

TAU_FAMILIES = {
    "T3": lambda f: upper_triangular(3, f),
    "T3-split2": lambda f: upper_triangular(3, f, split=2),
    "block": lambda f: block_upper((1, 2, 1), 1, f),
    "trian_trunc2": lambda f: trian_trunc(2, f),
}
ETA_FAMILIES = {
    "T2": lambda f: upper_triangular(2, f),
    "trian_trunc2": lambda f: trian_trunc(2, f),
    "trian_trunc3": lambda f: trian_trunc(3, f),
}
TWISTS = {
    "identity": lambda t: LinearEndo.identity(t.algebra),
    "diag_signs": diag_sign_automorphism,
    "inner": lambda t: _twisted(t)[1],
}


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("family", TAU_FAMILIES)
def test_tau_matches_direct_solve(family, field_name):
    t = TAU_FAMILIES[family](FIELDS[field_name])
    data = center(t)
    assert data.piA_center.dim > 0
    cols = [solve_right_partner(t, a) for a in data.piA_center.basis]
    assert data.tau == Matrix.from_columns(t.field, cols, nrows=t.B.dim)


@pytest.mark.parametrize("twist", TWISTS)
@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("family", ETA_FAMILIES)
def test_eta_matches_direct_solve(family, field_name, twist):
    t = ETA_FAMILIES[family](FIELDS[field_name])
    sigma = TWISTS[twist](t)
    data = sigma_center(t, sigma)
    nu = decompose_automorphism(t, sigma).nu_sigma
    assert data.piB_part.dim > 0
    cols = [solve_eta_image(t, nu, b) for b in data.piB_part.basis]
    assert data.eta == Matrix.from_columns(t.field, cols, nrows=t.A.dim)


# ---------------------------------------------------------------------------
# the part checks of the decompositions against their dense loops


def _bumped(m: Matrix, r: int, c: int) -> Matrix:
    """``m`` with one added to entry (r, c)."""
    f = m.field
    rows = [list(row) for row in m.entries]
    rows[r][c] = f.add(rows[r][c], f.one)
    return Matrix(f, rows, ncols=m.ncols)


def _bumps(parts, names):
    """``parts`` itself, then one copy per entry of each named matrix with
    that entry bumped."""
    yield parts
    for name in names:
        m = getattr(parts, name)
        for r in range(m.nrows):
            for c in range(m.ncols):
                yield replace(parts, **{name: _bumped(m, r, c)})


def _der_outcome(check, parts):
    try:
        check(parts)
    except ConditionFailure as exc:
        return exc.label, exc.witness
    return None


@pytest.mark.parametrize("twist", ["identity", "inner"])
@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("family", ETA_FAMILIES)
def test_part_checks_match_dense_loops(family, field_name, twist):
    """Whole CheckResults of the automorphism-parts check and the label and
    witness of the derivation-parts check, on solved members and on members
    with one entry of f, g, ν, ξ, d_A or d_B bumped."""
    t = ETA_FAMILIES[family](FIELDS[field_name])
    sigma = TWISTS[twist](t)
    reasons = set()
    for parts in _bumps(decompose_automorphism(t, sigma), ("f_sigma", "g_sigma", "nu_sigma")):
        got = _check_aut_parts(parts)
        assert got == dense_check_aut_parts(parts)
        reasons.add(got.witness.reason if got.witness else None)
    labels = set()
    for d in solve_space(t, sigma, "sigma_derivation").endos():
        der = decompose_sigma_derivation(t, sigma, d)
        assert _der_outcome(_check_der_parts, der) is None
        for parts in _bumps(der, ("xi", "d_A", "d_B")):
            got = _der_outcome(_check_der_parts, parts)
            assert got == _der_outcome(dense_check_der_parts, parts)
            labels.add(got and got[0])
    if t.M.dim > 1:
        assert {"left intertwining fails", "right intertwining fails"} <= reasons
        assert {"xi left compatibility", "xi right compatibility"} <= labels


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("family", ETA_FAMILIES)
def test_generalized_rejections_match_dense_checker(family, field_name):
    """A partner that fails its own rule, and a map that alone fails the
    generalized rule, are rejected with the whole-pair checker's witness."""
    t = ETA_FAMILIES[family](FIELDS[field_name])
    alg = t.algebra
    ident, zero = LinearEndo.identity(alg), LinearEndo.zero(alg)
    ad = LinearEndo(alg, dense_bracket_matrix(alg, t.embed_m(t.M.basis_vector(0)), t.embed_m(t.M.basis_vector(0)), -1))
    for D, d in ((zero, ident), (ad, zero)):
        want = dense_is_generalized_pair(D, d, ident)
        assert not want.ok
        with pytest.raises(PredicateNotSatisfied) as exc:
            decompose_generalized(t, ident, D, d)
        assert exc.value.witness == want.witness
