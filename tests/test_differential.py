"""The sparse elimination engine, the sparse product kernel and the map
checkers against the dense reference path."""

import dataclasses
import random

import pytest
from dense_oracle import (
    dense_assemble,
    dense_bilinear,
    dense_validate_algebra,
    dense_validate_bimodule,
    dense_bracket_matrix,
    dense_check_aut_parts,
    dense_check_der_parts,
    dense_centralizing_conditions,
    dense_compose_centralizing,
    dense_corner_matrix,
    dense_is_automorphism,
    dense_is_generalized_pair,
    dense_is_left_multiplier,
    dense_is_sigma_derivation,
    dense_generated_dim,
    dense_kernel,
    dense_matmul,
    dense_mul_vec,
    dense_predicate,
    dense_inverse,
    dense_rref,
    dense_solve,
    dense_solve_space,
    dense_table,
    embed_a,
    embed_b,
    embed_m,
    rebased,
    solve_eta_image,
    solve_right_partner,
    vec_of_endo,
)
from conftest import diag_sign_automorphism
from hypothesis import given, settings, strategies as st

from trialg import (
    GF,
    QQ,
    AssociativityViolation,
    Bimodule,
    BimoduleAxiomViolation,
    ConditionFailure,
    FDAlgebra,
    LinearEndo,
    Matrix,
    TriangularAlgebra,
    UnitViolation,
    block_algebra,
    block_upper,
    center,
    compose_centralizing,
    decompose_centralizing,
    fixture_n3,
    fixture_trian_AA0,
    full_matrix_algebra,
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
    trunc_poly,
    upper_triangular,
)
from trialg.algebra import CenterData, _bilinear, _sparse_table
from trialg.cli import _record, fmt_matrix, fmt_subspace, fmt_vector
from trialg.families import Fixture
from trialg.linalg import Subspace, _echelon, _sparse, rref, sparse_kernel, unit_vector, vec_add, vec_scale
from trialg.maps import (
    PREDICATE_MODES,
    SOLVE_KINDS,
    CheckResult,
    MapSpace,
    Witness,
    _generators,
    endo_of_vec,
)
from trialg.structure import (
    AutParts,
    CentParts,
    DerParts,
    GenParts,
    MultParts,
    SigmaCenterData,
    _check_aut_parts,
    _corner_matrix,
    _extract_cent_parts,
    compose_sigma_derivation,
    decompose_automorphism,
    description_conditions,
)
from trialg.theorems import TheoremReport

FIELDS = {"Q": QQ, "F7": GF(7)}


def _twisted(t):
    """The triangular algebra with conjugation by p + 2q + m_0, which halves
    the module corner: the twist has denominators over Q."""
    f = t.field
    u = tuple(f.add(f.add(a, f.add(b, b)), c) for a, b, c in zip(t.p, t.q, embed_m(t, t.M.basis_vector(0))))
    return t, inner_automorphism(t, u)


def _fixture(fx):
    return fx.algebra, fx.maps["sigma"]


def _rebased(alg, sigma, seed):
    """The algebra ``alg`` and its twist σ on the basis given by the columns
    of P = LU, for seeded unit lower and upper triangular L and U with
    entries in {−1, 0, 1}: P is invertible over every field, and the
    structure vectors of the new basis have several terms."""
    f, rng = alg.field, random.Random(seed)
    n = alg.dim

    def unit_triangular(below):
        return Matrix(f, [
            [f.one if i == j else f.from_int(rng.randint(-1, 1)) if (i > j) == below else f.zero for j in range(n)]
            for i in range(n)
        ])

    P = unit_triangular(True) @ unit_triangular(False)
    new = rebased(alg, P)
    return new, LinearEndo(new, dense_inverse(P) @ sigma.matrix @ P)


FAMILIES = {
    "T2": lambda f: _twisted(upper_triangular(2, f)),
    "T3": lambda f: _twisted(upper_triangular(3, f)),
    "T4": lambda f: _twisted(upper_triangular(4, f)),
    "block": lambda f: _twisted(block_upper((1, 2, 1), 1, f)),
    "trian_trunc": lambda f: _twisted(trian_trunc(2, f)),
    "n3": lambda f: _fixture(fixture_n3(f)),
    "trian_AA0": lambda f: _fixture(fixture_trian_AA0(3, f)),
    "T3-rebased": lambda f: _rebased(*_twisted(upper_triangular(3, f)), seed=1),
    "trian_trunc3-rebased": lambda f: _rebased(*_twisted(trian_trunc(3, f)), seed=2),
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


# ---------------------------------------------------------------------------
# basis × generators: the generating sets, and the solves and checks that
# scan only them

@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_generators_generate_the_algebra(family, field_name):
    alg = _instance(family, field_name)[0]
    generators = _generators(alg)
    assert list(generators) == sorted(set(generators))
    assert dense_generated_dim(alg, generators) == alg.dim
    if family.endswith("rebased"):
        assert any(len(v) > 1 for row in alg._sparse for v in row)


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_reduced_checks_match_full_scans(family, field_name, data):
    """The checks that scan basis × generators give the dense full scans'
    verdicts and witnesses: on random maps, and on the twist, a solved
    σ-derivation, pair or left multiplier, with one entry perturbed or not.
    Under the identity twist the Leibniz checks scan the reduced pairs;
    under the family's twist they scan all pairs and must agree too."""
    field = FIELDS[field_name]
    alg, sigma = _instance(family, field_name)
    twist = data.draw(st.sampled_from([sigma, LinearEndo.identity(alg)]))
    kind = data.draw(st.sampled_from(("automorphism", "sigma_derivation", "generalized_pair", "left_multiplier")))
    start = data.draw(st.sampled_from(["random", "member"]))
    width = alg.dim**2 * (2 if kind == "generalized_pair" else 1)
    if start == "random":
        v = data.draw(_vectors(field, width))
    elif kind == "automorphism":
        v = vec_of_endo(sigma)
    else:
        space = solve_space(alg, twist, kind).space
        v = (field.zero,) * width
        for c, b in zip(data.draw(_vectors(field, space.dim)), space.basis):
            v = vec_add(field, v, vec_scale(field, c, b))
    if data.draw(st.booleans()):
        k = data.draw(st.integers(0, width - 1))
        v = v[:k] + (field.add(v[k], data.draw(_nonzero(field))),) + v[k + 1 :]
    n2 = alg.dim**2
    X = endo_of_vec(alg, v[:n2])
    if kind == "automorphism":
        got, want = is_automorphism(X), dense_is_automorphism(X)
    elif kind == "sigma_derivation":
        got, want = is_sigma_derivation(X, twist), dense_is_sigma_derivation(X, twist)
    elif kind == "generalized_pair":
        d = endo_of_vec(alg, v[n2:])
        got, want = is_generalized_pair(X, d, twist), dense_is_generalized_pair(X, d, twist)
    else:
        got, want = is_left_multiplier(X), dense_is_left_multiplier(X)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_matmul_matches_dense_oracle(field, nrows, inner, ncols, data):
    """Every shape, empty and rectangular ones included; entries of equal types."""
    a = Matrix(field, data.draw(st.lists(_vectors(field, inner), min_size=nrows, max_size=nrows)), ncols=inner)
    b = Matrix(field, data.draw(st.lists(_vectors(field, ncols), min_size=inner, max_size=inner)), ncols=ncols)
    got, want = a @ b, dense_matmul(a, b)
    assert got == want and (got.nrows, got.ncols) == (nrows, ncols)
    for row, expected in zip(got.entries, want.entries):
        _assert_same(row, expected)
    with pytest.raises(ValueError):
        a @ Matrix(field, [(field.one,) * ncols] * (inner + 1), ncols=ncols)


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


@st.composite
def sparse_systems(draw):
    """(field, rows, ncols): up to 60 sparse rows of 1–4 nonzeros in at most
    40 columns, fed as drawn, by increasing lead column (a new pivot then
    lies right of the earlier leads, in columns earlier pivot rows hold, so
    back-substitution and its fill-in run most) or by decreasing lead column
    (a new row is first reduced by the earlier pivots)."""
    field = draw(st.sampled_from([QQ, GF(5), GF(10007)]))
    ncols = draw(st.integers(1, 40))
    if field.char:
        nonzero = st.integers(1, field.char - 1)
    else:
        nonzero = st.one_of(st.integers(-5, 5).filter(bool), st.fractions(-5, 5, max_denominator=6).filter(bool))
    row = st.dictionaries(st.integers(0, ncols - 1), nonzero, min_size=1, max_size=4)
    rows = draw(st.lists(row, max_size=60))
    order = draw(st.sampled_from(["drawn", "increasing", "decreasing"]))
    if order != "drawn":
        rows.sort(key=min, reverse=order == "decreasing")
    return field, rows, ncols


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
def test_sparse_engine_matches_dense_oracle(system):
    field, rows, ncols = system
    dense = [tuple(row.get(k, field.zero) for k in range(ncols)) for row in rows]
    assert rref(field, dense, ncols) == dense_rref(field, dense, ncols)
    kernel = sparse_kernel(field, rows, ncols)
    basis, pivots = dense_kernel(field, dense, ncols)
    assert (kernel.basis, kernel.pivots) == (tuple(basis), tuple(pivots))
    echelon = _echelon(field, rows)
    pivots = [c for c, _ in echelon]
    for c, row in echelon:
        assert row[c] == field.one and all(row.values())
        assert [k for k in pivots if k in row] == [c]


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
    alg, A, M, B = t, t.A, t.M, t.B
    x, y = data.draw(_vectors(field, alg.dim)), data.draw(_vectors(field, alg.dim))
    a, m, b = data.draw(_vectors(field, A.dim)), data.draw(_vectors(field, M.dim)), data.draw(_vectors(field, B.dim))
    _assert_same(alg.mul(x, y), dense_bilinear(field, alg.dim, dense_table(alg.zero(), alg._sparse), x, y))
    _assert_same(M.act_left(a, m), dense_bilinear(field, M.dim, dense_table(M.zero(), M._left), a, m))
    _assert_same(M.act_right(m, b), dense_bilinear(field, M.dim, dense_table(M.zero(), M._right), m, b))


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
    return t, (LinearEndo.identity(t) if twist == "identity" else sigma)


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
    alg = t
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
    endo = LinearEndo(t, Matrix(field, rows, ncols=t.dim))
    corners = {
        "a": (t.pi_a, embed_a, t.A.dim),
        "m": (t.pi_m, embed_m, t.M.dim),
        "b": (t.pi_b, embed_b, t.B.dim),
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
    "identity": lambda t: LinearEndo.identity(t),
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
                yield parts.replace(**{name: _bumped(m, r, c)})


# the (rows, columns) corners of each block a map is split into
BLOCKS = {
    "d_A": ("a", "a"), "xi": ("m", "m"), "d_B": ("b", "b"),
    "delta1": ("a", "a"), "delta2": ("a", "m"), "delta3": ("a", "b"),
    "mu1": ("b", "a"), "mu2": ("b", "m"), "mu3": ("b", "b"),
}


def _map_bumps(t, endo, parts, names):
    """``endo`` itself, then one copy per entry of each named block of its
    ``parts`` with that entry of the map bumped."""
    yield endo
    offset = {"a": 0, "m": t.A.dim, "b": t.A.dim + t.M.dim}
    for name in names:
        out, into = BLOCKS[name]
        m = getattr(parts, name)
        for r in range(m.nrows):
            for c in range(m.ncols):
                yield LinearEndo(t, _bumped(endo.matrix, offset[out] + r, offset[into] + c))


def _first_label(check, parts):
    """The label of the ConditionFailure ``check`` raises, or ``None``."""
    try:
        check(parts)
    except ConditionFailure as exc:
        return exc.label
    return None


@pytest.mark.parametrize("twist", ["identity", "inner"])
@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("family", ETA_FAMILIES)
def test_part_checks_match_dense_loops(family, field_name, twist):
    """Whole CheckResults of the automorphism-parts check on solved parts and
    on parts with one entry of f, g or ν bumped; and the description of
    σ-derivations on the maps that solved parts, and parts with one entry of
    ξ, d_A or d_B bumped, compose to.  Those maps keep the zero blocks and
    the M-column, so the first failing label is the dense part check's."""
    t = ETA_FAMILIES[family](FIELDS[field_name])
    sigma = TWISTS[twist](t)
    reasons = set()
    for parts in _bumps(decompose_automorphism(t, sigma), ("f_sigma", "g_sigma", "nu_sigma")):
        got = _check_aut_parts(parts)
        assert got == dense_check_aut_parts(parts)
        reasons.add(got.witness.reason if got.witness else None)
    labels = set()
    for d in solve_space(t, sigma, "sigma_derivation").endos():
        bumped = list(_bumps(decompose_sigma_derivation(t, sigma, d), ("xi", "d_A", "d_B")))
        maps = [vec_of_endo(compose_sigma_derivation(t, parts)) for parts in bumped]
        for parts, conditions in zip(bumped, description_conditions(t, sigma, "sigma_derivation", maps)):
            got = next((label for label, r in conditions.items() if not r.ok), None)
            assert got == _first_label(dense_check_der_parts, parts)
            labels.add(got)
    if t.M.dim > 1:
        assert {"left intertwining fails", "right intertwining fails"} <= reasons
        assert {"xi left compatibility", "xi right compatibility"} <= labels


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("family", ETA_FAMILIES)
def test_generalized_rejections_match_dense_checker(family, field_name):
    """A partner that fails its own rule, and a map that alone fails the
    generalized rule, are rejected with the whole-pair checker's witness."""
    t = ETA_FAMILIES[family](FIELDS[field_name])
    alg = t
    ident, zero = LinearEndo.identity(alg), LinearEndo.zero(alg)
    ad = LinearEndo(alg, dense_bracket_matrix(alg, embed_m(t, t.M.basis_vector(0)), embed_m(t, t.M.basis_vector(0)), -1))
    for D, d in ((zero, ident), (ad, zero)):
        want = dense_is_generalized_pair(D, d, ident)
        assert not want.ok
        with pytest.raises(PredicateNotSatisfied) as exc:
            decompose_generalized(t, ident, D, d)
        assert exc.value.witness == want.witness


# ---------------------------------------------------------------------------
# the centralizing conditions against their dense per-pair loops

CENT_CASES = (
    ("T2", lambda f: upper_triangular(2, f), ("identity", "inner")),
    ("T3", lambda f: upper_triangular(3, f), ("identity",)),
    ("T4-split2", lambda f: upper_triangular(4, f, split=2), ("identity",)),
    ("trian_trunc2", lambda f: trian_trunc(2, f), ("identity", "inner")),
    ("trian_trunc3", lambda f: trian_trunc(3, f), ("identity", "inner")),
    ("block", lambda f: block_upper((1, 2, 1), 1, f), ("identity",)),
)
CENT_CORNERS = ("delta1", "delta2", "delta3", "mu1", "mu2", "mu3")


def _cent_members(t, sigma):
    """Every basis member of the solved centralizing space, then one generic
    combination of them."""
    f = t.field
    space = solve_space(t, sigma, "centralizing")
    members = space.endos()
    v = (f.zero,) * space.space.ambient_dim
    for c, b in enumerate(space.space.basis, start=1):
        v = vec_add(f, v, vec_scale(f, f.from_int(c), b))
    return members + [endo_of_vec(t, v)]


@pytest.mark.parametrize("field_name", FIELDS)
def test_centralizing_conditions_match_dense_loops(field_name):
    """The verdict of every centralizing condition, in label order, and the
    recomposed map, on solved members and on the generic member with one
    entry of a corner block bumped.  Between them the cases make every
    condition fail."""
    failed = set()
    for _, build, twists in CENT_CASES:
        t, inner = _twisted(build(FIELDS[field_name]))
        for twist in twists:
            sigma = LinearEndo.identity(t) if twist == "identity" else inner
            members = _cent_members(t, sigma)
            generic = members.pop()
            maps = members + list(_map_bumps(t, generic, decompose_centralizing(t, sigma, generic), CENT_CORNERS))
            results = description_conditions(t, sigma, "centralizing", [vec_of_endo(m) for m in maps])
            for n, (theta, got) in enumerate(zip(maps, results)):
                p = _extract_cent_parts(t, sigma, theta)
                want = dense_centralizing_conditions(p, theta)
                assert [(label, r.ok) for label, r in got.items()] == [(label, r.ok) for label, r in want.items()]
                assert n > len(members) or all(r.ok for r in got.values())
                assert compose_centralizing(t, p).matrix == dense_compose_centralizing(t, p).matrix
                for label, r in got.items():
                    if not r.ok:
                        assert r.witness.reason == label and any(r.witness.lhs)
                        failed.add(label)
    assert failed == {"i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "delta2_range", "mu2_range", "m_component"}


# ---------------------------------------------------------------------------
# the construction axioms against their all-triples loops


def _axiom_outcome(build):
    """What building raises, with its witness, or ``None`` when it passes."""
    try:
        build()
    except AssociativityViolation as exc:
        return AssociativityViolation, exc.indices, exc.left, exc.right
    except (BimoduleAxiomViolation, UnitViolation) as exc:
        return type(exc), str(exc)
    return None


def _same_algebra_outcome(field, table, unit=None):
    labels = [f"e{i}" for i in range(len(table))]
    got = _axiom_outcome(lambda: FDAlgebra(field, labels, table, unit))
    assert got == _axiom_outcome(lambda: dense_validate_algebra(field, table, unit))
    return got


def _same_bimodule_outcome(A, B, left, right):
    labels = [f"m{k}" for k in range(len(right))]
    got = _axiom_outcome(lambda: Bimodule(A, B, labels, left, right))
    assert got == _axiom_outcome(lambda: dense_validate_bimodule(A, B, left, right))
    return got


def _sparse_vectors(field, n):
    """Length-n vectors, mostly zero: none, one or two nonzero coordinates."""
    zero = (field.zero,) * n

    def dense(entries):
        v = list(zero)
        for k, a in entries:
            v[k] = a
        return tuple(v)

    nonzero = st.lists(st.tuples(st.integers(0, n - 1), _nonzero(field)), min_size=1, max_size=2).map(dense)
    return st.one_of(st.just(zero), st.just(zero), nonzero)


def _sparse_tables(field, nrows, ncols, n):
    row = st.lists(_sparse_vectors(field, n), min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


def _poke(table, i, j, v):
    """``table`` with entry (i, j) replaced by v."""
    rows = [list(r) for r in table]
    rows[i][j] = v
    return rows


def _diagonal_pair(field):
    """K ⊕ K on the orthogonal idempotents e1, e2."""
    one, zero = field.one, field.zero
    table = [[(one, zero), (zero, zero)], [(zero, zero), (zero, one)]]
    return FDAlgebra(field, ["e1", "e2"], table, unit=(one, one))


ACTING = {
    "scalar": lambda f: trunc_poly(1, f),
    "trunc_poly2": lambda f: trunc_poly(2, f),
    "diagonal": _diagonal_pair,
    "T2": lambda f: block_algebra((1, 1), f),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(1, 4), st.booleans(), st.data())
def test_algebra_axioms_match_all_triples(field, dim, unital, data):
    """Random sparse tables, some with e_0 declared the unit."""
    table = data.draw(_sparse_tables(field, dim, dim, dim))
    _same_algebra_outcome(field, table, unit_vector(field, dim, 0) if unital else None)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.sampled_from(sorted(ACTING)), st.sampled_from(sorted(ACTING)), st.data())
def test_bimodule_axioms_match_all_triples(field, a_name, b_name, data):
    """Random sparse action tables, or the regular bimodule of A with a few
    entries replaced, so that failures reach the later laws too."""
    A, B = ACTING[a_name](field), ACTING[b_name](field)
    if data.draw(st.booleans()):
        B = A
        left = [list(r) for r in dense_table(A.zero(), A._sparse)]
        right = [list(r) for r in dense_table(A.zero(), A._sparse)]
        for _ in range(data.draw(st.integers(0, 2))):
            table = data.draw(st.sampled_from([left, right]))
            i, j = data.draw(st.integers(0, A.dim - 1)), data.draw(st.integers(0, A.dim - 1))
            table[i][j] = data.draw(_sparse_vectors(field, A.dim))
    else:
        dim = data.draw(st.integers(1, 3))
        left = data.draw(_sparse_tables(field, A.dim, dim, dim))
        right = data.draw(_sparse_tables(field, dim, B.dim, dim))
    _same_bimodule_outcome(A, B, left, right)


def _perturbed(field, table, n):
    """One copy of ``table`` per entry (i, j): a nonzero product set to zero,
    a zero product set to the basis vector (i + j) mod n."""
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            yield _poke(table, i, j, (field.zero,) * n if any(v) else unit_vector(field, n, (i + j) % n))


BUILT = {
    "matrix2": lambda f: full_matrix_algebra(2, f),
    "block12": lambda f: block_algebra((1, 2), f),
    "trunc_poly3": lambda f: trunc_poly(3, f),
    "T3": lambda f: upper_triangular(3, f),
    "block_upper": lambda f: block_upper((1, 2), 1, f),
    "trian_trunc2": lambda f: trian_trunc(2, f),
    "n3": lambda f: fixture_n3(f).algebra,
    "trian_AA0": lambda f: fixture_trian_AA0(2, f).algebra,
}
TRIANGULAR_BUILT = {"T3", "block_upper", "trian_trunc2"}


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("family", BUILT)
def test_perturbed_family_tables_match_all_triples(family, field_name):
    """Every family builder's and fixture's tables pass, and each copy with
    one entry changed gets the all-triples loops' verdict and first failure.
    A triangular algebra's corners A and B and bimodule M are perturbed too."""
    field = FIELDS[field_name]
    built = BUILT[family](field)
    assert isinstance(built, TriangularAlgebra) == (family in TRIANGULAR_BUILT)
    if not isinstance(built, TriangularAlgebra):
        algebras, modules = [built], []
    else:
        algebras, modules = [built.A, built.B, built], [built.M]
    outcomes = set()
    for alg in algebras:
        dense = dense_table(alg.zero(), alg._sparse)
        assert _same_algebra_outcome(field, dense, alg.unit) is None
        for table in _perturbed(field, dense, alg.dim):
            outcomes.add(_same_algebra_outcome(field, table, alg.unit))
    for M in modules:
        A, B = M.left_algebra, M.right_algebra
        dense_left, dense_right = dense_table(M.zero(), M._left), dense_table(M.zero(), M._right)
        assert _same_bimodule_outcome(A, B, dense_left, dense_right) is None
        for left in _perturbed(field, dense_left, M.dim):
            outcomes.add(_same_bimodule_outcome(A, B, left, dense_right))
        for right in _perturbed(field, dense_right, M.dim):
            outcomes.add(_same_bimodule_outcome(A, B, dense_left, right))
    assert len(outcomes) > 1


# ---------------------------------------------------------------------------
# the triangular assembly against the dense table through the embeddings

ASSEMBLED = {
    **{f"T{n}-split{s}": lambda f, n=n, s=s: upper_triangular(n, f, split=s) for n in range(2, 6) for s in range(1, n)},
    "block121-split1": lambda f: block_upper((1, 2, 1), 1, f),
    "block121-split2": lambda f: block_upper((1, 2, 1), 2, f),
    "block12": lambda f: block_upper((1, 2), 1, f),
    "trian_trunc2": lambda f: trian_trunc(2, f),
    "trian_trunc3": lambda f: trian_trunc(3, f),
}


@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("family", ASSEMBLED)
def test_assembly_matches_dense_assembly(family, field_name):
    """T's table read off its corners equals the dense assembly, which the
    validating constructor accepts: T's own associativity and unit checks,
    no longer run, would pass."""
    t = ASSEMBLED[family](FIELDS[field_name])
    want = dense_assemble(t)
    assert t.labels == want.labels
    assert t.unit == want.unit
    assert t._sparse == want._sparse
    assert dense_table(t.zero(), t._sparse) == dense_table(want.zero(), want._sparse)


# ---------------------------------------------------------------------------
# the result records against frozen dataclasses declared with the same fields

# Each record's fields in order: a name, or (name, default or dataclasses.field).
RECORD_FIELDS = {
    CenterData: ("center", "piA_center", "piB_center", "tau"),
    Witness: ("reason", ("pair", None), ("element", None), ("lhs", None), ("rhs", None)),
    CheckResult: ("ok", ("witness", None)),
    MapSpace: ("algebra", "kind", "pair", "space"),
    Fixture: ("name", "description", "algebra", ("maps", dataclasses.field(compare=False)), ("checks", ())),
    AutParts: ("t", "f_sigma", "g_sigma", "m_sigma", "nu_sigma"),
    SigmaCenterData: ("sigma_center", "piA_part", "piB_part", "eta"),
    DerParts: ("t", "aut", "d_A", "d_B", "m_d", "xi"),
    CentParts: (
        "t", "aut", "delta1", "delta2", "delta3", "mu1", "mu2", "mu3",
        ("conditions", dataclasses.field(default_factory=dict, compare=False)),
    ),
    GenParts: ("t", "der", "D_A", "D_B", "m_D", "display_matches"),
    MultParts: ("t", "F_A", "F_B", "m_F"),
    TheoremReport: (
        "theorem", "instance", "passed",
        ("dimensions", dataclasses.field(default_factory=dict)),
        ("details", dataclasses.field(default_factory=dict)),
        ("witness", None),
    ),
}

_F7 = GF(7)
# hashable field values of every kind _record formats or skips
_SAMPLES = ("x", Matrix.identity(_F7, 2), Subspace.full(_F7, 2), (_F7.one, _F7.zero), None, 5)


def _twin(cls):
    """A frozen dataclass with the record's name, fields and own ``__repr__``."""
    specs = [(item, object) if isinstance(item, str) else (item[0], object, item[1]) for item in RECORD_FIELDS[cls]]
    namespace = {"__repr__": cls.__dict__["__repr__"]} if "__repr__" in cls.__dict__ else {}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)


def _values(cls, shift=0):
    return [_SAMPLES[(n + shift) % len(_SAMPLES)] for n in range(len(RECORD_FIELDS[cls]))]


def _state(obj, names):
    return [getattr(obj, name) for name in names]


def _raised(make):
    try:
        make()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome compared
        return type(exc)
    return None


def _dataclass_record(field, data, **extra):
    """What ``cli._record`` wrote when the results were dataclasses."""
    out = {}
    for item in dataclasses.fields(data):
        value = getattr(data, item.name)
        if isinstance(value, Subspace):
            out[item.name] = fmt_subspace(field, value)
        elif isinstance(value, Matrix):
            out[item.name] = fmt_matrix(field, value)
        elif isinstance(value, tuple):
            out[item.name] = fmt_vector(field, value)
    out.update(extra)
    return out


@pytest.mark.parametrize("cls", RECORD_FIELDS, ids=lambda cls: cls.__name__)
def test_record_matches_frozen_dataclass(cls):
    """Construction (positional, keyword, defaults, fresh default dicts, bad
    arguments), ==, hash, repr, frozenness, replace and the report record of
    each result type agree with a frozen dataclass of the same fields."""
    twin = _twin(cls)
    names = [item.name for item in dataclasses.fields(twin)]
    assert list(cls._fields) == names
    vals = _values(cls)
    required = sum(1 for item in dataclasses.fields(twin)
                   if item.default is dataclasses.MISSING and item.default_factory is dataclasses.MISSING)
    rec, dc = cls(*vals), twin(*vals)
    assert _state(rec, names) == _state(dc, names) == vals
    assert repr(rec) == repr(dc)
    assert hash(rec) == hash(dc)
    keyword = dict(zip(names, vals))
    assert cls(**keyword) == rec and _state(cls(**keyword), names) == _state(twin(**keyword), names)
    # defaults, and a fresh dict per record for each default factory
    first, second = cls(*vals[:required]), cls(*vals[:required])
    dc_first, dc_second = twin(*vals[:required]), twin(*vals[:required])
    assert _state(first, names) == _state(dc_first, names)
    assert repr(first) == repr(dc_first)
    assert [getattr(first, n) is getattr(second, n) for n in names] == [
        getattr(dc_first, n) is getattr(dc_second, n) for n in names
    ]
    # missing, surplus, unknown and repeated arguments
    for args, kwargs in (
        (vals[: required - 1], {}),
        (vals + [0], {}),
        (vals, {"bogus": 0}),
        (vals, {names[0]: vals[0]}),
    ):
        assert _raised(lambda: cls(*args, **kwargs)) is _raised(lambda: twin(*args, **kwargs)) is TypeError
    # ==, hash: one field changed at a time; compare=False fields do not count
    for n, name in enumerate(names):
        changed = vals[:n] + ["changed"] + vals[n + 1 :]
        assert (cls(*changed) == rec) == (twin(*changed) == dc)
        assert (hash(cls(*changed)) == hash(rec)) == (hash(twin(*changed)) == hash(dc))
    assert rec != dc and dc != rec and rec != tuple(vals)
    # frozen, on fields and on new names
    for name in names + ["bogus"]:
        assert _raised(lambda: setattr(rec, name, 0)) is AttributeError
        assert issubclass(_raised(lambda: setattr(dc, name, 0)), AttributeError)
        assert _raised(lambda: delattr(rec, name)) is AttributeError
        assert issubclass(_raised(lambda: delattr(dc, name)), AttributeError)
    assert _state(rec, names) == vals
    # replace
    for name in names:
        assert _state(rec.replace(**{name: "new"}), names) == _state(dataclasses.replace(dc, **{name: "new"}), names)
    assert _state(rec.replace(), names) == vals and rec.replace() is not rec
    assert _raised(lambda: rec.replace(bogus=0)) is _raised(lambda: dataclasses.replace(dc, bogus=0)) is TypeError
    # the report record
    for shift in range(len(_SAMPLES)):
        shifted = _values(cls, shift)
        assert _record(_F7, cls(*shifted), extra=1) == _dataclass_record(_F7, twin(*shifted), extra=1)
