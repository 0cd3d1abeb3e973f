import random
from fractions import Fraction

import pytest
from dense_oracle import dense_bracket_matrix

import trialg
from trialg import (
    QQ,
    LinearEndo,
    NotAutomorphism,
    Subspace,
    abracket_sigma,
    associated_derivations,
    bracket_sigma,
    center_subspace,
    fixture_n3,
    fixture_trian_AA0,
    is_automorphism,
    is_derivation,
    is_generalized_pair,
    is_left_multiplier,
    is_sigma_derivation,
    predicate,
    solve_space,
    trian_trunc,
)
from trialg.linalg import Matrix, vec_add, vec_sub
from trialg.maps import endo_of_vec, vec_of_endo

from conftest import diag_sign_automorphism, unipotent_automorphism


def rand_vec(alg, rng, lo=-3, hi=3):
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(alg.dim))


def inner_derivation(alg, t):
    return LinearEndo(alg, dense_bracket_matrix(alg, t, t, -1))


def test_identity_bracket_is_commutator(t2q):
    ident = LinearEndo.identity(t2q.algebra)
    assert not any(bracket_sigma(ident, t2q.p, t2q.q))
    x = t2q.element((Fraction(1),), (Fraction(2),), (Fraction(3),))
    y = t2q.element((Fraction(0),), (Fraction(1),), (Fraction(-1),))
    comm = vec_sub(QQ, t2q.mul(x, y), t2q.mul(y, x))
    assert bracket_sigma(ident, x, y) == comm


def test_anti_bracket_on_corner_fixture():
    fx = fixture_n3(QQ)
    alg = fx.algebra
    ident = LinearEndo.identity(alg)
    x = vec_add(QQ, alg.basis_vector(0), alg.basis_vector(2))  # e12 + e23
    th_x = fx.maps["theta"](x)
    two_e13 = (Fraction(0), Fraction(2), Fraction(0))
    assert abracket_sigma(ident, th_x, x) == two_e13
    # the twisted anti-bracket of the same pair vanishes
    assert not any(abracket_sigma(fx.maps["sigma"], x, th_x))


def test_bracket_with_unit_vanishes_for_unital_automorphism(t2q):
    sig = diag_sign_automorphism(t2q)
    rng = random.Random(1)
    for _ in range(10):
        y = rand_vec(t2q.algebra, rng)
        assert not any(bracket_sigma(sig, tuple(t2q.algebra.unit), y))


def test_identity_is_automorphism(t2q):
    assert is_automorphism(LinearEndo.identity(t2q.algebra)).ok


def test_sign_conjugation_is_automorphism(t2q):
    assert is_automorphism(diag_sign_automorphism(t2q)).ok


def test_projection_is_not_automorphism(t2q):
    alg = t2q.algebra
    cols = [tuple(alg.unit)] + [alg.zero()] * (alg.dim - 1)
    proj = LinearEndo.from_images(alg, cols)
    res = is_automorphism(proj)
    assert not res.ok and res.witness.reason == "not invertible"


def test_scaling_is_not_automorphism(t2q):
    two = LinearEndo(t2q.algebra, Matrix(QQ, [[Fraction(2), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(2)]]))
    res = is_automorphism(two)
    assert not res.ok and res.witness.reason == "unit not preserved"


def test_inner_derivations_satisfy_leibniz(t3q):
    rng = random.Random(5)
    for _ in range(5):
        t = rand_vec(t3q.algebra, rng)
        assert is_derivation(inner_derivation(t3q.algebra, t)).ok


def test_fixture_derivation_twisted_but_not_plain():
    fx = fixture_trian_AA0(4, QQ)
    alg, sig, d = fx.algebra, fx.maps["sigma"], fx.maps["d"]
    assert is_sigma_derivation(d, sig).ok
    res = is_sigma_derivation(d, LinearEndo.identity(alg))
    assert not res.ok
    # witness pair a = b = (x, x): compare the two products directly
    a = vec_add(QQ, alg.basis_vector(1), alg.basis_vector(5))  # (x, x)
    lhs = d(alg.mul(a, a))
    rhs = vec_add(QQ, alg.mul(d(a), a), alg.mul(a, d(a)))
    x_sq = alg.basis_vector(6)  # (0, x^2)
    assert lhs == x_sq
    assert rhs == tuple(QQ.neg(c) for c in x_sq)


def test_generalized_pair_with_itself(t2q):
    sp = solve_space(t2q, None, "derivation")
    for d in sp.endos():
        assert is_generalized_pair(d, d, LinearEndo.identity(t2q.algebra)).ok


def test_fixture_generalized_pair_and_missing_partner():
    fx = fixture_trian_AA0(4, QQ)
    alg, sig, d, D = fx.algebra, fx.maps["sigma"], fx.maps["d"], fx.maps["D"]
    assert is_generalized_pair(D, d, sig).ok
    # solving for a partner of D under the identity twist is inconsistent
    assert associated_derivations(D, LinearEndo.identity(alg)) is None
    # under its own twist the partner exists and the solver recovers the pair
    found = associated_derivations(D, sig)
    assert found is not None
    particular, homogeneous = found
    assert is_generalized_pair(D, particular, sig).ok


def test_partner_is_unique_on_unital_algebras(t2q, t3q):
    for t in (t2q, t3q):
        ident = LinearEndo.identity(t.algebra)
        pairs = solve_space(t, ident, "generalized_pair")
        D, d = pairs.endo_pairs()[0]
        found = associated_derivations(D, ident)
        assert found is not None
        particular, homogeneous = found
        assert homogeneous.dim == 0
        assert particular.matrix == d.matrix


def test_identity_map_is_commuting(t2q):
    ident = LinearEndo.identity(t2q.algebra)
    assert predicate(ident, ident, "commuting").ok


def test_central_multiplication_is_commuting_and_centralizing(t3q):
    alg = t3q.algebra
    z = tuple(QQ.mul(Fraction(2), c) for c in alg.unit)
    theta = LinearEndo(alg, alg.left_mul_matrix(z))
    ident = LinearEndo.identity(alg)
    assert predicate(theta, ident, "commuting").ok
    assert predicate(theta, ident, "centralizing").ok


def test_corner_fixture_skew_commuting_witness():
    fx = fixture_n3(QQ)
    ident = LinearEndo.identity(fx.algebra)
    assert predicate(fx.maps["theta"], fx.maps["sigma"], "skew_commuting").ok
    res = predicate(fx.maps["theta"], ident, "skew_commuting")
    assert not res.ok
    assert res.witness.pair == (0, 2)
    assert res.witness.element == vec_add(QQ, fx.algebra.basis_vector(0), fx.algebra.basis_vector(2))
    assert res.witness.lhs == (Fraction(0), Fraction(2), Fraction(0))


def test_unknown_mode_rejected(t2q):
    with pytest.raises(ValueError):
        predicate(LinearEndo.identity(t2q.algebra), LinearEndo.identity(t2q.algebra), "weird")


# ---------------------------------------------------------------------------
# solved spaces


def test_derivations_of_t2_are_inner(t2q):
    space = solve_space(t2q, None, "derivation")
    assert space.dim == 2
    alg = t2q.algebra
    inner = Subspace.from_vectors(
        QQ, alg.dim ** 2, [vec_of_endo(inner_derivation(alg, alg.basis_vector(i))) for i in range(alg.dim)]
    )
    assert inner == space.space


def test_derivations_of_matrix_unit_families_are_inner(t3q, block21q):
    for t in (t3q, block21q):
        alg = t.algebra
        space = solve_space(t, None, "derivation")
        inner = Subspace.from_vectors(
            QQ, alg.dim ** 2, [vec_of_endo(inner_derivation(alg, alg.basis_vector(i))) for i in range(alg.dim)]
        )
        assert inner == space.space
        assert space.dim == alg.dim - center_subspace(alg).dim


def test_commuting_maps_are_centralizing(t2q, t3q):
    for t in (t2q, t3q):
        for sig in (LinearEndo.identity(t.algebra), diag_sign_automorphism(t)):
            comm = solve_space(t, sig, "commuting")
            cent = solve_space(t, sig, "centralizing")
            assert comm.space.leq(cent.space)


def test_left_multipliers_of_t2_are_left_multiplications(t2q):
    space = solve_space(t2q, None, "left_multiplier")
    assert space.dim == 3
    alg = t2q.algebra
    mults = Subspace.from_vectors(
        QQ,
        alg.dim ** 2,
        [vec_of_endo(LinearEndo(alg, alg.left_mul_matrix(alg.basis_vector(i)))) for i in range(alg.dim)],
    )
    assert mults == space.space
    for F in space.endos():
        f_of_one = F(alg.unit)
        assert F.matrix == alg.left_mul_matrix(f_of_one)


def test_skew_commuting_space_is_zero(t2q):
    assert solve_space(t2q, LinearEndo.identity(t2q.algebra), "skew_commuting").dim == 0


def test_solved_spaces_are_sound(t2q, t3q):
    rng = random.Random(9)
    for t in (t2q, t3q):
        ident = LinearEndo.identity(t.algebra)
        sig = diag_sign_automorphism(t)
        for kind, s in (
            ("derivation", ident),
            ("sigma_derivation", sig),
            ("left_multiplier", ident),
            ("commuting", ident),
            ("centralizing", sig),
            ("skew_centralizing", ident),
        ):
            space = solve_space(t, s, kind)
            for theta in space.endos():
                if kind in ("derivation", "sigma_derivation"):
                    assert is_sigma_derivation(theta, s if kind == "sigma_derivation" else ident).ok
                elif kind == "left_multiplier":
                    assert is_left_multiplier(theta).ok
                else:
                    assert predicate(theta, s, kind).ok


def test_quantified_kinds_hold_on_random_elements(t2q):
    rng = random.Random(11)
    sig = diag_sign_automorphism(t2q)
    z = center_subspace(t2q.algebra)
    space = solve_space(t2q, sig, "centralizing")
    for theta in space.endos():
        for _ in range(100):
            x = rand_vec(t2q.algebra, rng)
            val = bracket_sigma(sig, x, theta(x))
            assert z.contains(val)
    space = solve_space(t2q, sig, "commuting")
    for theta in space.endos():
        for _ in range(100):
            x = rand_vec(t2q.algebra, rng)
            assert not any(bracket_sigma(sig, x, theta(x)))


def test_constructed_members_lie_in_their_spaces(t3q):
    alg = t3q.algebra
    rng = random.Random(3)
    der = solve_space(t3q, None, "derivation")
    for _ in range(5):
        assert der.contains_endo(inner_derivation(alg, rand_vec(alg, rng)))
    mult = solve_space(t3q, None, "left_multiplier")
    for _ in range(5):
        assert mult.contains_endo(LinearEndo(alg, alg.left_mul_matrix(rand_vec(alg, rng))))
    comm = solve_space(t3q, LinearEndo.identity(alg), "commuting")
    z = tuple(QQ.mul(Fraction(-3), c) for c in alg.unit)
    assert comm.contains_endo(LinearEndo(alg, alg.left_mul_matrix(z)))


def test_plain_derivations_equal_identity_twisted(t2q, t3q):
    for t in (t2q, t3q):
        plain = solve_space(t, None, "derivation")
        twisted = solve_space(t, LinearEndo.identity(t.algebra), "sigma_derivation")
        assert plain.space == twisted.space


def test_solve_rejects_non_automorphism(t2q):
    proj = LinearEndo.zero(t2q.algebra)
    with pytest.raises(NotAutomorphism):
        solve_space(t2q, proj, "sigma_derivation")
    with pytest.raises(ValueError):
        solve_space(t2q, None, "nonsense")


def test_pair_space_interface(t2q):
    ident = LinearEndo.identity(t2q.algebra)
    pairs = solve_space(t2q, ident, "generalized_pair")
    assert pairs.pair
    with pytest.raises(ValueError):
        pairs.endos()
    D, d = pairs.endo_pairs()[0]
    assert pairs.contains_pair(D, d)
    single = solve_space(t2q, None, "derivation")
    with pytest.raises(ValueError):
        single.endo_pairs()
    assert pairs.first_component_space().ambient_dim == t2q.dim ** 2


def test_endo_vectorization_round_trip(t2q):
    rng = random.Random(2)
    alg = t2q.algebra
    m = Matrix(QQ, [[Fraction(rng.randint(-5, 5)) for _ in range(alg.dim)] for _ in range(alg.dim)])
    e = LinearEndo(alg, m)
    assert endo_of_vec(alg, vec_of_endo(e)).matrix == m


def test_checks_convert_each_map_column_at_most_once(monkeypatch):
    """A full twisted-Leibniz check and a full centralizing check read the
    maps' basis images from their sparse columns: at most one dense-to-sparse
    conversion per column, and no rescans of dense product operands."""
    t = trian_trunc(2, QQ)
    alg = t.algebra
    sigma = unipotent_automorphism(t)
    d = endo_of_vec(alg, [sum(c) for c in zip(*solve_space(t, sigma, "sigma_derivation").space.basis)]).matrix
    theta = endo_of_vec(alg, [sum(c) for c in zip(*solve_space(t, sigma, "centralizing").space.basis)]).matrix
    center_subspace(alg)  # computed once per algebra, before counting

    def fresh(m):
        return LinearEndo(alg, Matrix(QQ, m.entries))

    real = trialg.linalg._sparse
    calls = []

    def counting(row):
        calls.append(len(row))
        return real(row)

    modules = [m for m in vars(trialg).values() if getattr(m, "_sparse", None) is real]
    assert trialg.linalg in modules and trialg.algebra in modules
    for module in modules:
        monkeypatch.setattr(module, "_sparse", counting)

    assert is_sigma_derivation(fresh(d), fresh(sigma.matrix)).ok
    assert len(calls) <= 2 * alg.dim
    calls.clear()
    assert predicate(fresh(theta), fresh(sigma.matrix), "centralizing").ok
    assert len(calls) <= 2 * alg.dim
