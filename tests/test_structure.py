from fractions import Fraction

import pytest
from dense_oracle import dense_bracket_matrix

from trialg import (
    QQ,
    HypothesisNotMet,
    InvalidParts,
    LinearEndo,
    NotAutomorphism,
    PredicateNotSatisfied,
    commuting_criterion,
    compose_automorphism,
    compose_centralizing,
    compose_generalized,
    compose_sigma_derivation,
    decompose_automorphism,
    decompose_centralizing,
    decompose_generalized,
    decompose_left_multiplier,
    decompose_sigma_derivation,
    inner_automorphism,
    predicate,
    solve_space,
)
from trialg.linalg import Matrix
from trialg.structure import AutParts, CentParts, centralizing_conditions, identity_aut_parts

from conftest import diag_sign_automorphism, unipotent_automorphism

ONE = Fraction(1)


def shear(t2q):
    """Conjugation by the unipotent element (1, 1, 1)."""
    return inner_automorphism(t2q.algebra, t2q.element((ONE,), (ONE,), (ONE,)))


def test_identity_automorphism_decomposes_trivially(t2q):
    parts = decompose_automorphism(t2q, LinearEndo.identity(t2q.algebra))
    assert parts.f_sigma == Matrix.identity(QQ, 1)
    assert parts.g_sigma == Matrix.identity(QQ, 1)
    assert parts.m_sigma == (Fraction(0),)
    assert parts.nu_sigma == Matrix.identity(QQ, 1)


def test_unipotent_conjugation_has_corner(t2q):
    parts = decompose_automorphism(t2q, shear(t2q))
    assert parts.m_sigma == (Fraction(-1),)
    assert parts.nu_sigma == Matrix.identity(QQ, 1)
    assert parts.f_sigma == Matrix.identity(QQ, 1)


def test_sign_conjugation_flips_module(t2q):
    parts = decompose_automorphism(t2q, diag_sign_automorphism(t2q))
    assert parts.m_sigma == (Fraction(0),)
    assert parts.nu_sigma == Matrix(QQ, [[Fraction(-1)]])


def test_decomposition_gates_on_idempotent_flags(t3q):
    with pytest.raises(HypothesisNotMet):
        decompose_automorphism(t3q, LinearEndo.identity(t3q.algebra))


def test_decomposition_rejects_non_automorphism(t2q):
    with pytest.raises(NotAutomorphism):
        decompose_automorphism(t2q, LinearEndo.zero(t2q.algebra))


def test_compose_identity_parts(t2q):
    endo = compose_automorphism(t2q, identity_aut_parts(t2q))
    assert endo.is_identity()


def test_compose_with_corner_matches_conjugation(t2q):
    parts = AutParts(t2q, Matrix.identity(QQ, 1), Matrix.identity(QQ, 1), (ONE,), Matrix.identity(QQ, 1))
    endo = compose_automorphism(t2q, parts)
    u = t2q.element((ONE,), (Fraction(-1),), (ONE,))
    assert endo.matrix == inner_automorphism(t2q.algebra, u).matrix


def test_compose_rejects_singular_module_component(t2q):
    bad = AutParts(t2q, Matrix.identity(QQ, 1), Matrix.identity(QQ, 1), (Fraction(0),),
                   Matrix.zeros(QQ, 1, 1))
    with pytest.raises(InvalidParts):
        compose_automorphism(t2q, bad)


def test_automorphism_round_trip(t2q, t2f5, trunc3q):
    for t in (t2q, t2f5, trunc3q):
        for sig in (diag_sign_automorphism(t), unipotent_automorphism(t)):
            parts = decompose_automorphism(t, sig)
            assert compose_automorphism(t, parts).matrix == sig.matrix


def test_zero_derivation_decomposes_to_zero(t2q):
    parts = decompose_sigma_derivation(t2q, LinearEndo.identity(t2q.algebra), LinearEndo.zero(t2q.algebra))
    assert parts.d_A.is_zero() and parts.d_B.is_zero() and parts.xi.is_zero()
    assert parts.m_d == (Fraction(0),)


def test_inner_derivation_components(t2q):
    alg = t2q.algebra
    e12 = t2q.element((Fraction(0),), (ONE,), (Fraction(0),))
    ad = LinearEndo(alg, dense_bracket_matrix(alg, e12, e12, -1))
    parts = decompose_sigma_derivation(t2q, LinearEndo.identity(alg), ad)
    assert parts.d_A.is_zero() and parts.d_B.is_zero() and parts.xi.is_zero()
    assert parts.m_d == (Fraction(-1),)


def test_derivation_round_trip_and_unit_annihilation(t2q, t2f5, trunc3q):
    for t in (t2q, t2f5, trunc3q):
        for sig in (LinearEndo.identity(t.algebra), diag_sign_automorphism(t)):
            space = solve_space(t, sig, "sigma_derivation")
            for d in space.endos():
                parts = decompose_sigma_derivation(t, sig, d)
                assert compose_sigma_derivation(t, parts).matrix == d.matrix
                assert not any(parts.d_A.mul_vec(t.A.unit))
                assert not any(parts.d_B.mul_vec(t.B.unit))


def test_xi_compatibility_identities(trunc3q):
    t = trunc3q
    sig = diag_sign_automorphism(t)
    space = solve_space(t, sig, "sigma_derivation")
    f = t.field
    for d in space.endos():
        parts = decompose_sigma_derivation(t, sig, d)
        for i in range(t.A.dim):
            for k in range(t.M.dim):
                lhs = parts.xi.mul_vec(t.M.left[i][k])
                rhs_l = t.M.act_left(parts.d_A.column(i), t.M.basis_vector(k))
                rhs_r = t.M.act_left(parts.aut.f_sigma.column(i), parts.xi.column(k))
                assert lhs == tuple(f.add(a, b) for a, b in zip(rhs_l, rhs_r))


def test_derivation_decomposition_rejects_non_derivation(t2q):
    not_d = LinearEndo.identity(t2q.algebra)
    with pytest.raises(PredicateNotSatisfied):
        decompose_sigma_derivation(t2q, LinearEndo.identity(t2q.algebra), not_d)


def test_identity_map_centralizing_components(t2q):
    ident = LinearEndo.identity(t2q.algebra)
    parts = decompose_centralizing(t2q, ident, ident)
    assert parts.delta1 == Matrix.identity(QQ, 1)
    assert parts.mu3 == Matrix.identity(QQ, 1)
    for m in (parts.delta2, parts.delta3, parts.mu1, parts.mu2):
        assert m.is_zero()


def test_central_multiplication_decomposes(t2q):
    alg = t2q.algebra
    z = tuple(QQ.mul(Fraction(3), c) for c in alg.unit)
    theta = LinearEndo(alg, alg.left_mul_matrix(z))
    parts = decompose_centralizing(t2q, LinearEndo.identity(alg), theta)
    assert compose_centralizing(t2q, parts).matrix == theta.matrix
    conds = centralizing_conditions(parts, theta)
    assert all(bool(r) for r in conds.values())


def test_centralizing_condition_labels(t2q):
    ident = LinearEndo.identity(t2q.algebra)
    parts = decompose_centralizing(t2q, ident, ident)
    conds = centralizing_conditions(parts, ident)
    expected = {"i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "delta2_range", "mu2_range", "m_component"}
    assert set(conds) == expected
    assert all(bool(r) for r in conds.values())


def test_corrupted_components_fail_their_conditions(t2q):
    ident = LinearEndo.identity(t2q.algebra)
    parts = decompose_centralizing(t2q, ident, ident)
    broken = CentParts(
        t2q,
        parts.aut,
        parts.delta1,
        parts.delta2,
        Matrix.identity(QQ, 1),  # delta3 = id breaks (iv)/(vi)
        parts.mu1,
        parts.mu2,
        parts.mu3,
    )
    conds = centralizing_conditions(broken, ident)
    assert not all(bool(r) for r in conds.values())


def test_module_component_witness_is_first_differing_column(t2q):
    # θ = id with the M-row entry of the e_22 column changed: the round trip of
    # the identity's parts differs from it in that column only
    ident = LinearEndo.identity(t2q.algebra)
    parts = decompose_centralizing(t2q, ident, ident)
    rows = [list(r) for r in ident.matrix.entries]
    rows[1][2] = Fraction(5)
    theta = LinearEndo(t2q.algebra, Matrix(QQ, rows))
    check = centralizing_conditions(parts, theta)["m_component"]
    assert not check.ok
    assert check.witness.pair == (2, 2)
    assert check.witness.lhs == theta.matrix.column(2)
    assert check.witness.rhs == ident.matrix.column(2)


def test_centralizing_round_trip_all_twists(t2q, t2f5, trunc3q):
    for t in (t2q, t2f5, trunc3q):
        for sig in (LinearEndo.identity(t.algebra), diag_sign_automorphism(t), unipotent_automorphism(t)):
            space = solve_space(t, sig, "centralizing")
            for theta in space.endos():
                parts = decompose_centralizing(t, sig, theta)
                assert compose_centralizing(t, parts).matrix == theta.matrix


def test_centralizing_gate_for_twisted_maps_on_unflagged_instance(t3q):
    with pytest.raises(HypothesisNotMet):
        decompose_centralizing(t3q, diag_sign_automorphism(t3q), LinearEndo.zero(t3q.algebra))


def test_identity_twist_decomposition_allowed_on_unflagged_instance(t3q, block21q):
    for t in (t3q, block21q):
        ident = LinearEndo.identity(t.algebra)
        space = solve_space(t, ident, "centralizing")
        for theta in space.endos():
            parts = decompose_centralizing(t, ident, theta)
            assert compose_centralizing(t, parts).matrix == theta.matrix


def test_commuting_criterion_matches_predicate(t2q, trunc3q):
    for t in (t2q, trunc3q):
        for sig in (LinearEndo.identity(t.algebra), diag_sign_automorphism(t)):
            space = solve_space(t, sig, "centralizing")
            for theta in space.endos():
                parts = decompose_centralizing(t, sig, theta)
                assert commuting_criterion(parts) == bool(predicate(theta, sig, "commuting"))


def test_commuting_maps_pass_the_criterion(t2q):
    sig = diag_sign_automorphism(t2q)
    space = solve_space(t2q, sig, "commuting")
    for theta in space.endos():
        parts = decompose_centralizing(t2q, sig, theta)
        assert commuting_criterion(parts)


def test_generalized_pair_with_derivation_round_trips(t2q):
    ident = LinearEndo.identity(t2q.algebra)
    for d in solve_space(t2q, None, "derivation").endos():
        parts = decompose_generalized(t2q, ident, d, d)
        assert compose_generalized(t2q, parts).matrix == d.matrix


def test_left_multiplier_as_generalized_derivation(t2q):
    ident = LinearEndo.identity(t2q.algebra)
    alg = t2q.algebra
    F = LinearEndo(alg, alg.left_mul_matrix(t2q.element((Fraction(2),), (ONE,), (Fraction(-1),))))
    parts = decompose_generalized(t2q, ident, F, LinearEndo.zero(alg))
    assert parts.xi.is_zero()
    assert parts.m_d == (Fraction(0),)
    assert compose_generalized(t2q, parts).matrix == F.matrix


def test_generalized_round_trip_over_pair_space(t2q):
    ident = LinearEndo.identity(t2q.algebra)
    for D, d in solve_space(t2q, ident, "generalized_pair").endo_pairs():
        parts = decompose_generalized(t2q, ident, D, d)
        assert compose_generalized(t2q, parts).matrix == D.matrix
        assert parts.display_matches  # identity twist has no corner element


def test_generalized_display_variant_differs_with_corner(t2q):
    sig = shear(t2q)  # corner element is -1
    parts = decompose_generalized(t2q, sig, LinearEndo.identity(t2q.algebra), LinearEndo.zero(t2q.algebra))
    assert not parts.display_matches
    assert compose_generalized(t2q, parts).matrix == Matrix.identity(QQ, t2q.dim)
    variant = compose_generalized(t2q, parts, use_display_form=True)
    assert variant.matrix != Matrix.identity(QQ, t2q.dim)


def test_identity_is_left_multiplier_with_trivial_parts(t2q):
    parts = decompose_left_multiplier(t2q, LinearEndo.identity(t2q.algebra))
    assert parts.F_A == Matrix.identity(QQ, 1)
    assert parts.F_B == Matrix.identity(QQ, 1)
    assert parts.m_F == (Fraction(0),)


def test_left_multiplication_components_follow_blocks(t2q):
    alg = t2q.algebra
    a0, m0, b0 = (Fraction(2),), (Fraction(5),), (Fraction(-3),)
    F = LinearEndo(alg, alg.left_mul_matrix(t2q.element(a0, m0, b0)))
    parts = decompose_left_multiplier(t2q, F)
    assert parts.F_A == t2q.A.left_mul_matrix(a0)
    assert parts.F_B == t2q.B.left_mul_matrix(b0)
    assert parts.m_F == m0


def test_left_multiplier_round_trip_over_space(t2q, t3q):
    for t in (t2q, t3q):
        for F in solve_space(t, None, "left_multiplier").endos():
            parts = decompose_left_multiplier(t, F)
            gen = decompose_generalized(t, LinearEndo.identity(t.algebra), F, LinearEndo.zero(t.algebra))
            assert (parts.F_A, parts.F_B, parts.m_F) == (gen.D_A, gen.D_B, gen.m_D)
            assert compose_generalized(t, gen).matrix == F.matrix


def test_left_multiplier_rejects_other_maps(t2q):
    alg = t2q.algebra
    e12 = t2q.element((Fraction(0),), (ONE,), (Fraction(0),))
    ad = LinearEndo(alg, dense_bracket_matrix(alg, e12, e12, -1))
    with pytest.raises(PredicateNotSatisfied):
        decompose_left_multiplier(t2q, ad)
