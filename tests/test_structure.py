from fractions import Fraction

import pytest
from dense_oracle import dense_bracket_matrix, dense_centralizing_conditions, dense_table, vec_of_endo

from trialg import (
    GF,
    QQ,
    Bimodule,
    FDAlgebra,
    HypothesisNotMet,
    InvalidParts,
    LinearEndo,
    NotAutomorphism,
    PredicateNotSatisfied,
    ReconstructionMismatch,
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
    structure,
    trian_trunc,
    trunc_poly,
    upper_triangular,
)
from trialg.algebra import center
from trialg.linalg import Matrix, vec_add, vec_sub
from trialg.maps import endo_of_vec
from trialg.structure import (
    AutParts,
    _extract_cent_parts,
    decompose_space,
    description_conditions,
    description_space,
    sigma_center,
)

from conftest import diag_sign_automorphism, unipotent_automorphism

ONE = Fraction(1)


def shear(t2q):
    """Conjugation by the unipotent element (1, 1, 1)."""
    return inner_automorphism(t2q, t2q.element((ONE,), (ONE,), (ONE,)))


def test_identity_automorphism_decomposes_trivially(t2q):
    parts = decompose_automorphism(t2q, LinearEndo.identity(t2q))
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


@pytest.mark.parametrize("name", ["T3/Q", "trian_trunc3/F3"])
def test_identity_decomposes_on_unflagged_corners(name):
    """The identity twist needs no idempotent-free corners: it decomposes to
    (I, I, 0, I) where a non-identity twist is refused."""
    t = upper_triangular(3, QQ) if name == "T3/Q" else trian_trunc(3, GF(3))
    assert not t.trivial_idempotent_components
    parts = decompose_automorphism(t, None)
    f = t.field
    assert parts.f_sigma == Matrix.identity(f, t.A.dim)
    assert parts.g_sigma == Matrix.identity(f, t.B.dim)
    assert parts.m_sigma == t.M.zero()
    assert parts.nu_sigma == Matrix.identity(f, t.M.dim)


def test_decomposition_gates_on_idempotent_flags(t3q):
    with pytest.raises(HypothesisNotMet):
        decompose_automorphism(t3q, diag_sign_automorphism(t3q))


# every entry point that needs a triangular algebra, called on a plain one
PLAIN_ALGEBRA_CALLS = {
    "center": lambda a: center(a),
    "sigma_center": lambda a: sigma_center(a, None),
    "decompose_automorphism": lambda a: decompose_automorphism(a, None),
    "decompose_space": lambda a: decompose_space(a, None, "derivation"),
    "description_space": lambda a: description_space(a, None, "sigma_derivation"),
    "description_conditions": lambda a: description_conditions(a, None, "centralizing", []),
    "decompose_sigma_derivation": lambda a: decompose_sigma_derivation(a, None, LinearEndo.zero(a)),
    "decompose_centralizing": lambda a: decompose_centralizing(a, None, LinearEndo.zero(a)),
    "decompose_generalized": lambda a: decompose_generalized(a, None, LinearEndo.zero(a), LinearEndo.zero(a)),
    "decompose_left_multiplier": lambda a: decompose_left_multiplier(a, LinearEndo.zero(a)),
}


@pytest.mark.parametrize("name", PLAIN_ALGEBRA_CALLS)
def test_plain_algebras_are_refused(name):
    """Each entry point refuses an algebra that is not triangular with
    HypothesisNotMet naming itself, before it reads a corner."""
    with pytest.raises(HypothesisNotMet, match=f"^{name} needs a triangular algebra$"):
        PLAIN_ALGEBRA_CALLS[name](trunc_poly(3, QQ))


def test_decompose_space_gates_before_it_solves():
    """A twisted decomposition on corners not decided idempotent-free is
    refused before its space is solved.  Built afresh, so that no solve is
    memoized."""
    t = upper_triangular(3, QQ)
    for kind in ("sigma_derivation", "centralizing", "commuting", "generalized_pair"):
        with pytest.raises(HypothesisNotMet, match="^automorphism decomposition needs diagonal algebras"):
            decompose_space(t, diag_sign_automorphism(t), kind)
    assert not any(key[0] == "solve" for key in t.memo if isinstance(key, tuple))


def test_decomposition_rejects_non_automorphism(t2q):
    with pytest.raises(NotAutomorphism):
        decompose_automorphism(t2q, LinearEndo.zero(t2q))


def test_decomposition_recomposes_to_sigma_column_by_column(monkeypatch):
    """A recomposition that differs from σ on one basis element is refused
    with ReconstructionMismatch naming that element and both columns."""
    t = upper_triangular(2, QQ)
    composed = structure._composed

    def perturbed(t, parts):
        columns = composed(t, parts).matrix.columns()
        columns[1] = vec_add(QQ, columns[1], t.unit)
        return LinearEndo.from_images(t, columns)

    monkeypatch.setattr(structure, "_composed", perturbed)
    with pytest.raises(ReconstructionMismatch) as err:
        decompose_automorphism(t, shear(t))
    assert (err.value.basis_index, err.value.expected, err.value.got) == (1, (0, 1, 0), (1, 1, 1))
    assert str(err.value) == (
        "recomposition disagrees with the original map on basis element 1: expected [0, 1, 0], got [1, 1, 1]"
    )


def test_compose_identity_parts(t2q):
    endo = compose_automorphism(t2q, decompose_automorphism(t2q, None))
    assert endo.is_identity()


def test_compose_with_corner_matches_conjugation(t2q):
    parts = AutParts(t2q, Matrix.identity(QQ, 1), Matrix.identity(QQ, 1), (ONE,), Matrix.identity(QQ, 1))
    endo = compose_automorphism(t2q, parts)
    u = t2q.element((ONE,), (Fraction(-1),), (ONE,))
    assert endo.matrix == inner_automorphism(t2q, u).matrix


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


def test_decomposition_checks_the_automorphism_once(automorphism_checks):
    """σ is checked once; the parts that recompose to it need no check of their own.
    Built afresh: a passing check is kept on the algebra's memo, which the
    session fixtures share."""
    t = trian_trunc(3, QQ)
    sig = unipotent_automorphism(t)
    decompose_automorphism(t, sig)
    assert automorphism_checks == [t.dim]


def test_zero_derivation_decomposes_to_zero(t2q):
    parts = decompose_sigma_derivation(t2q, LinearEndo.identity(t2q), LinearEndo.zero(t2q))
    assert parts.d_A.is_zero() and parts.d_B.is_zero() and parts.xi.is_zero()
    assert parts.m_d == (Fraction(0),)


def test_inner_derivation_components(t2q):
    alg = t2q
    e12 = t2q.element((Fraction(0),), (ONE,), (Fraction(0),))
    ad = LinearEndo(alg, dense_bracket_matrix(alg, e12, e12, -1))
    parts = decompose_sigma_derivation(t2q, LinearEndo.identity(alg), ad)
    assert parts.d_A.is_zero() and parts.d_B.is_zero() and parts.xi.is_zero()
    assert parts.m_d == (Fraction(-1),)


def test_derivation_round_trip_and_unit_annihilation(t2q, t2f5, trunc3q):
    for t in (t2q, t2f5, trunc3q):
        for sig in (LinearEndo.identity(t), diag_sign_automorphism(t)):
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
    f, left = t.field, dense_table(t.M.zero(), t.M._left)
    for d in space.endos():
        parts = decompose_sigma_derivation(t, sig, d)
        for i in range(t.A.dim):
            for k in range(t.M.dim):
                lhs = parts.xi.mul_vec(left[i][k])
                rhs_l = t.M.act_left(parts.d_A.column(i), t.M.basis_vector(k))
                rhs_r = t.M.act_left(parts.aut.f_sigma.column(i), parts.xi.column(k))
                assert lhs == tuple(f.add(a, b) for a, b in zip(rhs_l, rhs_r))


def test_derivation_decomposition_rejects_non_derivation(t2q):
    not_d = LinearEndo.identity(t2q)
    with pytest.raises(PredicateNotSatisfied):
        decompose_sigma_derivation(t2q, LinearEndo.identity(t2q), not_d)


def test_identity_map_centralizing_components(t2q):
    ident = LinearEndo.identity(t2q)
    parts = decompose_centralizing(t2q, ident, ident)
    assert parts.delta1 == Matrix.identity(QQ, 1)
    assert parts.mu3 == Matrix.identity(QQ, 1)
    for m in (parts.delta2, parts.delta3, parts.mu1, parts.mu2):
        assert m.is_zero()


def test_central_multiplication_decomposes(t2q):
    alg = t2q
    z = tuple(QQ.mul(Fraction(3), c) for c in alg.unit)
    theta = LinearEndo(alg, alg.left_mul_matrix(z))
    parts = decompose_centralizing(t2q, LinearEndo.identity(alg), theta)
    assert compose_centralizing(t2q, parts).matrix == theta.matrix
    [conds] = description_conditions(t2q, LinearEndo.identity(alg), "centralizing", [vec_of_endo(theta)])
    assert all(bool(r) for r in conds.values())


def test_centralizing_condition_labels(t2q):
    ident = LinearEndo.identity(t2q)
    [conds] = description_conditions(t2q, ident, "centralizing", [vec_of_endo(ident)])
    assert decompose_centralizing(t2q, ident, ident).conditions == conds
    expected = {"i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "delta2_range", "mu2_range", "m_component"}
    assert set(conds) == expected
    assert all(bool(r) for r in conds.values())


def test_corrupted_components_fail_their_conditions(t2q):
    """The identity with δ₃ = id breaks (vi); (iv) holds, as B = K·1_B, and
    the M-rows are still the canonical ones."""
    ident = LinearEndo.identity(t2q)
    rows = [list(r) for r in ident.matrix.entries]
    rows[0][2] = ONE  # the A-row of the B column: δ₃
    broken = LinearEndo(t2q, Matrix(QQ, rows))
    assert _extract_cent_parts(t2q, ident, broken).delta3 == Matrix.identity(QQ, 1)
    [conds] = description_conditions(t2q, ident, "centralizing", [vec_of_endo(broken)])
    assert {label for label, r in conds.items() if not r.ok} == {"vi"}
    dense = dense_centralizing_conditions(_extract_cent_parts(t2q, ident, broken), broken)
    assert {label for label, r in dense.items() if not r.ok} == {"vi"}


def test_centralizing_conditions_make_no_dense_product(monkeypatch):
    """Every side of the conditions and of the round trip is read from the
    sparse tables and the parts' sparse columns, not from dense products."""
    t = trian_trunc(4, GF(10007))
    ident = LinearEndo.identity(t)
    space = solve_space(t, ident, "centralizing").space
    v = space.basis[0]
    for b in space.basis[1:]:
        v = vec_add(t.field, v, b)
    theta = endo_of_vec(t, v)
    decompose_centralizing(t, ident, theta)
    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for cls, name in ((Bimodule, "act_left"), (Bimodule, "act_right"), (FDAlgebra, "mul")):
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    [conds] = description_conditions(t, ident, "centralizing", [v])
    assert all(r.ok for r in conds.values())
    assert calls == []


def test_module_component_witness_is_first_differing_column(t2q):
    # θ = id with the M-row entry of the e_22 column changed: the round trip of
    # its parts differs from it in that column only, by that entry
    ident = LinearEndo.identity(t2q)
    rows = [list(r) for r in ident.matrix.entries]
    rows[1][2] = Fraction(5)
    theta = LinearEndo(t2q, Matrix(QQ, rows))
    [conds] = description_conditions(t2q, ident, "centralizing", [vec_of_endo(theta)])
    check = conds["m_component"]
    assert not check.ok
    assert check.witness.pair == (2, 2)
    assert check.witness.lhs == vec_sub(QQ, theta.matrix.column(2), ident.matrix.column(2))
    assert compose_centralizing(t2q, _extract_cent_parts(t2q, ident, theta)).matrix == ident.matrix


def test_centralizing_round_trip_all_twists(t2q, t2f5, trunc3q):
    for t in (t2q, t2f5, trunc3q):
        for sig in (LinearEndo.identity(t), diag_sign_automorphism(t), unipotent_automorphism(t)):
            space = solve_space(t, sig, "centralizing")
            for theta in space.endos():
                parts = decompose_centralizing(t, sig, theta)
                assert compose_centralizing(t, parts).matrix == theta.matrix


def test_centralizing_gate_for_twisted_maps_on_unflagged_instance(t3q):
    with pytest.raises(HypothesisNotMet):
        decompose_centralizing(t3q, diag_sign_automorphism(t3q), LinearEndo.zero(t3q))


def test_identity_twist_decomposition_allowed_on_unflagged_instance(t3q, block21q):
    for t in (t3q, block21q):
        ident = LinearEndo.identity(t)
        space = solve_space(t, ident, "centralizing")
        for theta in space.endos():
            parts = decompose_centralizing(t, ident, theta)
            assert compose_centralizing(t, parts).matrix == theta.matrix


def test_commuting_criterion_matches_predicate(t2q, trunc3q):
    for t in (t2q, trunc3q):
        for sig in (LinearEndo.identity(t), diag_sign_automorphism(t)):
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
    ident = LinearEndo.identity(t2q)
    for d in solve_space(t2q, None, "derivation").endos():
        parts = decompose_generalized(t2q, ident, d, d)
        assert compose_generalized(t2q, parts).matrix == d.matrix


def test_left_multiplier_as_generalized_derivation(t2q):
    ident = LinearEndo.identity(t2q)
    alg = t2q
    F = LinearEndo(alg, alg.left_mul_matrix(t2q.element((Fraction(2),), (ONE,), (Fraction(-1),))))
    parts = decompose_generalized(t2q, ident, F, LinearEndo.zero(alg))
    assert parts.xi.is_zero()
    assert parts.m_d == (Fraction(0),)
    assert compose_generalized(t2q, parts).matrix == F.matrix


def test_generalized_round_trip_over_pair_space(t2q):
    ident = LinearEndo.identity(t2q)
    for D, d in solve_space(t2q, ident, "generalized_pair").endo_pairs():
        parts = decompose_generalized(t2q, ident, D, d)
        assert compose_generalized(t2q, parts).matrix == D.matrix
        assert parts.display_matches  # identity twist has no corner element


def test_generalized_display_variant_differs_with_corner(t2q):
    sig = shear(t2q)  # corner element is -1
    parts = decompose_generalized(t2q, sig, LinearEndo.identity(t2q), LinearEndo.zero(t2q))
    assert not parts.display_matches
    assert compose_generalized(t2q, parts).matrix == Matrix.identity(QQ, t2q.dim)
    variant = compose_generalized(t2q, parts.replace(der=parts.der.replace(d_B=parts.D_B)))
    assert variant.matrix != Matrix.identity(QQ, t2q.dim)


def test_identity_is_left_multiplier_with_trivial_parts(t2q):
    parts = decompose_left_multiplier(t2q, LinearEndo.identity(t2q))
    assert parts.F_A == Matrix.identity(QQ, 1)
    assert parts.F_B == Matrix.identity(QQ, 1)
    assert parts.m_F == (Fraction(0),)


def test_left_multiplication_components_follow_blocks(t2q):
    alg = t2q
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
            gen = decompose_generalized(t, LinearEndo.identity(t), F, LinearEndo.zero(t))
            assert (parts.F_A, parts.F_B, parts.m_F) == (gen.D_A, gen.D_B, gen.m_D)
            assert compose_generalized(t, gen).matrix == F.matrix


def test_left_multiplier_rejects_other_maps(t2q):
    alg = t2q
    e12 = t2q.element((Fraction(0),), (ONE,), (Fraction(0),))
    ad = LinearEndo(alg, dense_bracket_matrix(alg, e12, e12, -1))
    with pytest.raises(PredicateNotSatisfied):
        decompose_left_multiplier(t2q, ad)


# ---------------------------------------------------------------------------
# the one per-map body; test_description.py's test_decompose_space_matches_each_member
# checks each one against decompose_space, member by member

PER_MAP = {
    "sigma_derivation": decompose_sigma_derivation,
    "generalized_pair": decompose_generalized,
    "centralizing": decompose_centralizing,
    "left_multiplier": lambda t, sigma, F: decompose_left_multiplier(t, F),  # σ ignored
}


# the defining identity each per-map decomposition names when it fails, on trian_trunc(3) over F_7
IDENTITY_FAILURES = {
    "sigma_derivation": "twisted Leibniz rule at pair (0, 0), lhs [1, 0, 0, 0, 0, 0, 0, 0, 0], rhs [2, 0, 0, 0, 0, 0, 0, 0, 0]",
    "generalized_pair": "generalized Leibniz rule at pair (0, 0), lhs [1, 0, 0, 6, 0, 0, 0, 0, 0], rhs [1, 0, 0, 0, 0, 0, 0, 0, 0]",
    "centralizing": "centralizing fails at pair (0, 0), element [1, 0, 0, 0, 0, 0, 0, 0, 0], lhs [0, 0, 0, 6, 0, 0, 0, 0, 0]",
    "left_multiplier": "generalized Leibniz rule at pair (0, 0), lhs [1, 0, 0, 6, 0, 0, 0, 0, 0], rhs [1, 0, 0, 0, 0, 0, 0, 0, 0]",
}


@pytest.mark.parametrize("kind", PER_MAP)
def test_a_per_map_decomposition_names_the_failed_identity(kind):
    t = trian_trunc(3, GF(7))
    u = unipotent_automorphism(t)
    maps = {"sigma_derivation": (LinearEndo.identity(t),), "generalized_pair": (u, LinearEndo.zero(t))}.get(kind, (u,))
    with pytest.raises(PredicateNotSatisfied) as exc:
        PER_MAP[kind](t, None, *maps)
    assert str(exc.value) == "map fails its defining identity: " + IDENTITY_FAILURES[kind]
