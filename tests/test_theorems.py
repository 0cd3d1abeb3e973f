import random

import pytest

from trialg import (
    GF,
    QQ,
    AutParts,
    CheckResult,
    HypothesisNotMet,
    LinearEndo,
    Matrix,
    StructuralMismatch,
    Subspace,
    block_upper,
    compose_automorphism,
    fixture_n3,
    full_matrix_algebra,
    inner_automorphism,
    is_generalized_pair,
    is_left_multiplier,
    is_sigma_derivation,
    predicate,
    solve_linear,
    solve_space,
    structure,
    theorems,
    trian_trunc,
    trunc_poly,
    upper_triangular,
    verify_description,
    verify_gd_left_mult,
    verify_mayne,
    verify_posner,
    verify_sharma_dhara,
    verify_skew_zero,
)
from conftest import diag_sign_automorphism, unipotent_automorphism
from dense_oracle import contains_pair
from trialg.linalg import vec_neg
from trialg.maps import MapSpace, endo_of_vec


def test_posner_identity_twist(t2q, t3q, block21q):
    for t in (t2q, t3q, block21q):
        report = verify_posner(t)
        assert report.passed
        assert report.dimensions["intersection"] == 0


def test_posner_nontrivial_twists(t2q, t2f5, trunc3q):
    for t in (t2q, t2f5, trunc3q):
        for sig in (diag_sign_automorphism(t), unipotent_automorphism(t)):
            report = verify_posner(t, sig)
            assert report.passed and report.dimensions["intersection"] == 0


def test_posner_gate(t3q):
    with pytest.raises(HypothesisNotMet):
        verify_posner(t3q, diag_sign_automorphism(t3q))


def test_skew_zero_identity_twist(t2q, t3q, block21q):
    for t in (t2q, t3q, block21q):
        report = verify_skew_zero(t)
        assert report.passed and report.dimensions["skew_commuting"] == 0


def test_skew_zero_nontrivial_twists(t2q, t2f5, trunc3q):
    for t in (t2q, t2f5, trunc3q):
        for sig in (diag_sign_automorphism(t), unipotent_automorphism(t)):
            report = verify_skew_zero(t, sig)
            assert report.passed


def test_skew_zero_gate(t3q):
    with pytest.raises(HypothesisNotMet):
        verify_skew_zero(t3q, diag_sign_automorphism(t3q))


@pytest.mark.parametrize(
    "algebra, dim",
    [(trunc_poly(3, QQ), 2), (fixture_n3(QQ).algebra, 4)],
    ids=["trunc_poly(3)", "n3"],
)
def test_posner_fails_outside_the_triangular_hypothesis(algebra, dim):
    """On a commutative local algebra and on the non-unital n3, some nonzero
    derivations are centralizing; the witness is one of them."""
    report = verify_posner(algebra)
    assert not report.passed and report.dimensions["intersection"] == dim
    w = LinearEndo(algebra, report.witness)
    ident = LinearEndo.identity(algebra)
    assert not w.matrix.is_zero()
    assert is_sigma_derivation(w, ident).ok and predicate(w, ident, "centralizing").ok


def test_skew_zero_fails_on_n3():
    """The maps of n3 into its annihilator are skew-commuting."""
    algebra = fixture_n3(QQ).algebra
    report = verify_skew_zero(algebra)
    assert not report.passed and report.dimensions["skew_commuting"] == 4
    w = LinearEndo(algebra, report.witness)
    assert not w.matrix.is_zero() and predicate(w, LinearEndo.identity(algebra), "skew_commuting").ok


def test_vanishing_verifiers_need_a_triangular_algebra_for_a_twist():
    fx = fixture_n3(QQ)
    for verify in (verify_posner, verify_skew_zero):
        with pytest.raises(HypothesisNotMet):
            verify(fx.algebra, fx.maps["sigma"])


@pytest.mark.parametrize(
    "verify,message",
    [
        (verify_gd_left_mult, "needs a triangular algebra"),
        (verify_description, "needs a triangular algebra"),
        (verify_mayne, "needs a triangular algebra"),
        (verify_posner, "^posner with a non-identity twist needs a triangular algebra$"),
        (verify_skew_zero, "^skew_zero with a non-identity twist needs a triangular algebra$"),
    ],
    ids=["gd_left_mult", "description", "mayne", "posner-twisted", "skew_zero-twisted"],
)
def test_triangular_verifiers_reject_a_plain_algebra(verify, message):
    """The statements about the corners of T need a triangular algebra; a
    plain one is a hypothesis not met, not a missing attribute.  Posner and
    skew-zero need one only under a non-identity twist, and say so rather
    than name the corners' idempotent hypothesis."""
    fx = fixture_n3(QQ)
    args = (fx.algebra, fx.maps["sigma"]) if "twist" in message else (trunc_poly(3, QQ),)
    with pytest.raises(HypothesisNotMet, match=message):
        verify(*args)


@pytest.mark.parametrize("verify", [verify_posner, verify_skew_zero, verify_sharma_dhara])
def test_a_counterexample_that_fails_its_recheck_is_a_structural_mismatch(monkeypatch, t2q, verify):
    """With every solved space replaced by the whole space (the commuting
    space by zero), the first basis map is a counterexample that satisfies
    none of the defining identities; it must not be reported as one."""
    solve = theorems.solve_space

    def whole(t, sigma, kind):
        space = solve(t, sigma, kind)
        n, f = space.space.ambient_dim, space.space.field
        bogus = Subspace.zero(f, n) if kind == "commuting" else Subspace.full(f, n)
        return MapSpace(space.algebra, kind, space.pair, bogus)

    monkeypatch.setattr(theorems, "solve_space", whole)
    with pytest.raises(StructuralMismatch):
        verify(t2q)


def test_skew_centralizing_degenerates_to_commuting(t2q, t3q):
    for alg in (t2q, t3q, full_matrix_algebra(2, QQ)):
        report = verify_sharma_dhara(alg)
        assert report.passed and report.details["inclusion"]


def test_skew_centralizing_check_needs_identity():
    with pytest.raises(HypothesisNotMet):
        verify_sharma_dhara(fixture_n3(QQ).algebra)


def test_centralizing_generalized_derivations_are_multipliers(t2q, t3q):
    for t in (t2q, t3q):
        report = verify_gd_left_mult(t)
        assert report.passed
        assert report.details == {"inclusion": True}


def _centralizing_pairs(t):
    """R: the solved generalized pairs (D, d) whose D is centralizing."""
    return solve_space(t, None, "generalized_pair").space.restrict(
        solve_space(t, None, "centralizing").space, lambda v: v[: t.dim**2]
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: upper_triangular(2, QQ),
        lambda: upper_triangular(3, QQ),
        lambda: upper_triangular(2, GF(5)),
        lambda: block_upper((2, 1), 1, QQ),
        lambda: trian_trunc(3, GF(7)),
    ],
    ids=["T2-Q", "T3-Q", "T2-GF5", "block21-Q", "trian_trunc3-GF7"],
)
def test_centralizing_generalized_pairs_are_multipliers_member_by_member(build):
    """What the inclusion R ⊆ L × {0} decides, member by member: each pair of
    R has d = 0, a D that is a left multiplier, and parts with m_d = 0 and
    ξ = 0."""
    t = build()
    assert verify_gd_left_mult(t).passed
    members = _centralizing_pairs(t).basis
    n2 = t.dim**2
    parts = structure._decompose_members(t, LinearEndo.identity(t), "generalized_pair", members)
    assert len(parts) == len(members) >= 1
    for v, part in zip(members, parts):
        assert not any(v[n2:])
        assert is_left_multiplier(endo_of_vec(t, v[:n2])).ok
        assert not any(part.m_d) and part.xi.is_zero()


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_gd_left_mult_fails_on_a_commutative_local_algebra(monkeypatch, field):
    """trunc_poly(3) is no triangular algebra; with the hypothesis gate
    lifted, its centralizing generalized pairs leave L × {0}, and the witness
    is the first basis vector of R outside it, rechecked as a pair."""
    monkeypatch.setattr(theorems, "require_hypotheses", lambda *args: None)
    t = trunc_poly(3, field)
    report = verify_gd_left_mult(t)
    assert not report.passed and report.details == {"inclusion": False}
    assert report.dimensions == {"generalized_pairs": 5, "centralizing_restriction": 5, "left_multipliers": 3}
    n2 = t.dim**2
    mult = solve_space(t, None, "left_multiplier").space
    first = next(v for v in _centralizing_pairs(t).basis if any(v[n2:]) or not mult.contains(v[:n2]))
    assert report.witness.nrows == 2 * t.dim and report.witness.ncols == t.dim
    assert tuple(x for row in report.witness.entries for x in row) == first
    D, d = endo_of_vec(t, first[:n2]), endo_of_vec(t, first[n2:])
    ident = LinearEndo.identity(t)
    assert is_generalized_pair(D, d, ident).ok and predicate(D, ident, "centralizing").ok
    assert not d.matrix.is_zero() or not is_left_multiplier(D).ok
    if field is QQ:
        assert report.witness == Matrix(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, -1], [0, 0, 0], [0, -1, 0], [0, 0, -2]])


def test_gd_left_mult_witness_is_a_multiplier_outside_the_space(monkeypatch, t3q):
    """With the left-multiplier space replaced by zero, the restriction is not
    inside it, but its first D outside is a left multiplier, which fails the
    recheck: a solver that contradicts the predicates gives no witness."""
    solve = theorems.solve_space

    def without_multipliers(t, sigma, kind):
        space = solve(t, sigma, kind)
        if kind != "left_multiplier":
            return space
        return MapSpace(space.algebra, kind, False, Subspace.zero(t.field, t.dim**2))

    monkeypatch.setattr(theorems, "solve_space", without_multipliers)
    with pytest.raises(StructuralMismatch):
        verify_gd_left_mult(t3q)


def test_gd_left_mult_rechecks_a_failing_member(monkeypatch, t3q):
    """With the centralizing space replaced by the whole space, every pair is
    kept; the first member that fails a check has a D that is not
    centralizing, so it is no witness."""
    solve = theorems.solve_space

    def everything_centralizing(t, sigma, kind):
        space = solve(t, sigma, kind)
        if kind != "centralizing":
            return space
        return MapSpace(space.algebra, kind, False, Subspace.full(t.field, t.dim**2))

    monkeypatch.setattr(theorems, "solve_space", everything_centralizing)
    with pytest.raises(StructuralMismatch):
        verify_gd_left_mult(t3q)


def test_identity_map_lies_in_the_restricted_pair_space(t2q):
    ident = LinearEndo.identity(t2q)
    pairs = solve_space(t2q, ident, "generalized_pair")
    assert contains_pair(pairs, ident, LinearEndo.zero(t2q))
    assert predicate(ident, ident, "centralizing").ok


def test_mayne_seeded_sampling(t2q, t2f5):
    for t in (t2q, t2f5):
        report = verify_mayne(t, samples=50, seed=2024)
        assert report.passed
        assert report.dimensions["samples"] == 50
        assert report.details["identity_commuting"]


def test_mayne_deterministic_given_seed(t2q):
    a = verify_mayne(t2q, samples=20, seed=5)
    b = verify_mayne(t2q, samples=20, seed=5)
    assert a == b


def test_mayne_checks_each_sample_once(t2f5, automorphism_checks):
    report = verify_mayne(t2f5, samples=12, seed=3)
    assert report.passed
    assert automorphism_checks == [t2f5.dim] * report.dimensions["samples"]


def test_mayne_gate(t3q):
    with pytest.raises(HypothesisNotMet):
        verify_mayne(t3q, samples=5, seed=1)


def test_unipotent_conjugation_is_not_centralizing(t2q):
    sig = unipotent_automorphism(t2q)
    assert not predicate(sig, LinearEndo.identity(t2q), "centralizing").ok


def test_reports_are_truthy_only_when_passing(t2q):
    report = verify_posner(t2q)
    assert bool(report) is report.passed is True


@pytest.mark.parametrize("samples", [0, -3])
def test_mayne_refuses_fewer_than_one_sample(t2q, samples):
    """No sample would make the verifier pass vacuously."""
    with pytest.raises(ValueError, match="at least 1"):
        verify_mayne(t2q, samples=samples)


def _unit(alg, rng):
    """A random invertible element of a unital algebra and its inverse."""
    while True:
        u = tuple(alg.field.from_int(rng.randint(-3, 3)) for _ in range(alg.dim))
        u_inv = solve_linear(alg.left_mul_matrix(u), alg.unit)
        if u_inv is not None:
            return u, u_inv


@pytest.mark.parametrize(
    "build",
    [
        lambda: upper_triangular(2, QQ),
        lambda: upper_triangular(3, GF(7)),
        lambda: trian_trunc(3, GF(7)),
        lambda: block_upper((2, 2), 1, QQ),
    ],
    ids=["T2-Q", "T3-GF7", "trian_trunc3-GF7", "block22-Q"],
)
def test_inner_parts_compose_to_a_conjugation_by_a_unit(build):
    """The automorphism with parts f = conj_u, g = conj_w, ν(m) = s·u·m·w⁻¹
    and any m_σ is the conjugation by the unit (s·u, −m_σ·w, w), so
    conjugations by random units of T cover every map composed from inner
    corner parts."""
    t = build()
    A, M, B, f = t.A, t.M, t.B, t.field
    rng = random.Random(11)
    for _ in range(4):
        u, _ = _unit(A, rng)
        w, w_inv = _unit(B, rng)
        s = f.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
        m_sigma = tuple(f.from_int(rng.randint(-3, 3)) for _ in range(M.dim))
        nu = Matrix.from_columns(
            f,
            [tuple(f.mul(s, x) for x in M.act_right(M.act_left(u, M.basis_vector(k)), w_inv)) for k in range(M.dim)],
            nrows=M.dim,
        )
        parts = AutParts(t, inner_automorphism(A, u).matrix, inner_automorphism(B, w).matrix, m_sigma, nu)
        unit = t.element(tuple(f.mul(s, x) for x in u), vec_neg(f, M.act_right(m_sigma, w)), w)
        assert compose_automorphism(t, parts) == inner_automorphism(t, unit)


def test_mayne_reports_the_first_sample_that_is_centralizing(t2f5, monkeypatch):
    """With every map taken as centralizing, the report fails on the first
    non-identity sample and names it as its witness."""
    sampled = []
    conjugation = theorems.inner_automorphism

    def recording(alg, u):
        sigma = conjugation(alg, u)
        sampled.append(sigma)
        return sigma

    monkeypatch.setattr(theorems, "inner_automorphism", recording)
    monkeypatch.setattr(theorems, "predicate", lambda theta, sigma, mode: CheckResult(True))
    report = verify_mayne(t2f5, samples=10, seed=3)
    first = next(sigma for sigma in sampled if not sigma.is_identity())
    assert not report.passed
    assert report.witness == first.matrix
    assert report.dimensions["samples"] == 0


def test_mayne_raises_on_a_sampled_non_automorphism(t2f5, monkeypatch):
    monkeypatch.setattr(theorems, "inner_automorphism", lambda alg, u: LinearEndo.zero(alg))
    with pytest.raises(StructuralMismatch, match="non-automorphism"):
        verify_mayne(t2f5, samples=5, seed=1)
