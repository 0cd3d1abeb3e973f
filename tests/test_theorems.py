import random

import pytest

from trialg import (
    GF,
    QQ,
    HypothesisNotMet,
    LinearEndo,
    StructuralMismatch,
    Subspace,
    fixture_n3,
    full_matrix_algebra,
    is_left_multiplier,
    is_sigma_derivation,
    predicate,
    solve_space,
    theorems,
    trian_trunc,
    trunc_poly,
    verify_description,
    verify_gd_left_mult,
    verify_mayne,
    verify_posner,
    verify_sharma_dhara,
    verify_skew_zero,
)
from conftest import diag_sign_automorphism, unipotent_automorphism
from dense_oracle import contains_pair, sample_conjugation_automorphism, sample_parts_automorphism, vec_of_endo
from trialg.maps import MapSpace


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
    "verify", [verify_gd_left_mult, verify_description, verify_mayne], ids=["gd_left_mult", "description", "mayne"]
)
def test_triangular_verifiers_reject_a_plain_algebra(verify):
    """The statements about the corners of T need a triangular algebra; a
    plain one is a hypothesis not met, not a missing attribute."""
    with pytest.raises(HypothesisNotMet, match="needs a triangular algebra"):
        verify(trunc_poly(3, QQ))


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
        assert report.details["restriction_inside_multipliers"]
        assert report.details["partner_zero"]
        assert report.details["decomposition_trivial"]


def test_gd_left_mult_witness_is_a_multiplier_outside_the_space(monkeypatch, t3q):
    """With the left-multiplier space replaced by zero, the restriction is not
    inside it, and the witness is a left multiplier the space misses."""
    solve = theorems.solve_space

    def without_multipliers(t, sigma, kind):
        space = solve(t, sigma, kind)
        if kind != "left_multiplier":
            return space
        return MapSpace(space.algebra, kind, False, Subspace.zero(t.field, t.dim**2))

    monkeypatch.setattr(theorems, "solve_space", without_multipliers)
    report = verify_gd_left_mult(t3q)
    assert not report.passed and not report.details["restriction_inside_multipliers"]
    assert report.details["left_multiplier"] and report.details["partner_zero"]
    F = LinearEndo(t3q.algebra, report.witness)
    assert is_left_multiplier(F).ok
    assert not without_multipliers(t3q, None, "left_multiplier").space.contains(vec_of_endo(F))


def test_identity_map_lies_in_the_restricted_pair_space(t2q):
    ident = LinearEndo.identity(t2q.algebra)
    pairs = solve_space(t2q, ident, "generalized_pair")
    assert contains_pair(pairs, ident, LinearEndo.zero(t2q.algebra))
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
    assert not predicate(sig, LinearEndo.identity(t2q.algebra), "centralizing").ok


def test_reports_are_truthy_only_when_passing(t2q):
    report = verify_posner(t2q)
    assert bool(report) is report.passed is True


@pytest.mark.parametrize("seed", [0, 3, 777, 2024])
def test_mayne_samplers_draw_the_inverting_samplers_maps(t2q, t2f5, seed):
    """Keeping the inverses of the invertibility draws changes neither the
    sampled automorphisms nor the random stream."""
    for t in (t2q, t2f5, trian_trunc(3, GF(7))):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(6):
            assert theorems._sample_parts_automorphism(t, new) == sample_parts_automorphism(t, old)
            assert theorems._sample_conjugation_automorphism(t, new) == sample_conjugation_automorphism(t, old)
        assert new.getstate() == old.getstate()
