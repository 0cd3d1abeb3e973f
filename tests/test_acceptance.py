"""Acceptance suite: every criterion asserts exact values (no tolerances) and
prints one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -s``."""

import functools
import json
from fractions import Fraction

from dense_oracle import dense_bracket_matrix

from trialg import (
    QQ,
    LinearEndo,
    Subspace,
    center,
    center_subspace,
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
    fixture_n3,
    fixture_trian_AA0,
    full_matrix_algebra,
    is_generalized_pair,
    is_left_multiplier,
    is_sigma_derivation,
    predicate,
    solve_space,
    verify_mayne,
)
from trialg.linalg import vec_add
from trialg.maps import abracket_sigma, vec_of_endo
from trialg.structure import centralizing_conditions
from trialg.cli import report_to_json, run_config

from conftest import diag_sign_automorphism, unipotent_automorphism


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return wrapper

    return decorate


def twists(t):
    return {
        "identity": LinearEndo.identity(t.algebra),
        "diag_sign": diag_sign_automorphism(t),
        "inner": unipotent_automorphism(t),
    }


@criterion(1, "corner fixture skew maps")
def test_corner_fixture_skew_maps():
    fx = fixture_n3(QQ)
    alg, sigma, theta = fx.algebra, fx.maps["sigma"], fx.maps["theta"]
    ident = LinearEndo.identity(alg)
    assert predicate(theta, sigma, "skew_commuting").ok
    res = predicate(theta, ident, "skew_commuting")
    assert not res.ok
    witness = vec_add(QQ, alg.basis_vector(0), alg.basis_vector(2))  # e12 + e23
    assert res.witness.element == witness
    value = abracket_sigma(ident, theta(witness), witness)
    assert value == (Fraction(0), Fraction(2), Fraction(0))  # exactly 2·e13


@criterion(2, "paired derivation fixture")
def test_paired_derivation_fixture():
    fx = fixture_trian_AA0(4, QQ)
    alg = fx.algebra
    sigma, d, D = fx.maps["sigma"], fx.maps["d"], fx.maps["D"]
    ident = LinearEndo.identity(alg)
    assert is_sigma_derivation(d, sigma).ok
    assert not is_sigma_derivation(d, ident).ok
    a = vec_add(QQ, alg.basis_vector(1), alg.basis_vector(5))  # the element (x, x)
    lhs = d(alg.mul(a, a))
    rhs = vec_add(QQ, alg.mul(d(a), a), alg.mul(a, d(a)))
    x_squared = alg.basis_vector(6)
    assert lhs == x_squared
    assert rhs == tuple(QQ.neg(c) for c in x_squared)
    assert is_generalized_pair(D, d, sigma).ok
    pairs = solve_space(alg, ident, "generalized_pair")
    assert not pairs.first_component_space().contains(vec_of_endo(D))


@criterion(3, "center regression")
def test_center_regression(t2q, t3q, t4q):
    for t in (t2q, t3q, t4q):
        data = center(t)  # raises if the two computations disagree
        oracle = center_subspace(t.algebra)
        assert data.center == oracle
        assert data.center.dim == 1


@criterion(4, "derivation space regression")
def test_derivation_space_regression(t2q):
    space = solve_space(t2q, None, "derivation")
    assert space.dim == 2
    alg = t2q.algebra
    inner = Subspace.from_vectors(
        QQ,
        alg.dim ** 2,
        [
            vec_of_endo(LinearEndo(alg, dense_bracket_matrix(alg, alg.basis_vector(i), alg.basis_vector(i), -1)))
            for i in range(alg.dim)
        ],
    )
    assert inner == space.space


def _zero_intersection(t, sigma):
    der = solve_space(t, sigma, "sigma_derivation")
    cent = solve_space(t, sigma, "centralizing")
    return der.space.intersect(cent.space).dim


@criterion(5, "vanishing centralizing derivations")
def test_vanishing_centralizing_derivations(t2q, t3q, block21q, t2f5, trunc3q):
    for t in (t2q, t3q, block21q):
        assert _zero_intersection(t, LinearEndo.identity(t.algebra)) == 0
    for t in (t2q, t2f5, trunc3q):
        assert _zero_intersection(t, diag_sign_automorphism(t)) == 0
        assert _zero_intersection(t, unipotent_automorphism(t)) == 0


@criterion(6, "vanishing skew-commuting maps")
def test_vanishing_skew_commuting_maps(t2q, t3q, block21q, t2f5, trunc3q):
    for t in (t2q, t3q, block21q):
        assert solve_space(t, LinearEndo.identity(t.algebra), "skew_commuting").dim == 0
    for t in (t2q, t2f5, trunc3q):
        assert solve_space(t, diag_sign_automorphism(t), "skew_commuting").dim == 0
        assert solve_space(t, unipotent_automorphism(t), "skew_commuting").dim == 0


@criterion(7, "skew-centralizing inclusion")
def test_skew_centralizing_inclusion(t2q, t3q):
    for alg in (t2q.algebra, t3q.algebra, full_matrix_algebra(2, QQ)):
        ident = LinearEndo.identity(alg)
        skew = solve_space(alg, ident, "skew_centralizing")
        comm = solve_space(alg, ident, "commuting")
        assert skew.space.leq(comm.space)


@criterion(8, "centralizing generalized derivations degenerate")
def test_centralizing_generalized_derivations(t2q, t3q):
    for t in (t2q, t3q):
        ident = LinearEndo.identity(t.algebra)
        pairs = solve_space(t, ident, "generalized_pair")
        cent = solve_space(t, ident, "centralizing")
        n2 = t.dim ** 2
        f = t.field
        carrier = [v + (f.zero,) * n2 for v in cent.space.basis]
        carrier += [(f.zero,) * n2 + v for v in Subspace.full(f, n2).basis]
        restricted = pairs.space.intersect(Subspace.from_vectors(f, 2 * n2, carrier))
        assert restricted.dim > 0
        from trialg.maps import endo_of_vec

        for v in restricted.basis:
            D = endo_of_vec(t.algebra, v[:n2])
            d = endo_of_vec(t.algebra, v[n2:])
            assert is_left_multiplier(D).ok
            assert d.matrix.is_zero()
            parts = decompose_generalized(t, ident, D, d)
            assert not any(parts.m_d)
            assert parts.xi.is_zero()


@criterion(9, "structure round trips")
def test_structure_round_trips(t2q, t2f5, trunc3q):
    for t in (t2q, t2f5, trunc3q):
        for sigma in twists(t).values():
            parts = decompose_automorphism(t, sigma)
            assert compose_automorphism(t, parts).matrix == sigma.matrix

            for d in solve_space(t, sigma, "sigma_derivation").endos():
                der = decompose_sigma_derivation(t, sigma, d)
                assert compose_sigma_derivation(t, der).matrix == d.matrix

            for kind in ("centralizing", "commuting"):
                space = solve_space(t, sigma, kind)
                for theta in space.endos():
                    cent = decompose_centralizing(t, sigma, theta)
                    conds = centralizing_conditions(cent, theta)
                    assert all(bool(conds[label]) for label in ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii"))
                    assert all(bool(r) for r in conds.values())
                    assert compose_centralizing(t, cent).matrix == theta.matrix
                    if kind == "commuting":
                        assert commuting_criterion(cent)

            assert solve_space(t, sigma, "skew_commuting").dim == 0

            for D, d in solve_space(t, sigma, "generalized_pair").endo_pairs():
                gen = decompose_generalized(t, sigma, D, d)
                assert compose_generalized(t, gen).matrix == D.matrix

        for F in solve_space(t, None, "left_multiplier").endos():
            mult = decompose_left_multiplier(t, F)
            gen = decompose_generalized(t, LinearEndo.identity(t.algebra), F, LinearEndo.zero(t.algebra))
            assert (mult.F_A, mult.F_B, mult.m_F) == (gen.D_A, gen.D_B, gen.m_D)
            assert compose_generalized(t, gen).matrix == F.matrix

        for d in solve_space(t, None, "derivation").endos():
            der = decompose_sigma_derivation(t, LinearEndo.identity(t.algebra), d)
            assert compose_sigma_derivation(t, der).matrix == d.matrix


@criterion(10, "centralizing automorphism sampling")
def test_centralizing_automorphism_sampling(t2q, t2f5):
    for t in (t2q, t2f5):
        report = verify_mayne(t, samples=50, seed=20240601)
        assert report.passed
        assert report.dimensions["samples"] == 50
        assert report.details["identity_commuting"]
        assert report.witness is None


@criterion(11, "deterministic reports")
def test_deterministic_reports():
    config = {
        "field": "rational",
        "algebra": {"family": "Tn", "n": 2},
        "sigma": {"diag_signs": [1, -1]},
        "tasks": [
            "center",
            "sigma_center",
            "solve:sigma_derivation",
            "solve:generalized_pair",
            "decompose:centralizing",
            "verify:posner",
            "verify:skew_zero",
            "verify:mayne",
        ],
        "seed": 424242,
    }
    first, code_first = run_config(json.loads(json.dumps(config)))
    second, code_second = run_config(json.loads(json.dumps(config)))
    assert code_first == code_second == 0
    assert report_to_json(first) == report_to_json(second)
    assert report_to_json(first).encode() == report_to_json(second).encode()
