import os
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from dense_oracle import (
    abracket_sigma,
    associated_derivations,
    contains_endo,
    contains_pair,
    dense_bracket_matrix,
    dense_is_sigma_derivation,
    dense_solve_space,
    first_component_space,
    is_derivation,
    vec_of_endo,
)

import trialg
from trialg import (
    GF,
    QQ,
    LinearEndo,
    NotAutomorphism,
    Subspace,
    block_algebra,
    block_upper,
    bracket_sigma,
    center_subspace,
    fixture_n3,
    fixture_trian_AA0,
    full_matrix_algebra,
    is_automorphism,
    is_generalized_pair,
    is_left_multiplier,
    is_sigma_derivation,
    predicate,
    solve_space,
    trian_trunc,
    upper_triangular,
)
from trialg.cli import build_instance, build_sigma, run_config
from trialg.fields import field_from_spec
from trialg.linalg import Matrix, vec_add, vec_sub
from trialg.maps import SOLVE_KINDS, _generators, _Leibniz, _System, as_endo, endo_of_vec

from conftest import diag_sign_automorphism, unipotent_automorphism

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402


def rand_vec(alg, rng, lo=-3, hi=3):
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(alg.dim))


def inner_derivation(alg, t):
    return LinearEndo(alg, dense_bracket_matrix(alg, t, t, -1))


def test_identity_bracket_is_commutator(t2q):
    ident = LinearEndo.identity(t2q)
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
        y = rand_vec(t2q, rng)
        assert not any(bracket_sigma(sig, tuple(t2q.unit), y))


def test_identity_is_automorphism(t2q):
    assert is_automorphism(LinearEndo.identity(t2q)).ok


def test_sign_conjugation_is_automorphism(t2q):
    assert is_automorphism(diag_sign_automorphism(t2q)).ok


def test_projection_is_not_automorphism(t2q):
    alg = t2q
    cols = [tuple(alg.unit)] + [alg.zero()] * (alg.dim - 1)
    proj = LinearEndo.from_images(alg, cols)
    res = is_automorphism(proj)
    assert not res.ok and res.witness.reason == "not invertible"


def test_scaling_is_not_automorphism(t2q):
    two = LinearEndo(t2q, Matrix(QQ, [[Fraction(2), 0, 0], [0, Fraction(2), 0], [0, 0, Fraction(2)]]))
    res = is_automorphism(two)
    assert not res.ok and res.witness.reason == "unit not preserved"


def test_inner_derivations_satisfy_leibniz(t3q):
    rng = random.Random(5)
    for _ in range(5):
        t = rand_vec(t3q, rng)
        assert is_derivation(inner_derivation(t3q, t)).ok


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
        assert is_generalized_pair(d, d, LinearEndo.identity(t2q)).ok


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
        ident = LinearEndo.identity(t)
        pairs = solve_space(t, ident, "generalized_pair")
        D, d = pairs.endo_pairs()[0]
        found = associated_derivations(D, ident)
        assert found is not None
        particular, homogeneous = found
        assert homogeneous.dim == 0
        assert particular.matrix == d.matrix


def test_identity_map_is_commuting(t2q):
    ident = LinearEndo.identity(t2q)
    assert predicate(ident, ident, "commuting").ok


def test_central_multiplication_is_commuting_and_centralizing(t3q):
    alg = t3q
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
        predicate(LinearEndo.identity(t2q), LinearEndo.identity(t2q), "weird")


# ---------------------------------------------------------------------------
# solved spaces


def test_derivations_of_t2_are_inner(t2q):
    space = solve_space(t2q, None, "derivation")
    assert space.dim == 2
    alg = t2q
    inner = Subspace.from_vectors(
        QQ, alg.dim ** 2, [vec_of_endo(inner_derivation(alg, alg.basis_vector(i))) for i in range(alg.dim)]
    )
    assert inner == space.space


def test_derivations_of_matrix_unit_families_are_inner(t3q, block21q):
    for t in (t3q, block21q):
        alg = t
        space = solve_space(t, None, "derivation")
        inner = Subspace.from_vectors(
            QQ, alg.dim ** 2, [vec_of_endo(inner_derivation(alg, alg.basis_vector(i))) for i in range(alg.dim)]
        )
        assert inner == space.space
        assert space.dim == alg.dim - center_subspace(alg).dim


def test_commuting_maps_are_centralizing(t2q, t3q):
    for t in (t2q, t3q):
        for sig in (LinearEndo.identity(t), diag_sign_automorphism(t)):
            comm = solve_space(t, sig, "commuting")
            cent = solve_space(t, sig, "centralizing")
            assert comm.space.leq(cent.space)


def test_left_multipliers_of_t2_are_left_multiplications(t2q):
    space = solve_space(t2q, None, "left_multiplier")
    assert space.dim == 3
    alg = t2q
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
    assert solve_space(t2q, LinearEndo.identity(t2q), "skew_commuting").dim == 0


def test_solved_spaces_are_sound(t2q, t3q):
    rng = random.Random(9)
    for t in (t2q, t3q):
        ident = LinearEndo.identity(t)
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
    z = center_subspace(t2q)
    space = solve_space(t2q, sig, "centralizing")
    for theta in space.endos():
        for _ in range(100):
            x = rand_vec(t2q, rng)
            val = bracket_sigma(sig, x, theta(x))
            assert z.contains(val)
    space = solve_space(t2q, sig, "commuting")
    for theta in space.endos():
        for _ in range(100):
            x = rand_vec(t2q, rng)
            assert not any(bracket_sigma(sig, x, theta(x)))


def test_constructed_members_lie_in_their_spaces(t3q):
    alg = t3q
    rng = random.Random(3)
    der = solve_space(t3q, None, "derivation")
    for _ in range(5):
        assert contains_endo(der, inner_derivation(alg, rand_vec(alg, rng)))
    mult = solve_space(t3q, None, "left_multiplier")
    for _ in range(5):
        assert contains_endo(mult, LinearEndo(alg, alg.left_mul_matrix(rand_vec(alg, rng))))
    comm = solve_space(t3q, LinearEndo.identity(alg), "commuting")
    z = tuple(QQ.mul(Fraction(-3), c) for c in alg.unit)
    assert contains_endo(comm, LinearEndo(alg, alg.left_mul_matrix(z)))


def test_plain_derivations_equal_identity_twisted(t2q, t3q):
    for t in (t2q, t3q):
        plain = solve_space(t, None, "derivation")
        twisted = solve_space(t, LinearEndo.identity(t), "sigma_derivation")
        assert plain.space == twisted.space


def test_solve_rejects_non_automorphism(t2q):
    proj = LinearEndo.zero(t2q)
    with pytest.raises(NotAutomorphism):
        solve_space(t2q, proj, "sigma_derivation")
    with pytest.raises(ValueError):
        solve_space(t2q, None, "nonsense")


def test_pair_space_interface(t2q):
    ident = LinearEndo.identity(t2q)
    pairs = solve_space(t2q, ident, "generalized_pair")
    assert pairs.pair
    with pytest.raises(ValueError):
        pairs.endos()
    D, d = pairs.endo_pairs()[0]
    assert contains_pair(pairs, D, d)
    single = solve_space(t2q, None, "derivation")
    with pytest.raises(ValueError):
        single.endo_pairs()
    assert first_component_space(pairs).ambient_dim == t2q.dim ** 2


def test_as_endo_compares_structure_constants():
    """An endomorphism of an equal but distinct build is accepted; one of an
    algebra of the same dimension with other products is not."""
    first, second = upper_triangular(3, QQ), upper_triangular(3, QQ)
    endo = LinearEndo.identity(first)
    assert second is not first
    assert as_endo(second, endo) is endo
    split1, split2 = upper_triangular(3, QQ, split=1), upper_triangular(3, QQ, split=2)
    assert split1.dim == split2.dim == 6
    with pytest.raises(ValueError, match="different algebra"):
        as_endo(split2, LinearEndo.identity(split1))


def test_endo_vectorization_round_trip(t2q):
    rng = random.Random(2)
    alg = t2q
    m = Matrix(QQ, [[Fraction(rng.randint(-5, 5)) for _ in range(alg.dim)] for _ in range(alg.dim)])
    e = LinearEndo(alg, m)
    assert endo_of_vec(alg, vec_of_endo(e)).matrix == m


def test_checks_convert_each_map_column_at_most_once(monkeypatch):
    """A full twisted-Leibniz check and a full centralizing check read the
    maps' basis images from their sparse columns: at most one dense-to-sparse
    conversion per column, and no rescans of dense product operands."""
    t = trian_trunc(2, QQ)
    alg = t
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


def _system_rows(monkeypatch) -> list:
    """The rows of every system that ``solve_space`` eliminates, one list per
    system, recorded as the engine takes them from the stream."""
    systems = []
    kernel = trialg.maps.sparse_kernel

    def capture(field, rows, ncols):
        taken = []
        systems.append(taken)

        def stream():
            for row in rows:
                taken.append(row)
                yield row

        return kernel(field, stream(), ncols)

    monkeypatch.setattr(trialg.maps, "sparse_kernel", capture)
    return systems


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
@pytest.mark.parametrize(
    "build", [lambda f: upper_triangular(3, f), lambda f: trian_trunc(2, f)], ids=["T3", "trian_trunc2"]
)
def test_solve_systems_store_no_empty_row(monkeypatch, build, field):
    t = build(field)
    systems = _system_rows(monkeypatch)
    for kind in SOLVE_KINDS:
        solve_space(t, unipotent_automorphism(t), kind)
    assert len(systems) == len(SOLVE_KINDS)
    assert all(row for rows in systems for row in rows)


def test_t7_derivation_system_stores_only_written_rows(monkeypatch):
    systems = _system_rows(monkeypatch)
    solve_space(upper_triangular(7, GF(10007)), None, "derivation")
    # 28³ = 21,952 rows if each of the 28² equations added all 28 coordinates
    assert len(systems[0]) <= 6132


@pytest.mark.parametrize("kind", ["generalized_pair", "centralizing"])
def test_solve_streams_each_equation_into_elimination(monkeypatch, kind):
    """``sparse_kernel`` gets an iterator, and an equation's rows are built
    only once every row of the equations before it has been reduced."""
    t = trian_trunc(2, GF(7))
    sigma = unipotent_automorphism(t)
    center_subspace(t)
    assembled, reduced, streams = [], [0], []

    equation = trialg.maps._System.equation

    def counting_equation(system, terms):
        assert reduced[0] == sum(assembled)
        rows = list(equation(system, terms))
        assembled.append(len(rows))
        return rows

    integer_rows = trialg.linalg._integer_rows

    def counting_rows(field, rows):
        for row in integer_rows(field, rows):
            yield row
            if streams and rows is streams[-1]:
                reduced[0] += 1  # the engine asks for the next row only after reducing this one

    kernel = trialg.maps.sparse_kernel

    def receiving(field, rows, ncols):
        assert iter(rows) is rows
        streams.append(rows)
        return kernel(field, rows, ncols)

    monkeypatch.setattr(trialg.maps._System, "equation", counting_equation)
    monkeypatch.setattr(trialg.linalg, "_integer_rows", counting_rows)
    monkeypatch.setattr(trialg.maps, "sparse_kernel", receiving)
    space = solve_space(t, sigma, kind)
    monkeypatch.undo()
    assert len(streams) == 1 and len(assembled) > 1
    assert reduced[0] == sum(assembled)
    assert space == solve_space(t, sigma, kind)


def test_pair_solve_holds_pivots_not_the_system():
    """Solving the T6 generalized pairs over GF(10007) (882 unknowns, 882
    equations) peaks at about 0.65 MiB; storing the system's rows before
    eliminating them took it to about 1.8 MiB."""
    t = upper_triangular(6, GF(10007))
    ident = LinearEndo.identity(t)
    tracemalloc.start()
    try:
        space = solve_space(t, ident, "generalized_pair")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim == 41
    assert peak < 1024 * 1024


def test_each_space_is_solved_once(monkeypatch):
    """The second solve of a (kind, σ) space is the memoized one; σ counts by
    its matrix, and the untwisted kinds ignore it.  Built afresh, because the
    session fixtures share their algebras' memos."""
    t = trian_trunc(2, GF(7))
    sigma = unipotent_automorphism(t)
    kernels = []
    kernel = trialg.maps._System.kernel

    def counting(system, equations):
        kernels.append(system.width)
        return kernel(system, equations)

    monkeypatch.setattr(trialg.maps._System, "kernel", counting)
    for kind in SOLVE_KINDS:
        first = solve_space(t, sigma, kind)
        assert solve_space(t, LinearEndo(t, sigma.matrix), kind) is first
        assert solve_space(t, sigma.matrix, kind) is first
    assert len(kernels) == len(SOLVE_KINDS)
    assert solve_space(t, None, "derivation") is solve_space(t, sigma, "derivation")
    assert solve_space(t, None, "left_multiplier") is solve_space(t, sigma, "left_multiplier")
    assert len(kernels) == len(SOLVE_KINDS)
    identity = LinearEndo.identity(t)
    assert solve_space(t, identity, "sigma_derivation") is not solve_space(t, sigma, "sigma_derivation")
    assert len(kernels) == len(SOLVE_KINDS) + 1


def test_a_rejected_twist_is_rejected_every_time():
    t = upper_triangular(2, QQ)
    proj = LinearEndo(t, Matrix(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    for _ in range(2):
        with pytest.raises(NotAutomorphism):
            solve_space(t, proj, "sigma_derivation")
    assert not any(key[0] == "solve" for key in t.memo if isinstance(key, tuple))


def test_a_run_solves_each_space_once(monkeypatch):
    """The 14 task kinds of the benchmark's mixed job make 14 solve calls
    but only 9 distinct (kind, σ) spaces: the twisted σ-derivations, pairs,
    centralizing and skew-commuting maps, left multipliers, and the
    untwisted skew-centralizing, commuting, pair and centralizing spaces."""
    solved = []
    real = trialg.maps.MapSpace

    def counting(*args, **kwargs):
        solved.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(trialg.maps, "MapSpace", counting)
    tasks = ["center", "sigma_center", "solve:sigma_derivation", "solve:generalized_pair", "decompose:automorphism",
             "decompose:sigma_derivation", "decompose:centralizing", "decompose:generalized_pair",
             "decompose:left_multiplier", "verify:posner", "verify:mayne", "verify:skew_zero",
             "verify:sharma_dhara", "verify:gd_left_mult"]
    config = {"field": {"prime": 7}, "algebra": {"family": "trian_trunc", "N": 2},
              "sigma": {"conjugate_by": ["1", "2", "3", "4", "5", "6"]}, "tasks": tasks, "samples": 2}
    report, code = run_config(config)
    assert code == 0
    assert sorted(solved) == sorted(["sigma_derivation", "generalized_pair", "centralizing", "left_multiplier",
                                     "skew_commuting", "skew_centralizing", "commuting", "generalized_pair",
                                     "centralizing"])


def test_a_run_verifies_each_twist_once(monkeypatch):
    """In one run of the benchmark's mixed job no map but the Mayne samples
    reaches ``is_automorphism`` twice: a passing verdict is kept on the
    algebra's memo under the map's matrix, so σ and the identity are each
    checked once (6 and 4 times before the memo)."""
    checked = Counter()
    sampled = set()
    check = trialg.maps.is_automorphism

    def counting(theta):
        checked[theta.matrix] += 1
        return check(theta)

    for module in (trialg.maps, trialg.structure, trialg.theorems):
        monkeypatch.setattr(module, "is_automorphism", counting)
    conjugation = trialg.theorems.inner_automorphism

    def recording(alg, u):
        sigma = conjugation(alg, u)
        sampled.add(sigma.matrix)
        return sigma

    monkeypatch.setattr(trialg.theorems, "inner_automorphism", recording)
    config = workloads.verify_mix_job(random.Random(0), N=2)
    instance = build_instance(field_from_spec(config["field"]), config["algebra"])
    sigma = build_sigma(instance, config["sigma"]).matrix
    report, code = run_config(config)
    assert code == 0
    assert {matrix: n for matrix, n in checked.items() if n > 1 and matrix not in sampled} == {}
    assert checked[sigma] == checked[Matrix.identity(instance.algebra.field, instance.algebra.dim)] == 1


def test_none_is_the_identity_twist():
    """``sigma=None`` solves every kind under the identity, unchecked; a
    given identity is checked, and both give the one memoized space."""
    t = trian_trunc(2, GF(7))
    for kind in SOLVE_KINDS:
        assert solve_space(t, None, kind) is solve_space(t, LinearEndo.identity(t), kind)


@pytest.mark.parametrize(
    "build, kind, blocks",
    [
        (lambda: upper_triangular(7, GF(10007)), "derivation", {0: 28 * 13}),
        (lambda: trian_trunc(4, GF(10007)), "generalized_pair", {0: 12 * 5, 1: 12 * 5}),
        (lambda: trian_trunc(4, GF(10007)), "left_multiplier", {0: 12 * 5}),
    ],
    ids=["T7-derivation", "trian_trunc4-pair", "trian_trunc4-left_multiplier"],
)
def test_leibniz_solves_stream_basis_times_generators(monkeypatch, build, kind, blocks):
    """A Leibniz-type solve streams one equation per pair (e_i, g), g a
    generator: 13 of T7's 28 basis vectors and 5 of trian_trunc(4)'s 12,
    against 28² = 784 and 12² = 144 equations per block over all pairs."""
    t = build()
    streamed = Counter()
    kernel = _System.kernel

    def counting(system, equations):
        def count():
            for pair, terms in equations:
                streamed[terms[0][0]] += 1
                yield pair, terms

        return kernel(system, count())

    monkeypatch.setattr(_System, "kernel", counting)
    solve_space(t, LinearEndo.identity(t), kind)
    assert dict(streamed) == blocks


@pytest.mark.parametrize(
    "build, generators",
    [
        (lambda: upper_triangular(4, QQ), (0, 1, 4, 5, 7, 8, 9)),
        (lambda: upper_triangular(5, QQ), (0, 1, 5, 6, 9, 10, 12, 13, 14)),
        (lambda: upper_triangular(6, GF(10007)), (0, 1, 6, 7, 11, 12, 15, 16, 18, 19, 20)),
        (lambda: upper_triangular(7, GF(10007)), (0, 1, 7, 8, 13, 14, 18, 19, 22, 23, 25, 26, 27)),
        (
            lambda: upper_triangular(10, GF(10007)),
            (0, 1, 10, 11, 19, 20, 27, 28, 34, 35, 40, 41, 45, 46, 49, 50, 52, 53, 54),
        ),
        (lambda: block_upper((2, 2, 2), 1, GF(10007)), (1, 2, 4, 6, 13, 14, 16, 21, 22)),
        (lambda: trian_trunc(4, GF(10007)), (0, 1, 4, 8, 9)),
        (lambda: block_upper((1, 2), 1, QQ), (0, 1, 4, 5)),
        (lambda: block_upper((2, 2, 1), 2, QQ), (1, 2, 4, 9, 10, 12, 14, 16)),
        (lambda: full_matrix_algebra(3, QQ), (0, 1, 2, 3, 6)),
        (lambda: block_algebra((2, 2), QQ), (1, 2, 4, 9, 10)),
    ],
    ids=["T4", "T5", "T6-gfp", "T7-gfp", "T10-gfp", "block222-gfp", "trian_trunc4-gfp",
         "block_upper12", "block_upper221-split2", "M3", "block_algebra22"],
)
def test_generators_are_pinned(build, generators):
    """The generating sets exactly, since the solver writes n·|G| Leibniz
    equations per block: T_n's 2n − 1 vectors e_ii and e_{i,i+1}, and, in
    the last four, sets where the closure stalls and the lowest missing
    index joins."""
    assert _generators(build()) == generators


def test_an_unverified_twist_keeps_the_full_scan():
    """σ = 2 on e11 of T3, 1 elsewhere, is not multiplicative, and a d with
    the twisted rule on every pair (e_i, g) can still break it elsewhere:
    ``is_sigma_derivation`` must scan all pairs to reject it."""
    t = upper_triangular(3, QQ)
    alg = t
    rows = [[Fraction(int(i == j)) for j in range(alg.dim)] for i in range(alg.dim)]
    rows[0][0] = Fraction(2)
    sigma = LinearEndo(alg, Matrix(QQ, rows))
    assert not is_automorphism(sigma).ok
    # the d whose rule holds on basis × generators but not on all pairs
    reduced = _System(QQ, alg.dim, 1).kernel(_Leibniz(alg, sigma).equations(0, 0))
    full = Subspace(QQ, alg.dim**2, *dense_solve_space(alg, sigma, "sigma_derivation"))
    d = endo_of_vec(alg, next(v for v in reduced.basis if not full.contains(v)))
    generators = _generators(alg)
    for i in range(alg.dim):
        for g in generators:
            ei, eg = alg.basis_vector(i), alg.basis_vector(g)
            assert d(alg.mul(ei, eg)) == vec_add(QQ, alg.mul(d(ei), eg), alg.mul(sigma(ei), d(eg)))
    check = is_sigma_derivation(d, sigma)
    assert not check.ok and check.witness.pair[1] not in generators
    assert check == dense_is_sigma_derivation(d, sigma)


@pytest.mark.parametrize("kind", ["derivation", "left_multiplier", "generalized_pair"])
def test_dropping_a_generator_breaks_the_solve(monkeypatch, kind):
    """Without e12 among T4's generators the Leibniz-type solves find spaces
    larger than the dense oracle's, so the generating set carries weight."""
    generators = _generators(upper_triangular(4, QQ))
    assert 1 in generators  # e12, the first basis vector of M
    monkeypatch.setattr(trialg.maps, "_generators", lambda alg: tuple(g for g in generators if g != 1))
    t = upper_triangular(4, QQ)
    ident = LinearEndo.identity(t)
    space = solve_space(t, ident, kind).space
    basis, _ = dense_solve_space(t, ident, kind)
    assert space.dim > len(basis)
