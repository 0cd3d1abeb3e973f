import gc
import random
from itertools import product
import weakref
from fractions import Fraction

import pytest

from trialg import (
    GF,
    QQ,
    AssociativityViolation,
    Bimodule,
    BimoduleAxiomViolation,
    FDAlgebra,
    LinearEndo,
    NotFaithful,
    ReconstructionMismatch,
    StructuralMismatch,
    TriangularAlgebra,
    UnitViolation,
    ZeroModule,
    center,
    center_subspace,
    decompose_sigma_derivation,
    inner_automorphism,
    sigma_center,
    sigma_center_subspace,
    solve_space,
    trian_trunc,
    trivial_idempotents,
    trunc_poly,
    upper_triangular,
)
from trialg import algebra as algebra_module
from trialg.linalg import Matrix, Subspace

from conftest import diag_sign_automorphism
from dense_oracle import dense_table, embed_a, embed_b, embed_m, has_only_trivial_idempotents_bruteforce

ZERO1 = (Fraction(0),)
ONE1 = (Fraction(1),)


def scalar_algebra():
    return FDAlgebra(QQ, ["e"], [[ONE1]], unit=ONE1)


def test_field_as_dim_one_algebra():
    alg = scalar_algebra()
    assert alg.dim == 1 and alg.is_unital
    assert alg.mul(ONE1, ONE1) == ONE1


def test_nilpotent_strictly_upper_algebra_accepted_without_unit():
    z = (Fraction(0),) * 3
    e13 = (Fraction(0), Fraction(1), Fraction(0))
    table = [[z] * 3 for _ in range(3)]
    table[0][2] = e13
    alg = FDAlgebra(QQ, ["e12", "e13", "e23"], table)
    assert not alg.is_unital
    assert alg.mul(alg.basis_vector(0), alg.basis_vector(2)) == e13


def test_associativity_violation_reports_witness():
    # e1·e1 = e2, e1·e2 = e1: then (e1 e1) e1 = e2 e1 = 0 but e1 (e1 e1) = e1 e2 = e1
    z = (Fraction(0), Fraction(0))
    e1 = (Fraction(1), Fraction(0))
    e2 = (Fraction(0), Fraction(1))
    table = [[e2, e1], [z, z]]
    with pytest.raises(AssociativityViolation) as err:
        FDAlgebra(QQ, ["e1", "e2"], table)
    assert err.value.indices == (0, 0, 0)
    assert err.value.left == z
    assert err.value.right == e1
    assert str(err.value) == "(e0·e0)·e0 = [0, 0] but e0·(e0·e0) = [1, 0]"


def test_associativity_violation_behind_a_zero_product():
    # e0·e0 = e0, e1·e0 = e0, e0·e1 = e1·e1 = 0: the first failing triple is
    # (0, 1, 0), where e0·e1 = 0 but e0·(e1·e0) = e0
    z = (Fraction(0), Fraction(0))
    e0 = (Fraction(1), Fraction(0))
    table = [[e0, z], [e0, z]]
    with pytest.raises(AssociativityViolation) as err:
        FDAlgebra(QQ, ["e0", "e1"], table)
    assert err.value.indices == (0, 1, 0)
    assert err.value.left == z
    assert err.value.right == e0


def test_wrong_unit_rejected():
    z = (Fraction(0), Fraction(0))
    e1 = (Fraction(1), Fraction(0))
    table = [[e1, z], [z, z]]
    with pytest.raises(UnitViolation):
        FDAlgebra(QQ, ["e1", "e2"], table, unit=e1)


def test_triangular_of_three_scalar_blocks(t2q):
    assert t2q.dim == 3
    x = t2q.element(ONE1, (Fraction(2),), (Fraction(3),))
    assert t2q.pi_a(x) == ONE1
    assert t2q.pi_m(x) == (Fraction(2),)
    assert t2q.pi_b(x) == (Fraction(3),)


def test_triangular_split_of_three_by_three(t3q):
    assert t3q.dim == 6
    assert t3q.A.dim == 1 and t3q.M.dim == 2 and t3q.B.dim == 3
    assert trivial_idempotents(t3q.A) is True
    assert trivial_idempotents(t3q.B) is False


def test_unfaithful_left_action_rejected():
    # Q ⊕ Q acting on a 1-dim module through its first coordinate only
    z = (Fraction(0), Fraction(0))
    e1 = (Fraction(1), Fraction(0))
    e2 = (Fraction(0), Fraction(1))
    table = [[e1, z], [z, e2]]
    A = FDAlgebra(QQ, ["e1", "e2"], table, unit=(Fraction(1), Fraction(1)))
    B = scalar_algebra()
    left = [[ONE1], [ZERO1]]
    right = [[ONE1]]
    with pytest.raises(NotFaithful) as err:
        TriangularAlgebra(A, Bimodule(A, B, ["m"], left, right), B)
    assert err.value.side == "left"
    assert err.value.witness == (Fraction(0), Fraction(1))
    assert str(err.value) == "module is not faithful on the left: [0, 1] annihilates it"


def test_unfaithful_right_action_rejected():
    # Q ⊕ Q acting on a 1-dim module through its first coordinate only, on the right
    A, B = scalar_algebra(), diagonal_pair_algebra()
    with pytest.raises(NotFaithful) as err:
        TriangularAlgebra(A, Bimodule(A, B, ["m"], [[ONE1]], [[ONE1, ZERO1]]), B)
    assert err.value.side == "right"
    assert err.value.witness == (Fraction(0), Fraction(1))
    assert str(err.value) == "module is not faithful on the right: [0, 1] annihilates it"


def test_reconstruction_mismatch_writes_its_vectors_as_reports_do():
    mismatch = ReconstructionMismatch(1, (Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(-1)))
    assert str(mismatch).endswith("on basis element 1: expected [1/2, 0], got [0, -1]")


def test_zero_module_rejected():
    A = scalar_algebra()
    with pytest.raises(ZeroModule):
        Bimodule(A, A, [], [[]], [])


def test_broken_unit_action_rejected():
    A = scalar_algebra()
    with pytest.raises(BimoduleAxiomViolation):
        Bimodule(A, A, ["m"], [[ZERO1]], [[ONE1]])


def diagonal_pair_algebra():
    """Q ⊕ Q on the orthogonal idempotents e1, e2, so e1·e2 = 0."""
    z = (Fraction(0), Fraction(0))
    table = [[(Fraction(1), Fraction(0)), z], [z, (Fraction(0), Fraction(1))]]
    return FDAlgebra(QQ, ["e1", "e2"], table, unit=(Fraction(1), Fraction(1)))


M0, M1 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))


# Each module fails first on a triple whose leading product is zero.
@pytest.mark.parametrize(
    "make_a, make_b, labels, left, right, message",
    [
        # both idempotents of A fix m: (a0·a1)·m = 0 but a0·(a1·m) = m
        (diagonal_pair_algebra, scalar_algebra, ["m"], [[ONE1], [ONE1]], [[ONE1]], "(a0·a1)·m0 != a0·(a1·m0)"),
        # both idempotents of B fix m: m·(b0·b1) = 0 but (m·b0)·b1 = m
        (scalar_algebra, diagonal_pair_algebra, ["m"], [[ONE1]], [[ONE1, ONE1]], "m0·(b0·b1) != (m0·b0)·b1"),
        # a and b act by the idempotents [[1, 0], [0, 0]] and [[1, 1], [0, 0]],
        # which do not commute: (a·m1)·b = 0 but a·(m1·b) = m0
        (scalar_algebra, scalar_algebra, ["m0", "m1"], [[M0, M1]], [[M0], [M0]], "(a0·m1)·b0 != a0·(m1·b0)"),
    ],
    ids=["left-module", "right-module", "compatibility"],
)
def test_broken_bimodule_axiom_rejected(make_a, make_b, labels, left, right, message):
    with pytest.raises(BimoduleAxiomViolation) as err:
        Bimodule(make_a(), make_b(), labels, left, right)
    assert str(err.value) == message


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("vector", [(1,), (0, 0, 1)], ids=["short", "long"])
def test_action_vector_of_wrong_length_rejected(side, vector):
    # K[x]/(x^2) acting on itself, with one action vector replaced
    A = trunc_poly(2, GF(7))
    regular = dense_table(A.zero(), A._sparse)
    tables = {"left": [list(r) for r in regular], "right": [list(r) for r in regular]}
    tables[side][1][0] = vector
    with pytest.raises(ValueError, match=f"{side} action vectors must have length dim M"):
        Bimodule(A, A, A.labels, tables["left"], tables["right"])


def _live_triples(P, Q, X, Y):
    """Basis triples on which Σ_t P[i][j]_t·Q[t][k] or Σ_t X[j][k]_t·Y[i][t]
    has a nonzero term, counted over every triple."""
    ranges = (range(len(P)), range(len(P[0])), range(len(Q[0])))
    return sum(
        1
        for i, j, k in product(*ranges)
        if any(Q[t][k] for t, _ in P[i][j]) or any(Y[i][t] for t, _ in X[j][k])
    )


def test_construction_evaluates_only_live_triples(monkeypatch):
    """Building T7 calls the product kernel at most twice per live triple of
    associativity (on A and B) and of the three bimodule laws, plus once per
    unit-law product, far fewer than the dim³ triples of T alone."""
    calls = []
    kernel = algebra_module._bilinear
    monkeypatch.setattr(algebra_module, "_bilinear", lambda *args: calls.append(1) or kernel(*args))
    t = upper_triangular(7, GF(10007))
    monkeypatch.undo()
    L, R = t.M._left, t.M._right
    live = sum(_live_triples(S, S, S, S) for S in (t.A._sparse, t.B._sparse))
    live += _live_triples(t.A._sparse, L, L, L) + _live_triples(R, R, t.B._sparse, R) + _live_triples(L, R, R, L)
    unit_products = 2 * (t.A.dim + t.B.dim + t.M.dim)
    assert len(calls) <= 2 * live + unit_products < t.dim**3


def test_triangular_laws_are_checked_only_on_the_corners(monkeypatch):
    """Building T7 runs the associator on A, on B and on M's three laws, not
    on T."""
    tables = []
    associator = algebra_module._associator
    monkeypatch.setattr(algebra_module, "_associator", lambda *args: tables.append(args[2]) or associator(*args))
    t = upper_triangular(7, GF(10007))
    monkeypatch.undo()
    assert len(tables) == 5 and t._sparse not in tables


@pytest.mark.parametrize("name", ["trunc3q", "block21q"])
def test_module_brackets_match_the_action_tables(request, name):
    """c_k(a, m, b) = a·m_k − ν(m_k)·b, read off T's table, equals its value
    on M's action tables, for an arbitrary ν."""
    t = request.getfixturevalue(name)
    rng = random.Random(3)
    na, nm = t.A.dim, t.M.dim
    nu = Matrix(QQ, [[Fraction(rng.randint(-3, 3)) for _ in range(nm)] for _ in range(nm)])
    brackets = algebra_module._module_brackets(t, nu)
    assert len(brackets) == nm
    for _ in range(5):
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(t.dim))
        a, b = t.pi_a(x), t.pi_b(x)
        for k, op in enumerate(brackets):
            got = [Fraction(0)] * nm
            for r, row in op:
                assert r in range(na, na + nm) and all(c not in range(na, na + nm) for c in row)
                got[r - na] = sum(s * x[c] for c, s in row.items())
            want = [p - q for p, q in zip(t.M.act_left(a, t.M.basis_vector(k)), t.M.act_right(nu.column(k), b))]
            assert got == want


def test_peirce_corners(t3q):
    rng = random.Random(7)
    alg = t3q
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(t3q.dim))
        pxp = alg.mul(t3q.p, alg.mul(x, t3q.p))
        pxq = alg.mul(t3q.p, alg.mul(x, t3q.q))
        qxq = alg.mul(t3q.q, alg.mul(x, t3q.q))
        qxp = alg.mul(t3q.q, alg.mul(x, t3q.p))
        assert pxp == embed_a(t3q, t3q.pi_a(x))
        assert pxq == embed_m(t3q, t3q.pi_m(x))
        assert qxq == embed_b(t3q, t3q.pi_b(x))
        assert not any(qxp)


def test_projections_invert_embeddings(t3q):
    rng = random.Random(0)
    for _ in range(20):
        a = tuple(Fraction(rng.randint(-4, 4)) for _ in range(t3q.A.dim))
        m = tuple(Fraction(rng.randint(-4, 4)) for _ in range(t3q.M.dim))
        b = tuple(Fraction(rng.randint(-4, 4)) for _ in range(t3q.B.dim))
        x = t3q.element(a, m, b)
        assert t3q.pi_a(x) == a and t3q.pi_m(x) == m and t3q.pi_b(x) == b


def test_idempotent_identities(t2q, t3q, block21q, trunc3q):
    for t in (t2q, t3q, block21q, trunc3q):
        alg = t
        f = t.field
        assert alg.mul(t.p, t.p) == t.p
        assert alg.mul(t.q, t.q) == t.q
        assert not any(alg.mul(t.p, t.q))
        assert not any(alg.mul(t.q, t.p))
        assert tuple(f.add(a, b) for a, b in zip(t.p, t.q)) == tuple(alg.unit)


def test_multiplication_agrees_with_block_formula(t2q, t3q, block21q, trunc3q):
    rng = random.Random(42)
    for t in (t2q, t3q, block21q, trunc3q):
        f = t.field
        for _ in range(200):
            a, m, b = (
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(t.A.dim)),
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(t.M.dim)),
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(t.B.dim)),
            )
            a2, m2, b2 = (
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(t.A.dim)),
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(t.M.dim)),
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(t.B.dim)),
            )
            got = t.mul(t.element(a, m, b), t.element(a2, m2, b2))
            want = t.element(
                t.A.mul(a, a2),
                tuple(f.add(x, y) for x, y in zip(t.M.act_left(a, m2), t.M.act_right(m, b2))),
                t.B.mul(b, b2),
            )
            assert got == want


def test_center_of_scalar_triangulars(t2q, t3q, t4q):
    for t in (t2q, t3q, t4q):
        data = center(t)
        assert data.center.dim == 1
        assert data.center.contains(tuple(t.unit))


def test_center_projections_are_central(t3q, block21q, trunc3q):
    for t in (t3q, block21q, trunc3q):
        data = center(t)
        assert data.piA_center.leq(center_subspace(t.A))
        assert data.piB_center.leq(center_subspace(t.B))


def test_center_of_commutative_algebra_is_everything():
    alg = trunc_poly(4, QQ)
    assert center_subspace(alg).dim == alg.dim


def test_tau_intertwines_module_action(t2q, trunc3q):
    for t in (t2q, trunc3q):
        data = center(t)
        for col, a in enumerate(data.piA_center.basis):
            tau_a = data.tau.column(col)
            for k in range(t.M.dim):
                mk = t.M.basis_vector(k)
                assert t.M.act_left(a, mk) == t.M.act_right(mk, tau_a)


def test_tau_of_scalar_triangular_is_identity(t2q):
    data = center(t2q)
    assert data.tau == Matrix.identity(QQ, 1)


def test_twisted_center_with_identity_is_center(t2q, trunc3q):
    for t in (t2q, trunc3q):
        data = sigma_center(t, LinearEndo.identity(t))
        assert data.sigma_center == center(t).center


def test_twisted_center_for_sign_conjugation(t2q):
    data = sigma_center(t2q, diag_sign_automorphism(t2q))
    f = t2q.field
    assert data.sigma_center.dim == 1
    diff = tuple(f.sub(a, b) for a, b in zip(t2q.p, t2q.q))
    assert data.sigma_center.contains(diff)


def test_twisted_center_closed_under_the_automorphism(t2q, t2f5, trunc3q):
    for t in (t2q, t2f5, trunc3q):
        for sig in (diag_sign_automorphism(t), LinearEndo.identity(t)):
            data = sigma_center(t, sig)
            for v in data.sigma_center.basis:
                assert data.sigma_center.contains(sig(v))


def test_twisted_center_module_component_tracks_corner(t2q):
    # conjugation by (1, 1, 1) has a nonzero corner, so Z_σ leaves the diagonal
    f = t2q.field
    u = t2q.element(ONE1, ONE1, ONE1)
    sig = inner_automorphism(t2q, u)
    data = sigma_center(t2q, sig)
    assert data.sigma_center.dim == 1
    assert data.sigma_center.contains(u)


def test_twisted_center_projections_are_twisted_central(t2q, trunc3q):
    from trialg.structure import decompose_automorphism

    for t in (t2q, trunc3q):
        sig = diag_sign_automorphism(t)
        parts = decompose_automorphism(t, sig)
        data = sigma_center(t, sig)
        assert data.piA_part.leq(sigma_center_subspace(t.A, parts.f_sigma))
        assert data.piB_part.leq(sigma_center_subspace(t.B, parts.g_sigma))


def test_eta_intertwines_module_action(t2q, trunc3q):
    for t in (t2q, trunc3q):
        sig = diag_sign_automorphism(t)
        data = sigma_center(t, sig)
        assert data.eta is not None
        from trialg.structure import decompose_automorphism

        nu = decompose_automorphism(t, sig).nu_sigma
        for col, b in enumerate(data.piB_part.basis):
            eta_b = data.eta.column(col)
            for k in range(t.M.dim):
                mk = t.M.basis_vector(k)
                assert t.M.act_left(eta_b, mk) == t.M.act_right(nu.mul_vec(mk), b)


def test_structural_cross_check_catches_a_lost_module_bracket(monkeypatch):
    """The kernel (twisted) center is compared with its structural form: with
    the last module bracket dropped, the structural pairs of T2 over Q are all
    of A ⊕ B, and both centers refuse to return."""
    t = upper_triangular(2, QQ)  # built first: its faithfulness check reads the brackets too
    brackets = algebra_module._module_brackets
    monkeypatch.setattr(algebra_module, "_module_brackets", lambda t, nu: brackets(t, nu)[:-1])
    with pytest.raises(StructuralMismatch, match="^center kernel differs from its structural form$"):
        center(t)
    with pytest.raises(StructuralMismatch, match="^twisted center kernel differs from its structural form$"):
        sigma_center(t, diag_sign_automorphism(t))


@pytest.mark.parametrize("corner", ["A", "B"])
def test_center_checks_its_projections_are_central_in_the_corners(monkeypatch, corner):
    """With the center of one corner of T2 over Q taken as zero, the
    projection of Z(T) there is not central, and ``center`` refuses."""
    t = upper_triangular(2, QQ)
    own = algebra_module.center_subspace
    zeroed = getattr(t, corner)
    monkeypatch.setattr(
        algebra_module, "center_subspace", lambda alg: Subspace.zero(alg.field, alg.dim) if alg is zeroed else own(alg)
    )
    with pytest.raises(StructuralMismatch, match=f"^projection of Z\\(T\\) is not central in {corner}$"):
        center(t)


def test_bruteforce_idempotents_on_scalar_field():
    f3 = GF(3)
    alg = FDAlgebra(f3, ["e"], [[(1,)]], unit=(1,))
    assert has_only_trivial_idempotents_bruteforce(alg)


def test_bruteforce_idempotents_finds_matrix_units():
    t = upper_triangular(2, GF(3))
    assert not has_only_trivial_idempotents_bruteforce(t)


def test_bruteforce_idempotents_on_truncated_polynomials():
    alg = trunc_poly(2, GF(3))
    assert has_only_trivial_idempotents_bruteforce(alg)


def test_bruteforce_enumeration_bound():
    alg = trunc_poly(5, GF(11))
    with pytest.raises(ValueError, match="exceed the bound"):
        has_only_trivial_idempotents_bruteforce(alg, bound=1000)


def test_bruteforce_requires_finite_field():
    with pytest.raises(ValueError):
        has_only_trivial_idempotents_bruteforce(trunc_poly(2, QQ))


def test_discarded_algebras_are_freed():
    """Centers, twisted centers and automorphism parts are cached on the
    algebra itself, so a dropped algebra takes its cache with it."""
    refs = []
    for _ in range(3):
        t = trian_trunc(2, GF(7))
        sigma = diag_sign_automorphism(t)
        center(t)
        sigma_center(t, sigma)
        decompose_sigma_derivation(t, sigma, LinearEndo.zero(t))
        assert t.memo and t.A.memo
        refs += [weakref.ref(t), weakref.ref(t.A), weakref.ref(t.B)]
    del t, sigma
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_a_triangular_algebra_is_its_own_algebra():
    """T is the assembled FDAlgebra under one name, with its structure
    constants in one (sparse) form: it has no ``algebra`` alias, no algebra
    a dense ``table`` and no bimodule a dense ``left`` or ``right``, and a
    solved space is memoized on T's one ``memo``."""
    assert issubclass(TriangularAlgebra, FDAlgebra)
    t = upper_triangular(3, GF(7))
    assert not hasattr(t, "algebra")
    assert not any(hasattr(alg, "table") for alg in (t, t.A, t.B, trunc_poly(2, GF(7))))
    assert not hasattr(t.M, "left") and not hasattr(t.M, "right")
    sigma = diag_sign_automorphism(t)
    space = solve_space(t, sigma, "sigma_derivation")
    assert t.memo[("solve", "sigma_derivation", sigma.matrix)] is space
