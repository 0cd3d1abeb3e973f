"""The decision of the paper's idempotent hypothesis, ``trivial_idempotents``.

It is compared with the brute-force oracle on small algebras over F_p, in
their own bases and in random ones, and each of its two certificate checks
has an algebra that only that check rejects.
"""

import pytest
from dense_oracle import dense_inverse, dense_table, has_only_trivial_idempotents_bruteforce
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from trialg import GF, QQ, FDAlgebra, block_algebra, fixture_n3, trivial_idempotents, trunc_poly
from trialg.algebra import _nilpotent, _trace_radical
from trialg.linalg import Matrix


def direct_product(A, B):
    """A × B on the concatenated bases."""
    f, na, n = A.field, A.dim, A.dim + B.dim
    zero = (f.zero,) * n
    table = [[zero] * n for _ in range(n)]
    a_table, b_table = dense_table(A.zero(), A._sparse), dense_table(B.zero(), B._sparse)
    for i in range(na):
        for j in range(na):
            table[i][j] = a_table[i][j] + B.zero()
    for i in range(B.dim):
        for j in range(B.dim):
            table[na + i][na + j] = A.zero() + b_table[i][j]
    return FDAlgebra(f, [f"e{i}" for i in range(n)], table, A.unit + B.unit)


def change_basis(alg, P):
    """The same algebra in the basis formed by the columns of the invertible P."""
    inv = dense_inverse(P)
    cols = P.columns()
    table = [[inv.mul_vec(alg.mul(u, v)) for v in cols] for u in cols]
    return FDAlgebra(alg.field, [f"f{j}" for j in range(alg.dim)], table, inv.mul_vec(alg.unit))


def basis(alg):
    return [alg.basis_vector(i) for i in range(alg.dim)]


def idempotent_basis_vectors(alg):
    return [i for i, e in enumerate(basis(alg)) if alg.mul(e, e) == e and e != alg.unit]


# largest dimension per prime that keeps the enumeration at a few thousand elements
MAX_DIM = {3: 6, 5: 4, 7: 4}
# block sizes -> dimension of the block upper-triangular algebra
BLOCK_DIMS = {(1,): 1, (1, 1): 3, (2,): 4, (1, 1, 1): 6}


@st.composite
def small_algebras(draw):
    p = draw(st.sampled_from(sorted(MAX_DIM)))
    f, top = GF(p), MAX_DIM[p]
    kind = draw(st.sampled_from(["trunc", "block", "product"]))
    if kind == "trunc":
        alg = trunc_poly(draw(st.integers(1, top)), f)
    elif kind == "block":
        alg = block_algebra(draw(st.sampled_from([d for d, n in BLOCK_DIMS.items() if n <= top])), f)
    else:
        n1 = draw(st.integers(1, top - 1))
        alg = direct_product(trunc_poly(n1, f), trunc_poly(draw(st.integers(1, top - n1)), f))
    if kind == "product" or draw(st.booleans()):
        n = alg.dim
        P = Matrix(f, [[draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(n)])
        assume(dense_inverse(P) is not None)
        alg = change_basis(alg, P)
        if kind == "product":
            assume(not idempotent_basis_vectors(alg))
    return alg


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(small_algebras())
def test_decision_agrees_with_bruteforce_oracle(alg):
    got = trivial_idempotents(alg)
    want = has_only_trivial_idempotents_bruteforce(alg)
    radical = _trace_radical(alg)
    if got is None:
        # undecided only when no basis vector exhibits an existing nontrivial
        # idempotent, or when the trace form degenerates (its radical is not
        # the nilpotent Jacobson radical)
        assert not want or not _nilpotent(alg, radical)
    else:
        assert got == want
    # the trace radical is a two-sided ideal, which the True certificate relies on
    for v in radical.basis:
        for e in basis(alg):
            assert radical.contains(alg.mul(e, v)) and radical.contains(alg.mul(v, e))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5), GF(10007)])
def test_families_are_decided_as_their_corners_need(field):
    blocks = [(1,), (1, 1), (2,), (2, 1)]
    assert [trivial_idempotents(block_algebra(d, field)) for d in blocks] == [True, False, False, False]
    for N in range(1, 6):
        assert trivial_idempotents(trunc_poly(N, field)) is (None if field.char and N % field.char == 0 else True)


def test_basis_idempotent_witness_gives_false():
    alg = block_algebra((1, 1), GF(7))
    assert idempotent_basis_vectors(alg) == [0, 2]
    assert trivial_idempotents(alg) is False


def test_codimension_check_alone_rejects_a_split_algebra():
    # GF(5) × GF(5) on the basis (1, 2), (1, 3): no basis vector is idempotent,
    # and the trace radical is 0, which is nilpotent but of codimension 2
    f = GF(5)
    alg = change_basis(direct_product(trunc_poly(1, f), trunc_poly(1, f)), Matrix(f, [[1, 1], [2, 3]]))
    assert not idempotent_basis_vectors(alg)
    radical = _trace_radical(alg)
    assert radical.dim == 0 and _nilpotent(alg, radical)
    assert trivial_idempotents(alg) is None
    assert not has_only_trivial_idempotents_bruteforce(alg)


def test_nilpotency_check_alone_rejects_a_degenerate_trace_form():
    # GF(3) × GF(3)[x]/(x^3): the second factor has dimension 3 = p, so its
    # trace form vanishes and the radical is that whole factor, of codimension
    # 1 but containing its unit
    f = GF(3)
    P = Matrix(f, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 1, 1]])
    alg = change_basis(direct_product(trunc_poly(1, f), trunc_poly(3, f)), P)
    assert not idempotent_basis_vectors(alg)
    radical = _trace_radical(alg)
    assert radical.dim == alg.dim - 1 and not _nilpotent(alg, radical)
    assert trivial_idempotents(alg) is None
    assert not has_only_trivial_idempotents_bruteforce(alg)


def test_decision_is_memoized():
    alg = trunc_poly(3, QQ)
    assert trivial_idempotents(alg) is True
    assert alg.memo["trivial_idempotents"] is True


def test_decision_needs_a_unit():
    with pytest.raises(ValueError):
        trivial_idempotents(fixture_n3(QQ).algebra)
