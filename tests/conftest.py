import pytest

from trialg import GF, QQ, block_upper, maps, structure, theorems, trian_trunc, upper_triangular
from trialg.maps import inner_automorphism

from dense_oracle import embed_m


def diag_sign_automorphism(t):
    """(a, m, b) -> (a, -m, b): conjugation by p - q."""
    f = t.field
    u = tuple(f.sub(a, b) for a, b in zip(t.p, t.q))
    return inner_automorphism(t, u)


def unipotent_automorphism(t):
    """Conjugation by 1 + (first module basis vector): a non-diagonal inner map."""
    f = t.field
    m = t.M.basis_vector(0)
    u = tuple(f.add(a, b) for a, b in zip(t.unit, embed_m(t, m)))
    return inner_automorphism(t, u)


@pytest.fixture
def automorphism_checks(monkeypatch):
    """The dimension of the algebra of every ``is_automorphism`` call, from
    whichever module it is made."""
    dims = []
    check = maps.is_automorphism

    def counted(theta):
        dims.append(theta.algebra.dim)
        return check(theta)

    for module in (maps, structure, theorems):
        monkeypatch.setattr(module, "is_automorphism", counted)
    return dims


@pytest.fixture(scope="session")
def t2q():
    return upper_triangular(2, QQ)


@pytest.fixture(scope="session")
def t3q():
    return upper_triangular(3, QQ)


@pytest.fixture(scope="session")
def t4q():
    return upper_triangular(4, QQ)


@pytest.fixture(scope="session")
def t2f5():
    return upper_triangular(2, GF(5))


@pytest.fixture(scope="session")
def block21q():
    return block_upper((2, 1), 1, QQ)


@pytest.fixture(scope="session")
def trunc3q():
    return trian_trunc(3, QQ)
