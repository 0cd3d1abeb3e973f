"""The paper's precise descriptions as description kernels K, and the
decomposition of whole solved spaces against them.

K = C on every instance is the description theorem for that instance; a
dropped condition must break it.  ``decompose_space`` evaluates the same
rows on the solved members and reads parts off their blocks, and must give
exactly what decomposing every member on its own gives, errors included.
"""

import gc
import weakref

import pytest

from trialg import GF, QQ, LinearEndo, block_upper, cli, structure, theorems, trian_trunc, upper_triangular
from trialg.errors import ConditionFailure
from trialg.linalg import Matrix, Subspace
from trialg.maps import MapSpace, _System, solve_space
from trialg.structure import (
    CENT_CONDITION_LABELS,
    DESCRIPTION_KINDS,
    DerParts,
    GenParts,
    compose_generalized,
    compose_sigma_derivation,
    identity_aut_parts,
    _description_kernel,
    _description_rows,
    decompose_centralizing,
    decompose_generalized,
    decompose_left_multiplier,
    decompose_sigma_derivation,
    decompose_space,
    description_conditions,
    description_space,
)

from conftest import unipotent_automorphism
from dense_oracle import (
    DenseSystem,
    dense_centralizing_conditions,
    dense_check_der_parts,
    dense_compose_centralizing,
    dense_leibniz_terms,
)

F7, P = GF(7), GF(10007)

# the instances of the description prototype (ROADMAP item 2)
ITEM2 = {
    "T3/Q": lambda: upper_triangular(3, QQ),
    "T4s2/Q": lambda: upper_triangular(4, QQ, 2),
    "trian_trunc3/F7": lambda: trian_trunc(3, F7),
    "block22/F7": lambda: block_upper((2, 2), 1, F7),
    "trian_trunc4/F10007": lambda: trian_trunc(4, P),
    "T6/F10007": lambda: upper_triangular(6, P),
}


def _twists(t):
    """The identity, and an inner twist with a corner element where the
    corners are decided idempotent-free."""
    twists = [("identity", LinearEndo.identity(t.algebra))]
    if t.trivial_idempotent_components:
        twists.append(("inner", unipotent_automorphism(t)))
    return twists


@pytest.mark.parametrize("name", ITEM2)
def test_description_kernel_is_the_solved_space(name):
    t = ITEM2[name]()
    for _, sigma in _twists(t):
        for kind in DESCRIPTION_KINDS:
            assert description_space(t, sigma, kind) == solve_space(t, sigma, kind).space, kind


# one group per kind whose loss lets in maps the statement excludes
DROPPED = {
    "sigma_derivation": "xi right compatibility",
    "generalized_pair": "D_B generalized Leibniz",
    "centralizing": "v",
    "left_multiplier": "F_B left multiplier",
}


@pytest.mark.parametrize("kind", DESCRIPTION_KINDS)
@pytest.mark.parametrize("name", ITEM2)
def test_dropping_a_condition_breaks_the_equality(name, kind):
    t = ITEM2[name]()
    for _, sigma in _twists(t):
        groups = _description_rows(t, sigma, kind)
        labels = [label for label, _ in groups]
        assert len(set(labels)) == len(labels) and DROPPED[kind] in labels
        weaker = _description_kernel(t, kind, [(label, eqs) for label, eqs in groups if label != DROPPED[kind]])
        solved = solve_space(t, sigma, kind).space
        assert solved.leq(weaker) and weaker.dim > solved.dim


# each corner Leibniz group of a description: (D's block, d's block or None,
# the corners of e_i and e_j, the corner of the coordinates the rule is read on)
CORNER_RULES = {
    "sigma_derivation": {
        "d_A twisted Leibniz": (0, 0, "a", "a", "a"),
        "d_B twisted Leibniz": (0, 0, "b", "b", "b"),
        "xi left compatibility": (0, 0, "a", "m", "m"),
        "xi right compatibility": (0, 0, "m", "b", "m"),
    },
    "generalized_pair": {
        "d_A twisted Leibniz": (1, 1, "a", "a", "a"),
        "d_B twisted Leibniz": (1, 1, "b", "b", "b"),
        "xi left compatibility": (1, 1, "a", "m", "m"),
        "xi right compatibility": (1, 1, "m", "b", "m"),
        "D_A generalized Leibniz": (0, 1, "a", "a", "a"),
        "D_B generalized Leibniz": (0, 1, "b", "b", "b"),
    },
    "centralizing": {},
    "left_multiplier": {
        "F_A left multiplier": (0, None, "a", "a", "a"),
        "F_B left multiplier": (0, None, "b", "b", "b"),
    },
}
LEIBNIZ_LABELS = {label for rules in CORNER_RULES.values() for label in rules}


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
@pytest.mark.parametrize("kind", DESCRIPTION_KINDS)
def test_corner_rules_are_the_dense_leibniz_rows(kind, field):
    """Each corner Leibniz group holds the equations at exactly its corner
    pairs, and each equation is the dense oracle's Leibniz equation at that
    pair, read on the group's corner only.  Most of these groups are implied
    by the others on the shipped instances, so the kernel tests cannot see a
    wrong corner in them."""
    t = trian_trunc(2, field)
    n, na, nm = t.dim, t.A.dim, t.M.dim
    spans = {"a": range(na), "m": range(na, na + nm), "b": range(na + nm, n)}
    blocks = 2 if kind == "generalized_pair" else 1
    zero = [field.zero] * (blocks * n * n)
    twists = _twists(t)
    assert [name for name, _ in twists] == ["identity", "inner"]
    for _, sigma in twists:
        groups = dict(_description_rows(t, sigma, kind))
        assert LEIBNIZ_LABELS & set(groups) == set(CORNER_RULES[kind])
        oracle = {}
        for label, (D, d, left, right, out) in CORNER_RULES[kind].items():
            if (D, d) not in oracle:
                oracle[D, d] = dense_leibniz_terms(t.algebra, sigma, D, d)
            equations = list(groups[label])
            assert [pair for pair, _ in equations] == [(i, j) for i in spans[left] for j in spans[right]], label
            for pair, terms in equations:
                got = [list(zero) for _ in range(n)]
                for r, row in _System(field, n, blocks).equation(terms):
                    for c, a in row.items():
                        got[r][c] = field.add(field.zero, a)
                dense = DenseSystem(field, n, blocks)
                dense.equation(oracle[D, d][pair])
                want = [row if r in spans[out] else zero for r, row in enumerate(dense.rows)]
                assert got == want, (label, pair)


def test_centralizing_groups_are_the_condition_labels():
    t = trian_trunc(2, F7)
    labels = [label for label, _ in _description_rows(t, LinearEndo.identity(t.algebra), "centralizing")]
    assert tuple(labels) == CENT_CONDITION_LABELS


def test_description_is_memoized_on_the_triangular_algebra():
    t = trian_trunc(2, F7)
    sigma = unipotent_automorphism(t)
    k = description_space(t, sigma, "sigma_derivation")
    assert description_space(t, LinearEndo(t.algebra, sigma.matrix), "sigma_derivation") is k
    # left multipliers ignore σ
    assert description_space(t, sigma, "left_multiplier") is description_space(t, None, "left_multiplier")
    with pytest.raises(ValueError):
        description_space(t, sigma, "commuting")


# ---------------------------------------------------------------------------
# decompose_space against the per-member decompositions

SPACE_INSTANCES = {
    "T2/Q": lambda: upper_triangular(2, QQ),
    "T3/Q": lambda: upper_triangular(3, QQ),
    "trian_trunc3/F7": lambda: trian_trunc(3, F7),
    "trian_trunc4/F10007": lambda: trian_trunc(4, P),
    "block22/F7": lambda: block_upper((2, 2), 1, F7),
}
SPACE_KINDS = ("derivation", "sigma_derivation", "centralizing", "commuting", "generalized_pair", "left_multiplier")


def _member_by_member(t, sigma, kind, space):
    """The per-member decompositions, in the order the CLI made them."""
    if kind == "derivation":
        return [decompose_sigma_derivation(t, LinearEndo.identity(t.algebra), d) for d in space.endos()]
    if kind == "sigma_derivation":
        return [decompose_sigma_derivation(t, sigma, d) for d in space.endos()]
    if kind in ("centralizing", "commuting"):
        return [decompose_centralizing(t, sigma, theta) for theta in space.endos()]
    if kind == "generalized_pair":
        return [decompose_generalized(t, sigma, D, d) for D, d in space.endo_pairs()]
    return [decompose_left_multiplier(t, F) for F in space.endos()]


def _outcome(fn):
    try:
        parts = fn()
    except Exception as exc:  # the class and text of the error are the outcome
        return type(exc), str(exc)
    return [(p, getattr(p, "conditions", None)) for p in parts]


def _solved(t, sigma, kind):
    return solve_space(t, None if kind in ("derivation", "left_multiplier") else sigma, kind)


def _oracle_accepts(t, kind, space, parts):
    """Each member's parts against the dense oracle and the inverse
    constructors: every side condition holds and the parts recompose to it."""
    if kind in ("centralizing", "commuting"):
        for theta, p in zip(space.endos(), parts):
            assert all(r.ok for r in dense_centralizing_conditions(p, theta).values())
            assert dense_compose_centralizing(t, p).matrix == theta.matrix
    elif kind == "generalized_pair":
        for (D, d), p in zip(space.endo_pairs(), parts):
            dense_check_der_parts(p.der)
            assert compose_sigma_derivation(t, p.der).matrix == d.matrix
            assert compose_generalized(t, p).matrix == D.matrix
    elif kind == "left_multiplier":
        f, na, nm, nb = t.field, t.A.dim, t.M.dim, t.B.dim
        zero = DerParts(t, identity_aut_parts(t), Matrix.zeros(f, na, na), Matrix.zeros(f, nb, nb), t.M.zero(),
                        Matrix.zeros(f, nm, nm))
        for F, p in zip(space.endos(), parts):
            assert compose_generalized(t, GenParts(t, zero, p.F_A, p.F_B, p.m_F, True)).matrix == F.matrix
    else:
        for d, p in zip(space.endos(), parts):
            dense_check_der_parts(p)
            assert compose_sigma_derivation(t, p).matrix == d.matrix


@pytest.mark.parametrize("twist", ["identity", "inner"])
@pytest.mark.parametrize("name", SPACE_INSTANCES)
def test_decompose_space_matches_each_member(name, twist):
    t = SPACE_INSTANCES[name]()
    sigma = LinearEndo.identity(t.algebra) if twist == "identity" else unipotent_automorphism(t)
    outcomes = {}
    for kind in SPACE_KINDS:
        outcomes[kind] = _outcome(lambda: _member_by_member(t, sigma, kind, _solved(t, sigma, kind)))
        assert _outcome(lambda: decompose_space(t, sigma, kind)) == outcomes[kind], kind
        if isinstance(outcomes[kind], list):
            _oracle_accepts(t, kind, _solved(t, sigma, kind), [p for p, _ in outcomes[kind]])
    if twist == "inner" and not t.trivial_idempotent_components:
        assert outcomes["centralizing"][0].__name__ == "HypothesisNotMet"
    else:
        assert all(isinstance(outcome, list) for outcome in outcomes.values())


def test_described_members_run_no_pointwise_check(monkeypatch):
    """A solved space's members have their defining identity checked by no
    pointwise checker: only the description's rows are evaluated on them."""
    t = trian_trunc(3, F7)
    sigma = unipotent_automorphism(t)
    structure._aut_parts_for(t, sigma)  # decomposing σ checks σ, not the members
    for kind in SPACE_KINDS:
        _solved(t, sigma, kind)

    def refuse(*args, **kwargs):
        raise AssertionError("pointwise check on the described path")

    for name in ("is_sigma_derivation", "predicate", "_leibniz_check", "_pair_check", "_compare"):
        monkeypatch.setattr(structure, name, refuse)
    for kind in SPACE_KINDS:
        parts = decompose_space(t, sigma, kind)
        assert len(parts) == _solved(t, sigma, kind).dim
    centralizing = decompose_space(t, sigma, "centralizing")
    assert all(all(result.ok for result in p.conditions.values()) for p in centralizing)


def _bumped(space: MapSpace) -> MapSpace:
    """The space with one entry of its first basis vector raised by one, so
    that the first member no longer satisfies its defining identity."""
    f = space.space.field
    for c in range(space.space.ambient_dim):
        v = list(space.space.basis[0])
        v[c] = f.add(v[c], f.one)
        if not space.space.contains(v):
            basis = (tuple(v),) + space.space.basis[1:]
            return MapSpace(space.algebra, space.kind, space.pair, Subspace(f, space.space.ambient_dim, basis, space.space.pivots))
    raise AssertionError("no bump leaves the space")


# the first condition a bumped first member fails, with trian_trunc(3) over F_7 and the inner twist
CORRUPTED_LABEL = {
    "derivation": "d_A twisted Leibniz",
    "sigma_derivation": "d_A twisted Leibniz",
    "centralizing": "iii",
    "commuting": "iii",
    "generalized_pair": "D M-column",
    "left_multiplier": "M-column",
}


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_corrupted_members_raise_todays_errors(monkeypatch, kind):
    """Decomposed on its own, a member that fails its defining identity is
    rejected by its predicate; ``decompose_space`` takes its members as
    solved and rejects it by the first condition of the description that
    fails on it."""
    t = trian_trunc(3, F7)
    sigma = unipotent_automorphism(t)
    corrupted = _bumped(_solved(t, sigma, kind))
    expected = _outcome(lambda: _member_by_member(t, sigma, kind, corrupted))
    assert expected[0].__name__ == "PredicateNotSatisfied"
    monkeypatch.setattr(structure, "solve_space", lambda *args: corrupted)
    with pytest.raises(ConditionFailure) as exc:
        decompose_space(t, sigma, kind)
    assert exc.value.label == CORRUPTED_LABEL[kind]
    described = structure._DESCRIBED_BY[kind]
    twist = None if kind in ("derivation", "left_multiplier") else sigma
    first = description_conditions(t, twist, described, corrupted.space.basis[:1])[0]
    assert exc.value.witness == first[exc.value.label].witness


def _without_m_sigma(rows):
    """``_description_rows`` with the m_σ·d_B(b) term dropped from the
    σ-derivation M-column."""

    def mutated(t, sigma, kind):
        groups = rows(t, sigma, kind)
        if kind != "sigma_derivation":
            return groups
        return [(label, [(pair, terms[:2]) for pair, terms in eqs] if label == "M-column" else eqs) for label, eqs in groups]

    return mutated


def test_a_wrong_description_fails_decomposition_and_verification(monkeypatch):
    """The description is stated once: a term dropped from its rows is seen
    both by the decomposition of the solved space and by verify:description."""
    t = trian_trunc(3, F7)
    sigma = unipotent_automorphism(t)
    monkeypatch.setattr(structure, "_description_rows", _without_m_sigma(structure._description_rows))
    with pytest.raises(ConditionFailure) as exc:
        decompose_space(t, sigma, "sigma_derivation")
    assert str(exc.value) == "structure condition M-column fails: M-column at pair (7, 7), lhs [0, 0, 0, 0, 1, 0, 0, 0, 0]"
    report = theorems.verify_description(t, sigma)
    assert not report.passed
    assert report.details["witness_kind"] == "sigma_derivation" and not report.details["sigma_derivation"]


def test_decompose_space_caches_die_with_the_algebra():
    refs = []
    for _ in range(2):
        t = trian_trunc(2, F7)
        decompose_space(t, unipotent_automorphism(t), "generalized_pair")
        assert t.memo and t.algebra.memo
        refs += [weakref.ref(t), weakref.ref(t.algebra)]
    del t
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


# ---------------------------------------------------------------------------
# verify:description

TRUNC4 = {"field": {"prime": 10007}, "algebra": {"family": "trian_trunc", "N": 4}}


def test_verify_description_passes_with_every_dimension():
    config = dict(TRUNC4, sigma={"conjugate_by": ["1", "2", "3", "4", "5", "6", "7", "8", "9", "1", "2", "3"]},
                  tasks=["verify:description"])
    report, code = cli.run_config(config)
    record = report["tasks"][0]
    assert code == 0 and record["status"] == "pass"
    dims = {"sigma_derivation": 11, "generalized_pair": 23, "centralizing": 52, "left_multiplier": 12}
    assert record["dimensions"] == {**dims, **{f"{k}_description": v for k, v in dims.items()}}
    assert record["details"] == dict.fromkeys(DESCRIPTION_KINDS, True)


def test_verify_description_fails_with_the_first_missing_vector(monkeypatch):
    t = trian_trunc(3, F7)
    sigma = unipotent_automorphism(t)

    def weaker(t, sigma, kind):
        groups = [(label, eqs) for label, eqs in _description_rows(t, sigma, kind) if label != DROPPED[kind]]
        return _description_kernel(t, kind, groups)

    monkeypatch.setattr(theorems, "description_space", weaker)
    report = theorems.verify_description(t, sigma)
    assert not report.passed
    assert report.details["witness_kind"] == "sigma_derivation"
    assert report.details["witness_missing_from"] == "solved_space"
    solved = solve_space(t, sigma, "sigma_derivation").space
    first = next(v for v in weaker(t, sigma, "sigma_derivation").basis if not solved.contains(v))
    n = t.dim
    assert report.witness.entries == tuple(first[r : r + n] for r in range(0, n * n, n))
    assert report.dimensions["sigma_derivation_description"] > report.dimensions["sigma_derivation"]


def test_verify_description_pair_witness_stacks_d_under_D(monkeypatch):
    t = trian_trunc(2, F7)
    monkeypatch.setattr(theorems, "description_space", lambda t, sigma, kind: Subspace.zero(t.field, 2 * t.dim**2)
                        if kind == "generalized_pair" else solve_space(t, sigma, kind).space)
    report = theorems.verify_description(t)
    assert report.details["witness_missing_from"] == "description"
    assert report.details["witness_kind"] == "generalized_pair"
    assert (report.witness.nrows, report.witness.ncols) == (2 * t.dim, t.dim)


def test_verify_description_outside_the_hypotheses_matches_the_other_verifiers():
    base = {"field": "rational", "tasks": ["verify:description", "verify:posner"]}
    for algebra, sigma in (({"family": "fixture", "name": "n3"}, "identity"),
                           ({"family": "Tn", "n": 3}, {"diag_signs": [1, -1]})):
        report, code = cli.run_config(dict(base, algebra=algebra, sigma=sigma))
        description, posner = report["tasks"]
        assert code == 1 and description["status"] == posner["status"] == "error"
        assert description["error"].split(":")[0] == posner["error"].split(":")[0]
