"""Linear self-maps, twisted brackets, map predicates, and the solver that
turns each defining identity into a homogeneous linear system.

Quantified conditions ("for all x") are handled by polarization: the value of
q(x) = [x, Θ(x)]_σ (or its anti-symmetric variant) expands bilinearly as
q(Σ x_i e_i) = Σ_i x_i² q(e_i) + Σ_{i<j} x_i x_j sym(i, j), so q vanishes for
every x exactly when all diagonal values and all symmetrized basis-pair
values vanish.  The bracket operators λ ↦ σ(e_i)λ ∓ λe_i come from the
builder of the twisted centers (:func:`trialg.algebra._twisted_brackets`),
and the Leibniz rule's L_{σ(e_i)} and R_{e_j} from the sparse builder under
it.  :meth:`_Leibniz.equations` writes the Leibniz equations for both the
solver (on basis × generators) and the precise descriptions of
:mod:`trialg.structure` (on corner pairs, read on one corner).
Conditions of the form "value lies in the center" are made linear by reducing
each operator's rows against the center's echelon basis
(:meth:`trialg.linalg.Subspace.reduce_rows`), the row form of the fixed
complement projection that annihilates the center.

One checker, :func:`_pair_check`, decides every identity X(e_i·e_j) =
Σ P(e_i)·Q(e_j) on basis pairs: multiplicativity and the Leibniz rules here,
and the intertwining laws of :mod:`trialg.structure` over the module
tables.  Each side is one sparse evaluation on the maps' cached columns.

The multiplicative identities (of automorphisms, and the Leibniz rules of
σ-derivations, generalized pairs and left multipliers) need only the pairs
(e_i, g) with g in a generating set G of the algebra; :func:`_generators`
finds G with an exact certificate and proves the reduction.  The solver
imposes them there, n·|G| equations instead of n², and the checks scan
those pairs first, rescanning all pairs only to name the first failure.  A
Leibniz check reduces only when σ is the identity (or absent), where σ is
multiplicative without a check.

The solver never stores its system: the equations are generated one at a
time, and each equation's coordinate rows stream straight into the sparse
elimination engine (:func:`trialg.linalg.sparse_kernel`), which reduces them
into its pivots before the next equation is built.  So a solve holds the
pivots and one equation, not the whole system.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

from .algebra import FDAlgebra, _bilinear, _bracket_operator, _twisted_brackets, center_subspace
from .errors import NotAutomorphism, vector_text
from .fields import Field, Scalar
# kernel_basis is re-exported: perfbench's tracer rebinds trialg.maps.kernel_basis.
from .linalg import Matrix, Subspace, Vector, _plain_rows, kernel_basis, solve_linear, sparse_kernel  # noqa: F401
from .linalg import vec_add, vec_is_zero
from .records import Record

SOLVE_KINDS = (
    "derivation",
    "sigma_derivation",
    "generalized_pair",
    "left_multiplier",
    "commuting",
    "centralizing",
    "skew_commuting",
    "skew_centralizing",
)

# the kinds whose identity carries no twist: they solve under the identity, whatever σ is given
UNTWISTED_KINDS = ("derivation", "left_multiplier")

PREDICATE_MODES = ("commuting", "centralizing", "skew_commuting", "skew_centralizing")


class Witness(Record):
    """Concrete counterexample surfaced by a failed check."""

    reason: str
    pair: tuple[int, int] | None = None
    element: Vector | None = None
    lhs: Vector | None = None
    rhs: Vector | None = None

    def __repr__(self):
        bits = [self.reason]
        if self.pair is not None:
            bits.append(f"pair={self.pair}")
        return f"Witness({', '.join(bits)})"

    def __str__(self):
        """The reason, the pair and every vector present, each as
        :func:`trialg.errors.vector_text` writes it."""
        text = self.reason if self.pair is None else f"{self.reason} at pair {self.pair}"
        for name in ("element", "lhs", "rhs"):
            vector = getattr(self, name)
            if vector is not None:
                text += f", {name} {vector_text(vector)}"
        return text


class CheckResult(Record):
    ok: bool
    witness: Witness | None = None

    def __bool__(self) -> bool:
        return self.ok


_PASS = CheckResult(True)


class LinearEndo:
    """A linear self-map of an algebra; column j is the image of basis j."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: FDAlgebra, matrix: Matrix):
        if matrix.nrows != matrix.ncols or matrix.nrows != algebra.dim:
            raise ValueError("endomorphism matrix must be dim x dim")
        if matrix.field != algebra.field:
            raise ValueError("endomorphism field mismatch")
        self.algebra = algebra
        self.matrix = matrix

    @classmethod
    def identity(cls, algebra: FDAlgebra) -> "LinearEndo":
        return cls(algebra, Matrix.identity(algebra.field, algebra.dim))

    @classmethod
    def zero(cls, algebra: FDAlgebra) -> "LinearEndo":
        return cls(algebra, Matrix.zeros(algebra.field, algebra.dim, algebra.dim))

    @classmethod
    def from_images(cls, algebra: FDAlgebra, images: Sequence[Sequence[Scalar]]) -> "LinearEndo":
        return cls(algebra, Matrix.from_columns(algebra.field, images, nrows=algebra.dim))

    def __call__(self, v: Sequence) -> Vector:
        return self.matrix.mul_vec(v)

    def is_identity(self) -> bool:
        """Whether every basis vector is its own image, read off the cached sparse columns."""
        one = self.algebra.field.one
        return all(col == ((j, one),) for j, col in enumerate(self.matrix._cols()))

    def __eq__(self, other):
        return isinstance(other, LinearEndo) and other.algebra is self.algebra and other.matrix == self.matrix

    def __hash__(self):
        return hash((id(self.algebra), self.matrix))

    def __repr__(self):
        return f"LinearEndo(dim={self.algebra.dim})"


def as_endo(alg: FDAlgebra, obj) -> LinearEndo:
    """Coerce a LinearEndo or raw Matrix to an endomorphism of the algebra."""
    if isinstance(obj, LinearEndo):
        if obj.algebra is not alg and obj.algebra._sparse != alg._sparse:
            raise ValueError("endomorphism belongs to a different algebra")
        return obj
    return LinearEndo(alg, obj)


# ---------------------------------------------------------------------------
# twisted brackets


def bracket_sigma(sigma: LinearEndo, x: Sequence, y: Sequence) -> Vector:
    """σ(x)·y − y·x."""
    alg = sigma.algebra
    f = alg.field
    prod = alg.mul(sigma(x), y)
    return tuple(f.sub(a, b) for a, b in zip(prod, alg.mul(y, x)))


# ---------------------------------------------------------------------------
# pointwise predicates


def _units(alg) -> list:
    """The basis vectors of an algebra or bimodule as ``(index, value)`` nonzeros."""
    return [((i, alg.field.one),) for i in range(alg.dim)]


def _generators(alg: FDAlgebra) -> tuple[int, ...]:
    """Indices of basis vectors that generate ``alg`` as an algebra, with an
    exact certificate of closure; computed once per algebra.

    The set starts from the vectors e_t in the support of no product e_i·e_j
    with i, j ≠ t (in T_n the e_ii and e_{i,i+1}, 2n − 1 of n(n+1)/2).  It
    is closed under the sparse structure table with a worklist: once e_i
    and e_j are generated, so is the one vector e_u, if there is one, that
    is still ungenerated in the support of e_i·e_j, because s_u·e_u is that
    product less generated vectors and s_u ≠ 0.  While the closure misses a
    vector, the lowest missing index joins the set and the closure goes on.
    The set is sound but need not be minimal.

    Why an identity on every pair (x, y) need only be checked on the pairs
    (e_i, g), g generated: let S = {w : the identity holds at (x, w) for
    every x}.  S is a subspace, since each identity is linear in y, and it
    is closed under products.  For w, w' in S and any x, associativity
    (validated when the algebra is built) gives
    - θ(x·ww') = θ(xw)θ(w') = θ(x)θ(w)θ(w') = θ(x)θ(ww') for an automorphism θ;
    - F(x·ww') = F(xw)w' = F(x)ww' for a left multiplier F;
    - d(x·ww') = d(xw)w' + σ(xw)d(w') = d(x)ww' + σ(x)(d(w)w' + σ(w)d(w'))
      = d(x)ww' + σ(x)d(ww') for the σ-derivation rule, where σ(xw) =
      σ(x)σ(w) needs σ multiplicative (σ is the identity, or has passed
      :func:`require_automorphism`), and the last step is the rule at
      (w, w');
    - the same steps for D(xy) = D(x)y + σ(x)d(y), the last one being d's
      own rule at (w, w'), so S is taken for D's and d's rules together, as
      a generalized pair's system holds both.
    So S contains every product of generators, which span the algebra.
    """
    if "generators" not in alg.memo:
        S, n = alg._sparse, alg.dim
        produced = {t for i, row in enumerate(S) for j, v in enumerate(row) for t, _ in v if t != i and t != j}
        generators = [k for k in range(n) if k not in produced]
        generated: set[int] = set()
        waiting: dict[int, list[set]] = {}  # ungenerated t -> the open supports that hold it

        def close(k: int) -> None:
            worklist = [k]
            while worklist:
                u = worklist.pop()
                if u in generated:
                    continue
                generated.add(u)
                supports = waiting.pop(u, [])
                for support in supports:
                    support.discard(u)
                for g in generated:
                    for i, j in {(u, g), (g, u)}:
                        support = {t for t, _ in S[i][j]} - generated
                        supports.append(support)
                        for t in support:
                            waiting.setdefault(t, []).append(support)
                worklist.extend(next(iter(s)) for s in supports if len(s) == 1)

        for k in generators:
            close(k)
        while len(generated) < n:
            generators.append(min(set(range(n)) - generated))
            close(generators[-1])
        alg.memo["generators"] = tuple(sorted(generators))
    return alg.memo["generators"]


def _first_failure(table, X: Matrix, terms, rights) -> tuple | None:
    """The first basis pair (i, j), j in ``rights``, where the identity of
    :func:`_pair_check` fails, as ``(pair, lhs, rhs)``; None if there is none."""
    for i, row in enumerate(table):
        for j in rights:
            lhs = X._apply(row[j])
            rhs = _bilinear(X.field, X.nrows, table, [(P[i], Q[j]) for P, Q in terms])
            if lhs != rhs:
                return (i, j), lhs, rhs
    return None


def _pair_check(table, X: Matrix, terms, reason: str, generators=None) -> CheckResult:
    """X(e_i·e_j) = Σ P(e_i)·Q(e_j) on every basis pair of a sparse structure
    table (an algebra's ``_sparse``, a bimodule's ``_left`` or ``_right``),
    each term ``(P, Q)`` given by the sparse columns of its maps, which skip
    the length check of :meth:`Matrix.mul_vec`: the shapes must fit the table.

    With ``generators`` (an algebra's :func:`_generators`, for an identity
    its pairs (i, g) decide) only those pairs are scanned first; when one
    fails, the full scan names the lexicographically first failing pair, as
    without them."""
    if generators is not None and _first_failure(table, X, terms, generators) is None:
        return _PASS
    failure = _first_failure(table, X, terms, range(len(table[0])))
    if failure is None:
        return _PASS
    pair, lhs, rhs = failure
    return CheckResult(False, Witness(reason, pair=pair, lhs=lhs, rhs=rhs))


def is_automorphism(theta: LinearEndo) -> CheckResult:
    alg = theta.algebra
    n = alg.dim
    if theta.matrix.rank() != n:
        return CheckResult(False, Witness("not invertible"))
    if alg.is_unital and theta(alg.unit) != tuple(alg.unit):
        return CheckResult(False, Witness("unit not preserved", lhs=theta(alg.unit), rhs=tuple(alg.unit)))
    images = theta.matrix._cols()
    return _pair_check(alg._sparse, theta.matrix, ((images, images),), "multiplicativity", _generators(alg))


def require_automorphism(theta: LinearEndo) -> LinearEndo:
    """``theta`` itself, or NotAutomorphism carrying the check's witness; a
    passing verdict is kept on the algebra's ``memo`` under θ's matrix, so
    each map is checked once per algebra."""
    key = ("automorphism", theta.matrix)
    memo = theta.algebra.memo
    if key not in memo:
        check = is_automorphism(theta)
        if not check.ok:
            raise NotAutomorphism(check.witness)
        memo[key] = True
    return theta


def resolve_twist(alg: FDAlgebra, sigma, kind: str | None = None) -> LinearEndo:
    """The twist σ a call uses: the identity for ``sigma=None`` and for the
    :data:`UNTWISTED_KINDS`, otherwise ``sigma`` (a LinearEndo or a raw
    Matrix) as a verified automorphism (NotAutomorphism if it is not one)."""
    if sigma is None or kind in UNTWISTED_KINDS:
        return LinearEndo.identity(alg)
    return require_automorphism(as_endo(alg, sigma))


def _leibniz_check(D: LinearEndo, d: LinearEndo | None, sigma: LinearEndo | None, reason: str) -> CheckResult:
    """D(e_i e_j) = D(e_i)e_j + σ(e_i)d(e_j) on all basis pairs; ``d=None``
    drops the σ term (the left multiplier rule).  The pairs (i, g) of
    :func:`_generators` decide it when σ is the identity or absent; for
    D ≠ d the caller has checked d's own rule first."""
    terms = [(D.matrix._cols(), _units(D.algebra))]
    if d is not None:
        terms.append((sigma.matrix._cols(), d.matrix._cols()))
    generators = _generators(D.algebra) if d is None or sigma.is_identity() else None
    return _pair_check(D.algebra._sparse, D.matrix, terms, reason, generators)


def is_sigma_derivation(d: LinearEndo, sigma: LinearEndo) -> CheckResult:
    """d(xy) = d(x)y + σ(x)d(y), checked on all basis pairs (on basis ×
    generators when σ is the identity)."""
    return _leibniz_check(d, d, sigma, "twisted Leibniz rule")


def is_generalized_pair(D: LinearEndo, d: LinearEndo, sigma: LinearEndo) -> CheckResult:
    """D(xy) = D(x)y + σ(x)d(y) with d a σ-derivation, on all basis pairs."""
    inner = is_sigma_derivation(d, sigma)
    if not inner.ok:
        return inner
    return _leibniz_check(D, d, sigma, "generalized Leibniz rule")


def is_left_multiplier(F: LinearEndo) -> CheckResult:
    """F(xy) = F(x)y on all basis pairs."""
    return _leibniz_check(F, None, None, "left multiplier rule")


def predicate(theta: LinearEndo, sigma: LinearEndo, mode: str) -> CheckResult:
    """Universally quantified bracket condition, decided by polarization.

    mode is one of ``commuting`` / ``centralizing`` / ``skew_commuting`` /
    ``skew_centralizing``; the skew variants use the anti-symmetric bracket
    and the centralizing variants only require the value to be central.
    A failure reports the lexicographically first violating basis pair and
    the element witness e_i (+ e_j) together with the bracket value there.
    """
    if mode not in PREDICATE_MODES:
        raise ValueError(f"unknown predicate mode {mode!r}")
    alg = theta.algebra
    f = alg.field
    skew = mode.startswith("skew")
    residual = center_subspace(alg).reduce if mode.endswith("centralizing") else (lambda v: v)
    e, ss, th = _units(alg), sigma.matrix._cols(), theta.matrix._cols()
    # the bracket σ(x)θ(y) ∓ θ(y)x: the second product takes θ(y) negated unless skew
    th_second = th if skew else [tuple((k, f.neg(a)) for k, a in col) for col in th]
    n = alg.dim
    for i in range(n):
        for j in range(i, n):
            # bracket(e_i, e_j), plus bracket(e_j, e_i) off the diagonal
            pairs = [(ss[i], th[j]), (th_second[j], e[i])]
            if i != j:
                pairs += [(ss[j], th[i]), (th_second[i], e[j])]
            val = alg._products(pairs)
            if not vec_is_zero(residual(val)):
                ei = alg.basis_vector(i)
                element = ei if i == j else vec_add(f, ei, alg.basis_vector(j))
                return CheckResult(
                    False, Witness(f"{mode} fails", pair=(i, j), element=element, lhs=val)
                )
    return _PASS


def inner_automorphism(alg: FDAlgebra, u: Sequence) -> LinearEndo:
    """Conjugation x -> u·x·u⁻¹ by an invertible element of a unital algebra.

    u⁻¹ is the one solution of u·x = 1 (in a finite-dimensional algebra a
    right inverse is an inverse).  Raises ValueError when the algebra has no
    unit, or u has the wrong length or is not invertible; ``verify_mayne``
    draws random elements until one is accepted.
    """
    if not alg.is_unital:
        raise ValueError("conjugation needs a unital algebra")
    if len(u) != alg.dim:
        raise ValueError("conjugating element has wrong length")
    left = alg.left_mul_matrix(u)
    u_inv = solve_linear(left, alg.unit)
    if u_inv is None:
        raise ValueError("conjugating element is not invertible")
    return LinearEndo(alg, left @ alg.right_mul_matrix(u_inv))


# ---------------------------------------------------------------------------
# map spaces


def endo_of_vec(algebra: FDAlgebra, v: Sequence) -> LinearEndo:
    n = algebra.dim
    rows = [v[r * n : (r + 1) * n] for r in range(n)]
    return LinearEndo(algebra, Matrix(algebra.field, rows, ncols=n))


class MapSpace(Record):
    """A solved space of endomorphisms (or (D, d) pairs) of one algebra."""

    algebra: FDAlgebra
    kind: str
    pair: bool
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def endos(self) -> list[LinearEndo]:
        if self.pair:
            raise ValueError("pair space: use endo_pairs()")
        return [endo_of_vec(self.algebra, v) for v in self.space.basis]

    def endo_pairs(self) -> list[tuple[LinearEndo, LinearEndo]]:
        if not self.pair:
            raise ValueError("not a pair space")
        half = self.algebra.dim ** 2
        return [
            (endo_of_vec(self.algebra, v[:half]), endo_of_vec(self.algebra, v[half:]))
            for v in self.space.basis
        ]


def _live(rows) -> list[tuple[int, dict]]:
    """A matrix given by its sparse rows, as its nonempty ``(coordinate, row)`` pairs."""
    return [(r, row) for r, row in enumerate(rows) if row]


def _corner_rows(op, span) -> list[tuple[int, dict]]:
    """The live rows of ``op`` on the coordinates in ``span``; all of them when it is None."""
    return op if span is None else [(r, row) for r, row in op if r in span]


class _System:
    """A homogeneous system over endo-block unknowns, streamed into elimination.

    Unknown ``b·n² + r·n + k`` is entry (r, k) of the block-b map.  A row is
    a ``{column: value}`` dict of plain ints (Fractions only where the data
    has denominators); :func:`trialg.linalg.sparse_kernel` clears
    denominators and reduces mod p.  The system is never stored: each
    equation's coordinate rows are built when the engine asks for them and
    dropped once they are reduced into its pivots, and only the rows some
    term writes to are built (their entries may still cancel to zero).
    """

    def __init__(self, field: Field, n: int, blocks: int):
        self.field = field
        self.n = n
        self.width = blocks * n * n

    def equation(self, terms) -> Iterable[tuple[int, dict[int, Scalar]]]:
        """The ``(coordinate, row)`` pairs of sum of terms = 0 that some term
        writes to.

        Each term is (block, P, v, sign): the expression sign·P·X_block(v)
        with P a known matrix given by its :func:`_live` rows and v a known
        vector given sparsely, as ``{index: value}`` dicts in
        :func:`trialg.linalg._plain_rows` form, and sign ±1.
        """
        n = self.n
        rows: dict[int, dict[int, Scalar]] = {}
        for block, P, v, sign in terms:
            if not v:
                continue
            offset = block * n * n
            for r, prow in P:
                row = rows.setdefault(r, {})
                for t, pt in prow.items():
                    c = sign * pt
                    base = offset + t * n
                    for k, vk in v.items():
                        col = base + k
                        row[col] = row.get(col, 0) + c * vk
        return rows.items()

    def kernel(self, equations: Iterable) -> Subspace:
        """The solution space of the equations, each given as ``(pair, terms)``
        with ``pair`` the basis pair (or index, twice) it is taken at."""
        rows = (row for _, terms in equations for _, row in self.equation(terms))
        return sparse_kernel(self.field, rows, self.width)


class _Leibniz:
    """Sparse operators of the twisted Leibniz rule for one algebra and twist."""

    def __init__(self, alg: FDAlgebra, sigma: LinearEndo):
        n, one, images = alg.dim, alg.field.one, sigma.matrix._cols()
        self.n = n
        self.basis = [{i: 1} for i in range(n)]
        self.identity = _live(self.basis)
        self.table = [_plain_rows(alg.field, map(dict, row)) for row in alg._sparse]
        self.right = [_live(_bracket_operator(alg, (), ((j, one),), 1)) for j in range(n)]
        self.left_sigma = [_live(_bracket_operator(alg, images[i], (), 1)) for i in range(n)]
        self.generators = _generators(alg)

    def equations(self, D_block: int, d_block: int | None, lefts=None, rights=None, out=None) -> Iterator[tuple]:
        """X_D(e_i e_j) − X_D(e_i)e_j − σ(e_i)X_d(e_j) = 0 for e_i in ``lefts``
        (default: every basis vector) and e_j in ``rights`` (default: the
        :func:`_generators`, which decide the rule on all pairs: σ is
        multiplicative, and a pair system holds d's rule), on the coordinates
        in ``out`` (default: all); ``d_block=None`` drops the σ term (the left
        multiplier rule)."""
        lefts = range(self.n) if lefts is None else lefts
        rights = self.generators if rights is None else rights
        identity = _corner_rows(self.identity, out)
        right = {j: _corner_rows(self.right[j], out) for j in rights}
        for i in lefts:
            left_sigma = _corner_rows(self.left_sigma[i], out)
            for j in rights:
                terms = [(D_block, identity, self.table[i][j], 1), (D_block, right[j], self.basis[i], -1)]
                if d_block is not None:
                    terms.append((d_block, left_sigma, self.basis[j], -1))
                yield (i, j), terms


def _bracket_equations(op, indices: Sequence[int]) -> Iterator[tuple]:
    """The polarized bracket condition over the basis vectors e_i, i in
    ``indices``: op_i(e_i) = 0, and op_i(e_j) + op_j(e_i) = 0 for i < j,
    with op_i = ``op[i]`` given by its live rows; each equation comes with
    its pair (i, j)."""
    basis = {i: {i: 1} for i in indices}
    for a, i in enumerate(indices):
        yield (i, i), [(0, op[i], basis[i], 1)]
        for j in indices[a + 1 :]:
            yield (i, j), [(0, op[i], basis[j], 1), (0, op[j], basis[i], 1)]


def solve_space(alg: FDAlgebra, sigma: LinearEndo | None, kind: str) -> MapSpace:
    """Solve the full space of maps of the given kind as a kernel.

    σ is the one :func:`resolve_twist` gives: ``None`` means the identity,
    the untwisted kinds ignore ``sigma``, and any other σ must be an
    automorphism.  Generalized pairs are solved jointly in the unknowns
    (D, d) with the twisted Leibniz constraint imposed on d.

    Each space is solved once: the result is kept in the algebra's ``memo``
    under its kind and σ's matrix, so it is freed with the algebra.
    """
    if kind not in SOLVE_KINDS:
        raise ValueError(f"unknown solve kind {kind!r}")
    sigma = resolve_twist(alg, sigma, kind)
    key = ("solve", kind, sigma.matrix)
    if key in alg.memo:
        return alg.memo[key]

    pair = kind == "generalized_pair"
    system = _System(alg.field, alg.dim, 2 if pair else 1)

    if kind in ("derivation", "sigma_derivation", "left_multiplier", "generalized_pair"):
        leibniz = _Leibniz(alg, sigma)
        equations = leibniz.equations(0, None if kind == "left_multiplier" else int(pair))
        if pair:
            equations = chain(equations, leibniz.equations(1, 1))
    else:
        # σ(e_i)λ − λe_i, or σ(e_i)λ + λe_i for the skew kinds
        op = _twisted_brackets(alg, sigma.matrix, 1 if kind.startswith("skew") else -1)
        if kind.endswith("centralizing"):
            center = center_subspace(alg)
            op = [center.reduce_rows(rows) for rows in op]
        equations = _bracket_equations([_live(rows) for rows in op], range(alg.dim))

    alg.memo[key] = MapSpace(alg, kind, pair, system.kernel(equations))
    return alg.memo[key]
