"""Exact scalar arithmetic: the rational field and odd prime fields.

Scalars are plain Python values (``fractions.Fraction`` over Q, ``int`` in
``[0, p)`` over F_p); a field object supplies the arithmetic.  Everything
downstream (matrices, subspaces, algebras) is generic over the field object
and never touches floating point.  A prime modulus must lie below
:data:`PRIME_BOUND`, the range in which primality is certified exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int]

# ψ₁₂ = 399165290221 · 798330580441, the least composite that passes
# Miller-Rabin to all twelve prime bases 2..37 (Sorenson and Webster,
# Math. Comp. 86 (2017))
PRIME_BOUND = 318665857834031151167461


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the twelve prime bases 2..37: exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q with scalars stored as reduced ``Fraction`` values."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def parse(self, s: str) -> Fraction:
        return Fraction(s)

    def format(self, x: Scalar) -> str:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for an odd prime p; scalars are ints in ``[0, p)``.

    p = 2 is rejected: every identity verified downstream assumes the
    ambient algebra is 2-torsion-free.  So is p ≥ :data:`PRIME_BOUND`, whose
    primality the test cannot certify.
    """

    char: int

    def __init__(self, p: int):
        if p == 2:
            raise ValueError("characteristic 2 is not supported (2-torsion-free arithmetic required)")
        if p >= PRIME_BOUND:
            raise ValueError(f"{p} is too large: primality is certified only below {PRIME_BOUND}")
        if not _is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def from_int(self, n: int) -> int:
        return n % self.p

    def parse(self, s: str) -> int:
        return int(s) % self.p

    def format(self, x: Scalar) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"GF({self.p})"


Field = Union[RationalField, PrimeField]

QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_spec(spec) -> Field:
    """Build a field from its JSON form: ``"rational"`` or ``{"prime": p}``."""
    if spec == "rational":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"prime"}:
        return PrimeField(spec["prime"])
    raise ValueError(f"bad field spec: {spec!r}")


def field_to_spec(field: Field):
    return "rational" if field.char == 0 else {"prime": field.char}
