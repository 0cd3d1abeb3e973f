"""Exception types shared across the package."""

from __future__ import annotations


def vector_text(v) -> str:
    """A vector as messages write it, ``[1, 1/2]``: each entry as reports
    write scalars (``str`` of a ``Fraction`` is ``num/den``)."""
    return f"[{', '.join(map(str, v))}]"


class TrialgError(Exception):
    """Base class for all library errors."""


class AssociativityViolation(TrialgError):
    def __init__(self, i: int, j: int, k: int, left, right):
        self.indices = (i, j, k)
        self.left = left
        self.right = right
        super().__init__(f"(e{i}·e{j})·e{k} = {vector_text(left)} but e{i}·(e{j}·e{k}) = {vector_text(right)}")


class UnitViolation(TrialgError):
    def __init__(self, i: int):
        self.index = i
        super().__init__(f"claimed unit does not act as identity on basis element {i}")


class BimoduleAxiomViolation(TrialgError):
    pass


class ZeroModule(TrialgError):
    pass


class NotFaithful(TrialgError):
    def __init__(self, side: str, witness):
        self.side = side
        self.witness = witness
        super().__init__(f"module is not faithful on the {side}: {vector_text(witness)} annihilates it")


class StructuralMismatch(TrialgError):
    """An internal cross-check failed; this indicates a bug and is surfaced loudly."""


class NotAutomorphism(TrialgError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"map is not an automorphism: {witness}")


class PredicateNotSatisfied(TrialgError):
    """A decomposition was asked for a map that fails its defining identity."""

    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"map fails its defining identity: {witness}")


class HypothesisNotMet(TrialgError):
    pass


class ReconstructionMismatch(TrialgError):
    def __init__(self, basis_index: int, expected, got):
        self.basis_index = basis_index
        self.expected = expected
        self.got = got
        super().__init__(
            f"recomposition disagrees with the original map on basis element {basis_index}: "
            f"expected {vector_text(expected)}, got {vector_text(got)}"
        )


class ConditionFailure(TrialgError):
    def __init__(self, label: str, witness=None):
        self.label = label
        self.witness = witness
        super().__init__(f"structure condition {label} fails: {witness}")


class InvalidParts(TrialgError):
    pass


class ConfigError(TrialgError):
    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")
