"""Exception types shared across the package."""

from dataclasses import dataclass


class MetricPairsError(Exception):
    """Base class for all package errors."""


@dataclass(frozen=True)
class MetricViolation:
    """One failed metric axiom: which kind, at which indices."""

    kind: str  # asymmetric | negative_entry | nonzero_diagonal | zero_off_diagonal | triangle
    indices: tuple

    def __str__(self):
        return f"{self.kind}{self.indices}"


class MetricValidationError(MetricPairsError):
    """Raised when a matrix fails the metric axioms; carries every violation found."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class NegativeRadius(MetricPairsError):
    pass


class DisconnectedGraph(MetricPairsError):
    pass


class InvalidSubset(MetricPairsError):
    pass


class DifferentAmbient(MetricPairsError):
    pass


class GlueMismatch(MetricPairsError):
    pass


class ChainLengthMismatch(MetricPairsError):
    pass


class GluingInfeasible(MetricPairsError):
    """No admissible gluing respects the requested caps.

    ``witness`` names the shortcut: (side, i, j) with side "left" or "right".
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"within-space shortcut at {witness}")


class EmptyConstraintSet(MetricPairsError):
    pass


class NonPositiveEpsilon(MetricPairsError):
    pass


class DomainTooSmall(MetricPairsError):
    pass


class NetLengthMismatch(MetricPairsError):
    pass


class ResolutionTooCoarse(MetricPairsError):
    pass


class InvalidBracket(MetricPairsError):
    """A computed bracket broke its invariants: inverted, or wider than the resolution."""


class SizeLimitExceeded(MetricPairsError):
    """A search ran out of its assignment budget, or a searched space has more
    points than the bitmask cap; ``limit`` is the budget or the cap."""

    def __init__(self, limit, message=None):
        self.limit = limit
        super().__init__(message or f"search exceeded the assignment budget of {limit}")


class PreconditionViolated(MetricPairsError):
    """A documented precondition failed; names the clause and a witness."""

    def __init__(self, clause, witness=None):
        self.clause = clause
        self.witness = witness
        super().__init__(f"{clause}" + (f" (witness: {witness})" if witness is not None else ""))


class ShortcutDetected(MetricPairsError):
    def __init__(self, member, pair):
        self.member = member
        self.pair = pair
        super().__init__(f"chain ambient shortcuts member {member} at point pair {pair}")


class LengthMismatch(MetricPairsError):
    pass


class EmptyLimit(MetricPairsError):
    pass
