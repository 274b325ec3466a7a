"""Exception types shared across the library."""


class KillformError(Exception):
    """Base class for all library errors."""


class CapExceeded(KillformError):
    """A configured size cap (elements, matrix dim, terms, ...) would be exceeded."""


class DegreeMismatch(KillformError):
    pass


class ElementNotInGroup(KillformError):
    pass


class UnknownSpec(KillformError):
    """Group spec string does not match the accepted grammar."""


class BadField(KillformError):
    """q is not a prime power covered by the built-in polynomial table."""


class SeparationFailure(KillformError):
    """Neither the floating nor the exact inertia path could settle the signature."""


class SingularMatrix(KillformError):
    pass


class RowSumMismatch(KillformError):
    """Row sums of a class Killing matrix differ (construction bug)."""


class NotCentral(KillformError):
    """Casimir expansion has a residual outside the span of e and class sums."""


class NoSuitablePrime(KillformError):
    """Character-table prime search exhausted below 2**31."""


class OrthogonalityFailure(KillformError):
    """A computed character table fails an orthogonality relation."""


class NotACharacter(KillformError):
    """Inner products with irreducibles are not non-negative integers."""


class ProjectorMismatch(KillformError):
    """Eigenprojector traces are not near-integers or totals disagree."""


class NontrivialCentre(KillformError):
    pass
