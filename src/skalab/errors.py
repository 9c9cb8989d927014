"""Exception hierarchy shared by all skalab modules."""


class SkalabError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(SkalabError):
    """A field characteristic failed the primality test."""


class SpecMismatch(SkalabError):
    """Operands belong to different field specs."""


class DivisionByZero(SkalabError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class ZeroVector(SkalabError):
    """The all-zero triple has no projective class."""


class ChartInvalid(SkalabError):
    """Flag falls outside the affine chart (x0 = 0 or y2 = 0)."""


class UnsupportedField(SkalabError):
    """Requested field size is not p or p^2 for a prime p."""


class UnknownVertex(SkalabError):
    """Subgraph query references a vertex not in the host graph."""


class EmptyQuery(SkalabError):
    """Density report requested for an empty vertex subset."""


class SizeTooLarge(SkalabError):
    """Requested subset size exceeds the host side."""


class TooLarge(SkalabError):
    """Requested work would exceed the stated budget."""


class PhaseError(SkalabError):
    """Protocol event received in the wrong state-machine phase."""


class RoundMismatch(SkalabError):
    """Protocol message carries an unexpected round tag."""


class DegenerateH(SkalabError):
    """Bob's h parameter is zero; the session key is undefined."""


class NotCompleted(SkalabError):
    """Accounting requested for a session that did not finish ok."""


class EstimatorFailure(SkalabError):
    """Complexity estimator raised while evaluating a grid node."""


class OutOfDomain(SkalabError):
    """Query point lies outside the grid rectangle."""


class TargetOnBoundary(SkalabError):
    """Winding target sits on the boundary image polyline."""


class NotCovered(SkalabError):
    """Boundary image does not wind around the target; no preimage search."""


class InvariantViolation(SkalabError):
    """A hard internal consistency check failed (audits map this to exit 3)."""
