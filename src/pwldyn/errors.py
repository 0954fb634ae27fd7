"""Exception types shared across the package."""

__all__ = [
    "DynamicsError",
    "EmptyCloud",
    "HypothesisViolated",
    "IllConditioned",
    "MultipleZero",
    "NoFixedPoint",
    "NoReturn",
    "NonFinite",
    "NonTransversal",
    "NotContinuous",
    "NotSingular",
    "PwldynError",
    "ReductionError",
    "UnsupportedDimension",
]


class PwldynError(Exception):
    """Base class for all package-specific errors."""


class IllConditioned(PwldynError):
    """An eigenvalue computation failed to converge or lost all accuracy, a plane or
    a restricted map is past the float range, or a singular piece's range is not planar."""


class UnsupportedDimension(PwldynError):
    """A normal form outside dimensions 2 and 3, or ``induced`` on a 1-D map (a point section)."""


class NotContinuous(PwldynError):
    """The two matrices do not differ by a rank-one update along the switching normal."""


class DynamicsError(PwldynError):
    """Base class for runtime failures while iterating a map."""


class NonFinite(DynamicsError):
    """An orbit iterate overflowed to a non-finite value."""


class NoReturn(DynamicsError):
    """The sampled attractor never visits the section, so no default grid
    of the induced map can be drawn; a sample that does not return within
    its budget is recorded as ``no_return`` instead."""


class ReductionError(PwldynError):
    """Base class for failed reduction hypotheses."""


class HypothesisViolated(ReductionError):
    """A shared-eigenvalue hypothesis failed (eigenvalue one, multiplicity, or tangency)."""


class NonTransversal(ReductionError):
    """The invariant plane is parallel to the switching plane."""


class NotSingular(ReductionError):
    """The left piece has no eigenvalue close enough to zero."""


class MultipleZero(ReductionError):
    """Zero is an eigenvalue of the left piece with multiplicity above one."""


class NoFixedPoint(ReductionError):
    """No required fixed point: 1 is an eigenvalue, or the solve leaves the float range."""


class EmptyCloud(PwldynError):
    """A distance was requested between point clouds with no points."""


def _record(exc: Exception) -> str:
    """``"Type: message"``, the record a result keeps of an error in place of a value."""
    return f"{type(exc).__name__}: {exc}"
