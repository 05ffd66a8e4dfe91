"""Exception types shared by all modules."""

from contextlib import contextmanager


class RispacesError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteInput(RispacesError):
    """An input value or weight is nan/inf."""


class BadWeights(RispacesError):
    """Sample weights do not sum to one."""


class BadModel(RispacesError):
    """Function-model parameters violate their constraints."""


class BadInterval(RispacesError):
    """Integration bounds are reversed or leave [0, 1]."""


class BadPoint(RispacesError):
    """Evaluation point lies outside (0, 1]."""


class BadExponent(RispacesError):
    """Exponent parameters violate the preconditions of a check."""


class NoConvergence(RispacesError):
    """An iteration stopped short of its target: the u-tail march of an
    open-ended integral, the incomplete-gamma continued fraction or a
    monotone map's Newton solve."""


class NonFiniteValue(RispacesError):
    """A probed objective returned nan/inf during a supremum search, or a
    computed norm is not finite."""


class OutOfRange(RispacesError):
    """Target value lies outside the range of a monotone map."""


class ConditionC2Failed(RispacesError):
    """The integrated inner weight is not in the outer weighted Lebesgue space."""


class ConditionCheckFailed(RispacesError):
    """Empirical verification of the coupling conditions failed."""


class InfiniteNorm(RispacesError):
    """No trial decomposition has both component norms finite."""


class Divergent(RispacesError):
    """A quadrature grows without bound: its integrand is not finite, or its
    open-ended sum overflows or keeps growing."""


class NotMonotone(RispacesError):
    """A step function required to be nonincreasing is not."""


class HypothesisViolation(BadExponent):
    """An unknown experiment, or a parameter of one that it does not take, or
    that is missing or outside its declared range."""


@contextmanager
def failure_context(what: str):
    """Re-raise a RispacesError in the block as its own type, its message led by what, from it."""
    try:
        yield
    except RispacesError as err:
        raise type(err)(f"{what}: {err}") from err
