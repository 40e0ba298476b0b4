"""Exception types shared across the package, and its two refusal rules:
`admit`, the work limit every super-linear job passes before it runs, and
`integer`, the rule every integer argument (an order, an index, a field
exponent, a field size q) passes as it enters.  `integer` takes an int or a numpy integer,
never a bool, a float or a string, inside its bounds, and hands on a
Python int, so no numpy scalar reaches the exact big-integer loops, where
int64 would wrap."""

import numbers


class KloosterError(Exception):
    """Base class for all package errors."""


class FieldConstructionError(KloosterError, ValueError):
    """Invalid field parameters (wrong degree, reducible modulus, ...)."""


class DomainError(KloosterError, ValueError):
    """An argument is outside the domain of the operation."""


class ConsistencyError(KloosterError, RuntimeError):
    """An internal exact identity failed; indicates a computation bug."""


class CapacityError(KloosterError, RuntimeError):
    """The requested computation exceeds the configured work limit."""


def admit(what: str, cost: int, limit: int) -> None:
    """Refuse a job whose estimated cost exceeds its work limit.

    `what` names the job and how its cost is counted; the refusal names the
    estimate, the limit and the flag that raises it.
    """
    if cost > limit:
        raise CapacityError(
            "%s costs about %d operations (limit %d); raise the limit with --limit-ops"
            % (what, cost, limit)
        )


def is_integer(x) -> bool:
    """An int or a numpy integer (numpy registers its integers as
    numbers.Integral), not a bool."""
    return type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)


def integer(value, low, message: str, high=None, error=DomainError) -> int:
    """int(value) for an integer (is_integer) with low <= value <= high, a
    bound of None leaving that side open; anything else is refused with
    `error`, the message followed by the value."""
    if (type(value) is int or is_integer(value)) and (low is None or low <= value) and (
            high is None or value <= high):
        return int(value)
    raise error("%s, got %r" % (message, value))
