"""Exception types shared across the package."""


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
