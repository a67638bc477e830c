"""Error taxonomy shared across modules."""


class InvalidInputError(ValueError):
    """Input violates a documented precondition."""


class NumericalFailureError(RuntimeError):
    """An iterative routine failed to converge."""


class CapacityExceededError(InvalidInputError):
    """Requested size would blow past the desk-scale guards."""
