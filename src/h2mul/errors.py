"""The exception type shared across the package."""


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""

