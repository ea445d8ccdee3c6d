"""Exception types shared across the package."""


class QlsmError(Exception):
    """Base class for all package-specific errors."""


class CapExceeded(QlsmError):
    """Exact enumeration would exceed the configured size cap."""


class Overflow(QlsmError):
    """A value is not representable in the requested fixed-point format."""


class SingularGram(QlsmError):
    """A regression matrix is numerically singular."""

    def __init__(self, step: int, sigma_min: float, message: str | None = None):
        self.step = step
        self.sigma_min = sigma_min
        if message is None:
            message = (
                f"regression matrix at step {step} is numerically singular "
                f"(sigma_min={sigma_min:.3e}): the basis is linearly dependent on "
                f"the states it is fitted on; shrink the basis, and for a Gram "
                f"sampled from paths, try more paths"
            )
        super().__init__(message)


class ScheduleViolation(QlsmError):
    """An accuracy/confidence schedule precondition is not met."""


class VarianceExceeded(QlsmError):
    """The exact variance of an estimand exceeds the declared bound."""


class ConfigError(QlsmError):
    """An experiment configuration is invalid."""
