"""Exception types shared across the package."""


class GreendryError(Exception):
    """Base class for all package errors."""


class RangeError(GreendryError, ValueError):
    """An input fell outside the validity range of a correlation or table."""


class ConfigError(GreendryError, ValueError):
    """A dryer configuration value is missing, malformed or non-physical."""


class WeatherError(GreendryError, ValueError):
    """A weather file or series is malformed or does not cover the horizon."""


class KineticsError(GreendryError, ValueError):
    """The thin-layer drying model is invalid at the requested conditions."""


class SingularMatrixError(GreendryError, ValueError):
    """Gauss-Jordan elimination hit a pivot below the singularity threshold."""

    def __init__(self, column: int, pivot: float):
        # args are the constructor's, so that pickle (and with it a sweep
        # worker's process boundary) rebuilds the same error
        super().__init__(column, pivot)
        self.column = column
        self.pivot = pivot

    def __str__(self) -> str:
        return (f"singular matrix: pivot magnitude {abs(self.pivot):.3e} in "
                f"column {self.column} is below threshold")


class SimulationError(GreendryError, RuntimeError):
    """A simulation step produced a non-finite value or otherwise failed."""


class ComparisonError(GreendryError, ValueError):
    """Predicted/observed series cannot be compared."""


class EconomicsError(GreendryError, ValueError):
    """The economic inputs admit no finite payback."""
