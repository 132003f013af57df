"""Exception types shared across the package; every one is a ValueError."""


class HereditasError(ValueError):
    """Base class for all package-specific errors."""


class InvalidDimensionError(HereditasError):
    """Inputs have missing, empty, or mismatched dimensions."""


class DegenerateColumnError(HereditasError):
    """A design column has zero spread under the requested estimator."""

    def __init__(self, column_label, message=None):
        self.column_label = column_label
        super().__init__(message or f"column {column_label} has zero spread")


class InconsistentParamsError(HereditasError):
    """Standardization parameters do not cover the requested terms."""


class SingularDesignError(HereditasError):
    """Least-squares design is rank deficient."""


class InfeasibleStartError(HereditasError):
    """Stepwise cannot start from the full model with this few rows."""


class InvalidConfigError(HereditasError):
    """A simulation setting is internally inconsistent."""


class UnsupportedDistributionError(HereditasError):
    """No sampler or moments for this distribution."""
