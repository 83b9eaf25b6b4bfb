"""Exception hierarchy for the riskdiff package.

Errors are grouped by pipeline stage so the CLI can map them onto stable
exit codes: data errors, fit errors, and inference errors.
"""


class RiskdiffError(Exception):
    """Base class for all package errors."""


# --- data errors ------------------------------------------------------------

class DataError(RiskdiffError):
    pass


class MissingColumn(DataError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"required column {column!r} not found in header")


class NonBinaryValue(DataError):
    def __init__(self, row, column, value):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(
            f"column {column!r} must be 0/1 but row {row} has {value!r}"
        )


class NonFiniteValue(DataError):
    def __init__(self, row, column, value):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(
            f"column {column!r} must be finite but row {row} has {value!r}"
        )


class MissingValue(DataError):
    def __init__(self, row, column):
        self.row = row
        self.column = column
        super().__init__(f"missing value at row {row}, column {column!r}")


class EmptyFile(DataError):
    pass


# --- fit errors -------------------------------------------------------------

class FitError(RiskdiffError):
    pass


class BadCovariateIndex(FitError):
    def __init__(self, index, n_covariates):
        self.index = index
        self.n_covariates = n_covariates
        super().__init__(
            f"covariate index {index} out of range for {n_covariates} covariates"
        )


class RankDeficientDesign(FitError):
    pass


class SeparationDetected(FitError):
    pass


class NotConverged(FitError):
    pass


class NonFiniteFit(FitError):
    pass


class DimensionMismatch(FitError):
    pass


class NotPositiveDefinite(FitError):
    def __init__(self, pivot):
        self.pivot = pivot
        super().__init__(f"matrix not positive definite (leading minor at pivot {pivot})")


# --- inference errors -------------------------------------------------------

class InferenceError(RiskdiffError):
    pass


class EmptySamples(InferenceError):
    pass


class DegenerateCloud(InferenceError):
    pass


class TooFewDraws(InferenceError):
    pass


class NonFiniteEffects(InferenceError):
    pass
