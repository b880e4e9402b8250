"""Exception types shared across the toolkit."""


class ForensicsError(Exception):
    """Base class for all toolkit errors."""


class IngestError(ForensicsError):
    """Raised when an input file cannot be read or is too damaged to trust."""


class ConfigError(ForensicsError, ValueError):
    """A setting (a command-line flag or a config field) is out of range."""


class GraphError(ForensicsError):
    """Raised for structural violations (creator cycles, unknown accounts)."""


class MetricError(ForensicsError):
    """Raised when a metric cannot be computed as requested."""


class ConvergenceError(MetricError):
    """PageRank failed to converge; carries the last iterate."""

    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = last_iterate


class CalibrationError(ForensicsError):
    """Similarity-threshold calibration needs more labeled communities."""


class TrainingError(ForensicsError):
    """Classifier training cannot proceed (e.g. single-class labels)."""


class GenerationError(ForensicsError):
    """Synthetic scenario is infeasible as configured."""


class BundleError(ForensicsError):
    """Evidence bundle is incomplete or failed integrity verification."""
