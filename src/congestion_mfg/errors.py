"""Exception types shared across the solver stack."""


class CongestionMFGError(Exception):
    """Base class for all package errors."""


class SingularEvaluation(CongestionMFGError):
    """Hamiltonian requested at mu=0, m=0 with a nonzero gradient."""


class NewtonDiverged(CongestionMFGError):
    """Newton iteration failed to reduce the residual below tolerance."""


class NonFiniteState(CongestionMFGError):
    """A solver state field contains NaN or infinity."""


class LinearSolveFailed(CongestionMFGError):
    """A sparse linear solve did not reach its tolerance."""


class NegativeDensity(CongestionMFGError):
    """A transported density dipped below the nonnegativity tolerance."""


class GridMismatch(CongestionMFGError):
    """Two fields or solution bundles live on incompatible grids."""


class ConfigError(CongestionMFGError):
    """Invalid run configuration (bad value, rejected combination)."""


class ConfigParseError(ConfigError):
    """Unparseable config file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
