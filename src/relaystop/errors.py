"""Exception hierarchy shared across the package."""


class RelayStopError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(RelayStopError, ValueError):
    """A numeric argument or configuration field is out of its valid range."""


class ContentionDeadlockError(RelayStopError, RuntimeError):
    """Contention cannot succeed (zero success probability or slot cap hit)."""


class SolverFailureError(RelayStopError, RuntimeError):
    """A root search did not converge; carries diagnostic context."""


class CappedPacketError(RelayStopError, RuntimeError):
    """A simulated packet exceeded its observation cap (never-stop guard)."""


class ConfigError(RelayStopError, ValueError):
    """A configuration file or CLI override is malformed."""
