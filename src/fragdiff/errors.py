"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical failures with 3, violated model properties with 4.
"""


class ConfigError(ValueError):
    """Invalid configuration: bad key, type, or constraint violation."""


class NumericsError(RuntimeError):
    """A solver or integrator failed (singular system, non-convergence)."""


class PropertyViolation(RuntimeError):
    """A structural property the model guarantees was violated numerically, or
    the coefficients miss a hypothesis the requested quantity rests on."""
