"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 1,
numerical failures with 2.  Plain ValueError is used for arguments
outside a low-level kernel's domain, such as a negative Bessel order or
a nonfinite argument; a kernel value out of double range is a
NumericalError.
"""


class ConfigurationError(Exception):
    """A scenario, mesh request, or CLI invocation is malformed."""


class CompletenessError(ConfigurationError):
    """Truncation parameters are too small to certify the requested index."""


class NumericalError(Exception):
    """A solver failed or produced values that fail internal sanity checks."""
