"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when an argument violates an operation's preconditions."""


class SupportError(ArithmeticError):
    """Raised when a spectral function is evaluated outside its domain,
    e.g. the logarithm of a rank-deficient operator without regularization."""


class UnsupportedScenarioError(InputError):
    """Raised when a scenario is well formed but outside the simulated regime."""
