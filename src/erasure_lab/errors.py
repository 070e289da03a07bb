"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when an argument violates an operation's preconditions."""


class UnsupportedScenarioError(InputError):
    """Raised when a scenario is well formed but outside the simulated regime."""
