"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: validation/assumption failures
exit 2, budget/horizon failures exit 3, usage problems exit 4.
"""


class ActiveHTError(Exception):
    """Base class for all package-specific errors."""


class ModelValidationError(ActiveHTError):
    """A model definition violates a structural invariant.

    Carries the full list of violations so callers can report all problems
    at once instead of fixing them one by one.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DomainError(ActiveHTError, ValueError):
    """Two densities live on different domains (or different kernel types)."""


class AssumptionError(ActiveHTError):
    """A computation requires a model assumption that does not hold.

    Typical case: some pair of hypotheses is indistinguishable under every
    action, so no policy can drive the error probability to zero.
    """


class BudgetError(ActiveHTError):
    """An exact computation would exceed its node/size budget."""


class HorizonError(ActiveHTError):
    """A policy failed to stop within the declared horizon."""


class UsageError(ActiveHTError):
    """Bad command-line usage (unknown flag, wrong model for a subcommand)."""
