"""Exception hierarchy shared by all modules.

The CLI maps these onto stable exit codes: ParseError -> 2,
BudgetExceededError -> 3, PreconditionError and NotRealizableError -> 4.
Every learner fits realizable samples only, so a sample or distribution no
class member matches is refused with NotRealizableError, never fitted
approximately.
"""


class CutoffLabError(Exception):
    """Base class for all library errors."""


class DomainMismatchError(CutoffLabError):
    """A hypothesis was evaluated on a point outside its domain."""


class NotRealizableError(CutoffLabError):
    """An interpolator was asked to fit a sample no class member matches."""


class BudgetExceededError(CutoffLabError):
    """A combinatorial search would exceed its configured budget.

    Refusal is explicit: we never silently return a truncated answer.
    ``lower_bound`` carries partial progress where one is meaningful
    (e.g. a dimension search that certified `lower_bound` before refusing).
    """

    def __init__(self, message, lower_bound=None):
        super().__init__(message)
        self.lower_bound = lower_bound


class PreconditionError(CutoffLabError):
    """Arguments violate a documented precondition (named in the message)."""


class ParseError(CutoffLabError):
    """Malformed serialized input (class file, rational string, config...)."""
