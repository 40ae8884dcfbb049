"""Exception hierarchy shared by all modules.

The CLI maps these onto stable exit codes: ParseError -> 2,
BudgetExceededError -> 3, PreconditionError and its subclasses
DomainMismatchError and NotRealizableError -> 4.  Every learner fits
realizable blocks only, so a block that no class member matches is refused
with NotRealizableError, never fitted approximately; ``estimate`` refuses a
support no class member realizes before any trial.
"""


class CutoffLabError(Exception):
    """Base class for all library errors."""


class BudgetExceededError(CutoffLabError):
    """A combinatorial search would exceed its configured budget.

    Refusal is explicit: we never silently return a truncated answer, and any
    progress certified before it (a dimension search's size) is in the message.
    """


class PreconditionError(CutoffLabError):
    """Arguments violate a documented precondition (named in the message)."""


class DomainMismatchError(PreconditionError):
    """A hypothesis was evaluated on a point outside its domain."""


class NotRealizableError(PreconditionError):
    """An interpolator was asked to fit a sample no class member matches."""


class ParseError(CutoffLabError):
    """Malformed serialized input (class file, rational string, config...)."""
