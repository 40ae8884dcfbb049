"""Exact-arithmetic testbed for interpolator aggregation in realizable
regression under the cutoff loss."""

from .core import (
    CantorClass,
    CantorHypothesis,
    FiniteClass,
    FiniteDistribution,
    LabeledExample,
    Point,
    SplitCantorClass,
    SplitCantorHypothesis,
    TableHypothesis,
    cutoff_loss,
    empirical_cutoff_loss,
    sample_iid,
)
from .errors import (
    BudgetExceededError,
    CutoffLabError,
    DomainMismatchError,
    EmptySampleError,
    NotRealizableError,
    ParseError,
    PreconditionError,
)

__version__ = "0.1.0"
