"""Total causal effects in linear systems from partial graph knowledge.

Given a maximally oriented partially directed acyclic graph (an MPDAG, which
includes DAGs and CPDAGs as special cases) and observational data from a
linear structural equation model with independent errors, this package
decides whether a joint total effect is identified, estimates it by
block-recursive least squares, and quantifies the estimate's asymptotic
covariance, which attains the efficiency bound among regular
graph-and-covariance estimators.  A simulation harness benchmarks the
estimator against covariate adjustment on random models.
"""

from .errors import *
from .graph import *
from .identify import *
from .estimate import *
from .sem import *
from .simulate import *
from . import errors, graph, identify, estimate, sem, simulate

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [*errors.__all__, *graph.__all__, *identify.__all__, *estimate.__all__,
           *sem.__all__, *simulate.__all__]
