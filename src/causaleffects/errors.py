"""Exception types shared across the package."""


class CausalEffectsError(Exception):
    """Base class for all package-specific errors."""


class GraphValidationError(CausalEffectsError):
    """The graph violates a structural invariant (cycle, duplicate edge,
    unknown vertex, rule-closure failure, unpeelable component, ...)."""


class InconsistentKnowledgeError(CausalEffectsError):
    """Background knowledge cannot be embedded in the given graph."""


class NotIdentifiedError(CausalEffectsError):
    """The requested total effect is not identified from the graph.

    ``path`` holds the labels of one proper possibly causal path from the
    treatment to the outcome that starts with an undirected edge, when the
    raiser found one."""

    def __init__(self, message: str, path: tuple[str, ...] | None = None):
        super().__init__(message)
        self.path = path


class DegenerateSampleError(CausalEffectsError):
    """The data cannot support the requested computation (too few rows,
    non-finite values, or a covariance matrix that is not positive definite)."""


class IllConditionedError(CausalEffectsError):
    """A linear solve was refused because the system is numerically singular."""

    def __init__(self, message: str, cond: float | None = None):
        super().__init__(message)
        self.cond = cond
