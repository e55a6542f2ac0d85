"""Exception types shared across the package, and the one rule for what a
count, a finite number, a flag, a float array and a JSON object are."""

import math

import numpy as np


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


def _integer(value, name: str) -> int:
    """``value`` as a Python int when it is a Python or numpy integer and
    not a bool; raises :class:`GraphValidationError` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise GraphValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _finite(value, name: str) -> float:
    """``value`` as a Python float when it is a finite Python or numpy int
    or float and not a bool; raises :class:`GraphValidationError`
    otherwise."""
    if isinstance(value, (float, int, np.floating, np.integer)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise GraphValidationError(f"{name} must be a finite number, got {value!r}")


def _flag(value, name: str) -> bool:
    """``value`` as a Python bool when it is a Python or numpy bool; raises
    :class:`GraphValidationError` otherwise."""
    if not isinstance(value, (bool, np.bool_)):
        raise GraphValidationError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _float_array(value, name: str, error: type[CausalEffectsError]) -> np.ndarray:
    """``value`` as a float array; ``error`` when an entry is not a number."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise error(f"{name} must hold numbers: {e}") from None


def _check_fields(d, what: str, keys: tuple[str, ...]) -> None:
    """Refuse ``d`` with :class:`GraphValidationError` unless it is a dict
    holding exactly the fields ``keys``; ``what`` names it in the message."""
    if not isinstance(d, dict):
        raise GraphValidationError(f"{what} must be an object")
    for key in keys:
        if key not in d:
            raise GraphValidationError(f"{what} is missing the {key!r} field")
    extras = set(d) - set(keys)
    if extras:
        raise GraphValidationError(f"unknown {what} fields: {sorted(extras, key=str)}")


def _check_seed(seed) -> int:
    """``seed`` as a Python int when it is an integer in [0, 2**64), the
    keys of the 64-bit Philox generators that the bootstrap and the
    simulation draw from; raises :class:`GraphValidationError` otherwise."""
    value = _integer(seed, "seed")
    if not 0 <= value < 2**64:
        raise GraphValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return value
