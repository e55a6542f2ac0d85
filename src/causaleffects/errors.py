"""Exception types shared across the package, and the one rule for what a
count, a finite number, a flag, a float array, a JSON object, a sequence and
a map from vertex labels to positions are; also the package's one JSON file
format (:func:`_read_json`, :func:`_json_text`, :func:`_write_json`)."""

import json
import math

import numpy as np

__all__ = [
    "CausalEffectsError",
    "DegenerateSampleError",
    "GraphValidationError",
    "IllConditionedError",
    "InconsistentKnowledgeError",
    "NotIdentifiedError",
]


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


def _unique_fields(pairs) -> dict:
    """The ``object_pairs_hook`` of the JSON readers: an object's fields as a
    dict, refusing a field given twice with :class:`GraphValidationError`
    naming it (``json`` alone would keep its last value)."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise GraphValidationError(f"JSON object repeats the {key!r} field")
        d[key] = value
    return d


def _read_json(path):
    """The JSON value in the file at ``path``: UTF-8, a leading byte-order
    mark ignored, and an object that repeats a field refused
    (:func:`_unique_fields`)."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return json.load(fh, object_pairs_hook=_unique_fields)


def _json_text(obj) -> str:
    """The package's one JSON text form, of its files and printed results
    alike: two-space indent, sorted keys, non-ASCII characters escaped."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _write_json(obj, path) -> None:
    """Write ``obj`` to the file at ``path`` as :func:`_json_text` and a
    trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(obj) + "\n")


def _check_seed(seed) -> int:
    """``seed`` as a Python int when it is an integer in [0, 2**64), the
    keys of the 64-bit Philox generators that the bootstrap and the
    simulation draw from; raises :class:`GraphValidationError` otherwise."""
    value = _integer(seed, "seed")
    if not 0 <= value < 2**64:
        raise GraphValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return value


def _sequence(value, name: str) -> tuple:
    """``value`` as a tuple when it is iterable (read once, so a generator
    serves; a string gives its characters); raises
    :class:`GraphValidationError` naming ``name`` otherwise."""
    try:
        return tuple(value)
    except TypeError:
        raise GraphValidationError(f"{name} must be a sequence, got {value!r}") from None


def _label_map(labels: tuple) -> dict:
    """Each of ``labels`` -> its position: the one map from vertex labels to
    positions, kept by graphs, covariances and estimators alike.  A
    repeated or unhashable label raises :class:`GraphValidationError`; so
    does a lookup of a label the map lacks, by :func:`_unknown_label`."""
    index = {}
    for i, v in enumerate(labels):
        try:
            if index.setdefault(v, i) != i:
                raise GraphValidationError(f"duplicate vertex label {v!r}")
        except TypeError:
            raise GraphValidationError(f"unhashable vertex label {v!r}") from None
    return index


def _unknown_label(label) -> GraphValidationError:
    """The error for looking up ``label`` in a :func:`_label_map` that lacks
    it or cannot hash it.  A hot lookup raises it from its own ``except
    (KeyError, TypeError)``; the others call :func:`_positions`."""
    return GraphValidationError(f"unknown vertex label {label!r}")


def _positions(index: dict, labels) -> list[int]:
    """The position of each of ``labels`` in ``index``, a :func:`_label_map`;
    raises :func:`_unknown_label` for the first label it lacks."""
    out = []
    for v in labels:
        try:
            out.append(index[v])
        except (KeyError, TypeError):
            raise _unknown_label(v) from None
    return out
