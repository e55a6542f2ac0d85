"""Linear structural equation models with independent, possibly
non-Gaussian errors: random generation, sampling, ground-truth effects.

Conventions: ``gamma[i, j]`` is the coefficient of vertex i in the equation
of vertex j, so X = Gamma' X + eps vertex-wise and nonzero entries are
confined to the directed edges of the DAG.  Error families are parameterized
the way the simulation protocol draws them (variance for gaussian and the
scaled t, scale for logistic, half-width for uniform).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (GraphValidationError, _check_fields, _check_seed, _finite, _flag,
                     _float_array, _integer, _read_json, _sequence, _write_json)
from .graph import Pdag, _check_query, graph_from_dict, graph_to_dict
from .identify import build_plan
from .estimate import _effect

__all__ = [
    "ERROR_FAMILIES",
    "ErrorSpec",
    "LinearSem",
    "rng_from_seed",
    "random_dag",
    "random_sem",
    "sample",
    "true_effect_pathsum",
    "true_effect_blockform",
    "sem_to_dict",
    "sem_from_dict",
    "save_sem",
    "load_sem",
]

# family -> (range random_sem draws the parameter from, variance(param),
# draw(rng, param, size)); the parameter is, in turn, the variance, the
# squared scale, the scale and the half-width
_FAMILIES = {
    "gaussian": ((0.5, 6.0), lambda a: a,
                 lambda rng, a, size: rng.normal(0.0, np.sqrt(a), size)),
    "scaled_t5": ((0.5, 1.5), lambda a: a * 5.0 / 3.0,
                  lambda rng, a, size: np.sqrt(a) * rng.standard_t(5, size)),
    "logistic": ((0.4, 0.7), lambda a: a**2 * np.pi**2 / 3.0,
                 lambda rng, a, size: rng.logistic(0.0, a, size)),
    "uniform": ((1.2, 2.1), lambda a: a**2 / 3.0,
                lambda rng, a, size: rng.uniform(-a, a, size)),
}
ERROR_FAMILIES = tuple(_FAMILIES)


def rng_from_seed(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator on a stream derived from (seed, *stream).

    ``seed`` must be an integer in [0, 2**64) and each stream entry a
    non-negative integer, else :class:`GraphValidationError`."""
    seed, stream = _check_seed(seed), tuple(_integer(s, "stream entry") for s in stream)
    if any(s < 0 for s in stream):
        raise GraphValidationError(f"stream entries must be non-negative, got {stream}")
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=stream))
    )


@dataclass(frozen=True)
class ErrorSpec:
    """One vertex's error distribution.

    ``family`` must be one of :data:`ERROR_FAMILIES` and ``param`` a finite
    number above 0 (stored as a Python float), else
    :class:`GraphValidationError`."""

    family: str
    param: float

    def __post_init__(self):
        if self.family not in ERROR_FAMILIES:
            raise GraphValidationError(f"unknown error family {self.family!r}")
        param = _finite(self.param, "param")
        if not param > 0:
            raise GraphValidationError("error parameter must be positive")
        object.__setattr__(self, "param", param)

    @property
    def variance(self) -> float:
        return _FAMILIES[self.family][1](self.param)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return _FAMILIES[self.family][2](rng, self.param, size)


def _causal_order(g: Pdag) -> list[int]:
    """Kahn's algorithm over the directed edges: a FIFO queue, children
    released in index order."""
    indeg = [len(pa) for pa in g._pa]
    out = [i for i, d in enumerate(indeg) if d == 0]
    for i in out:  # grows while read
        for j in sorted(g._ch[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                out.append(j)
    return out


@dataclass(frozen=True, eq=False)
class LinearSem:
    """A DAG plus edge coefficients and per-vertex error specs.

    ``gamma`` must be a finite p x p matrix of numbers that is zero off
    the DAG's edges, kept as a read-only copy, and ``errors`` a sequence of
    one :class:`ErrorSpec` per vertex, kept as a tuple, else
    :class:`GraphValidationError`."""

    graph: Pdag
    gamma: np.ndarray
    errors: tuple[ErrorSpec, ...]

    def __post_init__(self):
        if not self.graph.is_dag:
            raise GraphValidationError("a linear SEM needs a DAG, not a partial graph")
        # a read-only copy: the caller's array could change after the checks
        g = _float_array(self.gamma, "gamma", GraphValidationError).copy(order="K")
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "errors", _sequence(self.errors, "errors"))
        p = self.graph.n_vertices
        if g.shape != (p, p):
            raise GraphValidationError(f"gamma must be {p}x{p}, got {g.shape}")
        if not np.all(np.isfinite(g)):
            raise GraphValidationError("gamma contains non-finite values")
        if len(self.errors) != p:
            raise GraphValidationError("one error spec per vertex is required")
        bad = [e for e in self.errors if not isinstance(e, ErrorSpec)]
        if bad:
            raise GraphValidationError(f"errors must be ErrorSpec instances, got {bad[0]!r}")
        pa = self.graph._pa
        support = np.zeros((p, p), dtype=bool)
        support[[i for s in pa for i in s], [j for j, s in enumerate(pa) for _ in s]] = True
        if np.any(g[~support] != 0.0):
            raise GraphValidationError("gamma has nonzero entries off the edge set")

    @property
    def error_variances(self) -> np.ndarray:
        return np.array([e.variance for e in self.errors])

    def topological_order(self) -> list[int]:
        return _causal_order(self.graph)

    def implied_covariance(self) -> np.ndarray:
        """Population covariance (I - Gamma)^-T V (I - Gamma)^-1 in the
        graph's vertex order."""
        p = self.graph.n_vertices
        m = np.linalg.inv(np.eye(p) - self.gamma)
        s = m.T @ (self.error_variances[:, None] * m)
        return (s + s.T) / 2.0


def random_dag(p: int, expected_degree: float, rng: np.random.Generator) -> Pdag:
    """Erdos-Renyi skeleton with edge probability expected_degree/(p-1),
    oriented along a uniformly random causal order.  Labels are "1".."p".

    ``p`` must be an integer of at least 2 and ``expected_degree`` a finite
    number of at least 0, else :class:`GraphValidationError`."""
    p = _integer(p, "p")
    if p < 2:
        raise GraphValidationError("need at least two vertices")
    if not _finite(expected_degree, "expected_degree") >= 0:
        raise GraphValidationError(f"expected degree must be non-negative, got {expected_degree}")
    labels = tuple(str(i + 1) for i in range(p))
    order = rng.permutation(p)
    rank = np.empty(p, dtype=int)
    rank[order] = np.arange(p)
    q = min(1.0, expected_degree / (p - 1))
    rows, cols = np.triu_indices(p, 1)  # the pairs i < j in row order
    drawn = rng.random(len(rows)) < q
    edges = []
    for i, j in zip(rows[drawn].tolist(), cols[drawn].tolist()):
        u, v = (i, j) if rank[i] < rank[j] else (j, i)
        edges.append((labels[u], labels[v]))
    return Pdag(labels, edges, ())


def _check_family(family) -> None:
    if family not in (None, "mixed", *ERROR_FAMILIES):
        raise GraphValidationError(
            f"unknown error family {family!r}; expected None, 'mixed' or one of "
            f"{', '.join(ERROR_FAMILIES)}"
        )


def random_sem(
    dag: Pdag,
    rng: np.random.Generator,
    rescale: bool = False,
    family: str | None = None,
) -> LinearSem:
    """Draw coefficients and error specs for ``dag``.

    Coefficients are uniform on [-2, -0.1] + [0.1, 2].  ``family=None``
    draws one error family for the whole SEM, a name from
    :data:`ERROR_FAMILIES` pins it, and ``"mixed"`` draws one family per
    vertex; anything else raises :class:`GraphValidationError`.  With
    ``rescale=True``, incoming coefficients are shrunk, in causal order, so
    each implied marginal variance stays at most max(6, error variance +
    0.25); this keeps the variance profile flat without zeroing any edge.
    A ``rescale`` that is not a bool raises :class:`GraphValidationError`
    before any draw.
    """
    _check_family(family)
    rescale = _flag(rescale, "rescale")
    p = dag.n_vertices
    # per edge, in label order, a magnitude then a sign: the draws of
    # rng.uniform(0.1, 2.0) and rng.random() in turn, made in one call
    edges = [(dag._idx[u], dag._idx[v]) for u, v in dag.directed_edges]
    draws = rng.random(2 * len(edges))
    mag = 0.1 + (2.0 - 0.1) * draws[0::2]
    gamma = np.zeros((p, p))
    gamma[[i for i, _ in edges], [j for _, j in edges]] = np.where(draws[1::2] < 0.5, mag, -mag)

    def draw_family():
        return ERROR_FAMILIES[rng.integers(len(ERROR_FAMILIES))]

    if family == "mixed":  # a family, then its parameter, per vertex
        specs = []
        for _ in range(p):
            fam = draw_family()
            lo, hi = _FAMILIES[fam][0]
            specs.append(ErrorSpec(fam, float(rng.uniform(lo, hi))))
    else:
        fam = family or draw_family()
        lo, hi = _FAMILIES[fam][0]
        specs = [ErrorSpec(fam, a) for a in rng.uniform(lo, hi, p).tolist()]
    if rescale:
        _rescale(dag, gamma, np.array([e.variance for e in specs]))
    return LinearSem(dag, gamma, tuple(specs))


def _rescale(dag: Pdag, gamma: np.ndarray, v: np.ndarray) -> None:
    """Shrink each vertex's incoming column of ``gamma`` in place, in causal
    order, so its implied variance is at most max(6, v_j + 0.25).

    ``s`` is the implied covariance in causal-order coordinates: row and
    column t hold vertex ``order[t]``, so the vertices done are the block
    ``[:t]``.  The products' last bits depend on the layout of their
    operands, and seeded SEMs are pinned to the recursion in vertex
    coordinates through ``np.ix_`` (``tests/oracles.random_sem_loop_oracle``),
    whose gathers are C-contiguous; so are both gathers here.  An
    F-contiguous Sigma_pa,pa such as ``s[pt, :t][:, pt]`` changes the bits."""
    order = _causal_order(dag)
    pos = np.argsort(order)  # vertex -> its row in s
    s = np.zeros((len(order), len(order)))
    for t, j in enumerate(order):
        pa = sorted(dag._pa[j])
        if not pa:
            s[t, t] = v[j]
            continue
        pt = pos[pa]
        spp = s[pt[:, None], pt]
        g = gamma[pa, j]
        contrib = float(g @ spp @ g)
        budget = max(6.0 - v[j], 0.25)
        if contrib > budget:
            g *= np.sqrt(budget / contrib)
            gamma[pa, j] = g
            contrib = float(g @ spp @ g)
        s[t, :t] = s[:t, t] = g @ s[pt, :t]
        s[t, t] = v[j] + contrib


def sample(sem: LinearSem, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws by forward substitution in topological order; columns follow
    the graph's vertex order.  ``n`` must be an integer of at least 1, else
    :class:`GraphValidationError`."""
    n = _integer(n, "n")
    if n < 1:
        raise GraphValidationError(f"n must be at least 1, got {n}")
    p = sem.graph.n_vertices
    x = np.empty((n, p))
    for j in sem.topological_order():
        e = sem.errors[j].draw(rng, n)
        pa = sorted(sem.graph._pa[j])
        x[:, j] = (x[:, pa] @ sem.gamma[pa, j] + e) if pa else e
    return x


def true_effect_pathsum(
    sem: LinearSem, treatment: Sequence[str], outcome: str
) -> np.ndarray:
    """Ground truth by literal path enumeration: for each treatment vertex,
    the sum over directed paths to the outcome avoiding all other treatment
    vertices of the product of edge coefficients.  Exponential on purpose;
    an oracle, not a production path."""
    g = sem.graph
    a_idx, y = _check_query(g, treatment, outcome)
    a_set = set(a_idx)
    out = np.zeros(len(a_idx))

    def walk(v: int, prod: float, t: int) -> None:
        for c in sorted(g._ch[v]):
            w = prod * sem.gamma[v, c]
            if c == y:
                out[t] += w
            elif c not in a_set:
                walk(c, w, t)

    for t, a in enumerate(a_idx):
        walk(a, 1.0, t)
    return out


def true_effect_blockform(
    sem: LinearSem, treatment: Sequence[str], outcome: str
) -> np.ndarray:
    """Ground truth through the identification/effect machinery evaluated at
    the population coefficients.  A DAG's buckets are singletons, so the
    coefficient blocks are just columns of gamma, read in the plan's bucket
    order (which fixes the last bits of the result)."""
    g = sem.graph
    plan = build_plan(g, treatment, outcome)
    blocks = [sem.gamma[[g.index(u) for u in pa], g.index(v)].reshape(len(pa), 1)
              for (v,), pa in zip(plan.d_buckets, plan.parents_per_bucket)]
    return _effect(plan, blocks)[0]


# -- serialization -------------------------------------------------------------


def sem_to_dict(sem: LinearSem) -> dict:
    g = sem.graph
    return {
        "graph": graph_to_dict(g),
        "coefficients": [
            [u, v, float(sem.gamma[g.index(u), g.index(v)])]
            for u, v in g.directed_edges
        ],
        "errors": [
            {"family": e.family, "param": float(e.param)} for e in sem.errors
        ],
    }


def sem_from_dict(d: dict) -> LinearSem:
    """Build a SEM from the JSON structure of :func:`sem_to_dict`:
    ``{"graph": {...}, "coefficients": [[u, v, value], ...],
    "errors": [{"family": ..., "param": ...}, ...]}``.  A missing, unknown or
    malformed field raises :class:`GraphValidationError` naming it, and so
    do a coefficient for a vertex pair that is not a directed edge (zero
    included), a second coefficient for one edge and a coefficient or
    ``param`` that is not a finite number (a string or a bool is none)."""
    _check_fields(d, "SEM JSON", ("graph", "coefficients", "errors"))
    g = graph_from_dict(d["graph"])
    p = g.n_vertices
    gamma = np.zeros((p, p))
    seen = set()
    try:
        for u, v, val in d["coefficients"]:
            i, j = g.index(u), g.index(v)
            if not g.has_directed(u, v):
                raise GraphValidationError(f"coefficient {u!r} -> {v!r} is off the edge set")
            if (i, j) in seen:
                raise GraphValidationError(f"more than one coefficient for {u!r} -> {v!r}")
            seen.add((i, j))
            gamma[i, j] = _finite(val, f"coefficient {u!r} -> {v!r}")
    except (TypeError, ValueError):
        raise GraphValidationError("'coefficients' must be an array of [u, v, value]") from None
    try:
        errors = tuple(_error_spec(e) for e in d["errors"])
    except TypeError:  # 'errors' is not iterable
        raise GraphValidationError("'errors' must be an array of {family, param}") from None
    return LinearSem(g, gamma, errors)


def _error_spec(e: dict) -> ErrorSpec:
    """The :class:`ErrorSpec` of one SEM JSON error object, which must hold
    exactly the fields ``family`` and ``param`` (:func:`_check_fields`)."""
    _check_fields(e, "SEM error", ("family", "param"))
    return ErrorSpec(e["family"], e["param"])


def save_sem(sem: LinearSem, path) -> None:
    _write_json(sem_to_dict(sem), path)


def load_sem(path) -> LinearSem:
    """:func:`sem_from_dict` of a JSON file; a byte-order mark is ignored,
    and an object that repeats a field is refused (:func:`_unique_fields`)."""
    return sem_from_dict(_read_json(path))
