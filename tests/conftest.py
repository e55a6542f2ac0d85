from __future__ import annotations

import numpy as np
import pytest

from causaleffects import (
    ErrorSpec,
    LinearSem,
    Mpdag,
    construct_mpdag,
    cpdag_from_dag,
    rng_from_seed,
)

# ---------------------------------------------------------------------------
# acceptance criterion reporting: tests append (name, passed, detail) and a
# terminal-summary hook prints one line per criterion after the run.

_CRITERIA: list[tuple[str, bool, str]] = []


@pytest.fixture
def record_criterion():
    def _record(name: str, passed: bool, detail: str = "") -> None:
        _CRITERIA.append((name, passed, detail))

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _CRITERIA:
        status = "PASS" if passed else "FAIL"
        line = f"{name}: {status}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# shared graphs and models


@pytest.fixture
def three_bucket_graph() -> Mpdag:
    """Six vertices, three buckets {1}, {2,3,4}, {5,6}; the running example
    for bucket decomposition and identification."""
    return Mpdag(
        vertices=("1", "2", "3", "4", "5", "6"),
        directed=(("1", "2"), ("1", "3"), ("1", "4"), ("4", "5"), ("4", "6")),
        undirected=(("2", "3"), ("3", "4"), ("5", "6")),
    )


@pytest.fixture
def chain_sem() -> LinearSem:
    graph = Mpdag(
        vertices=("a", "m", "y"),
        directed=(("a", "m"), ("m", "y")),
        undirected=(),
    )
    gamma = np.zeros((3, 3))
    gamma[0, 1] = 2.0
    gamma[1, 2] = 3.0
    errors = tuple(ErrorSpec("gaussian", 1.0) for _ in range(3))
    return LinearSem(graph=graph, gamma=gamma, errors=errors)


@pytest.fixture
def confounder_sem() -> LinearSem:
    """c -> a, c -> y, a -> y with unit coefficients and variances: the
    adjusted effect of a on y is 1, the unadjusted regression slope 1.5."""
    graph = Mpdag(
        vertices=("c", "a", "y"),
        directed=(("c", "a"), ("c", "y"), ("a", "y")),
        undirected=(),
    )
    gamma = np.zeros((3, 3))
    gamma[0, 1] = 1.0
    gamma[0, 2] = 1.0
    gamma[1, 2] = 1.0
    errors = tuple(ErrorSpec("gaussian", 1.0) for _ in range(3))
    return LinearSem(graph=graph, gamma=gamma, errors=errors)


@pytest.fixture
def side_collider() -> tuple[Mpdag, np.ndarray]:
    """a -> y beside a collider z1 -> w <- z2, with its population covariance:
    the effect of a on y is 0.5, and the parents z1, z2 of w have correlation
    1 - 1e-12 (condition number ~2e12), so regressing w on them is refused.
    Vertex order a, y, z1, z2, w."""
    graph = Mpdag(
        vertices=("a", "y", "z1", "z2", "w"),
        directed=(("a", "y"), ("z1", "w"), ("z2", "w")),
    )
    sigma = np.eye(5)
    sigma[0, 1] = sigma[1, 0] = 0.5
    sigma[1, 1] = 1.25
    sigma[2, 3] = sigma[3, 2] = 1.0 - 1e-12
    return graph, sigma


# ---------------------------------------------------------------------------
# helpers


def exact_cov_data(sigma: np.ndarray, n: int) -> np.ndarray:
    """Data matrix whose uncentered sample covariance X'X/n equals sigma
    exactly (up to Cholesky rounding)."""
    p = sigma.shape[0]
    if n <= p:
        raise ValueError("need n > p rows")
    c = np.linalg.cholesky(sigma).T * np.sqrt(n)
    return np.vstack([c, np.zeros((n - p, p))])


def random_mpdag(
    rng: np.random.Generator, p: int, orient_frac: float = 0.4, degree: float = 2.5
):
    """A random MPDAG together with a DAG it represents: take a random DAG's
    CPDAG (expected degree ``degree``, at most p - 1) and feed back a subset
    of the dropped orientations as knowledge."""
    from causaleffects import random_dag

    dag = random_dag(p, expected_degree=min(degree, p - 1), rng=rng)
    cpdag = cpdag_from_dag(dag)
    dag_dir = set(dag.directed_edges)
    known = [
        (u, v) if (u, v) in dag_dir else (v, u)
        for u, v in cpdag.undirected_edges
        if rng.random() < orient_frac
    ]
    return construct_mpdag(cpdag, known), dag


@pytest.fixture
def make_exact_cov_data():
    return exact_cov_data


@pytest.fixture
def make_random_mpdag():
    return random_mpdag


@pytest.fixture
def rng():
    return rng_from_seed(20240817)
