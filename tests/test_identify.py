from __future__ import annotations

import re

import pytest

from causaleffects import (
    GraphValidationError,
    Mpdag,
    NotIdentifiedError,
    Pdag,
    bucket_decomposition,
    build_plan,
    exists_proper_possibly_causal_undirected_start,
    graph_from_dict,
    graph_to_dict,
    is_identified,
    proper_undirected_start_path,
    rng_from_seed,
    true_effect_blockform,
    true_effect_pathsum,
)

from .conftest import random_mpdag
from . import oracles


def test_identified_running_example(three_bucket_graph):
    assert is_identified(three_bucket_graph, ("1",), "5")
    assert not is_identified(three_bucket_graph, ("3",), "5")
    assert not is_identified(three_bucket_graph, ("3",), "6")
    assert is_identified(three_bucket_graph, ("3", "4"), "6")
    assert is_identified(three_bucket_graph, ("4",), "5")


def test_single_undirected_edge_not_identified():
    g = Mpdag(("a", "y"), undirected=(("a", "y"),))
    assert not is_identified(g, ("a",), "y")
    with pytest.raises(NotIdentifiedError, match="undirected") as info:
        build_plan(g, ("a",), "y")
    assert info.value.path == ("a", "y")
    assert "a - y" in str(info.value)


def test_dag_always_identified(rng):
    from causaleffects import random_dag

    for _ in range(10):
        d = random_dag(5, 2.0, rng)
        labels = list(d.vertices)
        assert is_identified(d, (labels[0],), labels[-1])


def test_plan_running_example(three_bucket_graph):
    plan = build_plan(three_bucket_graph, ("1",), "5")
    assert plan.treatment == ("1",)
    assert plan.outcome == "5"
    assert plan.d_set == ("4", "5")
    assert plan.bucket_order == (1, 2)
    assert plan.d_buckets == (("4",), ("5",))
    assert plan.parents_per_bucket == (("1",), ("4",))


def test_plan_outcome_only_when_effect_absent():
    # y is not a possible descendant of a: identified with tau = 0 and the
    # plan degenerates to the outcome bucket alone
    g = Pdag(("a", "x", "y"), directed=(("a", "x"), ("y", "x")))
    plan = build_plan(g, ("a",), "y")
    assert plan.d_set == ("y",)
    assert plan.parents_per_bucket == ((),)


# every function that takes a (treatment, outcome) query refuses the same ones
_QUERY_FUNCTIONS = {
    "build_plan": lambda sem, a, y: build_plan(sem.graph, a, y),
    "is_identified": lambda sem, a, y: is_identified(sem.graph, a, y),
    "proper_undirected_start_path":
        lambda sem, a, y: proper_undirected_start_path(sem.graph, a, y),
    "exists_proper_possibly_causal_undirected_start":
        lambda sem, a, y: exists_proper_possibly_causal_undirected_start(sem.graph, a, y),
    "true_effect_pathsum": true_effect_pathsum,
    "true_effect_blockform": true_effect_blockform,
}


@pytest.mark.parametrize(
    "treatment, outcome, message",
    [
        pytest.param((), "y", "treatment set is empty", id="empty"),
        pytest.param(("a", "a"), "y", "treatment labels must be distinct", id="repeated"),
        pytest.param(("nope",), "y", "unknown vertex label 'nope'", id="unknown-treatment"),
        pytest.param(("a",), "nope", "unknown vertex label 'nope'", id="unknown-outcome"),
        pytest.param(("a", "y"), "y", "outcome cannot be part of the treatment set",
                     id="outcome-in-treatment"),
    ],
)
@pytest.mark.parametrize("function", list(_QUERY_FUNCTIONS))
def test_query_validation(chain_sem, function, treatment, outcome, message):
    with pytest.raises(GraphValidationError, match=re.escape(message)):
        _QUERY_FUNCTIONS[function](chain_sem, treatment, outcome)


def test_joint_treatment_blocks_proper_paths(three_bucket_graph):
    # {3,4} -> 6 is identified because every possibly causal path out of 3
    # starting undirected runs through 4; D is the outcome alone
    plan = build_plan(three_bucket_graph, ("3", "4"), "6")
    assert plan.d_set == ("6",)
    assert set(plan.parents_per_bucket[0]) <= {"3", "4"}


def test_plan_parent_closure(rng):
    """Identified queries admit a plan whose bucket parents lie in the
    treatment joined with earlier effect vertices."""
    made = 0
    for _ in range(60):
        g, _ = random_mpdag(rng, int(rng.integers(3, 8)))
        labels = list(g.vertices)
        y = labels[int(rng.integers(len(labels)))]
        rest = [v for v in labels if v != y]
        k = int(rng.integers(1, min(3, len(rest)) + 1))
        a = sorted(rng.choice(rest, size=k, replace=False), key=labels.index)
        if not is_identified(g, a, y):
            with pytest.raises(NotIdentifiedError):
                build_plan(g, a, y)
            continue
        plan = build_plan(g, a, y)
        made += 1
        seen: set[str] = set(a)
        for dk, pa in zip(plan.d_buckets, plan.parents_per_bucket):
            assert set(pa) <= seen
            seen |= set(dk)
        assert y in plan.d_set
        assert not set(plan.d_set) & set(a)
    assert made >= 10


def _plan_or_refusal(plan_of, g, a, y):
    """The plan, or the refusal as (type, message, path)."""
    try:
        return plan_of(g, a, y)
    except (NotIdentifiedError, GraphValidationError) as e:
        return type(e), str(e), getattr(e, "path", None)


def test_plan_reads_only_d_buckets_as_walking_all_did():
    """On random MPDAGs, with and without knowledge, every query gets the
    same plan (all fields) or the same refusal (message and path) three
    ways: on a graph whose decomposition is already kept, on a fresh strict
    load of its edges, and from the all-buckets walk of the oracle."""
    rng = rng_from_seed(7316)
    n_plans = n_chained = n_refused = 0
    for i in range(300):
        g, _ = random_mpdag(rng, int(rng.integers(3, 11)), orient_frac=0.4 * (i % 2))
        warm = bucket_decomposition(g)
        labels = list(g.vertices)
        for _ in range(3):
            y = labels[int(rng.integers(len(labels)))]
            rest = [v for v in labels if v != y]
            k = int(rng.integers(1, min(3, len(rest)) + 1))
            a = [str(v) for v in rng.choice(rest, size=k, replace=False)]
            got = _plan_or_refusal(build_plan, g, a, y)
            fresh = graph_from_dict(graph_to_dict(g), strict=True)
            assert _plan_or_refusal(build_plan, fresh, a, y) == got, (g, a, y)
            assert _plan_or_refusal(oracles.build_plan_all_buckets, g, a, y) == got, (g, a, y)
            if isinstance(got, tuple):
                n_refused += 1
            else:
                assert got.buckets is warm
                n_plans += 1
                n_chained += len(got.bucket_order) > 1
    assert n_plans >= 400 and n_chained >= 100 and n_refused >= 300


def test_identified_agrees_with_bruteforce(rng):
    """Spot-check of the graphical criterion against refitting every DAG
    in the class to a generic covariance (the full sweep lives in the
    acceptance suite)."""
    n_cases = n_id = 0
    for _ in range(40):
        g, _ = random_mpdag(rng, int(rng.integers(3, 6)))
        labels = list(g.vertices)
        y = labels[int(rng.integers(len(labels)))]
        rest = [v for v in labels if v != y]
        k = int(rng.integers(1, 3)) if len(rest) > 1 else 1
        a = sorted(rng.choice(rest, size=min(k, len(rest)), replace=False))
        want, _ = oracles.identified_bruteforce(g, a, y, rng)
        got = is_identified(g, a, y)
        assert got == want, (g.directed_edges, g.undirected_edges, a, y)
        n_cases += 1
        n_id += got
    assert n_cases == 40 and 0 < n_id < 40
