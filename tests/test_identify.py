from __future__ import annotations

import pytest

from causaleffects import (
    GraphValidationError,
    Mpdag,
    NotIdentifiedError,
    Pdag,
    build_plan,
    is_identified,
    rng_from_seed,
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


def test_query_validation(three_bucket_graph):
    with pytest.raises(GraphValidationError):
        build_plan(three_bucket_graph, (), "5")
    with pytest.raises(GraphValidationError):
        build_plan(three_bucket_graph, ("1", "1"), "5")
    with pytest.raises(GraphValidationError):
        build_plan(three_bucket_graph, ("1",), "1")
    with pytest.raises(GraphValidationError):
        build_plan(three_bucket_graph, ("nope",), "5")
    with pytest.raises(GraphValidationError):
        build_plan(three_bucket_graph, ("1",), "nope")


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
