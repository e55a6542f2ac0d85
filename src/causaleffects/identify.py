"""Deciding whether a total effect is identified, and planning its estimation.

The criterion: the joint effect of a treatment set A on an outcome Y is
identified from an Mpdag exactly when no proper possibly causal path from A
to Y starts with an undirected edge.  When it is, the effect is a function
of the coefficient blocks of the buckets that intersect
D = An(Y) in the graph with A removed, and the plan below records which
buckets and parent sets those are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import GraphValidationError, NotIdentifiedError, _sequence
from .graph import (
    BucketDecomposition,
    Pdag,
    ancestors_in_subgraph,
    bucket_decomposition,
    proper_undirected_start_path,
)

__all__ = ["IdentificationPlan", "is_identified", "build_plan"]


@dataclass(frozen=True)
class IdentificationPlan:
    """Everything the estimator needs to know about one identified effect.

    ``bucket_order`` holds the indices (into the graph's bucket
    decomposition) of the buckets whose intersection with D is non-empty;
    ``d_buckets`` and ``parents_per_bucket`` are aligned with it.  ``d_set``
    is the concatenation of ``d_buckets`` and fixes the row/column order of
    the assembled coefficient matrices.
    """

    treatment: tuple[str, ...]
    outcome: str
    d_set: tuple[str, ...]
    bucket_order: tuple[int, ...]
    d_buckets: tuple[tuple[str, ...], ...]
    parents_per_bucket: tuple[tuple[str, ...], ...]
    buckets: BucketDecomposition


def is_identified(g: Pdag, treatment: Iterable[str], outcome: str) -> bool:
    """True when the joint total effect of ``treatment`` on ``outcome`` is
    identified from ``g``."""
    return proper_undirected_start_path(g, treatment, outcome) is None


def _render_path(g: Pdag, path: tuple[str, ...]) -> str:
    steps = [path[0]]
    for u, v in zip(path, path[1:]):
        steps.append(("-> " if g.has_directed(u, v) else "- ") + v)
    return " ".join(steps)


def build_plan(g: Pdag, treatment: Iterable[str], outcome: str) -> IdentificationPlan:
    """Construct the estimation plan, raising :class:`NotIdentifiedError`
    when the effect is not identified.

    The error's ``path`` attribute holds one blocking path: a proper
    possibly causal path from the treatment to the outcome whose first edge
    is undirected.

    The plan keeps only buckets with a non-empty intersection D_k with
    D = An(outcome) after removing the treatment, in ascending order, and
    reads only those: the graph's bucket decomposition (computed once per
    graph) names each vertex's bucket.  Identification guarantees two
    structural facts that are re-checked here: the parents of D_k equal
    the parents of the whole bucket, and every such parent lies in the
    treatment set or an earlier D_j.
    """
    treatment = _sequence(treatment, "treatment")
    path = proper_undirected_start_path(g, treatment, outcome)  # checks the query
    if path is not None:
        raise NotIdentifiedError(
            f"total effect of {sorted(treatment)} on {outcome!r} is not identified: "
            f"the proper possibly causal path {_render_path(g, path)} starts with "
            "an undirected edge",
            path=path,
        )
    d_set = ancestors_in_subgraph(g, outcome, removed=treatment)
    dec = bucket_decomposition(g)

    bucket_order: list[int] = []
    d_buckets: list[tuple[str, ...]] = []
    parents: list[tuple[str, ...]] = []
    earlier: set[str] = set(treatment)
    for k in sorted({dec.bucket_of(v) for v in d_set}):
        dk = tuple(v for v in dec.buckets[k] if v in d_set)
        pa_dk = set().union(*(g.parents_of(v) for v in dk)) - set(dk)
        pa_bucket = set(dec.external_parents[k])
        if pa_dk != pa_bucket:
            raise GraphValidationError(
                f"parents of D_k {dk} differ from the bucket's external parents"
            )
        if not pa_bucket <= earlier:
            raise GraphValidationError(
                f"bucket parents {sorted(pa_bucket)} escape treatment + earlier D"
            )
        bucket_order.append(k)
        d_buckets.append(dk)
        parents.append(dec.external_parents[k])
        earlier.update(dk)

    flat = tuple(v for dk in d_buckets for v in dk)
    return IdentificationPlan(
        treatment=treatment,
        outcome=outcome,
        d_set=flat,
        bucket_order=tuple(bucket_order),
        d_buckets=tuple(d_buckets),
        parents_per_bucket=tuple(parents),
        buckets=dec,
    )
