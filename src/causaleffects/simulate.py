"""Replicated benchmark comparing the bucketed-regression estimator with the
covariate-adjustment baseline on random linear SEMs.

Each replication draws a random DAG (expected degree sampled from
{2, 3, 4, 5}), keeps its CPDAG as the analyst's graph, draws a SEM and an
identified treatment/outcome query, samples data, and records squared errors
against the population truth.  Per-replication rows go to a versioned CSV;
the summary reports geometric-mean and median relative squared errors per
estimator, with the reference estimator identically 1.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (CausalEffectsError, GraphValidationError, NotIdentifiedError,
                     _check_seed, _flag, _integer)
from .estimate import (
    SampleCovariance,
    _adjustment_from_cov,
    effect_from_lambda,
    efficiency_bound,
    g_regression,
    sample_covariance,
)
from .graph import cpdag_from_dag, possible_descendants
from .identify import build_plan
from .sem import (_check_family, random_dag, random_sem, rng_from_seed, sample,
                  true_effect_blockform)

__all__ = ["REPORT_HEADER", "CSV_COLUMNS", "SimReport", "run_simulation"]

REPORT_HEADER = "# causal-effects simreport v2"

CSV_COLUMNS = [
    "rep",
    "seed",
    "n_vertices",
    "treat_size",
    "expected_degree",
    "family",
    "rescale",
    "n",
    "treatment",
    "outcome",
    "n_ay_redraws",
    "n_dag_redraws",
    "tau_true_sqnorm",
    "sq_err_g_regression",
    "sq_err_adjustment",
    "rel_sq_err_adjustment",
    "adj_pop_avar_ratio",
]

_AY_REDRAW_CAP = 200
_DAG_REDRAW_CAP = 50


@dataclass
class SimReport:
    """Per-replication records plus the aggregate comparison table."""

    params: dict
    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(REPORT_HEADER + "\n")
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for rec in self.records:
                writer.writerow({k: rec.get(k, "") for k in CSV_COLUMNS})

    def summary_json(self) -> str:
        return json.dumps(
            {"params": self.params, "summary": self.summary},
            indent=2,
            sort_keys=True,
        )


def _geometric_mean(values: list[float]) -> float:
    if any(v <= 0 for v in values):
        raise CausalEffectsError(
            "geometric mean needs strictly positive relative errors"
        )
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _median(values: list[float]) -> float:
    """``statistics.median``'s arithmetic, without importing that module
    (it imports ``fractions`` and ``decimal``): the middle item of the
    sorted values, or the mean of the two middle ones."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _draw_query(dag, cpdag, treat_size, rng):
    """Sample a treatment set among vertices with descendants and an outcome
    among their descendants until the effect is identified from the CPDAG.
    Returns (plan, redraws), with the plan from :func:`build_plan`, or None
    to request a fresh DAG."""
    candidates = [i for i in range(dag.n_vertices) if dag._ch[i]]
    if len(candidates) < treat_size:
        return None
    for redraw in range(_AY_REDRAW_CAP):
        picks = rng.choice(len(candidates), treat_size, replace=False)
        treatment = tuple(dag.vertices[i] for i in sorted(candidates[t] for t in picks))
        # on a DAG: the treatment and its descendants; never empty, since the
        # treatment's last vertex in causal order has a child outside it
        pool = sorted(map(dag.index, possible_descendants(dag, treatment).difference(treatment)))
        outcome = dag.vertices[pool[rng.integers(len(pool))]]
        try:
            return build_plan(cpdag, treatment, outcome), redraw
        except NotIdentifiedError:
            continue
    return None


def _population_avar_ratio(sem, plan, z):
    """Population OLS-adjustment avar over the efficiency bound, both exact."""
    sigma = SampleCovariance(sem.implied_covariance(), sem.graph.vertices)
    bound = efficiency_bound(plan, sigma, np.ones(1))
    adj = _adjustment_from_cov(sigma, plan.treatment, plan.outcome, tuple(z))
    return None if bound <= 1e-12 else float(adj.acov[0, 0]) / bound


def run_simulation(
    n_vertices: int,
    treat_size: int,
    n: int,
    reps: int,
    seed: int,
    rescale: bool = False,
    family: str | None = None,
) -> SimReport:
    """Run the benchmark; deterministic in ``seed`` (each replication uses
    its own counter-derived stream).  Each replication builds one
    identification plan on the CPDAG (while drawing the query) and uses it
    for the g-regression estimate and for the population variance ratio of
    parent adjustment over the efficiency bound; every regression fits the
    plan's buckets only, and the bound solves only the saturated blocks its
    sum reads (it tests those of every plan bucket).  One sample covariance
    per replication serves both the g-regression estimate and the
    adjustment baseline.  Before any
    draw, :class:`GraphValidationError` refuses a seed that is not an
    integer in [0, 2**64), a count among ``n_vertices``, ``treat_size``,
    ``n`` and ``reps`` that is not an integer, fewer than two vertices, a
    treatment size outside [1, n_vertices), a sample size n <= n_vertices,
    fewer than one replication, a ``rescale`` that is not a bool and a
    ``family`` that :func:`random_sem` refuses.  ``params`` holds the
    counts and the seed as Python ints and ``rescale`` as a Python bool."""
    seed = _check_seed(seed)
    n_vertices, treat_size = _integer(n_vertices, "n_vertices"), _integer(treat_size, "treat_size")
    n, reps = _integer(n, "n"), _integer(reps, "reps")
    rescale = _flag(rescale, "rescale")
    _check_family(family)
    if n_vertices < 2:
        raise GraphValidationError(f"need at least two vertices, got {n_vertices}")
    if not 1 <= treat_size < n_vertices:
        raise GraphValidationError(
            f"treatment size must be in [1, {n_vertices}), got {treat_size}"
        )
    if n <= n_vertices:
        raise GraphValidationError(
            f"need more samples than vertices, got n={n} for {n_vertices} vertices"
        )
    if reps < 1:
        raise GraphValidationError(f"need at least one replication, got {reps}")
    report = SimReport(
        params={
            "n_vertices": n_vertices,
            "treat_size": treat_size,
            "n": n,
            "reps": reps,
            "seed": seed,
            "rescale": rescale,
            "family": family,
        }
    )
    for rep in range(reps):
        rng = rng_from_seed(seed, rep)
        dag_redraws = 0
        while True:
            degree = int(rng.integers(2, 6))
            dag = random_dag(n_vertices, degree, rng)
            cpdag = cpdag_from_dag(dag)
            sem = random_sem(dag, rng, rescale=rescale, family=family)
            query = _draw_query(dag, cpdag, treat_size, rng)
            if query is not None:
                break
            dag_redraws += 1
            if dag_redraws > _DAG_REDRAW_CAP:
                raise CausalEffectsError(
                    "could not draw an identified query; graph family too hostile"
                )
        plan, ay_redraws = query
        treatment, outcome = plan.treatment, plan.outcome
        tau_true = true_effect_blockform(sem, treatment, outcome)
        cov = sample_covariance(sample(sem, n, rng), cpdag.vertices)
        tau = effect_from_lambda(g_regression(cov, plan), plan)
        sq_g = float(np.sum((tau - tau_true) ** 2))
        if sq_g == 0.0:
            raise CausalEffectsError(
                f"replication {rep}: reference estimator has exactly zero error; "
                "relative errors are undefined (degenerate query "
                f"{treatment} -> {outcome})"
            )
        rec = {
            "rep": rep,
            "seed": seed,
            "n_vertices": n_vertices,
            "treat_size": treat_size,
            "expected_degree": degree,
            "family": "mixed" if family == "mixed" else sem.errors[0].family,
            "rescale": int(rescale),
            "n": n,
            "treatment": ";".join(treatment),
            "outcome": outcome,
            "n_ay_redraws": ay_redraws,
            "n_dag_redraws": dag_redraws,
            "tau_true_sqnorm": float(np.sum(tau_true**2)),
            "sq_err_g_regression": sq_g,
        }
        if treat_size == 1:
            z = sorted(cpdag.parents_of(treatment[0]))
            if outcome not in z:
                adj = _adjustment_from_cov(cov, treatment, outcome, tuple(z))
                sq_a = float(np.sum((adj.tau - tau_true) ** 2))
                rec["sq_err_adjustment"] = sq_a
                rec["rel_sq_err_adjustment"] = sq_a / sq_g
                ratio = _population_avar_ratio(sem, plan, z)
                if ratio is not None:
                    rec["adj_pop_avar_ratio"] = ratio
        report.records.append(rec)

    rel_adj = [r["rel_sq_err_adjustment"] for r in report.records
               if "rel_sq_err_adjustment" in r]
    g_row = {
        "n_reps": reps,
        "geometric_mean_rel_sq_err": 1.0,
        "median_rel_sq_err": 1.0,
    }
    report.summary = {
        "g_regression": g_row,
        "adjustment": None
        if not rel_adj
        else {
            "n_reps": len(rel_adj),
            "geometric_mean_rel_sq_err": _geometric_mean(rel_adj),
            "median_rel_sq_err": float(_median(rel_adj)),
        },
    }
    return report
