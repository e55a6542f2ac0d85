"""End-to-end acceptance checks, one test per numbered contract.

Every stochastic suite runs under a frozen seed, so the whole file is
deterministic.  Each test records a PASS/FAIL line that the conftest
terminal-summary hook prints after the run.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from causaleffects import (
    BucketDecomposition,
    ERROR_FAMILIES,
    Mpdag,
    NotIdentifiedError,
    Pdag,
    SampleCovariance,
    bucket_decomposition,
    build_plan,
    construct_mpdag,
    covariance_map,
    cpdag_from_dag,
    estimate_total_effect,
    gbar_regression,
    is_identified,
    meek_closure,
    possible_descendants,
    random_dag,
    random_sem,
    rng_from_seed,
    run_simulation,
    sample,
    saturated_mpdag,
    save_graph,
    true_effect_blockform,
    true_effect_pathsum,
)
from causaleffects.cli import main

from . import oracles
from .conftest import exact_cov_data, random_mpdag


def _geomean(values) -> float:
    v = np.asarray(values, dtype=float)
    return float(np.exp(np.mean(np.log(v))))


def _canonical(g):
    return (g.directed_edges, g.undirected_edges)


def _all_cpdags(labels):
    """Every CPDAG on the given vertices, from every labelled DAG."""
    out = {cpdag_from_dag(Pdag(labels, tuple(sorted(e)))) for e in oracles.all_dags(labels)}
    return sorted(out, key=_canonical)


def _random_query(g, rng, p_joint=1 / 3):
    """A treatment set (singleton or pair) and a distinct outcome."""
    labels = g.vertices
    k = 2 if (len(labels) > 2 and rng.random() < p_joint) else 1
    idx = rng.choice(len(labels), size=k + 1, replace=False)
    return tuple(labels[i] for i in sorted(idx[:k])), labels[idx[k]]


def _identified_query(g, rng, tries=40, p_joint=1 / 3, downstream=False):
    """With ``downstream`` the outcome is drawn among possible descendants of
    the treatment, so the effect is usually nonzero."""
    labels = g.vertices
    for _ in range(tries):
        if not downstream:
            treatment, outcome = _random_query(g, rng, p_joint)
        else:
            k = 2 if (len(labels) > 2 and rng.random() < p_joint) else 1
            idx = rng.choice(len(labels), size=k, replace=False)
            treatment = tuple(labels[i] for i in sorted(idx))
            cand = sorted(
                (v for v in possible_descendants(g, treatment) if v not in treatment),
                key=labels.index,
            )
            if not cand:
                continue
            outcome = cand[int(rng.integers(len(cand)))]
        if is_identified(g, treatment, outcome):
            return treatment, outcome
    return None


# ---------------------------------------------------------------------------
# 1. identification decision against brute-force refitting


_C1_SEED = 811


def test_c1_identification_matches_bruteforce(record_criterion):
    t0 = time.perf_counter()
    rng = rng_from_seed(_C1_SEED)
    n_graphs = n_queries = n_identified = 0
    mismatches = []

    def check(g, treatment, outcome):
        nonlocal n_queries, n_identified
        lib = is_identified(g, treatment, outcome)
        ora, spread = oracles.identified_bruteforce(g, treatment, outcome, rng)
        n_queries += 1
        n_identified += lib
        if lib != ora:
            mismatches.append((_canonical(g), treatment, outcome, lib, spread))

    # every CPDAG on 2-4 vertices plus every single-edge knowledge closure,
    # checked on all ordered vertex pairs
    for labels in (("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")):
        graphs = set()
        for c in _all_cpdags(labels):
            graphs.add(c)
            for u, v in c.undirected_edges:
                graphs.add(construct_mpdag(c, [(u, v)]))
                graphs.add(construct_mpdag(c, [(v, u)]))
        n_graphs += len(graphs)
        for g in sorted(graphs, key=_canonical):
            for a in labels:
                for y in labels:
                    if a != y:
                        check(g, (a,), y)

    # every CPDAG on 5 vertices with one random query, plus one sampled
    # knowledge closure each where there is an edge left to orient
    for c in _all_cpdags(("a", "b", "c", "d", "e")):
        n_graphs += 1
        check(c, *_random_query(c, rng))
        if c.undirected_edges:
            u, v = c.undirected_edges[int(rng.integers(len(c.undirected_edges)))]
            if rng.random() < 0.5:
                u, v = v, u
            m = construct_mpdag(c, [(u, v)])
            n_graphs += 1
            check(m, *_random_query(m, rng))

    # sampled 6-vertex layer and 500 random 8-vertex cases, both within the
    # undirected-edge budget, a third of the queries joint
    for p, budget, count in ((6, 6, 300), (8, 8, 500)):
        made = 0
        while made < count:
            g, _ = random_mpdag(rng, p)
            if len(g.undirected_edges) > budget:
                continue
            made += 1
            n_graphs += 1
            check(g, *_random_query(g, rng))

    ok = not mismatches
    record_criterion(
        "C1 identification decision == brute-force refit oracle",
        ok,
        f"{n_graphs} graphs, {n_queries} queries, {n_identified} identified, "
        f"{len(mismatches)} mismatches, {time.perf_counter() - t0:.0f}s",
    )
    assert ok, mismatches[:3]


# ---------------------------------------------------------------------------
# 2. estimates from the population covariance equal the truth


_C2_SEED = 1207


def test_c2_population_exactness(record_criterion):
    t0 = time.perf_counter()
    rng = rng_from_seed(_C2_SEED)
    worst_fit = worst_oracle_gap = 0.0
    made = n_nonzero = 0
    while made < 500:
        p = int(rng.integers(3, 10))
        dag = random_dag(p, min(3.0, p - 1.0), rng)
        cpdag = cpdag_from_dag(dag)
        query = _identified_query(cpdag, rng, downstream=rng.random() < 0.8)
        if query is None:
            continue
        treatment, outcome = query
        sem = random_sem(dag, rng, rescale=True)
        pop = SampleCovariance(sem.implied_covariance(), dag.vertices)
        est = estimate_total_effect(cpdag, treatment, outcome, cov=pop)
        t_path = true_effect_pathsum(sem, treatment, outcome)
        t_block = true_effect_blockform(sem, treatment, outcome)
        worst_fit = max(worst_fit, float(np.max(np.abs(est.tau - t_path))))
        worst_oracle_gap = max(
            worst_oracle_gap, float(np.max(np.abs(t_path - t_block)))
        )
        n_nonzero += bool(np.max(np.abs(t_path)) > 1e-12)
        made += 1
    ok = worst_fit <= 1e-9 and worst_oracle_gap <= 1e-10 and n_nonzero >= 150
    record_criterion(
        "C2 population-covariance estimates equal both truth oracles",
        ok,
        f"500 SEMs ({n_nonzero} nonzero effects), max |tau-truth| {worst_fit:.1e}, "
        f"max oracle gap {worst_oracle_gap:.1e}, {time.perf_counter() - t0:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. saturated regression and covariance map invert each other


_C3_SEED = 115


def test_c3_regression_covariance_roundtrip(record_criterion):
    rng = rng_from_seed(_C3_SEED)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 31))
        a = rng.normal(size=(p, p))
        sigma = a @ a.T / p + (0.5 + rng.random()) * np.eye(p)
        labels = tuple(f"v{i + 1}" for i in range(p))
        n_cuts = int(rng.integers(0, min(6, p)))
        cuts = sorted(rng.choice(np.arange(1, p), size=n_cuts, replace=False).tolist())
        bounds = [0, *cuts, p]
        dec = BucketDecomposition(
            vertex_order=labels,
            buckets=tuple(
                tuple(labels[bounds[i]: bounds[i + 1]])
                for i in range(len(bounds) - 1)
            ),
            external_parents=tuple(
                tuple(labels[: bounds[i]]) for i in range(len(bounds) - 1)
            ),
        )
        model = gbar_regression(SampleCovariance(sigma, labels), dec)
        worst = max(worst, float(np.max(np.abs(covariance_map(model) - sigma))))
    ok = worst <= 1e-10
    record_criterion(
        "C3 covariance_map inverts the saturated regression",
        ok,
        f"100 SPD matrices up to 30x30, max abs gap {worst:.1e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. the plug-in asymptotic covariance is what the sampling distribution does


_C4_SEED = 425


@pytest.mark.slow
def test_c4_asymptotic_covariance_calibration(record_criterion):
    t0 = time.perf_counter()
    n = n_reps = 2000
    per_family = []
    ok = True
    for fi, family in enumerate(ERROR_FAMILIES):
        worst = 0.0
        for s in range(5):
            rng = rng_from_seed(_C4_SEED, fi, s)
            # redraw until the query has a genuinely random limit (zero-effect
            # queries estimate exactly zero on every sample and test nothing)
            while True:
                p = int(rng.integers(4, 16))
                dag = random_dag(p, float(rng.integers(2, 5)), rng)
                cpdag = cpdag_from_dag(dag)
                query = _identified_query(cpdag, rng)
                if query is None:
                    continue
                treatment, outcome = query
                sem = random_sem(dag, rng, rescale=True, family=family)
                pop = SampleCovariance(sem.implied_covariance(), dag.vertices)
                plug = estimate_total_effect(cpdag, treatment, outcome, cov=pop).acov
                if np.linalg.norm(plug) > 1e-8:
                    break
            taus = np.empty((n_reps, len(treatment)))
            for r in range(n_reps):
                x = sample(sem, n, rng_from_seed(_C4_SEED, fi, s, r + 1))
                taus[r] = estimate_total_effect(
                    cpdag, treatment, outcome, data=x
                ).tau
            emp = n * np.atleast_2d(np.cov(taus, rowvar=False))
            rel = float(np.linalg.norm(emp - plug) / np.linalg.norm(plug))
            worst = max(worst, rel)
        per_family.append(f"{family} {worst:.3f}")
        ok = ok and worst <= 0.10
    record_criterion(
        "C4 empirical sqrt(n) covariance within 10% of the plug-in",
        ok,
        "max rel Frobenius gap per family: "
        + ", ".join(per_family)
        + f", {time.perf_counter() - t0:.0f}s",
    )
    assert ok, per_family


# ---------------------------------------------------------------------------
# 5. parent adjustment never beats the bucketed regression


_C5_SEED = 426


def test_c5_efficiency_dominance(record_criterion):
    t0 = time.perf_counter()
    report = run_simulation(
        n_vertices=20, treat_size=1, n=1000, reps=500, seed=_C5_SEED
    )
    summary = report.summary["adjustment"]
    confounded = [
        r["rel_sq_err_adjustment"]
        for r in report.records
        if r.get("adj_pop_avar_ratio", 0.0) > 1.2
    ]
    overall = summary["geometric_mean_rel_sq_err"]
    sub = _geomean(confounded) if confounded else float("nan")
    ok = overall >= 1.0 and len(confounded) >= 30 and sub > 1.05
    record_criterion(
        "C5 adjustment relative error >= 1 overall, > 1.05 when confounded",
        ok,
        f"geomean {overall:.3f} over {summary['n_reps']} reps, "
        f"confounded subset geomean {sub:.3f} over {len(confounded)}, "
        f"{time.perf_counter() - t0:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. graph layer on its defining examples


def test_c6_graph_layer_conformance(record_criterion, three_bucket_graph):
    failures = []

    def check(label, cond):
        if not cond:
            failures.append(label)

    dec = bucket_decomposition(three_bucket_graph)
    check("buckets", dec.buckets == (("1",), ("2", "3", "4"), ("5", "6")))
    check("bucket parents", dec.external_parents == ((), ("1",), ("4",)))

    s = saturated_mpdag(three_bucket_graph)
    check(
        "saturation",
        set(s.directed_edges) - set(three_bucket_graph.directed_edges)
        == {("1", "5"), ("1", "6"), ("2", "5"), ("2", "6"), ("3", "5"), ("3", "6")}
        and set(s.undirected_edges) == set(three_bucket_graph.undirected_edges),
    )

    r1 = meek_closure(Pdag(("a", "b", "c"), (("a", "b"),), (("b", "c"),)))
    check("rule 1", ("b", "c") in r1.directed_edges)
    r2 = meek_closure(Pdag(("a", "b", "c"), (("a", "b"), ("b", "c")), (("a", "c"),)))
    check("rule 2", ("a", "c") in r2.directed_edges)
    r3 = meek_closure(
        Pdag(("a", "b", "c", "d"), (("a", "b"), ("c", "b")),
             (("d", "a"), ("d", "b"), ("d", "c")))
    )
    check("rule 3", ("d", "b") in r3.directed_edges and r3.has_undirected("d", "a"))
    r4 = meek_closure(
        Pdag(("a", "b", "c", "d"), (("a", "b"), ("b", "c")),
             (("d", "a"), ("d", "b"), ("d", "c")))
    )
    check("rule 4", ("d", "c") in r4.directed_edges and r4.has_undirected("d", "b"))

    # refusal on the example query whose causal path starts undirected
    check("refusal decision", not is_identified(three_bucket_graph, ("3",), "5"))
    try:
        build_plan(three_bucket_graph, ("3",), "5")
        check("refusal raise", False)
    except NotIdentifiedError:
        pass
    check("positive decision", is_identified(three_bucket_graph, ("1",), "5"))

    # feeding the same knowledge in any order reaches the same closure
    rng = rng_from_seed(612)
    while True:
        dag = random_dag(8, 3.0, rng)
        cpdag = cpdag_from_dag(dag)
        if len(cpdag.undirected_edges) >= 4:
            break
    dag_dir = set(dag.directed_edges)
    knowledge = [
        (u, v) if (u, v) in dag_dir else (v, u) for u, v in cpdag.undirected_edges
    ]
    base = construct_mpdag(cpdag, knowledge)
    check(
        "knowledge order invariance",
        all(
            construct_mpdag(
                cpdag, [knowledge[i] for i in rng.permutation(len(knowledge))]
            )
            == base
            for _ in range(100)
        ),
    )

    ok = not failures
    record_criterion(
        "C6 graph layer reproduces its worked examples exactly",
        ok,
        "all exact" if ok else "failed: " + ", ".join(failures),
    )
    assert ok, failures


# ---------------------------------------------------------------------------
# 7. bootstrap interval coverage


_C7_SEED = 888


@pytest.mark.slow
def test_c7_bootstrap_coverage(record_criterion, chain_sem):
    t0 = time.perf_counter()
    truth = 6.0
    n_datasets = 1000
    covered = 0
    for i in range(n_datasets):
        x = sample(chain_sem, 1000, rng_from_seed(_C7_SEED, i))
        est = estimate_total_effect(
            chain_sem.graph, ("a",), "y", data=x, n_boot=500, level=0.95, seed=i
        )
        covered += bool(est.ci_lower[0] <= truth <= est.ci_upper[0])
    rate = covered / n_datasets
    ok = 0.93 <= rate <= 0.97
    record_criterion(
        "C7 bootstrap 95% intervals cover the truth 93-97% of the time",
        ok,
        f"coverage {rate:.3f} over {n_datasets} datasets "
        f"(n=1000, B=500), {time.perf_counter() - t0:.0f}s",
    )
    assert ok, rate


# ---------------------------------------------------------------------------
# 8. command-line contract


def test_c8_cli_contract(record_criterion, tmp_path, capsys, three_bucket_graph):
    results = []

    def run(want, *argv):
        code = main(list(argv))
        capsys.readouterr()
        results.append((want, code, argv))
        return code == want

    graph_path = tmp_path / "g.json"
    save_graph(three_bucket_graph, graph_path)
    chain_path = tmp_path / "chain.json"
    save_graph(Mpdag(("a", "m", "y"), (("a", "m"), ("m", "y"))), chain_path)
    open_path = tmp_path / "open.json"
    save_graph(Pdag(("a", "b", "c"), (("a", "b"),), (("b", "c"),)), open_path)
    und_path = tmp_path / "und.json"
    save_graph(
        Mpdag(("a", "m", "y"), (), (("a", "m"), ("m", "y"), ("a", "y"))), und_path
    )
    collider_path = tmp_path / "collider.json"
    save_graph(Mpdag(("z1", "z2", "b"), (("z1", "b"), ("z2", "b"))), collider_path)

    rng = rng_from_seed(4242)
    data_path = tmp_path / "d.csv"
    rows = rng.standard_normal((200, 3))
    data_path.write_text(
        "a,m,y\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n"
    )
    short_path = tmp_path / "short.csv"
    short_path.write_text("a,m\n0.1,0.2\n0.3,0.4\n")
    ill_path = tmp_path / "ill.csv"
    sigma = np.array([[1.0, 1.0 - 1e-12, 0.0], [1.0 - 1e-12, 1.0, 0.0], [0.0, 0.0, 1.0]])
    ill = exact_cov_data(sigma, 10)
    ill_path.write_text(
        "z1,z2,b\n" + "\n".join(",".join(map(str, r)) for r in ill) + "\n"
    )

    checks = [
        run(0, "graph", "validate", "--graph", str(graph_path)),
        run(2, "graph", "validate", "--graph", str(open_path)),
        run(0, "graph", "buckets", "--graph", str(graph_path)),
        run(0, "graph", "saturate", "--graph", str(graph_path)),
        run(2, "graph", "cpdag", "--graph", str(graph_path)),
        run(0, "graph", "cpdag", "--graph", str(chain_path)),
        run(3, "graph", "validate", "--graph", str(tmp_path / "missing.json")),
        run(0, "id", "--graph", str(graph_path), "--treat", "1", "--outcome", "5"),
        run(1, "id", "--graph", str(graph_path), "--treat", "3", "--outcome", "5"),
        run(3, "id", "--graph", str(graph_path), "--treat", "nope", "--outcome", "5"),
        run(2, "id", "--graph", str(open_path), "--treat", "a", "--outcome", "c"),
        run(0, "estimate", "--graph", str(chain_path), "--data", str(data_path),
            "--treat", "a", "--outcome", "y"),
        run(1, "estimate", "--graph", str(und_path), "--data", str(data_path),
            "--treat", "a", "--outcome", "y"),
        run(3, "estimate", "--graph", str(chain_path), "--data", str(short_path),
            "--treat", "a", "--outcome", "y"),
        run(4, "estimate", "--graph", str(collider_path), "--data", str(ill_path),
            "--treat", "z1", "--outcome", "b"),
        run(0, "simulate", "--nodes", "4", "--reps", "2", "--n", "120", "--seed", "1"),
        run(3, "simulate", "--nodes", "4", "--estimated-graph", "true"),
        run(3, "bogus"),
    ]
    ok = all(checks)
    record_criterion(
        "C8 CLI exit codes follow the 0/1/2/3/4 contract",
        ok,
        f"{len(checks)} invocations across graph/id/estimate/simulate",
    )
    assert ok, [r for r in results if r[0] != r[1]]
