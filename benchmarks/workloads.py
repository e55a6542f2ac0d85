"""The four benchmark workloads: input generation, one operation, output check.

Each workload builds its inputs in ``__init__`` (that is the set-up the
benchmark times), exposes them as ``items``, runs one operation on an item
with ``run`` and verifies the result with ``check``, which raises
:class:`CheckFailed` on a wrong output.  ``check`` always runs outside the
timed interval.

``identify``, ``bootstrap`` and ``simulate`` draw their input pool from a
fixed pool seed, so their outputs can be compared against values recorded in
``expected/``; the workload seed then fixes the order in which the pool is
visited.  ``estimate`` draws its pool from the workload seed itself, because
its check needs no recorded values: the data are constructed so that the
sample covariance equals the population covariance, and the CLI must return
the true effect.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os

import numpy as np

import causaleffects as ce
from causaleffects import cli
from causaleffects.errors import NotIdentifiedError

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

# Pool seed of the workloads whose outputs are recorded in expected/.
POOL_SEED = 20200807


class CheckFailed(Exception):
    """An operation's output differs from the expected one."""


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Recorded:
    """A workload whose expected outputs live in ``expected/<name>.json``."""

    name = ""

    @functools.cached_property
    def expected(self) -> dict:
        with open(os.path.join(EXPECTED_DIR, self.name + ".json"), encoding="utf-8") as fh:
            return json.load(fh)

    def _check_input(self, item, want: dict) -> None:
        if item["digest"] != want["input_digest"]:
            raise CheckFailed(f"{self.name} entry {item['key']}: generated input differs "
                              "from the recorded one")


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def true_effect(gamma: np.ndarray, a_idx, y_idx: int) -> np.ndarray:
    """Joint total effect of ``a_idx`` on ``y_idx`` in a linear SEM: cut the
    edges into the treatments, then read rows A, column Y of (I - Gamma)^-1."""
    g = gamma.copy()
    g[:, list(a_idx)] = 0.0
    m = np.linalg.inv(np.eye(len(g)) - g)
    return m[list(a_idx), y_idx]


def _descendants(dag: ce.Pdag) -> list[set[int]]:
    out = []
    for i in range(dag.n_vertices):
        seen: set[int] = set()
        stack = [i]
        while stack:
            for c in dag._ch[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        out.append(seen)
    return out


def _identified_query(dag, cpdag, n_treat, rng, tries=200):
    """Draw treatments with descendants and one outcome among them until the
    effect is identified from ``cpdag``; None when no draw succeeds."""
    desc = _descendants(dag)
    cand = [i for i in range(dag.n_vertices) if desc[i]]
    if len(cand) < n_treat:
        return None
    for _ in range(tries):
        a = sorted(cand[t] for t in rng.choice(len(cand), n_treat, replace=False))
        pool = sorted(set().union(*(desc[i] for i in a)) - set(a))
        if not pool:
            continue
        y = pool[int(rng.integers(len(pool)))]
        treat = tuple(dag.vertices[i] for i in a)
        if ce.is_identified(cpdag, treat, dag.vertices[y]):
            return treat, dag.vertices[y]
    return None


def _sem_with_queries(p, treat_sizes, rng):
    """A random SEM (degree 3, rescaled) and one drawn query per treatment
    size, each identified from the SEM's CPDAG."""
    while True:
        dag = ce.random_dag(p, 3, rng)
        cpdag = ce.cpdag_from_dag(dag)
        queries = [_identified_query(dag, cpdag, size, rng) for size in treat_sizes]
        if None not in queries:
            return ce.random_sem(dag, rng, rescale=True), cpdag, queries


def _write_csv(path: str, labels, x: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(labels) + "\n")
        np.savetxt(fh, x, fmt="%.17g", delimiter=",")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- identify ---------------------------------------------------------------


class Identify(_Recorded):
    """Graph sessions on p=100 CPDAGs with a planted parentless clique.

    A session asks about 4 treatments; one operation is one treatment's
    queries: load the graph, add the background knowledge, then its possible
    descendants and up to 4 plans.  Loading takes ~0.5 ms of a ~10 ms
    operation, and operations a quarter of a session's length keep each
    input's best time steady on a shared host."""

    name = "identify"

    def __init__(self, seed: int, workdir: str, pool: int = 24):
        self.params = {
            "p": 100, "expected_degree": 3, "clique": 8, "knowledge_frac": 0.2,
            "treatments": 4, "outcomes_per_treatment": 4, "pool": pool,
            "pool_seed": POOL_SEED,
        }
        self.sessions = [self._session(k) for k in range(pool)]
        self.items = [{"session": s, "n": n} for s in self.sessions
                      for n in range(self.params["treatments"])]
        self._truth_checked: set = set()

    def _session(self, k: int) -> dict:
        prm = self.params
        p, c = prm["p"], prm["clique"]
        rng = _rng(POOL_SEED, 1, k)
        base = ce.random_dag(p, prm["expected_degree"], rng)
        clique = sorted(int(i) for i in rng.choice(p, c, replace=False))
        cset = set(clique)
        lab = base.vertices
        # the clique is parentless and complete, so its edges stay undirected
        edges = [(u, v) for u, v in base.directed_edges if base.index(v) not in cset]
        edges += [(lab[i], lab[j]) for n, i in enumerate(clique) for j in clique[n + 1:]]
        dag = ce.Pdag(lab, edges, ())
        sem = ce.random_sem(dag, rng, rescale=True)
        cpdag = ce.cpdag_from_dag(dag)
        und = [e for e in cpdag.undirected_edges
               if not (dag.index(e[0]) in cset and dag.index(e[1]) in cset)]
        pick = rng.random(len(und)) < prm["knowledge_frac"]
        knowledge = [(u, v) if dag.has_directed(u, v) else (v, u)
                     for (u, v), keep in zip(und, pick) if keep]
        others = [i for i in range(p) if i not in cset]
        treat = [clique[int(rng.integers(c))]]
        treat += [int(i) for i in rng.choice(others, prm["treatments"] - 1, replace=False)]
        draws = rng.integers(0, 2**31, size=len(treat) * prm["outcomes_per_treatment"])
        item = {
            "key": k,
            "graph": ce.graph_to_dict(cpdag),
            "knowledge": knowledge,
            "treatments": [lab[i] for i in treat],
            "outcome_draws": [int(r) for r in draws],
        }
        item["digest"] = _digest(item)
        item["sem"] = sem
        return item

    def run(self, item):
        s, n = item["session"], item["n"]
        g = ce.graph_from_dict(s["graph"], strict=True)
        g = ce.construct_mpdag(g, s["knowledge"])
        per_t = self.params["outcomes_per_treatment"]
        t = s["treatments"][n]
        pd = ce.possible_descendants(g, [t])
        pool = sorted(pd - {t}, key=g.index)
        outcomes = []
        for r in s["outcome_draws"][n * per_t:(n + 1) * per_t]:
            if pool and pool[r % len(pool)] not in outcomes:
                outcomes.append(pool[r % len(pool)])
        plans = []
        for y in outcomes:
            try:
                plans.append((t, y, ce.build_plan(g, [t], y)))
            except NotIdentifiedError:
                plans.append((t, y, None))
        return g, pd, plans

    @staticmethod
    def _plans(plans) -> list:
        return [[t, y, None if plan is None else
                 {"d_set": list(plan.d_set), "bucket_order": list(plan.bucket_order)}]
                for t, y, plan in plans]

    def summarize(self, outs) -> dict:
        """The recorded form of a session from its operations' outputs."""
        g = outs[0][0]
        return {"pd": [sorted(pd, key=g.index) for _, pd, _ in outs],
                "plans": [p for _, _, plans in outs for p in self._plans(plans)]}

    def check(self, item, out) -> None:
        s, n = item["session"], item["n"]
        want = self.expected["sessions"][s["key"]]
        self._check_input(s, want)
        g, pd, plans = out
        t = s["treatments"][n]
        if (sorted(pd, key=g.index) != want["pd"][n]
                or self._plans(plans) != [p for p in want["plans"] if p[0] == t]):
            raise CheckFailed(f"identify session {s['key']} treatment {t}: output "
                              "differs from expected")
        if (s["key"], n) in self._truth_checked:
            return
        # every identified plan must recover the generating DAG's true effect
        sem = s["sem"]
        cov = ce.SampleCovariance(sem.implied_covariance(), g.vertices)
        for t, y, plan in plans:
            if plan is None:
                continue
            tau = ce.effect_from_lambda(ce.g_regression(cov, plan.buckets), plan)
            truth = true_effect(sem.gamma, [g.index(t)], g.index(y))
            if not _close(float(tau[0]), float(truth[0]), 1e-8):
                raise CheckFailed(f"identify session {s['key']}: plan {t}->{y} "
                                  f"gives {tau[0]!r}, truth {truth[0]!r}")
        self._truth_checked.add((s["key"], n))

    def corrupt(self) -> None:
        plans = self.expected["sessions"][0]["plans"]
        plans[0][2] = None if plans[0][2] else {"d_set": [], "bucket_order": []}


# -- estimate and bootstrap: in-process CLI calls ------------------------------


class _CliWorkload:
    """Shared set-up of the two CLI workloads: one graph JSON and one data
    CSV per pool entry, and the ``causal-effects estimate`` call."""

    def _write_entry(self, k, cpdag, x):
        gpath = os.path.join(self.workdir, f"g{k}.json")
        dpath = os.path.join(self.workdir, f"d{k}.csv")
        _write_json(gpath, ce.graph_to_dict(cpdag))
        _write_csv(dpath, cpdag.vertices, x)
        return gpath, dpath

    def run(self, item):
        out = os.path.join(self.workdir, "out.json")
        argv = ["estimate", "--graph", item["graph"], "--data", item["data"],
                "--treat", ",".join(item["treatment"]), "--outcome", item["outcome"],
                "--out", out, *item["extra"]]
        return cli.main(argv), out

    @staticmethod
    def _result(out) -> dict:
        code, path = out
        if code != 0:
            raise CheckFailed(f"estimate exited with code {code}")
        return _read_json(path)


class Estimate(_CliWorkload):
    """Default ``estimate`` calls (no bootstrap) on exact-covariance data."""

    name = "estimate"

    def __init__(self, seed: int, workdir: str, pool: int = 8):
        self.params = {"p": 30, "n": 1000, "expected_degree": 3, "datasets": pool,
                       "treatment_sizes": [1, 2], "pool_seed": seed}
        self.workdir = workdir
        p, n = self.params["p"], self.params["n"]
        self.items = []
        for k in range(pool):
            rng = _rng(seed, 2, k)
            sem, cpdag, queries = _sem_with_queries(p, self.params["treatment_sizes"], rng)
            # X'X/n equals the population covariance exactly: X = sqrt(n) Q L'
            q, _ = np.linalg.qr(rng.standard_normal((n, p)))
            chol = np.linalg.cholesky(sem.implied_covariance())
            gpath, dpath = self._write_entry(k, cpdag, math.sqrt(n) * q @ chol.T)
            for treat, y in queries:
                self.items.append({
                    "key": len(self.items), "graph": gpath, "data": dpath,
                    "treatment": list(treat), "outcome": y, "extra": [],
                    "truth": ce.true_effect_pathsum(sem, treat, y).tolist(),
                })

    def check(self, item, out) -> None:
        tau = self._result(out)["tau"]
        for t, want in zip(item["treatment"], item["truth"]):
            if not _close(tau[t], want, 1e-9):
                raise CheckFailed(f"estimate {item['treatment']}->{item['outcome']}: "
                                  f"tau[{t}]={tau[t]!r}, truth {want!r}")

    def corrupt(self) -> None:
        self.items[0]["truth"][0] += 1.0


class Bootstrap(_CliWorkload, _Recorded):
    """``estimate --bootstrap 25`` calls on sampled data."""

    name = "bootstrap"

    def __init__(self, seed: int, workdir: str, pool: int = 6):
        # B = 25 keeps one call near 30 ms: the run reports each input's best
        # time, and on a shared host short calls reach it far more reliably
        # than 200-replicate calls of 200 ms; the replicate loop still dominates
        self.params = {"p": [20, 25, 30], "n": 1000, "B": 25, "expected_degree": 3,
                       "datasets": pool, "treatment_sizes": [1, 2], "pool_seed": POOL_SEED}
        self.workdir = workdir
        self.items = []
        for k in range(pool):
            rng = _rng(POOL_SEED, 3, k)
            p = self.params["p"][k % len(self.params["p"])]
            size = self.params["treatment_sizes"][k % 2]
            sem, cpdag, [(treat, y)] = _sem_with_queries(p, [size], rng)
            x = ce.sample(sem, self.params["n"], rng)
            gpath, dpath = self._write_entry(k, cpdag, x)
            item = {
                "key": k, "graph": gpath, "data": dpath, "treatment": list(treat),
                "outcome": y,
                "extra": ["--bootstrap", str(self.params["B"]), "--seed", str(k + 1)],
            }
            with open(dpath, "rb") as fh:
                data_digest = hashlib.sha256(fh.read()).hexdigest()
            item["digest"] = _digest([ce.graph_to_dict(cpdag), data_digest, treat, y,
                                      item["extra"]])
            self.items.append(item)

    @staticmethod
    def summarize(res: dict) -> dict:
        return {"tau": res["tau"], "acov": res["acov"], "lower": res["ci"]["lower"],
                "upper": res["ci"]["upper"],
                "rejected_replicates": res["ci"]["rejected_replicates"]}

    def check(self, item, out) -> None:
        want = self.expected["results"][item["key"]]
        self._check_input(item, want)
        got = self.summarize(self._result(out))
        if got["rejected_replicates"] != want["rejected_replicates"]:
            raise CheckFailed(f"bootstrap entry {item['key']}: rejected replicates differ")
        for field in ("tau", "lower", "upper"):
            for t in item["treatment"]:
                if not _close(got[field][t], want[field][t], 1e-9):
                    raise CheckFailed(f"bootstrap entry {item['key']}: {field}[{t}] = "
                                      f"{got[field][t]!r}, expected {want[field][t]!r}")
        for a, b in zip(np.ravel(got["acov"]), np.ravel(want["acov"])):
            if not _close(a, b, 1e-9):
                raise CheckFailed(f"bootstrap entry {item['key']}: acov differs")

    def corrupt(self) -> None:
        tau = self.expected["results"][0]["tau"]
        tau[next(iter(tau))] += 1.0

    def accept_ratio(self, out) -> float:
        """B / (B + rejected replicates) of one call."""
        b = self.params["B"]
        return b / (b + _read_json(out[1])["ci"]["rejected_replicates"])


# -- simulate --------------------------------------------------------------------


class Simulate(_Recorded):
    """Chunks of ``run_simulation`` replicates."""

    name = "simulate"

    def __init__(self, seed: int, workdir: str, pool: int = 12):
        # two replicates per chunk: still a chunk, but short enough (~30 ms)
        # for each input's best time to be steady, as with Bootstrap's B
        self.params = {"n_vertices": 50, "treat_size": 1, "n": 1000, "reps": 2,
                       "chunks": pool, "pool_seed": POOL_SEED}
        self.items = [{"key": k, "seed": POOL_SEED + k} for k in range(pool)]

    def run(self, item):
        prm = self.params
        return ce.run_simulation(n_vertices=prm["n_vertices"], treat_size=prm["treat_size"],
                                 n=prm["n"], reps=prm["reps"], seed=item["seed"])

    def check(self, item, report) -> None:
        want = self.expected["chunks"][item["key"]]
        if len(report.records) != len(want):
            raise CheckFailed(f"simulate chunk {item['key']}: replicate count differs")
        for got_rec, want_rec in zip(report.records, want):
            if set(got_rec) != set(want_rec):
                raise CheckFailed(f"simulate chunk {item['key']}: record fields differ")
            for f, w in want_rec.items():
                g = got_rec[f]
                ok = _close(g, w, 1e-12) if isinstance(w, float) else g == w
                if not ok:
                    raise CheckFailed(f"simulate chunk {item['key']} rep {want_rec['rep']}: "
                                      f"{f} = {g!r}, expected {w!r}")
            ratio = got_rec.get("adj_pop_avar_ratio")
            if ratio is not None and ratio < 1.0 - 1e-9:
                raise CheckFailed(f"simulate chunk {item['key']}: adjustment beats the "
                                  f"efficiency bound (ratio {ratio!r})")

    def corrupt(self) -> None:
        rec = self.expected["chunks"][0][0]
        rec["sq_err_g_regression"] *= 2.0


WORKLOADS = {w.name: w for w in (Identify, Estimate, Bootstrap, Simulate)}
