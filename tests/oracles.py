"""Independent brute-force reference implementations used by the tests.

Everything here works on plain edge sets (tuples and frozensets of labels)
rather than the package's graph classes, and prefers exhaustive enumeration
over cleverness, so agreement with the package is meaningful.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

import numpy as np


def fs(a, b):
    return frozenset((a, b))


def edge_sets(g):
    """(directed pair set, undirected frozenset set) of a package graph."""
    return set(g.directed_edges), {fs(u, v) for u, v in g.undirected_edges}


def is_acyclic(vertices, directed):
    children = {v: set() for v in vertices}
    indeg = {v: 0 for v in vertices}
    for u, v in directed:
        children[u].add(v)
        indeg[v] += 1
    queue = [v for v in vertices if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for c in children[u]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    return seen == len(vertices)


def naive_meek_closure(vertices, directed, undirected):
    """Fixpoint of R1-R4 by repeated full scans, one orientation at a time."""
    directed = set(directed)
    und = {fs(u, v) for u, v in undirected} if not isinstance(undirected, set) else {
        frozenset(e) for e in undirected
    }

    def adj(a, b):
        return (a, b) in directed or (b, a) in directed or fs(a, b) in und

    while True:
        new = None
        for a, b, c in permutations(vertices, 3):
            if (a, b) in directed and fs(b, c) in und and not adj(a, c):
                new = (b, c)  # R1
                break
            if (a, b) in directed and (b, c) in directed and fs(a, c) in und:
                new = (a, c)  # R2
                break
        if new is None:
            for a, b, c, d in permutations(vertices, 4):
                if not (fs(d, a) in und and fs(d, c) in und and not adj(a, c)):
                    continue
                if (a, b) in directed and (c, b) in directed and fs(d, b) in und:
                    new = (d, b)  # R3
                    break
                if (a, b) in directed and (b, c) in directed and fs(d, b) in und:
                    new = (d, c)  # R4
                    break
        if new is None:
            return directed, und
        und.discard(fs(*new))
        directed.add(new)


def unshielded_colliders(vertices, directed, undirected):
    """Canonical (a, b, c) triples with a -> b <- c and a, c non-adjacent."""
    und = {frozenset(e) for e in undirected}

    def adj(a, b):
        return (a, b) in directed or (b, a) in directed or fs(a, b) in und

    out = set()
    for b in vertices:
        parents = [u for u, v in directed if v == b]
        for a, c in combinations(sorted(parents), 2):
            if not adj(a, c):
                out.add((a, b, c))
    return out


def all_dags(labels):
    """Every labelled DAG on the given vertices, as directed-edge frozensets."""
    pairs = list(combinations(labels, 2))
    for states in product((0, 1, 2), repeat=len(pairs)):
        directed = set()
        for (u, v), s in zip(pairs, states):
            if s == 1:
                directed.add((u, v))
            elif s == 2:
                directed.add((v, u))
        if is_acyclic(labels, directed):
            yield frozenset(directed)


def markov_equivalence_class(labels, dag_edges):
    """All DAGs with the same skeleton and unshielded colliders."""
    skeleton = [tuple(sorted(e)) for e in dag_edges]
    target = unshielded_colliders(labels, set(dag_edges), set())
    out = []
    for bits in product((0, 1), repeat=len(skeleton)):
        directed = {
            (u, v) if b == 0 else (v, u) for (u, v), b in zip(skeleton, bits)
        }
        if is_acyclic(labels, directed) and unshielded_colliders(
            labels, directed, set()
        ) == target:
            out.append(frozenset(directed))
    return out


def consistent_extensions(g):
    """DAGs represented by a package MPDAG: orientations of the undirected
    part that stay acyclic and preserve the unshielded colliders."""
    directed, und = edge_sets(g)
    und_pairs = [tuple(sorted(e)) for e in und]
    target = unshielded_colliders(g.vertices, directed, und)
    out = []
    for bits in product((0, 1), repeat=len(und_pairs)):
        extra = {(u, v) if b == 0 else (v, u) for (u, v), b in zip(und_pairs, bits)}
        full = directed | extra
        if is_acyclic(g.vertices, full) and unshielded_colliders(
            g.vertices, full, set()
        ) == target:
            out.append(frozenset(full))
    return out


def ancestors_oracle(g, y, removed=()):
    """Ancestor set by boolean matrix powers over the directed edges."""
    keep = [v for v in g.vertices if v not in set(removed)]
    pos = {v: i for i, v in enumerate(keep)}
    m = len(keep)
    a = np.eye(m, dtype=bool)
    for u, v in g.directed_edges:
        if u in pos and v in pos:
            a[pos[u], pos[v]] = True
    reach = np.eye(m, dtype=bool)
    for _ in range(m):
        reach = reach @ a
    return frozenset(v for v in keep if reach[pos[v], pos[y]])


def _simple_paths(g, start, max_len=None):
    """Yield every simple path (any edge orientation) from start."""
    directed, und = edge_sets(g)
    nbrs = {v: set() for v in g.vertices}
    for u, v in directed:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for e in und:
        u, v = tuple(e)
        nbrs[u].add(v)
        nbrs[v].add(u)

    path = [start]
    on = {start}

    def rec():
        yield tuple(path)
        if max_len is not None and len(path) >= max_len:
            return
        for w in sorted(nbrs[path[-1]]):
            if w not in on:
                path.append(w)
                on.add(w)
                yield from rec()
                path.pop()
                on.remove(w)

    yield from rec()


def possibly_causal(g, path):
    """No directed edge from a later path vertex back to an earlier one."""
    directed, _ = edge_sets(g)
    return not any(
        (path[r], path[l]) in directed
        for l in range(len(path))
        for r in range(l + 1, len(path))
    )


def possible_descendants_oracle(g, sources):
    found = set(sources)
    for s in sources:
        for path in _simple_paths(g, s):
            if possibly_causal(g, path):
                found.add(path[-1])
    return frozenset(found)


def proper_undirected_start_oracle(g, treatment, outcome):
    _, und = edge_sets(g)
    a = set(treatment)
    for s in treatment:
        for path in _simple_paths(g, s):
            if len(path) < 2 or path[-1] != outcome:
                continue
            if fs(path[0], path[1]) not in und:
                continue
            if any(v in a for v in path[1:]):
                continue
            if possibly_causal(g, path):
                return True
    return False


def build_plan_all_buckets(g, treatment, outcome):
    """``build_plan`` as one walk over every bucket, skipping those that
    miss D: the same checks, messages and plan, from the ancestor oracle
    and the decomposition of a fresh copy of ``g``."""
    from causaleffects import (
        GraphValidationError,
        IdentificationPlan,
        NotIdentifiedError,
        Pdag,
        bucket_decomposition,
        proper_undirected_start_path,
    )

    treatment = tuple(treatment)
    path = proper_undirected_start_path(g, treatment, outcome)
    if path is not None:
        steps = [path[0]] + [("-> " if g.has_directed(u, v) else "- ") + v
                             for u, v in zip(path, path[1:])]
        raise NotIdentifiedError(
            f"total effect of {sorted(treatment)} on {outcome!r} is not identified: "
            f"the proper possibly causal path {' '.join(steps)} starts with "
            "an undirected edge",
            path=path,
        )
    d_set = ancestors_oracle(g, outcome, removed=treatment)
    dec = bucket_decomposition(Pdag(g.vertices, g.directed_edges, g.undirected_edges))
    order, d_buckets, parents = [], [], []
    earlier = set(treatment)
    for k, bucket in enumerate(dec.buckets):
        dk = tuple(v for v in bucket if v in d_set)
        if not dk:
            continue
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
        order.append(k)
        d_buckets.append(dk)
        parents.append(dec.external_parents[k])
        earlier.update(dk)
    return IdentificationPlan(
        treatment=treatment,
        outcome=outcome,
        d_set=tuple(v for dk in d_buckets for v in dk),
        bucket_order=tuple(order),
        d_buckets=tuple(d_buckets),
        parents_per_bucket=tuple(parents),
        buckets=dec,
    )


def implied_cov_oracle(sem):
    """Population covariance by the per-vertex recursion (each vertex is its
    own block, regressed on its parents)."""
    g = sem.graph
    p = g.n_vertices
    parent_idx = {i: [] for i in range(p)}
    for u, v in g.directed_edges:
        parent_idx[g.index(v)].append(g.index(u))
    sigma = np.zeros((p, p))
    done = []
    for v in sem.topological_order():
        pa = sorted(parent_idx[v])
        lam = sem.gamma[pa, v]
        omega = sem.errors[v].variance
        if pa:
            sigma[v, done] = lam @ sigma[np.ix_(pa, done)]
            sigma[done, v] = sigma[v, done]
            sigma[v, v] = lam @ sigma[np.ix_(pa, pa)] @ lam + omega
        else:
            sigma[v, v] = omega
        done.append(v)
    return sigma


def fit_dag_to_cov(labels, dag_edges, sigma, pos):
    """Per-vertex population regression of each vertex on its DAG parents."""
    gamma = {}
    for v in labels:
        pa = sorted(u for u, w in dag_edges if w == v)
        if not pa:
            continue
        pi = [pos[u] for u in pa]
        coef = np.linalg.solve(sigma[np.ix_(pi, pi)], sigma[pi, pos[v]])
        for u, c in zip(pa, coef):
            gamma[(u, v)] = c
    return gamma


def dag_effect(labels, dag_edges, gamma, treatment, outcome, pos):
    """Total effect on a DAG by inverting (I - Gamma) with the treatment's
    incoming edges removed."""
    p = len(labels)
    m = np.zeros((p, p))
    for (u, v), c in gamma.items():
        m[pos[u], pos[v]] = c
    for a in treatment:
        m[:, pos[a]] = 0.0
    inv = np.linalg.inv(np.eye(p) - m)
    return np.array([inv[pos[a], pos[outcome]] for a in treatment])


def generic_covariance(labels, dag_edges, rng):
    """The covariance of a linear SEM on a DAG with generic parameters:
    coefficients of magnitude 0.5-1.5 and random sign, error variances in
    0.5-1.5.  Rows follow ``labels``."""
    pos = {v: i for i, v in enumerate(labels)}
    p = len(labels)
    gamma = np.zeros((p, p))
    for u, v in dag_edges:
        mag = rng.uniform(0.5, 1.5)
        gamma[pos[u], pos[v]] = mag if rng.random() < 0.5 else -mag
    variances = rng.uniform(0.5, 1.5, p)
    minv = np.linalg.inv(np.eye(p) - gamma)
    sigma = minv.T @ (variances[:, None] * minv)
    return (sigma + sigma.T) / 2.0


def _refitted_effects(g, treatment, outcome, sigma, exts):
    """The effect in each DAG of ``exts`` with its parameters refitted to
    ``sigma``."""
    labels = g.vertices
    pos = {v: i for i, v in enumerate(labels)}
    return np.array([dag_effect(labels, dag, fit_dag_to_cov(labels, dag, sigma, pos),
                                treatment, outcome, pos) for dag in exts])


def identified_bruteforce(g, treatment, outcome, rng, tol=1e-9):
    """Criterion-style oracle: refit every represented DAG to one generic
    covariance and compare the resulting effects.

    Returns (identified, spread).  A generic covariance from one member
    witnesses disagreement almost surely because Markov equivalent DAGs
    share their Gaussian covariance model.
    """
    exts = consistent_extensions(g)
    assert exts, "graph represents no DAG; inadmissible input"
    sigma = generic_covariance(g.vertices, exts[0], rng)
    taus = _refitted_effects(g, treatment, outcome, sigma, exts)
    spread = float(np.max(np.abs(taus - taus[0]))) if len(taus) > 1 else 0.0
    return spread < tol, spread


def valid_adjustment_sets(g, treatment, outcome, sigma, tol=1e-9):
    """Every valid adjustment set for the effect of ``treatment`` on
    ``outcome`` relative to a graph of at most 7 vertices, by enumeration.

    ``sigma`` must be a generic covariance (rows in ``g.vertices`` order) of
    a DAG that ``g`` represents.  It is refitted to every DAG of
    :func:`consistent_extensions`, and Z is valid when the OLS coefficients
    of the treatment in the regression of the outcome on (treatment, Z)
    equal that DAG's :func:`dag_effect` in every one of them.  Sets are
    tuples in vertex order, the empty set first."""
    labels = g.vertices
    if len(labels) > 7:
        raise ValueError("valid_adjustment_sets enumerates subsets: at most 7 vertices")
    exts = consistent_extensions(g)
    assert exts, "graph represents no DAG; inadmissible input"
    effects = _refitted_effects(g, treatment, outcome, sigma, exts)
    pos = {v: i for i, v in enumerate(labels)}
    rest = [v for v in labels if v not in treatment and v != outcome]
    valid = []
    for k in range(len(rest) + 1):
        for z in combinations(rest, k):
            xi = [pos[v] for v in tuple(treatment) + z]
            coef = np.linalg.solve(sigma[np.ix_(xi, xi)], sigma[xi, pos[outcome]])
            if np.max(np.abs(effects - coef[:len(treatment)])) < tol:
                valid.append(z)
    return valid


def efficiency_bound_every_gbar(plan, cov, w):
    """``efficiency_bound(plan, cov, w)`` from whole models: the package's
    variance sandwich over the w-weighted gradients of the g model, with
    Omega_k from ``gbar_regression(cov, plan)``, which solves the saturated
    block of every plan bucket whether the sum reads it or not.  The same
    floating-point steps, so the bound must equal it bit for bit."""
    from causaleffects import effect_gradients, g_regression, gbar_regression
    from causaleffects.estimate import _sandwich

    w = np.array([float(v) for v in w])
    grads = {k: np.einsum("t,tib->ib", w, h)[None]
             for k, h in effect_gradients(g_regression(cov, plan), plan).items()}
    omegas = gbar_regression(cov, plan).omega_blocks
    return float(_sandwich(grads, omegas, plan, cov, 1)[0, 0])


def _replicate_effect(xb, pos, plan, center, cond_limit):
    """tau of one resample by the plan's bucket regressions, or None when the
    replicate is rejected: its second-moment matrix is not positive definite
    (Cholesky fails), or a plan bucket's parent block is not positive
    definite or has a condition number above ``cond_limit``."""
    n = xb.shape[0]
    if center:
        xb = xb - xb.mean(axis=0)
    s = xb.T @ xb / n
    s = (s + s.T) / 2.0
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    lam = {}
    for k, pa in zip(plan.bucket_order, plan.parents_per_bucket):
        if not pa:
            continue
        bucket = plan.buckets.buckets[k]
        pi = [pos[u] for u in pa]
        spp = s[np.ix_(pi, pi)]
        w = np.linalg.eigvalsh(spp)
        if not (w[0] > 0 and w[-1] / w[0] <= cond_limit):
            return None
        coef = np.linalg.solve(spp, s[np.ix_(pi, [pos[v] for v in bucket])])
        for i, u in enumerate(pa):
            for j, v in enumerate(bucket):
                lam[(u, v)] = coef[i, j]
    d = plan.d_set
    lam_ad = np.array([[lam.get((a, v), 0.0) for v in d] for a in plan.treatment])
    lam_dd = np.array([[lam.get((u, v), 0.0) for v in d] for u in d])
    m = np.linalg.solve(np.eye(len(d)) - lam_dd, np.eye(len(d)))
    return lam_ad @ m[:, d.index(plan.outcome)]


def bootstrap_loop_oracle(data, columns, plan, n_boot, level, seed, center=False,
                          cond_limit=1e10):
    """The pairs bootstrap one replicate at a time, fitting the plan's
    buckets only (reads the plan's label tuples, nothing else of the
    package).

    Replicate streams come from ``Philox(seed).jumped(r)`` in counter order;
    a rejected replicate is counted and the next stream drawn, and drawing
    stops once more than ``max(10, n_boot)`` were rejected.  Returns
    ``(lower, upper, boot_acov, rejected)``, with the first three ``None``
    when more than 10% of the replicates were rejected.
    """
    x = np.asarray(data, dtype=float)
    n = x.shape[0]
    pos = {v: i for i, v in enumerate(columns)}
    base = np.random.Philox(key=np.uint64(seed))
    taus = []
    rejected = 0
    stream = 0
    while len(taus) < n_boot and rejected <= max(10, n_boot):
        rng = np.random.Generator(base.jumped(stream))
        stream += 1
        tau = _replicate_effect(x[rng.integers(0, n, size=n)], pos, plan, center,
                                cond_limit)
        if tau is None:
            rejected += 1
        else:
            taus.append(tau)
    if rejected > 0.10 * (n_boot + rejected):
        return None, None, None, rejected
    taus = np.array(taus)
    alpha = 1.0 - level
    return (np.quantile(taus, alpha / 2.0, axis=0),
            np.quantile(taus, 1.0 - alpha / 2.0, axis=0),
            n * np.atleast_2d(np.cov(taus, rowvar=False)),
            rejected)


# family -> (parameter range, variance of the parameter), as the simulation
# protocol states them, in the order random_sem draws a family index from
_SEM_FAMILIES = {
    "gaussian": ((0.5, 6.0), lambda a: a),
    "scaled_t5": ((0.5, 1.5), lambda a: a * 5.0 / 3.0),
    "logistic": ((0.4, 0.7), lambda a: a**2 * np.pi**2 / 3.0),
    "uniform": ((1.2, 2.1), lambda a: a**2 / 3.0),
}


def random_sem_loop_oracle(dag, rng, rescale=False, family=None):
    """``random_sem``'s draws one scalar at a time (reads the DAG's labels
    and directed edges, nothing else of the package).

    Per directed edge, in label order, a magnitude ``rng.uniform(0.1, 2.0)``
    and then a sign ``rng.random() < 0.5``; then the error family (one for
    the SEM when ``family`` is None, one per vertex when it is "mixed")
    and, per vertex, its parameter ``rng.uniform(lo, hi)``.  With
    ``rescale``, each vertex's incoming coefficients shrink in the order of
    Kahn's algorithm (FIFO, children by index) so its marginal variance is
    at most max(6, error variance + 0.25).  Returns ``(gamma, specs)`` with
    ``specs`` a list of (family, param) pairs.
    """
    names = list(_SEM_FAMILIES)
    pos = {v: i for i, v in enumerate(dag.vertices)}
    p = len(pos)
    gamma = np.zeros((p, p))
    parents = [[] for _ in range(p)]
    for u, v in sorted(dag.directed_edges):
        mag = rng.uniform(0.1, 2.0)
        gamma[pos[u], pos[v]] = mag if rng.random() < 0.5 else -mag
        parents[pos[v]].append(pos[u])
    shared = None if family == "mixed" else family or names[rng.integers(len(names))]
    specs = []
    for _ in range(p):
        fam = shared or names[rng.integers(len(names))]
        lo, hi = _SEM_FAMILIES[fam][0]
        specs.append((fam, float(rng.uniform(lo, hi))))
    if not rescale:
        return gamma, specs
    v = np.array([_SEM_FAMILIES[f][1](a) for f, a in specs])
    indeg = [len(pa) for pa in parents]
    order = [i for i in range(p) if indeg[i] == 0]
    for i in order:  # grows while read
        for j in sorted(c for c in range(p) if i in parents[c]):
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    sigma = np.zeros((p, p))
    done = []
    for j in order:
        pa = sorted(parents[j])
        if pa:
            spp = sigma[np.ix_(pa, pa)]
            contrib = float(gamma[pa, j] @ spp @ gamma[pa, j])
            budget = max(6.0 - v[j], 0.25)
            if contrib > budget:
                gamma[pa, j] *= np.sqrt(budget / contrib)
            cross = gamma[pa, j] @ sigma[np.ix_(pa, done)]
            sigma[j, done] = cross
            sigma[done, j] = cross
            sigma[j, j] = v[j] + float(gamma[pa, j] @ spp @ gamma[pa, j])
        else:
            sigma[j, j] = v[j]
        done.append(j)
    return gamma, specs
