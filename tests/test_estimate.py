from __future__ import annotations

import json
import re
from contextlib import nullcontext

import numpy as np
import pytest

from causaleffects import (
    BucketDecomposition,
    DegenerateSampleError,
    GraphValidationError,
    IdentificationPlan,
    IllConditionedError,
    LinearSem,
    Mpdag,
    NotIdentifiedError,
    Pdag,
    SampleCovariance,
    adjustment_estimate,
    ancestors_in_subgraph,
    bucket_decomposition,
    build_plan,
    bootstrap_ci,
    construct_mpdag,
    covariance_map,
    delta_method_acov,
    effect_from_lambda,
    effect_gradients,
    efficiency_bound,
    estimate_total_effect,
    g_regression,
    gbar_regression,
    is_identified,
    possible_descendants,
    proper_undirected_start_path,
    random_dag,
    random_sem,
    rng_from_seed,
    sample,
    sample_covariance,
    true_effect_pathsum,
)
from causaleffects.errors import _label_map
from causaleffects.estimate import COND_LIMIT, _accepted, _adjustment_from_cov, _fit_stack

from . import oracles
from .conftest import exact_cov_data, random_mpdag


# ---------------------------------------------------------------------------
# sample covariance


def test_sample_covariance_is_uncentered_second_moment():
    data = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    s = sample_covariance(data, ("x", "y"))
    assert np.allclose(s.matrix, data.T @ data / 3.0)
    assert s.n == 3
    assert s.vertex_order == ("x", "y")
    assert s.positions(("y",)) == [1]


# a fourth column named like the third, at every entry point that reads
# labelled columns or covariance rows
_REPEATED_LABEL = {
    "SampleCovariance": lambda g, data, cols: SampleCovariance(np.eye(4), cols),
    "sample_covariance": lambda g, data, cols: sample_covariance(data, cols),
    "estimate_total_effect":
        lambda g, data, cols: estimate_total_effect(g, ("a",), "y", data=data, columns=cols),
    "bootstrap_ci":
        lambda g, data, cols: bootstrap_ci(data, cols, build_plan(g, ("a",), "y"), n_boot=20),
    "adjustment_estimate": lambda g, data, cols: adjustment_estimate(data, cols, ("a",), "y", ()),
}


@pytest.mark.parametrize("entry", list(_REPEATED_LABEL))
def test_repeated_label_is_refused(chain_sem, entry):
    junk = rng_from_seed(5).normal(size=(200, 1))
    data = np.hstack([sample(chain_sem, 200, rng_from_seed(4)), junk])
    with pytest.raises(GraphValidationError, match="duplicate vertex label 'y'"):
        _REPEATED_LABEL[entry](chain_sem.graph, data, ("a", "m", "y", "y"))


# Every argument that holds labels or edges, given no sequence at all (None
# where it has no default, and a number), and a label that no map can hold
# at each entry point that looks labels up: each is refused by the one label
# rule with GraphValidationError.
_CHAIN = Mpdag(("a", "m", "y"), directed=(("a", "m"), ("m", "y")))
_CHAIN_DATA = rng_from_seed(6).normal(size=(50, 3))
_CHAIN_PLAN = build_plan(_CHAIN, ("a",), "y")
_SEQUENCE_ARGUMENTS = {
    "Pdag vertices": ("vertices", lambda v: Pdag(v)),
    "Pdag directed": ("directed", lambda v: Pdag(_CHAIN.vertices, v)),
    "Pdag undirected": ("undirected", lambda v: Pdag(_CHAIN.vertices, (), v)),
    "construct_mpdag knowledge": ("knowledge", lambda v: construct_mpdag(_CHAIN, v)),
    "build_plan treatment": ("treatment", lambda v: build_plan(_CHAIN, v, "y")),
    "is_identified treatment": ("treatment", lambda v: is_identified(_CHAIN, v, "y")),
    "proper_undirected_start_path treatment":
        ("treatment", lambda v: proper_undirected_start_path(_CHAIN, v, "y")),
    "estimate_total_effect treatment":
        ("treatment", lambda v: estimate_total_effect(_CHAIN, v, "y", data=_CHAIN_DATA)),
    "possible_descendants sources": ("sources", lambda v: possible_descendants(_CHAIN, v)),
    "ancestors_in_subgraph removed": ("removed", lambda v: ancestors_in_subgraph(_CHAIN, "y", v)),
    "SampleCovariance vertex_order": ("vertex_order", lambda v: SampleCovariance(np.eye(3), v)),
    "sample_covariance vertex_order":
        ("vertex_order", lambda v: sample_covariance(_CHAIN_DATA, v)),
    "positions labels":
        ("labels", lambda v: SampleCovariance(np.eye(3), _CHAIN.vertices).positions(v)),
    "estimate_total_effect columns": ("columns", lambda v: estimate_total_effect(
        _CHAIN, ("a",), "y", data=_CHAIN_DATA, columns=v)),
    "bootstrap_ci columns": ("columns", lambda v: bootstrap_ci(_CHAIN_DATA, v, _CHAIN_PLAN)),
    "adjustment_estimate columns":
        ("columns", lambda v: adjustment_estimate(_CHAIN_DATA, v, ("a",), "y", ())),
    "adjustment_estimate adjust": ("adjust", lambda v: adjustment_estimate(
        _CHAIN_DATA, _CHAIN.vertices, ("a",), "y", v)),
}
_LABEL_RULE_CASES = {
    f"{entry} {value!r}": (lambda call=call, value=value: call(value),
                           f"{name} must be a sequence, got {value!r}")
    for entry, (name, call) in _SEQUENCE_ARGUMENTS.items()
    for value in (None, 3)
    if value is not None or entry != "estimate_total_effect columns"  # None: the vertex order
}
_LABEL_RULE_CASES.update({
    "bucket_of unknown":
        (lambda: _CHAIN_PLAN.buckets.bucket_of("zz"), "unknown vertex label 'zz'"),
    "bucket_of unhashable":
        (lambda: _CHAIN_PLAN.buckets.bucket_of(["a"]), "unknown vertex label ['a']"),
    "SampleCovariance unhashable":
        (lambda: SampleCovariance(np.eye(3), ("a", ["m"], "y")), "unhashable vertex label ['m']"),
    "positions unhashable": (lambda: SampleCovariance(np.eye(3), _CHAIN.vertices).positions(
        [["a"]]), "unknown vertex label ['a']"),
    "sample_covariance unhashable": (lambda: sample_covariance(_CHAIN_DATA, ("a", ["m"], "y")),
                                     "unhashable vertex label ['m']"),
    "estimate_total_effect columns unhashable": (lambda: estimate_total_effect(
        _CHAIN, ("a",), "y", data=_CHAIN_DATA, columns=("a", ["m"], "y")),
        "unhashable vertex label ['m']"),
    "bootstrap_ci unhashable": (lambda: bootstrap_ci(_CHAIN_DATA, ("a", ["m"], "y"), _CHAIN_PLAN),
                                "unhashable vertex label ['m']"),
    "adjustment_estimate adjust unhashable": (lambda: adjustment_estimate(
        _CHAIN_DATA, _CHAIN.vertices, ("a",), "y", [["m"]]), "unknown vertex label ['m']"),
    "adjustment_estimate outcome unhashable": (lambda: adjustment_estimate(
        _CHAIN_DATA, _CHAIN.vertices, ("a",), ["y"], ()), "unknown vertex label ['y']"),
})


@pytest.mark.parametrize("case", list(_LABEL_RULE_CASES))
def test_every_label_argument_follows_one_rule(case):
    """No sequence where labels or edges are expected, and a label that
    cannot be hashed, raise GraphValidationError naming the fault, never a
    raw TypeError or KeyError."""
    call, message = _LABEL_RULE_CASES[case]
    with pytest.raises(GraphValidationError) as exc:
        call()
    assert str(exc.value) == message


def test_label_sequences_are_read_once(chain_sem):
    """A generator of labels is read once, as a tuple of them is, and a
    string is a sequence of one-character labels."""
    g = chain_sem.graph
    data = sample(chain_sem, 200, rng_from_seed(4))
    plan = build_plan(g, ("a",), "y")
    want = repr(sample_covariance(data, g.vertices))
    assert repr(sample_covariance(data, iter(g.vertices))) == want
    assert repr(sample_covariance(data, "amy")) == want
    boot = repr(bootstrap_ci(data, g.vertices, plan, n_boot=20))
    assert repr(bootstrap_ci(data, iter(g.vertices), plan, n_boot=20)) == boot
    assert repr(bootstrap_ci(data, "amy", plan, n_boot=20)) == boot
    est = estimate_total_effect(g, iter(("a",)), "y", data=data, columns=iter(g.vertices))
    assert repr(est) == repr(estimate_total_effect(g, ("a",), "y", data=data))
    adj = adjustment_estimate(data, iter(g.vertices), iter(("a",)), "y", iter(()))
    assert repr(adj) == repr(adjustment_estimate(data, g.vertices, ("a",), "y", ()))


def test_sample_covariance_center_subtracts_means():
    rng = rng_from_seed(3)
    data = rng.normal(size=(50, 3)) + np.array([5.0, -2.0, 0.5])
    s = sample_covariance(data, ("a", "b", "c"), center=True)
    want = np.cov(data, rowvar=False, bias=True)
    assert np.allclose(s.matrix, want)


def test_sample_covariance_rejects_degenerate_inputs():
    with pytest.raises(DegenerateSampleError):  # n <= p
        sample_covariance(np.eye(2), ("x", "y"))
    with pytest.raises(DegenerateSampleError):  # rank deficient
        sample_covariance(np.ones((5, 2)), ("x", "y"))
    bad = np.ones((5, 2))
    bad[0, 0] = np.nan
    with pytest.raises(DegenerateSampleError):
        sample_covariance(bad, ("x", "y"))
    with pytest.raises(DegenerateSampleError, match="^data must be a 2d array$"):
        sample_covariance(np.zeros(5), ["a"])
    with pytest.raises(DegenerateSampleError, match="^covariance matrix has no vertices$"):
        sample_covariance(np.zeros((5, 0)), ())


def test_sample_covariance_matrix_validation():
    with pytest.raises(DegenerateSampleError):
        SampleCovariance(np.array([[1.0, 0.2], [0.3, 1.0]]), ("x", "y"))
    with pytest.raises(DegenerateSampleError):
        SampleCovariance(np.array([[1.0, 2.0], [2.0, 1.0]]), ("x", "y"))
    with pytest.raises(DegenerateSampleError):
        SampleCovariance(np.eye(3), ("x", "y"))
    with pytest.raises(DegenerateSampleError, match="^covariance contains non-finite values$"):
        SampleCovariance(np.full((2, 2), np.nan), ("x", "y"))
    with pytest.raises(DegenerateSampleError, match="^covariance matrix has no vertices$"):
        SampleCovariance(np.zeros((0, 0)), ())


def test_sample_covariance_keeps_a_read_only_copy():
    """The matrix that passed the checks is the one kept: a later write to
    the caller's array does not reach it, and it cannot be written."""
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = SampleCovariance(m, ("a", "b"), n=10)
    m[0, 0] = -5.0
    assert c.matrix.tolist() == [[2.0, 0.5], [0.5, 1.0]]
    with pytest.raises(ValueError, match="read-only"):
        c.matrix[0, 0] = -5.0


def test_array_holders_compare_and_hash_by_identity(chain_sem):
    """SampleCovariance, LinearSem and BlockRecursiveModel hold numpy
    arrays, so they compare and hash by identity: two equal ones differ,
    and neither ``==`` nor ``hash`` raises."""
    cov = SampleCovariance(chain_sem.implied_covariance(), chain_sem.graph.vertices)
    for make in (lambda: SampleCovariance(cov.matrix, cov.vertex_order),
                 lambda: LinearSem(chain_sem.graph, chain_sem.gamma, chain_sem.errors),
                 lambda: g_regression(cov, bucket_decomposition(chain_sem.graph))):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2


# ---------------------------------------------------------------------------
# bucketed regression


def test_g_regression_matches_least_squares(rng):
    """Per-bucket coefficients equal straight least squares on raw data."""
    for _ in range(8):
        g, _ = random_mpdag(rng, 5)
        b = bucket_decomposition(g)
        data = rng.normal(size=(60, 5))
        cov = sample_covariance(data, g.vertices)
        model = g_regression(cov, b)
        pos = {v: i for i, v in enumerate(g.vertices)}
        for k, bk in enumerate(b.buckets):
            pa = b.external_parents[k]
            if not pa:
                assert model.lambda_blocks[k].shape == (0, len(bk))
                continue
            x = data[:, [pos[v] for v in pa]]
            yb = data[:, [pos[v] for v in bk]]
            coef, *_ = np.linalg.lstsq(x, yb, rcond=None)
            assert np.allclose(model.lambda_blocks[k], coef, atol=1e-8)


def test_gbar_regression_zeroes_non_parents_in_population(rng):
    """Regressing each bucket on the whole prefix recovers, at the
    population covariance, zero weight on vertices outside the bucket's
    graph parents."""
    for _ in range(10):
        g, dag = random_mpdag(rng, 6)
        sem = random_sem(dag, rng)
        cov = SampleCovariance(sem.implied_covariance(), dag.vertices)
        b = bucket_decomposition(g)
        model = gbar_regression(cov, b)
        for k in range(len(b)):
            pa_full = model.parents(k)
            live = set(b.external_parents[k])
            lam = model.lambda_blocks[k]
            for r, v in enumerate(pa_full):
                if v not in live:
                    assert np.all(np.abs(lam[r]) < 1e-9)


def test_covariance_map_round_trips(rng):
    for _ in range(8):
        g, _ = random_mpdag(rng, 6)
        b = bucket_decomposition(g)
        data = rng.normal(size=(40, 6))
        cov = sample_covariance(data, g.vertices)
        for fit in (g_regression, gbar_regression):
            model = fit(cov, b)
            rebuilt = covariance_map(model)
            if fit is gbar_regression:
                assert np.allclose(rebuilt, cov.matrix, atol=1e-10)
            model2 = fit(SampleCovariance(rebuilt, g.vertices), b)
            for lam1, lam2 in zip(model.lambda_blocks, model2.lambda_blocks):
                assert np.allclose(lam1, lam2, atol=1e-9)
            for om1, om2 in zip(model.omega_blocks, model2.omega_blocks):
                assert np.allclose(om1, om2, atol=1e-9)


# One test of the union of the parent sets vouches for each of them.  The
# DAG's widest parent set is {1, 2, 3} (bucket 4); {1} and {1, 2} lie inside
# it and {1, 5} (bucket 6) does not, so the union is {1, 2, 3, 5}.
_NESTED = Pdag(("1", "2", "3", "4", "5", "6"),
               (("1", "2"), ("1", "3"), ("2", "3"), ("1", "4"), ("2", "4"), ("3", "4"),
                ("1", "5"), ("5", "6"), ("1", "6")))


def _nested_cov(cond, seed, collinear_12=False):
    """Block-diagonal covariance whose block over {1, 2, 3} has condition
    number ``cond`` (in a random basis, or with ``collinear_12`` as
    I - (1 - 1/cond) v v' for v = (1, -1, 0)/sqrt(2), so bucket 3's parents
    {1, 2} have that condition number too) and whose block over {4, 5, 6}
    is well conditioned."""
    rng = rng_from_seed(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    v = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    m = rng.normal(size=(3, 3))
    sigma = np.zeros((6, 6))
    sigma[:3, :3] = (np.eye(3) - (1.0 - 1.0 / cond) * np.outer(v, v) if collinear_12 else
                     q @ np.diag([1.0, 0.3, 1.0 / cond]) @ q.T)
    sigma[3:, 3:] = m @ m.T + np.eye(3)
    return (sigma + sigma.T) / 2.0


def _per_bucket_reference(matrix, labels, buckets, fitted):
    """Each fitted bucket tested and solved on its own, in order: the
    coefficient blocks, or the first refused (bucket, parents)."""
    pos = {v: i for i, v in enumerate(labels)}
    lams = {}
    for k in fitted:
        pa, bucket = buckets.external_parents[k], buckets.buckets[k]
        if not pa:
            continue
        pi, bi = [pos[u] for u in pa], [pos[v] for v in bucket]
        spp = matrix[np.ix_(pi, pi)]
        w = np.linalg.eigvalsh(spp)
        if not (w[0] > 0 and w[-1] / w[0] <= COND_LIMIT):
            return None, (bucket, pa)
        lams[k] = np.linalg.solve(spp, matrix[np.ix_(pi, bi)])
    return lams, None


def _reference_fits(target):
    """What the per-bucket reference fits for ``target``, a decomposition
    or a plan: ``{fit: (buckets with the fit's parents, fitted indices)}``."""
    if isinstance(target, IdentificationPlan):
        dec, fitted = target.buckets, target.bucket_order
    else:
        dec, fitted = target, range(len(target))
    saturated = BucketDecomposition(dec.vertex_order, dec.buckets,
                                    tuple(dec.prefix(k) for k in range(len(dec))))
    return {g_regression: (dec, fitted), gbar_regression: (saturated, fitted)}


_BANDS = {  # condition number over {1, 2, 3} -> the band it must fall in
    "under_half_limit": (0.99 * COND_LIMIT / 2, 0.0, COND_LIMIT / 2),
    "between_half_limit_and_limit": (0.75 * COND_LIMIT, COND_LIMIT / 2, COND_LIMIT),
    "above_limit": (2.0 * COND_LIMIT, COND_LIMIT, np.inf),
}


@pytest.mark.parametrize("collinear_12", [False, True])
@pytest.mark.parametrize("band", sorted(_BANDS))
def test_nested_parent_sets_accept_and_refuse_as_each_bucket_alone(band, collinear_12):
    """g_regression, gbar_regression and efficiency_bound accept what a
    test of each bucket on its own accepts, with the same blocks, and
    refuse naming the bucket it refuses first."""
    cond, lo, hi = _BANDS[band]
    dec = bucket_decomposition(_NESTED)
    targets = [dec] + [build_plan(_NESTED, ("1",), y) for y in ("4", "6")]
    for seed in range(6):
        sigma = _nested_cov(cond, seed, collinear_12)
        w = np.linalg.eigvalsh(sigma[:3, :3])
        assert lo < w[-1] / w[0] <= hi
        cov = SampleCovariance(sigma, _NESTED.vertices)
        for target in targets:
            first_refused = None  # efficiency_bound fits g, then gbar
            for fit, (buckets, fitted) in _reference_fits(target).items():
                want, refused = _per_bucket_reference(sigma, _NESTED.vertices, buckets, fitted)
                first_refused = first_refused or refused
                if refused is None:
                    model = fit(cov, target)
                    for k, lam in want.items():
                        assert (model.lambda_blocks[k] == lam).all()
                    continue
                bucket, pa = refused
                with pytest.raises(IllConditionedError,
                                   match=re.escape(f"regression of bucket {bucket} on {pa}: ")):
                    fit(cov, target)
                if target is dec and fit is g_regression:
                    # with 1 and 2 collinear, the earlier bucket 3 is named
                    assert bucket == (("3",) if collinear_12 else ("4",))
            if target is dec:
                continue
            if first_refused is None:
                assert np.isfinite(efficiency_bound(target, cov, [1.0]))
            else:
                bucket, pa = first_refused
                with pytest.raises(IllConditionedError,
                                   match=re.escape(f"regression of bucket {bucket} on {pa}: ")):
                    efficiency_bound(target, cov, [1.0])


def test_a_parent_set_outside_the_widest_is_tested_on_its_own():
    """The widest parent set {1, 2, 3} is well conditioned, but bucket 6's
    parents {1, 5}, which do not lie inside it, are not: the union's test
    fails, and bucket 6 is refused by its own."""
    sigma = _nested_cov(10.0, 0)
    sigma[4, 3:] = sigma[3:, 4] = 0.0
    sigma[4, 4] = sigma[0, 0] / (2.0 * COND_LIMIT)
    cov = SampleCovariance(sigma, _NESTED.vertices)
    with pytest.raises(IllConditionedError,
                       match=re.escape("regression of bucket ('6',) on ('1', '5'): ")):
        g_regression(cov, bucket_decomposition(_NESTED))


def test_one_test_of_the_parent_union_vouches_for_every_bucket(monkeypatch):
    """On a well-conditioned covariance the g-regression of the full
    decomposition runs one eigvalsh, on the union {1, 2, 3, 5}, and none
    for bucket 6's {1, 5}, which lies outside the widest parent set."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    cov = SampleCovariance(_nested_cov(10.0, 0), _NESTED.vertices)
    model = g_regression(cov, bucket_decomposition(_NESTED))
    assert calls == [(1, 4, 4)]
    assert all(lam is not None for lam in model.lambda_blocks)
    # the variance reads the parent covariances the fit tested: an estimate
    # tests {1, 5} once, and the bound adds only the gbar fit's test
    plan = build_plan(_NESTED, ("1",), "6")
    calls.clear()
    estimate_total_effect(_NESTED, ("1",), "6", cov=cov)
    assert calls == [(1, 2, 2)]
    calls.clear()
    efficiency_bound(plan, cov, [1.0])
    assert len(calls) == 2


def test_delta_method_acov_tests_its_covariance_as_the_fit_does():
    """A model fitted on a well-conditioned covariance does not vouch for
    another one: delta_method_acov refuses an ill-conditioned ``cov`` with
    the fit's message, naming bucket 4 and its parents {1, 2, 3}."""
    plan = build_plan(_NESTED, ("1",), "4")
    model = g_regression(SampleCovariance(_nested_cov(10.0, 0), _NESTED.vertices), plan)
    bad = SampleCovariance(_nested_cov(_BANDS["above_limit"][0], 0), _NESTED.vertices)
    with pytest.raises(IllConditionedError,
                       match=re.escape("regression of bucket ('4',) on ('1', '2', '3'): ")):
        delta_method_acov(model, plan, bad)


def test_delta_method_acov_tests_without_refitting(monkeypatch):
    """delta_method_acov tests ``cov`` as the fit does but solves nothing of
    a fit: on the effect of 1 on 6 it makes one eigvalsh (the union test)
    and three solves (the assembly's, and one per plan bucket with parents),
    and it equals the acov of the estimate bit for bit."""
    cov = sample_covariance(rng_from_seed(4).normal(size=(100, 6)), _NESTED.vertices)
    plan = build_plan(_NESTED, ("1",), "6")
    model = g_regression(cov, plan)
    calls = []
    for name in ("solve", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, _real=real, **k:
                            calls.append(_name) or _real(*a, **k))
    acov = delta_method_acov(model, plan, cov)
    assert sorted(calls) == ["eigvalsh", "solve", "solve", "solve"]
    monkeypatch.undo()
    assert np.array_equal(acov, estimate_total_effect(_NESTED, ("1",), "6", cov=cov).acov)


def test_a_stack_with_one_failing_matrix_rejects_that_matrix_only():
    """A bootstrap-style stack in which one replicate's parent matrix over
    {1, 2, 3} is refused: that replicate alone is rejected, and every other
    one gets the blocks of fitting it on its own; a replicate between
    COND_LIMIT / 2 and COND_LIMIT passes without the shared certificate."""
    dec = bucket_decomposition(_NESTED)
    local = _label_map(_NESTED.vertices)
    conds = [1e3, 2.0 * COND_LIMIT, 0.75 * COND_LIMIT, 10.0]
    for stacked in (conds, conds[:1] + conds[2:], conds[:1] + conds[3:]):
        stack = np.array([_nested_cov(c, i) for i, c in enumerate(stacked)])
        lambdas, _, ok = _fit_stack(stack, dec, range(len(dec)), local, strict=False)
        for i, matrix in enumerate(stack):
            want, refused = _per_bucket_reference(matrix, _NESTED.vertices, dec, range(len(dec)))
            assert ok[i] == (refused is None)
            for k, lam in (want or {}).items():
                assert (lambdas[k][i] == lam).all()
        assert ok.tolist() == [c <= COND_LIMIT for c in stacked]


# ---------------------------------------------------------------------------
# effect computation


def _population_estimate(sem, graph, treatment, outcome):
    cov = SampleCovariance(sem.implied_covariance(), graph.vertices)
    return estimate_total_effect(graph, treatment, outcome, cov=cov)


def test_chain_effect_exact(chain_sem):
    est = _population_estimate(chain_sem, chain_sem.graph, ("a",), "y")
    assert est.tau == pytest.approx([6.0], abs=1e-12)
    assert est.method == "g_regression"


def test_triangle_effect_and_variance(confounder_sem):
    """The delta-method variance equals the adjusted-OLS sandwich here:
    both reduce to the avar of the coefficient of a in y ~ a + c."""
    sem = confounder_sem
    est = _population_estimate(sem, sem.graph, ("a",), "y")
    assert est.tau == pytest.approx([1.0], abs=1e-12)
    assert est.acov == pytest.approx(np.array([[1.0]]), abs=1e-10)

    data = exact_cov_data(sem.implied_covariance(), 100)
    adj = adjustment_estimate(data, sem.graph.vertices, ("a",), "y", adjust=("c",))
    assert adj.tau == pytest.approx([1.0], abs=1e-9)
    assert adj.acov == pytest.approx(np.array([[1.0]]), abs=1e-8)
    assert adj.method == "adjustment"

    unadj = adjustment_estimate(data, sem.graph.vertices, ("a",), "y", adjust=())
    assert unadj.tau == pytest.approx([1.5], abs=1e-9)


def test_zero_effect_is_exactly_zero():
    g = Pdag(("a", "x", "y"), directed=(("a", "x"), ("y", "x")))
    cov = SampleCovariance(np.eye(3), ("a", "x", "y"))
    est = estimate_total_effect(g, ("a",), "y", cov=cov)
    assert est.tau[0] == 0.0
    assert est.acov[0, 0] == 0.0


def test_joint_effect_matches_path_sum(rng):
    for _ in range(10):
        dag = random_dag(6, 2.5, rng)
        sem = random_sem(dag, rng)
        labels = list(dag.vertices)
        y = labels[-1]
        a = tuple(sorted(rng.choice(labels[:-1], size=2, replace=False)))
        est = _population_estimate(sem, dag, a, y)
        want = true_effect_pathsum(sem, a, y)
        assert est.tau == pytest.approx(want, abs=1e-9)


def test_effect_gradients_match_finite_differences(rng):
    from dataclasses import replace

    from causaleffects import is_identified

    h = 1e-6
    checked_multivertex = False
    for _ in range(20):
        g, dag = random_mpdag(rng, 6)
        labels = list(g.vertices)
        y = labels[int(rng.integers(len(labels)))]
        rest = [v for v in labels if v != y]
        a = sorted(
            rng.choice(rest, size=int(rng.integers(1, 3)), replace=False),
            key=labels.index,
        )
        if not is_identified(g, a, y):
            continue
        sem = random_sem(dag, rng)
        cov = SampleCovariance(sem.implied_covariance(), dag.vertices)
        plan = build_plan(g, a, y)
        model = g_regression(cov, plan.buckets)
        grads = effect_gradients(model, plan)
        checked_multivertex |= any(
            len(plan.buckets.buckets[k]) > 1 for k in plan.bucket_order
        )
        for k, gk in grads.items():
            lam = model.lambda_blocks[k]
            for i in range(lam.shape[0]):
                for j in range(lam.shape[1]):
                    up = [m.copy() for m in model.lambda_blocks]
                    dn = [m.copy() for m in model.lambda_blocks]
                    up[k][i, j] += h
                    dn[k][i, j] -= h
                    tau_up = effect_from_lambda(
                        replace(model, lambda_blocks=tuple(up)), plan
                    )
                    tau_dn = effect_from_lambda(
                        replace(model, lambda_blocks=tuple(dn)), plan
                    )
                    fd = (tau_up - tau_dn) / (2 * h)
                    assert np.allclose(gk[:, i, j], fd, atol=1e-5)
    assert checked_multivertex


def test_delta_method_single_edge_closed_form(rng):
    # a -> y alone: acov = Var(residual) / Var(a)
    g = Pdag(("a", "y"), directed=(("a", "y"),))
    data = rng.normal(size=(200, 2))
    data[:, 1] = 1.7 * data[:, 0] + rng.normal(size=200)
    cov = sample_covariance(data, ("a", "y"))
    est = estimate_total_effect(g, ("a",), "y", data=data)
    s = cov.matrix
    beta = s[0, 1] / s[0, 0]
    resid = s[1, 1] - beta * s[0, 1]
    assert est.tau == pytest.approx([beta], abs=1e-12)
    assert est.acov == pytest.approx(np.array([[resid / s[0, 0]]]), abs=1e-10)


def test_efficiency_bound_equals_weighted_acov_at_population(rng):
    checked = 0
    for _ in range(30):
        g, dag = random_mpdag(rng, int(rng.integers(4, 7)))
        labels = list(g.vertices)
        y = labels[int(rng.integers(len(labels)))]
        rest = [v for v in labels if v != y]
        a = sorted(
            rng.choice(rest, size=int(rng.integers(1, 3)), replace=False),
            key=labels.index,
        )
        from causaleffects import is_identified

        if not is_identified(g, a, y):
            continue
        sem = random_sem(dag, rng)
        cov = SampleCovariance(sem.implied_covariance(), dag.vertices)
        plan = build_plan(g, a, y)
        model_g = g_regression(cov, plan.buckets)
        acov = delta_method_acov(model_g, plan, cov)
        w = rng.normal(size=len(a))
        bound = efficiency_bound(plan, cov, w)
        assert bound == pytest.approx(float(w @ acov @ w), abs=1e-9, rel=1e-9)
        checked += 1
    assert checked >= 8


def test_variance_forms_check_which_model_they_get(three_bucket_graph):
    """The gbar model carries the saturated buckets (prefix parents), so
    delta_method_acov refuses it; efficiency_bound fits both models itself."""
    g = three_bucket_graph
    plan = build_plan(g, ("1",), "5")
    cov = sample_covariance(rng_from_seed(8).normal(size=(50, 6)), g.vertices)
    model_g, model_gbar = g_regression(cov, plan), gbar_regression(cov, plan)
    for k in plan.bucket_order:
        assert model_gbar.parents(k) == plan.buckets.prefix(k)
    assert model_gbar.parents(2) != model_g.parents(2)
    with pytest.raises(GraphValidationError, match="different bucket decompositions"):
        delta_method_acov(model_gbar, plan, cov)
    assert efficiency_bound(plan, cov, np.ones(1)) > 0


def test_no_valid_adjustment_set_beats_the_efficiency_bound(record_criterion):
    """The paper's efficiency claim against every valid adjustment set: at a
    generic population covariance of the graph, the OLS-adjustment avar of
    each valid set (by the brute-force oracle) is at least the efficiency
    bound, for every identified single-treatment query."""
    rng = rng_from_seed(2508)
    queries = sets = equal = violations = 0
    for i in range(150):
        g, dag = random_mpdag(rng, int(rng.integers(4, 8)), orient_frac=0.4 * (i % 2))
        sigma = oracles.generic_covariance(g.vertices, dag.directed_edges, rng)
        cov = SampleCovariance(sigma, g.vertices)
        for a in g.vertices:
            for y in g.vertices:
                if a == y or not is_identified(g, (a,), y):
                    continue
                queries += 1
                bound = efficiency_bound(build_plan(g, (a,), y), cov, [1.0])
                for z in oracles.valid_adjustment_sets(g, (a,), y, sigma):
                    avar = _adjustment_from_cov(cov, (a,), y, z).acov[0, 0]
                    sets += 1
                    violations += avar < bound * (1.0 - 1e-10)
                    equal += avar <= bound * (1.0 + 1e-10)
    record_criterion("adjustment avar >= efficiency bound over every valid set",
                     violations == 0, f"{queries} queries, {sets} valid sets, "
                     f"{violations} violations, {equal} equalities")
    assert violations == 0
    assert queries and sets


def test_population_g_regression_never_beaten_by_adjustment(rng):
    """At the population the g-regression avar is no larger than the
    parent-adjustment avar for single treatments (efficiency)."""
    wins = ties = 0
    for _ in range(40):
        dag = random_dag(5, 2.0, rng)
        from causaleffects import cpdag_from_dag, is_identified

        cpdag = cpdag_from_dag(dag)
        labels = list(dag.vertices)
        a = labels[int(rng.integers(5))]
        y = labels[int(rng.integers(5))]
        if a == y or not is_identified(cpdag, (a,), y):
            continue
        if y in cpdag.parents_of(a):
            continue
        sem = random_sem(dag, rng)
        sigma = sem.implied_covariance()
        cov = SampleCovariance(sigma, dag.vertices)
        plan = build_plan(cpdag, (a,), y)
        acov_g = delta_method_acov(g_regression(cov, plan.buckets), plan, cov)

        # population avar of OLS of y on (a, parents of a): residual
        # variance times the (a, a) entry of the inverse design second moment
        z = sorted(cpdag.parents_of(a))
        cols = [a] + z
        pos = [dag.index(v) for v in cols]
        sxx = sigma[np.ix_(pos, pos)]
        sxy = sigma[pos, dag.index(y)]
        beta = np.linalg.solve(sxx, sxy)
        resid = sigma[dag.index(y), dag.index(y)] - beta @ sxy
        avar_adj = resid * np.linalg.inv(sxx)[0, 0]
        assert acov_g[0, 0] <= avar_adj + 1e-9
        if acov_g[0, 0] < avar_adj - 1e-9:
            wins += 1
        else:
            ties += 1
    assert wins > 0

    # equality case: with no other vertices the two estimators coincide
    g2 = Pdag(("a", "y"), directed=(("a", "y"),))
    cov2 = SampleCovariance(np.array([[1.0, 0.4], [0.4, 2.0]]), ("a", "y"))
    plan2 = build_plan(g2, ("a",), "y")
    acov2 = delta_method_acov(g_regression(cov2, plan2.buckets), plan2, cov2)
    want = (2.0 - 0.4**2 / 1.0) / 1.0
    assert acov2[0, 0] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# full estimator and bootstrap


def test_estimate_requires_exactly_one_input_source(chain_sem, rng):
    g = chain_sem.graph
    data = sample(chain_sem, 50, rng)
    cov = sample_covariance(data, g.vertices)
    with pytest.raises(GraphValidationError):
        estimate_total_effect(g, ("a",), "y")
    with pytest.raises(GraphValidationError):
        estimate_total_effect(g, ("a",), "y", data=data, columns=g.vertices, cov=cov)
    with pytest.raises(GraphValidationError):
        estimate_total_effect(g, ("a",), "y", cov=cov, n_boot=100)
    with pytest.raises(GraphValidationError, match="columns= names data columns"):
        estimate_total_effect(g, ("a",), "y", cov=cov, columns=("zz",))
    with pytest.raises(GraphValidationError, match="center= centres data columns"):
        estimate_total_effect(g, ("a",), "y", cov=cov, center=True)
    with pytest.raises(DegenerateSampleError):
        estimate_total_effect(g, ("a",), "y", data=data, columns=("a", "m"))


def test_estimate_refuses_a_bootstrap_on_cov_before_fitting(chain_sem, monkeypatch):
    g = chain_sem.graph
    cov = SampleCovariance(chain_sem.implied_covariance(), g.vertices)

    def no_fit(*args):
        raise AssertionError("fitted before refusing the bootstrap")

    monkeypatch.setattr("causaleffects.estimate.g_regression", no_fit)
    with pytest.raises(GraphValidationError, match="bootstrap intervals need raw data"):
        estimate_total_effect(g, ("a",), "y", cov=cov, n_boot=100)


def test_non_numeric_entries_are_degenerate_samples(chain_sem):
    g = chain_sem.graph
    data = sample(chain_sem, 50, rng_from_seed(3)).astype(object)
    data[2, 1] = "x"
    with pytest.raises(DegenerateSampleError,
                       match="data must hold numbers: could not convert string to float: 'x'"):
        sample_covariance(data, g.vertices)
    m = chain_sem.implied_covariance().astype(object)
    m[0, 0] = "x"
    with pytest.raises(DegenerateSampleError, match="covariance matrix must hold numbers: "):
        SampleCovariance(m, g.vertices)


# every entry point that takes ``center``, called with it
_CENTERED = {
    "sample_covariance": lambda g, data, center: sample_covariance(data, g.vertices, center),
    "adjustment_estimate": lambda g, data, center: adjustment_estimate(
        data, g.vertices, ("a",), "y", ("m",), center=center),
    "bootstrap_ci": lambda g, data, center: bootstrap_ci(
        data, g.vertices, build_plan(g, ("a",), "y"), n_boot=20, center=center),
    "estimate_total_effect": lambda g, data, center: estimate_total_effect(
        g, ("a",), "y", data=data, center=center),
}


@pytest.mark.parametrize("entry", list(_CENTERED))
@pytest.mark.parametrize("center", ["no", 0, 1, None, np.array([True])])
def test_center_must_be_a_bool(chain_sem, monkeypatch, entry, center):
    """``center`` is checked, not read by truth value, before any moment."""
    def no_moments(*args):
        raise AssertionError("a moment was formed before center was checked")

    monkeypatch.setattr("causaleffects.estimate._second_moment", no_moments)
    data = sample(chain_sem, 100, rng_from_seed(3))
    with pytest.raises(GraphValidationError,
                       match=re.escape(f"center must be a bool, got {center!r}")):
        _CENTERED[entry](chain_sem.graph, data, center)


@pytest.mark.parametrize("entry", list(_CENTERED))
def test_center_reads_a_numpy_bool_as_a_bool(chain_sem, entry):
    data = sample(chain_sem, 100, rng_from_seed(3)) + 1.0
    for center in (False, True):
        got = _CENTERED[entry](chain_sem.graph, data, np.bool_(center))
        want = _CENTERED[entry](chain_sem.graph, data, center)
        assert repr(got) == repr(want)


def _counting(monkeypatch, name):
    """Wrap ``causaleffects.estimate.<name>`` so each call is recorded."""
    import causaleffects.estimate as module

    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_estimate_refuses_a_query_before_reading_the_data(three_bucket_graph, monkeypatch):
    calls = _counting(monkeypatch, "_data_matrix")
    data = rng_from_seed(8).normal(size=(50, 6))
    with pytest.raises(NotIdentifiedError):
        estimate_total_effect(three_bucket_graph, ("3",), "5", data=data)
    with pytest.raises(GraphValidationError, match="treatment set is empty"):
        estimate_total_effect(three_bucket_graph, (), "5", data=data)
    assert calls == []
    estimate_total_effect(three_bucket_graph, ("1",), "5", data=data)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n_boot=1), "need at least 2 bootstrap replicates, got 1"),
        (dict(n_boot=-3), "need at least 2 bootstrap replicates, got -3"),
        (dict(n_boot=20, level=1.5), "confidence level must be in (0, 1), got 1.5"),
        (dict(n_boot=20, seed=-1), "seed must be an integer in [0, 2**64), got -1"),
        (dict(n_boot=20, level="0.9"), "level must be a finite number, got '0.9'"),
        (dict(n_boot=True), "n_boot must be an integer, got True"),
        (dict(n_boot=0.0), "n_boot must be an integer, got 0.0"),
        # level and seed are checked without a bootstrap too
        (dict(n_boot=0, level=5), "confidence level must be in (0, 1), got 5"),
        (dict(seed=-1), "seed must be an integer in [0, 2**64), got -1"),
    ],
)
def test_estimate_checks_bootstrap_arguments_before_fitting(chain_sem, monkeypatch,
                                                            kwargs, message):
    fits = _counting(monkeypatch, "g_regression")
    moments = _counting(monkeypatch, "_data_matrix")
    data = sample(chain_sem, 200, rng_from_seed(11))
    with pytest.raises(GraphValidationError, match=re.escape(message)):
        estimate_total_effect(chain_sem.graph, ("a",), "y", data=data, **kwargs)
    assert fits == [] and moments == []
    # named before an effect that is not identified, too
    g = Mpdag(("a", "m", "y"), directed=(("m", "y"),), undirected=(("a", "m"),))
    with pytest.raises(GraphValidationError, match=re.escape(message)):
        estimate_total_effect(g, ("a",), "y", data=data, **kwargs)


@pytest.mark.parametrize(
    "treatment, adjust, message",
    [
        ((), ("c",), "treatment set is empty"),
        (("a", "a"), ("c",), "treatment labels must be distinct"),
        (("a",), ("c", "c"), "adjustment set labels must be distinct"),
        (("a",), ("c", "a"), "adjustment set overlaps treatment/outcome"),
        (("a",), ("y",), "adjustment set overlaps treatment/outcome"),
        (("a", "y"), ("c",), "outcome cannot be part of the treatment set"),
        (("nope",), ("c",), "unknown vertex label 'nope'"),
        (("a",), ("nope",), "unknown vertex label 'nope'"),
    ],
)
def test_adjustment_refuses_malformed_sets(confounder_sem, monkeypatch, treatment, adjust,
                                           message):
    calls = _counting(monkeypatch, "sample_covariance")
    data = sample(confounder_sem, 100, rng_from_seed(2))
    with pytest.raises(GraphValidationError, match=re.escape(message)):
        adjustment_estimate(data, confounder_sem.graph.vertices, treatment, "y", adjust)
    assert calls == []  # refused before any moment is formed


# tau and acov of the covariate-adjustment baseline, by repr of their Python
# floats: rows 1-6 of a random SEM on 2 -> 1, 2 -> 4, 2 -> 5, 1 -> 3, 1 -> 4,
# 5 -> 3, 3 -> 4, 3 -> 6, 4 -> 6, 5 -> 6, then its population covariance.
# The acov is symmetrized as (a + a') / 2, which keeps every diagonal entry
_PINNED_ADJUSTMENTS = {
    (("1",), "6", (), False):
        "([-1.4290006451892718], [[18.043176815326568]])",
    (("1",), "6", ("2",), True):
        "([-1.0570627367643615], [[17.88197434825991]])",
    (("1", "5"), "6", ("2",), False):
        "([-1.0691169336520931, -0.10167785037509512], [[18.581800700251478, "
        "4.832509612416996], [4.832509612416996, 32.671453204374934]])",
    (("3", "4"), "6", (), True):
        "([0.8455992719847034, 1.300194287424943], [[3.909917216497802, "
        "-0.6016145868191326], [-0.6016145868191326, 0.6588046119846611]])",
}
_PINNED_POPULATION_ADJUSTMENT = "([4.0668245574062505], [[7.30702974400938]])"


def test_adjustment_is_pinned_bit_for_bit():
    dag = random_dag(6, 2.5, rng_from_seed(25))
    sem = random_sem(dag, rng_from_seed(26))
    data = sample(sem, 200, rng_from_seed(27))
    for (treatment, outcome, adjust, center), pinned in _PINNED_ADJUSTMENTS.items():
        est = adjustment_estimate(data, dag.vertices, treatment, outcome, adjust, center=center)
        assert repr((est.tau.tolist(), est.acov.tolist())) == pinned, (treatment, adjust)
        assert np.array_equal(est.acov, est.acov.T)
    pop = SampleCovariance(sem.implied_covariance(), dag.vertices)
    est = _adjustment_from_cov(pop, ("3",), "6", ("1", "5"))
    assert repr((est.tau.tolist(), est.acov.tolist())) == _PINNED_POPULATION_ADJUSTMENT


def test_adjustment_refuses_an_ill_conditioned_set_by_the_fit():
    """The adjustment regression is the fit's one-bucket case: a singular
    design is refused in the fit's words, naming the outcome's bucket."""
    sigma = np.eye(4)
    sigma[1, 2] = sigma[2, 1] = 1.0 - 1e-12
    cov = SampleCovariance(sigma, ("a", "z1", "z2", "y"))
    with pytest.raises(IllConditionedError,
                       match=re.escape("regression of bucket ('y',) on ('a', 'z1', 'z2'): "
                                       "condition number")):
        _adjustment_from_cov(cov, ("a",), "y", ("z1", "z2"))


@pytest.mark.parametrize("cond", [10.0, 0.75 * COND_LIMIT, 10 * COND_LIMIT],
                         ids=["well_conditioned", "near_the_limit", "refused"])
def test_a_one_bucket_fit_tests_its_parents_once(monkeypatch, cond):
    """A fit with one bucket that has parents, as the adjustment regression
    is, tests that parent set once, directly: a union test over a single
    set would only repeat it, and above COND_LIMIT / 2 be repeated."""
    r = (cond - 1.0) / (cond + 1.0)  # the 2 x 2 correlation matrix of this condition number
    sigma = np.eye(3)
    sigma[0, 1] = sigma[1, 0] = r
    cov = SampleCovariance(sigma, ("a", "z", "y"))
    calls = _counting(monkeypatch, "_condition")
    with pytest.raises(IllConditionedError) if cond > COND_LIMIT else nullcontext():
        _adjustment_from_cov(cov, ("a",), "y", ("z",))
    assert len(calls) == 1


def test_regressions_refuse_a_model_or_covariance_that_does_not_fit(three_bucket_graph):
    g = three_bucket_graph
    plan = build_plan(g, ("1",), "5")
    cov = sample_covariance(rng_from_seed(8).normal(size=(50, 6)), g.vertices)
    other = SampleCovariance(cov.matrix, ("1", "2", "3", "4", "5", "x"))
    for fit in (g_regression, gbar_regression,
                lambda c, p: delta_method_acov(g_regression(cov, p), p, c)):
        with pytest.raises(GraphValidationError, match="cover different vertex sets"):
            fit(other, plan)
    # fitted for another plan of the same graph: bucket {5, 6} is missing
    partial = g_regression(cov, build_plan(g, ("1",), "3"))
    for read in (effect_from_lambda, effect_gradients):
        with pytest.raises(GraphValidationError, match="does not hold every bucket"):
            read(partial, plan)


def test_estimate_propagates_not_identified():
    g = Mpdag(("a", "y"), undirected=(("a", "y"),))
    cov = SampleCovariance(np.eye(2), ("a", "y"))
    with pytest.raises(NotIdentifiedError):
        estimate_total_effect(g, ("a",), "y", cov=cov)


def test_estimate_accepts_reordered_columns(chain_sem, rng):
    g = chain_sem.graph
    data = sample(chain_sem, 500, rng)
    shuffled = data[:, [2, 0, 1]]
    est1 = estimate_total_effect(g, ("a",), "y", data=data, columns=("a", "m", "y"))
    est2 = estimate_total_effect(g, ("a",), "y", data=shuffled, columns=("y", "a", "m"))
    assert est1.tau == pytest.approx(est2.tau, abs=1e-12)


def test_ill_conditioned_parents_refused():
    eps = 1e-12
    m = np.eye(3)
    m[0, 1] = m[1, 0] = 1.0 - eps
    cov = SampleCovariance(m, ("z1", "z2", "b"))
    g = Pdag(("z1", "z2", "b"), directed=(("z1", "b"), ("z2", "b")))
    with pytest.raises(IllConditionedError) as exc:
        estimate_total_effect(g, ("z1",), "b", cov=cov)
    assert exc.value.cond is None or exc.value.cond > 1e10


def test_plan_fit_ignores_buckets_outside_the_plan(side_collider):
    g, sigma = side_collider
    cov = SampleCovariance(sigma, g.vertices)
    # fitting every bucket refuses w's nearly collinear parents ...
    with pytest.raises(IllConditionedError):
        g_regression(cov, bucket_decomposition(g))
    # ... which the effect of a on y never reads
    est = estimate_total_effect(g, ("a",), "y", cov=cov)
    assert est.tau == pytest.approx([0.5], abs=1e-12)
    with pytest.raises(IllConditionedError) as exc:
        estimate_total_effect(g, ("z1",), "w", cov=cov)
    assert exc.value.cond > 1e10


def test_plan_model_holds_exactly_the_plan_blocks(rng):
    checked = 0
    while checked < 10:
        g, dag = random_mpdag(rng, int(rng.integers(5, 10)))
        labels = g.vertices
        a = (labels[int(rng.integers(len(labels)))],)
        y = labels[int(rng.integers(len(labels)))]
        if y in a or not is_identified(g, a, y):
            continue
        plan = build_plan(g, a, y)
        if len(plan.bucket_order) == len(plan.buckets):
            continue
        cov = SampleCovariance(random_sem(dag, rng).implied_covariance(), dag.vertices)
        for fit in (g_regression, gbar_regression):
            full = fit(cov, plan.buckets)
            part = fit(cov, plan)
            for k in range(len(plan.buckets)):
                if k in plan.bucket_order:
                    assert np.array_equal(part.lambda_blocks[k], full.lambda_blocks[k])
                    assert np.array_equal(part.omega_blocks[k], full.omega_blocks[k])
                else:
                    assert part.lambda_blocks[k] is None and part.omega_blocks[k] is None
            with pytest.raises(GraphValidationError, match="not fitted"):
                covariance_map(part)
        full, part = g_regression(cov, plan.buckets), g_regression(cov, plan)
        assert np.array_equal(effect_from_lambda(part, plan), effect_from_lambda(full, plan))
        assert np.array_equal(delta_method_acov(part, plan, cov),
                              delta_method_acov(full, plan, cov))
        checked += 1


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
        np.array([[1.0, 1.0], [1.0, 1.0]]),  # exactly singular
    ],
)
def test_solve_refuses_non_positive_definite(a):
    with pytest.raises(IllConditionedError, match="not positive definite") as exc:
        _accepted(a[None], "test system")
    assert exc.value.cond == float("inf")


@pytest.mark.parametrize("n_boot", [-1, 0, 1, 2.5, 0.0, True])
def test_bootstrap_needs_two_replicates(chain_sem, n_boot):
    data = sample(chain_sem, 200, rng_from_seed(11))
    g = chain_sem.graph
    plan = build_plan(g, ("a",), "y")
    with pytest.raises(GraphValidationError, match=f"got {n_boot}$"):
        bootstrap_ci(data, g.vertices, plan, n_boot=n_boot)
    est = estimate_total_effect(g, ("a",), "y", data=data, n_boot=0)
    assert est.ci_lower is None and est.boot_acov is None
    if type(n_boot) is not int or n_boot != 0:  # the integer 0 alone asks for no bootstrap
        with pytest.raises(GraphValidationError, match=f"got {n_boot}$"):
            estimate_total_effect(g, ("a",), "y", data=data, n_boot=n_boot)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(level=0.0), r"confidence level must be in \(0, 1\), got 0.0"),
        (dict(level=1.0), r"confidence level must be in \(0, 1\), got 1.0"),
        (dict(columns=("a", "m", "z")), "data columns and plan cover different vertex sets"),
        (dict(level=np.nan), "level must be a finite number, got nan"),
        (dict(level="0.9"), "level must be a finite number, got '0.9'"),
        (dict(seed=True), "seed must be an integer, got True"),
        (dict(level=10**400), "level must be a finite number, got 1000"),  # float() overflows
    ],
)
def test_bootstrap_refuses_bad_arguments(chain_sem, kwargs, message):
    g = chain_sem.graph
    kw = {"data": sample(chain_sem, 200, rng_from_seed(11)), "columns": g.vertices,
          "plan": build_plan(g, ("a",), "y"), "n_boot": 20, **kwargs}
    with pytest.raises(GraphValidationError, match=message):
        bootstrap_ci(**kw)


def test_bootstrap_is_deterministic(chain_sem):
    rng = rng_from_seed(11)
    data = sample(chain_sem, 400, rng)
    g = chain_sem.graph
    plan = build_plan(g, ("a",), "y")
    kw = dict(n_boot=80, level=0.9, seed=123)
    lo1, hi1, acov1, rej1 = bootstrap_ci(data, g.vertices, plan, **kw)
    lo2, hi2, acov2, rej2 = bootstrap_ci(data, g.vertices, plan, **kw)
    assert np.array_equal(lo1, lo2) and np.array_equal(hi1, hi2)
    assert np.array_equal(acov1, acov2) and rej1 == rej2
    lo3, _, _, _ = bootstrap_ci(data, g.vertices, plan, n_boot=80, level=0.9, seed=124)
    assert not np.array_equal(lo1, lo3)
    # the pipeline hands its own plan to the bootstrap: same replicates
    est = estimate_total_effect(g, ("a",), "y", data=data, **kw)
    assert np.array_equal(est.ci_lower, lo1) and np.array_equal(est.ci_upper, hi1)
    assert np.array_equal(est.boot_acov, acov1) and est.boot_rejected == rej1


def test_estimate_dict_reads_back_from_json_with_numpy_arguments(chain_sem):
    """numpy integers come back as Python ints, so the dict is valid JSON."""
    g = chain_sem.graph
    cov = SampleCovariance(chain_sem.implied_covariance(), g.vertices, n=np.int64(50))
    est = estimate_total_effect(g, ("a",), "y", cov=cov)
    assert type(est.n) is int and json.loads(json.dumps(est.to_dict())) == est.to_dict()
    data = sample(chain_sem, 200, rng_from_seed(11))
    est = estimate_total_effect(g, ("a",), "y", data=data, n_boot=np.int64(20),
                                level=np.float32(0.5), seed=np.uint64(3))
    d = est.to_dict()
    assert json.loads(json.dumps(d)) == d and d["seed"] == 3 and d["ci"]["level"] == 0.5


def test_bootstrap_acov_tracks_delta_method(chain_sem):
    rng = rng_from_seed(29)
    data = sample(chain_sem, 5000, rng)
    g = chain_sem.graph
    est = estimate_total_effect(
        g, ("a",), "y", data=data, n_boot=400, level=0.95, seed=7
    )
    assert est.ci_lower is not None and est.ci_upper is not None
    assert est.ci_lower[0] < est.tau[0] < est.ci_upper[0]
    assert est.boot_acov[0, 0] == pytest.approx(est.acov[0, 0], rel=0.15)
    d = est.to_dict()
    assert d["ci"]["level"] == 0.95
    assert d["tau"] == {t: float(v) for t, v in zip(est.treatment, est.tau)}


def test_bootstrap_refuses_fragile_samples():
    """Tiny n with duplicated resample rows degenerates often enough that
    the rejection guard trips, with the count of the one-replicate-at-a-time
    loop in its message."""
    g = Pdag(("z1", "z2", "b"), directed=(("z1", "b"), ("z2", "b")))
    plan = build_plan(g, ("z1",), "b")
    rng = rng_from_seed(5)
    distinct = dict(zip("rst", rng.normal(size=(3, 3))))
    # rrrrrrst: over half of the resamples miss s or t, and drawing stops
    # at the cap.  rrrst: fewer rejections, but still more than 10%.  Both
    # have a positive definite X'X/n, so bootstrap_ci starts drawing.
    for rows, n_boot in (("rrrrrrst", 50), ("rrrst", 20)):
        data = np.array([distinct[c] for c in rows])
        sample_covariance(data, g.vertices)
        lower, _, _, rejected = oracles.bootstrap_loop_oracle(
            data, g.vertices, plan, n_boot=n_boot, level=0.95, seed=2
        )
        assert lower is None and (rejected > max(10, n_boot)) == (rows == "rrrrrrst")
        with pytest.raises(IllConditionedError, match="bootstrap") as exc:
            bootstrap_ci(data, g.vertices, plan, n_boot=n_boot, seed=2)
        assert str(exc.value) == (
            f"bootstrap rejected {rejected} of {n_boot + rejected} replicates "
            "(resampled covariances singular)"
        )


def _counting_philox(monkeypatch) -> list:
    """The list that each later ``np.random.Philox(...)`` call appends to."""
    made, real = [], np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: made.append(k) or real(*a, **k))
    return made


def test_bootstrap_refuses_bad_data_before_drawing(chain_sem, monkeypatch):
    """Data that sample_covariance refuses raise its own message before any
    generator is made, not a count of rejected replicates, also in a
    bootstrapped estimate."""
    g = chain_sem.graph
    plan = build_plan(g, ("a",), "y")
    data = sample(chain_sem, 200, rng_from_seed(13))
    with_nan, collinear, huge = data.copy(), data.copy(), data.copy()
    with_nan[7, 1] = np.nan
    collinear[:, 2] = 2.0 * collinear[:, 1] - collinear[:, 0]
    huge[5, 0] = 1e200  # X'X/n overflows, and numpy warns
    made = _counting_philox(monkeypatch)

    def bootstrapped_estimate(bad, columns, center):
        return estimate_total_effect(g, ("a",), "y", data=bad, columns=columns,
                                     center=center, n_boot=40)

    def refusal(call, bad, center):
        kw = {"plan": plan, "n_boot": 40} if call is bootstrap_ci else {}
        with pytest.raises(DegenerateSampleError) as exc:
            call(bad, g.vertices, center=center, **kw)
        return str(exc.value)

    for center in (False, True):
        for bad, reason in ((with_nan, "non-finite"),
                            (data[:, :2], "2 columns but 3 vertex labels"),
                            (data[:3], "more rows than columns"),
                            (collinear, "covariance matrix is not positive definite"),
                            (huge, "covariance contains non-finite values")):
            with pytest.warns(RuntimeWarning, match="overflow") if bad is huge else nullcontext():
                got, est, want = (refusal(call, bad, center) for call in
                                  (bootstrap_ci, bootstrapped_estimate, sample_covariance))
            assert got == est == want and reason in got
    assert made == []


def _bootstrap_against_loop(data, columns, plan, **kw):
    """bootstrap_ci next to the one-replicate-at-a-time oracle: equal to
    1e-12 and the same rejection count.  Returns the count."""
    lower, upper, acov, rejected = oracles.bootstrap_loop_oracle(data, columns, plan, **kw)
    got = bootstrap_ci(data, columns, plan, **kw)
    assert got[3] == rejected
    for value, want in zip(got[:3], (lower, upper, acov)):
        np.testing.assert_allclose(value, want, rtol=1e-12, atol=1e-12)
    return rejected


@pytest.mark.parametrize("center", [False, True])
def test_bootstrap_matches_per_replicate_loop(chain_sem, center):
    data = sample(chain_sem, 300, rng_from_seed(3))
    plan = build_plan(chain_sem.graph, ("a",), "y")
    for seed in (5, 2**64 - 1):  # the largest seed keys Philox with every bit set
        _bootstrap_against_loop(data, chain_sem.graph.vertices, plan,
                                n_boot=60, level=0.9, seed=seed, center=center)
    rng = rng_from_seed(41)
    done = 0
    while done < 20:
        g, dag = random_mpdag(rng, int(rng.integers(4, 10)))
        labels = dag.vertices
        size = 1 + done % 2
        a = tuple(str(v) for v in rng.choice(labels, size=size, replace=False))
        y = labels[int(rng.integers(len(labels)))]
        if y in a or not is_identified(g, a, y):
            continue
        data = sample(random_sem(dag, rng), 200, rng)
        _bootstrap_against_loop(data, labels, build_plan(g, a, y),
                                n_boot=30, level=0.95, seed=done, center=center)
        done += 1


def test_bootstrap_forms_no_sample_covariance(chain_sem, monkeypatch):
    """Replicates form their moments directly from checked rows: a
    bootstrapped estimate takes the one data path once, for its point
    estimate, and builds one SampleCovariance."""
    calls = _counting(monkeypatch, "_moments")
    built = _counting(monkeypatch, "SampleCovariance")
    data = sample(chain_sem, 200, rng_from_seed(3))
    est = estimate_total_effect(chain_sem.graph, ("a",), "y", data=data, n_boot=30,
                                center=True)
    assert len(calls) == 1 and len(built) == 1 and est.boot_rejected == 0


@pytest.mark.parametrize("center", [False, True])
@pytest.mark.parametrize("n_boot", [2, 25])
def test_estimate_reads_checks_and_factors_its_data_once(chain_sem, monkeypatch, center,
                                                         n_boot):
    """One factorization of X'X/n for the estimate and one per replicate:
    the bootstrap resamples the rows the estimate checked."""
    reads = _counting(monkeypatch, "_data_matrix")
    moments = _counting(monkeypatch, "_second_moment")
    factors, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factors.append(a) or cholesky(a))
    data = sample(chain_sem, 200, rng_from_seed(3))
    est = estimate_total_effect(chain_sem.graph, ("a",), "y", data=data, n_boot=n_boot,
                                center=center)
    assert est.boot_rejected == 0
    assert (len(reads), len(moments), len(factors)) == (1, 1 + n_boot, 1 + n_boot)


@pytest.mark.parametrize("floor", [0.0, 1e-7])
@pytest.mark.parametrize("center", [False, True])
def test_bootstrap_redraws_match_per_replicate_loop(floor, center):
    """Outside 3 of the 50 rows z2 is zero (floor 0) or at scale 1e-7, so a
    resample that misses those rows is rejected: by its full covariance
    (floor 0) or by the condition number of b's parents z1, z2 (1e-7)."""
    g = Pdag(("z1", "z2", "b"), directed=(("z1", "b"), ("z2", "b")))
    rng = rng_from_seed(17)
    x = rng.standard_normal((50, 3))
    x[3:, 1] *= floor
    x[:, 2] += x[:, 0] + x[:, 1]
    plan = build_plan(g, ("z1",), "b")
    rejected = _bootstrap_against_loop(x, g.vertices, plan, n_boot=100, level=0.95,
                                       seed=4, center=center)
    assert 0 < rejected <= 11


def _pinned_joint_query():
    """``(mpdag, treatment, outcome, data)``: the first identified query with
    two treatments from a fixed stream, with 200 rows of a random SEM on a
    DAG the MPDAG represents; the pinned joint bootstrap and estimates read
    it."""
    rng = rng_from_seed(47)
    while True:
        mpdag, dag = random_mpdag(rng, 8)
        a0, a1, y = (dag.vertices[int(k)] for k in rng.choice(8, size=3, replace=False))
        if is_identified(mpdag, (a0, a1), y):
            return mpdag, (a0, a1), y, sample(random_sem(dag, rng), 200, rng)


def _pinned_bootstrap_calls(chain_sem):
    """The bootstrap_ci arguments whose results _PINNED_BOOTSTRAP records."""
    g = chain_sem.graph
    chain = dict(data=sample(chain_sem, 300, rng_from_seed(3)), columns=g.vertices,
                 plan=build_plan(g, ("a",), "y"), n_boot=40, level=0.9, seed=5)
    mpdag, treatment, y, data = _pinned_joint_query()
    joint = dict(data=data, columns=mpdag.vertices,
                 plan=build_plan(mpdag, treatment, y), n_boot=40, seed=6)
    # z2 is zero outside 3 of the 50 rows: 6 rejections, redrawn in later batches
    z = Pdag(("z1", "z2", "b"), directed=(("z1", "b"), ("z2", "b")))
    x = rng_from_seed(17).standard_normal((50, 3))
    x[3:, 1] = 0.0
    x[:, 2] += x[:, 0] + x[:, 1]
    return {
        "chain": chain,
        "chain_center": {**chain, "center": True},
        "joint": joint,
        "redrawn": dict(data=x, columns=z.vertices, plan=build_plan(z, ("z1",), "b"),
                        n_boot=100, seed=4),
        "last_seed": {**chain, "seed": 2**64 - 1},
    }


# repr of (lower, upper, boot_acov, rejected) as Python floats, which repr
# exactly; recorded when each replicate still built its own Philox generator
_PINNED_BOOTSTRAP = {
    "chain": "([5.6032079520692415], [6.149412286635187], [[8.550749093092321]], 0)",
    "chain_center": "([5.606305648649057], [6.168818102329271], [[8.821105059455434]], 0)",
    "joint": "([0.016128111085323665, -1.6687100048600563], "
             "[0.20835112280059515, -1.3880816473140982], "
             "[[0.5940123691415783, 0.06887285148082979], "
             "[0.06887285148082979, 1.2115068391555048]], 0)",
    "redrawn": "([0.47739282758388707], [0.9997429677116203], [[1.0294811049565034]], 6)",
    "last_seed": "([5.679533738885571], [6.129589546944949], [[7.80779825297734]], 0)",
}


def test_bootstrap_draws_are_pinned_bit_for_bit(chain_sem):
    calls = _pinned_bootstrap_calls(chain_sem)
    assert len(calls["joint"]["plan"].treatment) == 2
    for name, kw in calls.items():
        lower, upper, acov, rejected = bootstrap_ci(**kw)
        got = repr((lower.tolist(), upper.tolist(), acov.tolist(), rejected))
        assert got == _PINNED_BOOTSTRAP[name], name


# repr of (tau, acov) as Python floats, recorded before tau had one assembly
_PINNED_ESTIMATES = {
    "chain": "([5.9009582428949185], [[9.892561128333302]])",
    "chain_center": "([5.901507340057874], [[9.899199295464413]])",
    "joint": "([0.0904443895092481, -1.556546188590824], "
             "[[0.4277801257193339, 0.08594079013813208], "
             "[0.08594079013813208, 1.3342242607073682]])",
    "joint_center": "([0.09005273797664087, -1.5537634422376068], "
                    "[[0.4227107296593189, 0.08470250250241992], "
                    "[0.08470250250241992, 1.3174367781127583]])",
}


def test_point_estimates_are_pinned_bit_for_bit(chain_sem):
    g = chain_sem.graph
    queries = {"chain": (g, ("a",), "y", sample(chain_sem, 300, rng_from_seed(3))),
               "joint": _pinned_joint_query()}
    for name, (graph, treatment, y, data) in queries.items():
        for center in (False, True):
            est = estimate_total_effect(graph, treatment, y, data=data, center=center)
            key = name + ("_center" if center else "")
            assert repr((est.tau.tolist(), est.acov.tolist())) == _PINNED_ESTIMATES[key], key


def test_centred_results_do_not_depend_on_the_data_layout(chain_sem):
    """Column means add in one order for row-major and column-major data,
    so centred estimates and bootstrap intervals agree bit for bit."""
    g = chain_sem.graph
    plan = build_plan(g, ("a",), "y")
    for r, n in enumerate((100, 300, 1000, 2000)):
        rows = sample(chain_sem, n, rng_from_seed(60, r)) + np.array([3.0, -7.5, 11.0])
        cols = np.asfortranarray(rows)
        est = [estimate_total_effect(g, ("a",), "y", data=x, center=True) for x in (rows, cols)]
        boot = [bootstrap_ci(x, g.vertices, plan, n_boot=20, seed=r, center=True)
                for x in (rows, cols)]
        # reprs of lists, which are exact where an array's repr rounds
        got = [repr((e.tau.tolist(), e.acov.tolist(), [v.tolist() for v in b[:3]]))
               for e, b in zip(est, boot)]
        assert got[0] == got[1]


@pytest.mark.parametrize("n_boot", [2, 25, 500])
def test_bootstrap_makes_one_generator_per_call(chain_sem, monkeypatch, n_boot):
    """Replicates reset the counter of one Philox generator; none constructs
    its own.  On the rrrst rows of test_bootstrap_refuses_fragile_samples,
    rejections send n_boot 25 and 500 back for further batches of streams."""
    chain = sample(chain_sem, 200, rng_from_seed(3))  # rng_from_seed makes a Philox too
    g = Pdag(("z1", "z2", "b"), directed=(("z1", "b"), ("z2", "b")))
    distinct = dict(zip("rst", rng_from_seed(5).normal(size=(3, 3))))
    fragile = np.array([distinct[c] for c in "rrrst"])
    made = _counting_philox(monkeypatch)
    batches = _counting(monkeypatch, "_fit_stack")
    bootstrap_ci(chain, chain_sem.graph.vertices, build_plan(chain_sem.graph, ("a",), "y"),
                 n_boot=n_boot, seed=9)
    assert len(made) == 1 and len(batches) == 1
    try:
        bootstrap_ci(fragile, g.vertices, build_plan(g, ("z1",), "b"), n_boot=n_boot, seed=2)
    except IllConditionedError:  # n_boot 25 and 500: too many rejections
        pass
    assert len(made) == 2 and (len(batches) > 2) == (n_boot > 2)


_SOLVE = np.linalg.solve


def _solve_numpy1(a, b):
    """``np.linalg.solve`` as numpy < 2 reads its arguments: a right-hand
    side with one axis fewer than ``a`` is a stack of vectors."""
    a, b = np.asarray(a), np.asarray(b)
    if b.ndim == a.ndim - 1:
        return _SOLVE(a, b[..., None])[..., 0]
    return _SOLVE(a, b)


def test_solves_read_the_same_before_numpy2(chain_sem, monkeypatch):
    """numpy 1.x and 2.x disagree on a right-hand side with one axis fewer
    than a stacked left-hand side; every solve of the package must give the
    same result under both readings (pyproject allows numpy>=1.24)."""
    data = sample(chain_sem, 300, rng_from_seed(8))
    g = chain_sem.graph
    plan = build_plan(g, ("a",), "y")
    kw = dict(n_boot=40, level=0.9, seed=3)
    runs = []
    for solve in (_SOLVE, _solve_numpy1):
        monkeypatch.setattr(np.linalg, "solve", solve)
        est = estimate_total_effect(g, ("a",), "y", data=data, **kw)
        runs.append((est.tau, est.acov, est.ci_lower, est.ci_upper, est.boot_acov,
                     *bootstrap_ci(data, g.vertices, plan, center=True, **kw)))
    for got, want in zip(runs[1], runs[0]):
        assert np.array_equal(got, want)
