from __future__ import annotations

import copy
import re

import numpy as np
import pytest

from causaleffects import (
    ERROR_FAMILIES,
    ErrorSpec,
    GraphValidationError,
    LinearSem,
    Pdag,
    SampleCovariance,
    build_plan,
    efficiency_bound,
    load_sem,
    random_dag,
    random_sem,
    rng_from_seed,
    sample,
    save_sem,
    sem_from_dict,
    sem_to_dict,
    true_effect_blockform,
    true_effect_pathsum,
)

from . import oracles


# ---------------------------------------------------------------------------
# error families


@pytest.mark.parametrize(
    "family,param,want",
    [
        ("gaussian", 2.5, 2.5),
        ("scaled_t5", 1.2, 2.0),
        ("logistic", 0.6, 0.36 * np.pi**2 / 3.0),
        ("uniform", 1.5, 0.75),
    ],
)
def test_error_variance_formulas(family, param, want):
    assert ErrorSpec(family, param).variance == pytest.approx(want)


def test_error_spec_validation():
    with pytest.raises(GraphValidationError):
        ErrorSpec("cauchy", 1.0)
    with pytest.raises(GraphValidationError):
        ErrorSpec("mixed", 1.0)  # a value of random_sem's family, not a family
    with pytest.raises(GraphValidationError):
        ErrorSpec("gaussian", 0.0)


@pytest.mark.parametrize("family", ERROR_FAMILIES)
def test_error_draw_moments(family):
    spec = ErrorSpec(family, 1.1)
    x = spec.draw(rng_from_seed(101, ERROR_FAMILIES.index(family)), 400_000)
    assert abs(x.mean()) < 0.02
    assert x.var() == pytest.approx(spec.variance, rel=0.05)


def test_tail_shapes_distinguish_families():
    n = 400_000
    t = ErrorSpec("scaled_t5", 1.0).draw(rng_from_seed(55), n)
    u = ErrorSpec("uniform", 1.7).draw(rng_from_seed(56), n)
    kurt = lambda x: float(np.mean(x**4) / np.mean(x**2) ** 2)
    assert kurt(t) > 5.0  # t with 5 dof: population kurtosis 9
    assert kurt(u) == pytest.approx(1.8, abs=0.05)  # uniform: 9/5
    assert np.max(np.abs(u)) <= 1.7 + 1e-12


# ---------------------------------------------------------------------------
# model construction


def test_linear_sem_validates_support(chain_sem):
    g = chain_sem.graph
    bad = chain_sem.gamma.copy()
    bad[2, 0] = 0.5  # y -> a is not an edge
    with pytest.raises(GraphValidationError):
        LinearSem(g, bad, chain_sem.errors)
    with pytest.raises(GraphValidationError):
        LinearSem(g, chain_sem.gamma, chain_sem.errors[:2])
    two = Pdag(("a", "b"), (("a", "b"),))
    with pytest.raises(GraphValidationError, match=r"^gamma must be 2x2, got \(3, 3\)$"):
        LinearSem(two, chain_sem.gamma, chain_sem.errors[:2])


def _gamma_with(sem, value):
    gamma = sem.gamma.astype(object)
    gamma[0, 1] = value  # the edge a -> m
    return gamma


def _population_cov(sem, n=None):
    return SampleCovariance(sem.implied_covariance(), sem.graph.vertices, n=n)


def _bound(sem, w):
    return efficiency_bound(build_plan(sem.graph, ("a",), "y"), _population_cov(sem), w)


# every entry point that reads a count or a plain number, with an argument
# that is not an integer or not a finite number, or is one out of range
_BAD_NUMBERS = {
    "SampleCovariance n=0": (lambda sem: _population_cov(sem, n=0),
                             "n must be at least 1, got 0"),
    "SampleCovariance n=-5": (lambda sem: _population_cov(sem, n=-5),
                              "n must be at least 1, got -5"),
    "SampleCovariance n=2.5": (lambda sem: _population_cov(sem, n=2.5),
                               "n must be an integer, got 2.5"),
    "SampleCovariance n=True": (lambda sem: _population_cov(sem, n=True),
                                "n must be an integer, got True"),
    "sample n=0": (lambda sem: sample(sem, 0, rng_from_seed(1)), "n must be at least 1, got 0"),
    "sample n=-1": (lambda sem: sample(sem, -1, rng_from_seed(1)),
                    "n must be at least 1, got -1"),
    "sample n=2.5": (lambda sem: sample(sem, 2.5, rng_from_seed(1)),
                     "n must be an integer, got 2.5"),
    "random_dag p=3.0": (lambda sem: random_dag(3.0, 1, rng_from_seed(1)),
                         "p must be an integer, got 3.0"),
    "random_dag degree nan": (lambda sem: random_dag(6, np.nan, rng_from_seed(1)),
                              "expected_degree must be a finite number, got nan"),
    "random_dag degree inf": (lambda sem: random_dag(6, np.inf, rng_from_seed(1)),
                              "expected_degree must be a finite number, got inf"),
    "random_dag degree -1": (lambda sem: random_dag(6, -1, rng_from_seed(1)),
                             "expected degree must be non-negative, got -1"),
    "random_dag degree '3'": (lambda sem: random_dag(6, "3", rng_from_seed(1)),
                              "expected_degree must be a finite number, got '3'"),
    "rng_from_seed seed=-1": (lambda sem: rng_from_seed(-1),
                              "seed must be an integer in [0, 2**64), got -1"),
    "rng_from_seed seed=2**64": (lambda sem: rng_from_seed(2**64),
                                 f"seed must be an integer in [0, 2**64), got {2**64}"),
    "rng_from_seed seed=1.5": (lambda sem: rng_from_seed(1.5), "seed must be an integer, got 1.5"),
    "rng_from_seed stream -1": (lambda sem: rng_from_seed(3, 0, -1),
                                "stream entries must be non-negative, got (0, -1)"),
    "rng_from_seed stream 1.5": (lambda sem: rng_from_seed(3, 1.5),
                                 "stream entry must be an integer, got 1.5"),
    "ErrorSpec param inf": (lambda sem: ErrorSpec("gaussian", np.inf),
                            "param must be a finite number, got inf"),
    "ErrorSpec param True": (lambda sem: ErrorSpec("gaussian", True),
                             "param must be a finite number, got True"),
    "ErrorSpec param '2'": (lambda sem: ErrorSpec("gaussian", "2"),
                            "param must be a finite number, got '2'"),
    "LinearSem gamma nan": (lambda sem: LinearSem(sem.graph, _gamma_with(sem, np.nan), sem.errors),
                            "gamma contains non-finite values"),
    "LinearSem gamma inf": (lambda sem: LinearSem(sem.graph, _gamma_with(sem, np.inf), sem.errors),
                            "gamma contains non-finite values"),
    "LinearSem gamma 'x'": (lambda sem: LinearSem(sem.graph, _gamma_with(sem, "x"), sem.errors),
                            "gamma must hold numbers: could not convert string to float: 'x'"),
    "LinearSem error str": (lambda sem: LinearSem(sem.graph, sem.gamma, ("gaussian",) * 3),
                            "errors must be ErrorSpec instances, got 'gaussian'"),
    "efficiency_bound w too long": (lambda sem: _bound(sem, np.ones(2)),
                                    "w must hold one weight per treatment vertex (1)"),
    "efficiency_bound w scalar": (lambda sem: _bound(sem, 1.0),
                                  "w must hold one weight per treatment vertex (1)"),
    "efficiency_bound w ragged": (lambda sem: _bound(sem, [[1.0], 2.0]),
                                  "weight must be a finite number, got [1.0]"),
    "efficiency_bound w nan": (lambda sem: _bound(sem, [np.nan]),
                               "weight must be a finite number, got nan"),
    "efficiency_bound w True": (lambda sem: _bound(sem, [True]),
                                "weight must be a finite number, got True"),
}


@pytest.mark.parametrize("case", list(_BAD_NUMBERS))
def test_numeric_arguments_are_refused(chain_sem, case):
    call, message = _BAD_NUMBERS[case]
    with pytest.raises(GraphValidationError, match=re.escape(message)):
        call(chain_sem)


def test_linear_sem_requires_dag(three_bucket_graph):
    p = three_bucket_graph.n_vertices
    with pytest.raises(GraphValidationError):
        LinearSem(three_bucket_graph, np.zeros((p, p)), tuple(ErrorSpec("gaussian", 1.0) for _ in range(p)))


def test_implied_covariance_matches_recursion(rng):
    for _ in range(10):
        dag = random_dag(int(rng.integers(3, 8)), 2.5, rng)
        sem = random_sem(dag, rng)
        want = oracles.implied_cov_oracle(sem)
        assert np.allclose(sem.implied_covariance(), want, atol=1e-10)


def test_sample_moments_approach_implied_covariance(chain_sem):
    x = sample(chain_sem, 200_000, rng_from_seed(77))
    want = chain_sem.implied_covariance()
    assert np.allclose(x.T @ x / len(x), want, atol=0.15)
    assert abs(x.mean(axis=0)).max() < 0.05


# ---------------------------------------------------------------------------
# random generation


def test_random_dag_basics(rng):
    d = random_dag(2, 1.0, rng)
    assert len(d.directed_edges) == 1  # edge probability k/(p-1) = 1
    assert d.vertices == ("1", "2")
    counts = []
    for _ in range(200):
        d = random_dag(8, 3.0, rng)
        counts.append(2 * len(d.directed_edges) / 8)
    assert np.mean(counts) == pytest.approx(3.0, abs=0.25)
    with pytest.raises(GraphValidationError):
        random_dag(1, 1.0, rng)


def test_random_sem_parameter_ranges(rng):
    mags, params = [], []
    for _ in range(30):
        dag = random_dag(6, 3.0, rng)
        sem = random_sem(dag, rng, family="gaussian")
        nz = sem.gamma[sem.gamma != 0.0]
        mags.extend(np.abs(nz))
        params.extend(e.param for e in sem.errors)
        assert {e.family for e in sem.errors} == {"gaussian"}
    mags = np.array(mags)
    assert np.all((mags >= 0.1) & (mags <= 2.0))
    assert min(params) >= 0.5 and max(params) <= 6.0
    assert len(mags) > 50


def test_random_sem_signs_and_family_mixing(rng):
    dag = random_dag(10, 3.0, rng)
    sem = random_sem(dag, rng)
    assert len({e.family for e in sem.errors}) == 1  # one family per draw
    mixed = random_sem(dag, rng, family="mixed")
    assert len({e.family for e in mixed.errors}) > 1
    signs = {np.sign(v) for v in sem.gamma[sem.gamma != 0.0]}
    assert signs == {-1.0, 1.0}


def test_random_sem_family_values(rng):
    """None draws one family per SEM, a name pins it, "mixed" draws one per
    vertex, and anything else is refused before any draw."""
    dag = random_dag(10, 3.0, rng)
    for family in ERROR_FAMILIES:
        assert {e.family for e in random_sem(dag, rng, family=family).errors} == {family}
    mixed = {e.family for _ in range(5) for e in random_sem(dag, rng, family="mixed").errors}
    assert mixed == set(ERROR_FAMILIES)
    twin = copy.deepcopy(rng)
    for bad in ("foo", "Gaussian", 3):
        with pytest.raises(GraphValidationError, match="expected None, 'mixed' or one of"):
            random_sem(dag, rng, family=bad)
    assert rng.random() == twin.random()  # nothing was drawn


def _draw_test_dags():
    """Random DAGs past ten vertices (label order differs from index order),
    an edgeless one and one whose vertex order is not its label order."""
    rng = rng_from_seed(31)
    dags = [random_dag(int(rng.integers(2, 30)), float(rng.integers(1, 6)), rng)
            for _ in range(6)]
    dags.append(random_dag(5, 0.0, rng))
    dags.append(Pdag(("y", "b", "a", "m"), (("a", "m"), ("m", "y"), ("a", "y"), ("b", "m"))))
    return dags


@pytest.mark.parametrize("rescale", [False, True])
@pytest.mark.parametrize("family", [None, *ERROR_FAMILIES, "mixed"])
def test_random_sem_draws_as_the_scalar_loop(family, rescale):
    """The whole-array draws equal one scalar draw per edge and per vertex:
    the same coefficients bit for bit, the same specs, and the generator
    left in the same state."""
    for k, dag in enumerate(_draw_test_dags()):
        got_rng, want_rng = rng_from_seed(7, k), rng_from_seed(7, k)
        sem = random_sem(dag, got_rng, rescale=rescale, family=family)
        gamma, specs = oracles.random_sem_loop_oracle(dag, want_rng, rescale, family)
        assert (sem.gamma == gamma).all()
        assert [(e.family, e.param) for e in sem.errors] == specs
        assert got_rng.random() == want_rng.random()


def test_rescale_caps_variance_spread(rng):
    # a 10-chain multiplies variances without rescaling; with it the
    # largest implied marginal variance stays within a factor 20 of the
    # smallest error variance
    labels = tuple(str(i + 1) for i in range(10))
    chain = Pdag(labels, tuple((labels[i], labels[i + 1]) for i in range(9)))
    worst = 0.0
    for _ in range(10):
        sem = random_sem(chain, rng, rescale=True)
        marg = np.diag(sem.implied_covariance())
        ratio = float(marg.max() / sem.error_variances.min())
        worst = max(worst, ratio)
        assert ratio <= 20.0
        assert marg.max() <= 6.25 + 1e-9
    assert worst > 1.0


@pytest.mark.parametrize("rescale", ["no", 1, None])
def test_rescale_must_be_a_bool(rescale):
    dag = random_dag(5, 2.0, rng_from_seed(1))
    rng = rng_from_seed(2)
    with pytest.raises(GraphValidationError,
                       match=re.escape(f"rescale must be a bool, got {rescale!r}")):
        random_sem(dag, rng, rescale=rescale)
    assert rng.random() == rng_from_seed(2).random()  # nothing drawn


def test_rescale_preserves_support(rng):
    dag = random_dag(8, 3.0, rng)
    raw = random_sem(dag, rng_from_seed(9), rescale=False)
    capped = random_sem(dag, rng_from_seed(9), rescale=True)
    assert np.array_equal(raw.gamma != 0, capped.gamma != 0)
    # shrinking never flips signs
    assert np.all(np.sign(raw.gamma) == np.sign(capped.gamma))


# ---------------------------------------------------------------------------
# ground-truth effects


def test_pathsum_chain(chain_sem):
    assert true_effect_pathsum(chain_sem, ("a",), "y") == pytest.approx([6.0])
    assert true_effect_pathsum(chain_sem, ("m",), "y") == pytest.approx([3.0])
    assert true_effect_pathsum(chain_sem, ("a", "m"), "y") == pytest.approx([0.0, 3.0])


def test_blockform_equals_pathsum_and_cut_matrix(rng):
    for _ in range(20):
        dag = random_dag(int(rng.integers(3, 8)), 2.5, rng)
        sem = random_sem(dag, rng)
        labels = list(dag.vertices)
        y = labels[int(rng.integers(len(labels)))]
        rest = [v for v in labels if v != y]
        k = int(rng.integers(1, min(3, len(rest)) + 1))
        a = sorted(rng.choice(rest, size=k, replace=False), key=labels.index)
        t1 = true_effect_pathsum(sem, a, y)
        t2 = true_effect_blockform(sem, a, y)
        pos = {v: i for i, v in enumerate(labels)}
        gamma_map = {
            (u, v): sem.gamma[pos[u], pos[v]] for u, v in dag.directed_edges
        }
        t3 = oracles.dag_effect(labels, set(dag.directed_edges), gamma_map, a, y, pos)
        assert np.allclose(t1, t2, atol=1e-10)
        assert np.allclose(t1, t3, atol=1e-10)


# ---------------------------------------------------------------------------
# serialization


def test_sem_roundtrip(tmp_path, rng):
    dag = random_dag(6, 2.5, rng)
    sem = random_sem(dag, rng, family="mixed")
    path = tmp_path / "sem.json"
    save_sem(sem, path)
    back = load_sem(path)
    assert back.graph == sem.graph
    assert np.array_equal(back.gamma, sem.gamma)
    assert back.errors == sem.errors
    # dict form keeps coefficients on edges only
    d = sem_to_dict(sem)
    assert len(d["coefficients"]) == len(dag.directed_edges)
    assert sem_from_dict(d).errors == sem.errors


def test_load_sem_ignores_a_byte_order_mark(tmp_path, rng):
    sem = random_sem(random_dag(5, 2.0, rng), rng)
    path = tmp_path / "sem.json"
    save_sem(sem, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back = load_sem(path)
    assert back.graph == sem.graph and back.errors == sem.errors
    assert np.array_equal(back.gamma, sem.gamma)


def _sem_dict():
    return sem_to_dict(LinearSem(
        Pdag(("a", "b"), (("a", "b"),)), np.array([[0.0, 0.5], [0.0, 0.0]]),
        (ErrorSpec("gaussian", 1.0), ErrorSpec("uniform", 1.5)),
    ))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: [d], "SEM JSON must be an object"),
        (lambda d: {"graph": d["graph"]}, "missing the 'coefficients' field"),
        (lambda d: {k: v for k, v in d.items() if k != "graph"}, "missing the 'graph' field"),
        (lambda d: {k: v for k, v in d.items() if k != "errors"}, "missing the 'errors' field"),
        (lambda d: {**d, "graph": None}, "graph JSON must be an object"),
        (lambda d: {**d, "coefficients": 5}, "'coefficients' must be an array"),
        (lambda d: {**d, "coefficients": [["a", "b"]]}, "'coefficients' must be an array"),
        (lambda d: {**d, "coefficients": [["a", "b", "x"]]}, "'coefficients' must be an array"),
        (lambda d: {**d, "coefficients": [["a", "q", 1.0]]}, "unknown vertex label 'q'"),
        (lambda d: {**d, "coefficients": [[["a"], "b", 1.0]]}, r"unknown vertex label \['a'\]"),
        (lambda d: {**d, "extra": 1}, r"^unknown SEM JSON fields: \['extra'\]$"),
        (lambda d: {**d, "coefficients": [["b", "a", 1.0]]}, "off the edge set"),
        (lambda d: {**d, "coefficients": [["a", "b", "inf"]]}, "gamma contains non-finite"),
        (lambda d: {**d, "errors": None}, "'errors' must be an array"),
        (lambda d: {**d, "errors": [{"family": "gaussian"}] * 2}, "'errors' must be an array"),
        (lambda d: {**d, "errors": ["gaussian", "uniform"]}, "'errors' must be an array"),
        (lambda d: {**d, "errors": d["errors"][:1]}, "one error spec per vertex"),
        (lambda d: {**d, "errors": [{"family": "gaussian", "param": "inf"}] * 2},
         "param must be a finite number, got inf"),
        (lambda d: {**d, "errors": [{"family": "mixed", "param": 1.0}] * 2},
         "unknown error family 'mixed'"),
    ],
)
def test_sem_from_dict_names_a_missing_or_malformed_field(edit, message):
    assert sem_from_dict(_sem_dict()).errors[1] == ErrorSpec("uniform", 1.5)
    with pytest.raises(GraphValidationError, match=message):
        sem_from_dict(edit(_sem_dict()))
