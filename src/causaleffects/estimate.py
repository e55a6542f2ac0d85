"""Estimation of identified total effects by block-recursive regression.

The observational distribution factors over the buckets of the graph: each
bucket B_k regressed on its external parents Pa(B_k) gives a coefficient
block Lambda_k and a residual covariance Omega_k, and an identified total
effect is

    tau = Lambda_{A,D} [(I - Lambda_{D,D})^{-1}]_{D,Y}

assembled from those blocks over the plan's buckets.  Estimating the blocks
by least squares on the sample covariance is asymptotically efficient among
regular estimators that only use the graph and the covariance; the
delta-method covariance below is the matching plug-in variance and
:func:`efficiency_bound` evaluates the same quadratic form from the
lower-bound side.

All ``acov`` values are asymptotic covariances of sqrt(n) (tau_hat - tau);
divide by n (see :attr:`EffectEstimate.se`) for finite-sample use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (DegenerateSampleError, GraphValidationError, IllConditionedError,
                     _check_seed, _finite, _flag, _float_array, _integer, _label_map,
                     _positions, _sequence)
from .graph import BucketDecomposition, Pdag, _check_treatment
from .identify import IdentificationPlan, build_plan

__all__ = [
    "COND_LIMIT",
    "SampleCovariance",
    "BlockRecursiveModel",
    "EffectEstimate",
    "sample_covariance",
    "g_regression",
    "gbar_regression",
    "covariance_map",
    "effect_from_lambda",
    "effect_gradients",
    "delta_method_acov",
    "efficiency_bound",
    "adjustment_estimate",
    "bootstrap_ci",
    "estimate_total_effect",
]

# Solves are refused, not regularized, beyond this condition number.
COND_LIMIT = 1e10


def _check_cover(index: dict, vertices: Sequence[str], what: str) -> None:
    """Refuse with :class:`GraphValidationError` unless the labels of
    ``index`` (a :func:`~causaleffects.errors._label_map` of matrix rows or
    data columns) are ``vertices``."""
    if index.keys() != set(vertices):
        raise GraphValidationError(f"{what} cover different vertex sets")


@dataclass(frozen=True, eq=False)
class SampleCovariance:
    """A covariance matrix tied to a vertex order.

    ``n`` is the number of rows behind the estimate, an integer of at least
    1 (stored as a Python int); population covariances use ``n=None``.  The
    matrix must hold numbers, be symmetric (to 1e-12) and positive definite
    (:class:`DegenerateSampleError`, as is a matrix of no vertices), and
    ``vertex_order`` must be a sequence of hashable labels without a repeat
    (:class:`GraphValidationError` for the labels and for ``n``);
    :meth:`positions` refuses a label outside it.  ``matrix`` is kept as a
    read-only copy.
    """

    matrix: np.ndarray
    vertex_order: tuple[str, ...]
    n: int | None = None
    _index: dict = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.n is not None:
            n = _integer(self.n, "n")
            if n < 1:
                raise GraphValidationError(f"n must be at least 1, got {n}")
            object.__setattr__(self, "n", n)
        # a read-only copy: the caller's array could change after the checks
        m = _float_array(self.matrix, "covariance matrix", DegenerateSampleError).copy(order="K")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "vertex_order", _sequence(self.vertex_order, "vertex_order"))
        object.__setattr__(self, "_index", _label_map(self.vertex_order))
        p = len(self.vertex_order)
        if m.shape != (p, p):
            raise DegenerateSampleError(
                f"covariance shape {m.shape} does not match {p} vertices"
            )
        if not p:
            raise DegenerateSampleError("covariance matrix has no vertices")
        if not np.all(np.isfinite(m)):
            raise DegenerateSampleError("covariance contains non-finite values")
        if np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise DegenerateSampleError("covariance matrix is not symmetric")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise DegenerateSampleError(
                "covariance matrix is not positive definite"
            ) from None

    def positions(self, labels: Sequence[str]) -> np.ndarray:
        return np.array(_positions(self._index, _sequence(labels, "labels")), dtype=int)


def _data_matrix(data: np.ndarray, vertex_order: Sequence[str]) -> np.ndarray:
    """``data`` as a row-major float matrix with one finite column per label
    and more rows than columns, else :class:`DegenerateSampleError`.  Being
    row-major, its column means add in one order whatever the caller's
    layout (a row-major ``data`` is returned as it is)."""
    x = _float_array(data, "data", DegenerateSampleError)
    if x.ndim != 2:
        raise DegenerateSampleError("data must be a 2d array")
    n, p = x.shape
    if p != len(vertex_order):
        raise DegenerateSampleError(
            f"data has {p} columns but {len(vertex_order)} vertex labels were given"
        )
    if not np.all(np.isfinite(x)):
        raise DegenerateSampleError("data contains non-finite values")
    if n <= p:
        raise DegenerateSampleError(
            f"need more rows than columns for a positive definite covariance "
            f"(n={n}, p={p})"
        )
    return np.ascontiguousarray(x)


def _second_moment(x: np.ndarray, center: bool) -> np.ndarray:
    """``X'X / n`` of the rows of ``x``, centred first if ``center``, made
    exactly symmetric."""
    if center:
        x = x - x.mean(axis=0)
    s = x.T @ x / len(x)
    return (s + s.T) / 2.0


def _moments(data, columns: tuple, center: bool) -> tuple[np.ndarray, SampleCovariance]:
    """The one data path: ``data`` checked by :func:`_data_matrix`, turned
    into :func:`_second_moment` and accepted as a :class:`SampleCovariance`
    over ``columns`` with ``n`` its rows.  Returns the checked rows, which a
    bootstrap resamples, and the covariance."""
    x = _data_matrix(data, columns)
    return x, SampleCovariance(_second_moment(x, center), columns, n=len(x))


def sample_covariance(
    data: np.ndarray, vertex_order: Sequence[str], center: bool = False
) -> SampleCovariance:
    """Second-moment matrix ``X'X / n`` of the data columns.

    Data are taken as already mean-zero, matching the population
    convention; ``center=True`` subtracts column means first.  Requires
    at least one column, ``n > p``, numeric and finite values and one
    column per label (:class:`DegenerateSampleError`), refuses a ``center``
    that is not a bool (:class:`GraphValidationError`), and refuses a
    repeated label as :class:`SampleCovariance` does.
    """
    center = _flag(center, "center")
    return _moments(data, _sequence(vertex_order, "vertex_order"), center)[1]


def _condition(a: np.ndarray) -> np.ndarray:
    """The condition number of each symmetric matrix in the stack ``a``
    (B, p, p) by ``eigvalsh``; inf where one is not positive definite."""
    w = np.linalg.eigvalsh(a)
    pd = w[:, 0] > 0
    return np.where(pd, w[:, -1] / np.where(pd, w[:, 0], 1.0), np.inf)


def _accepted(a: np.ndarray, what: str | None = None, *args) -> np.ndarray:
    """Whether ``eigvalsh`` finds each symmetric matrix of the stack ``a``
    (B, p, p), p >= 1, positive definite with condition number at most
    :data:`COND_LIMIT`.  Given ``what``, a refused matrix raises
    :class:`IllConditionedError` naming it instead, as
    ``what.format(*args)``: the name is formatted only for a refusal."""
    cond = _condition(a)
    ok = cond <= COND_LIMIT
    if what is not None and not ok.all():
        bad = float(cond[~ok][0])
        reason = ("matrix is not positive definite" if bad == float("inf") else
                  f"condition number {bad:.3e} exceeds {COND_LIMIT:.0e}")
        raise IllConditionedError(f"{what.format(*args)}: {reason}", cond=bad)
    return ok


def _vouched(stack: np.ndarray, parent_sets, local: dict) -> bool:
    """Whether one test of the union of ``parent_sets`` finds every matrix
    of ``stack`` (B, c, c) positive definite with condition number at most
    ``COND_LIMIT / 2``; ``local`` maps a label to its column.  By Cauchy
    interlacing a principal submatrix is no worse conditioned than the
    whole matrix, so each parent set would then pass its own test: the
    margin lies far above the rounding of ``eigvalsh``.  An empty union
    has nothing to solve and is vouched for untested."""
    union = sorted({local[v] for pa in parent_sets for v in pa})
    if not union:
        return True
    ui = np.array(union)
    return bool(np.all(_condition(stack[:, ui[:, None], ui]) <= COND_LIMIT / 2))


@dataclass(frozen=True, eq=False)
class BlockRecursiveModel:
    """Per-bucket regression blocks (Lambda_k, Omega_k).

    Bucket k is regressed on ``buckets.external_parents[k]``: its parents in
    the graph for :func:`g_regression`, all earlier buckets (the saturated
    graph's parents) for :func:`gbar_regression`.  ``lambda_blocks[k]`` has
    one row per parent and one column per bucket member; parentless buckets
    get a 0-row block and ``omega_blocks[k]`` equal to the bucket's marginal
    covariance.

    A model fitted for an :class:`IdentificationPlan` holds the blocks of
    the plan's buckets (``plan.bucket_order``) only, which is all the effect
    and its variance read; the other entries are ``None``, and
    :func:`covariance_map` refuses such a model.
    """

    buckets: BucketDecomposition
    lambda_blocks: tuple[np.ndarray | None, ...]
    omega_blocks: tuple[np.ndarray | None, ...]

    def parents(self, k: int) -> tuple[str, ...]:
        return self.buckets.external_parents[k]


def _tested(stack: np.ndarray, buckets: BucketDecomposition, fitted, local: dict,
            strict: bool) -> np.ndarray:
    """Which second-moment matrices of ``stack`` (B, c, c) every fitted
    bucket's parent covariance accepts; ``local`` maps a label to its
    column.  When two or more fitted buckets have parents and
    :func:`_vouched` accepts the union of their parent sets, all are;
    otherwise each is tested in turn by :func:`_accepted` (a lone parent
    set at once: its union test would only repeat it).  ``strict`` raises
    :class:`IllConditionedError` for the first bucket refusing any matrix.
    Nothing is solved."""
    parents, members = buckets.external_parents, buckets.buckets
    tested = [k for k in fitted if parents[k]]
    ok = np.ones(len(stack), dtype=bool)
    if len(tested) > 1 and _vouched(stack, [parents[k] for k in tested], local):
        return ok
    what = "regression of bucket {} on {}" if strict else None
    for k in tested:
        pi = np.array([local[v] for v in parents[k]], dtype=int)
        ok &= _accepted(stack[:, pi[:, None], pi], what, members[k], parents[k])
    return ok


def _fit_stack(
    stack: np.ndarray, buckets: BucketDecomposition, fitted, local: dict, strict: bool
):
    """Regress each fitted bucket on its external parents in every
    second-moment matrix of ``stack`` (B, c, c); ``local`` maps a label to
    its column.  Only the fitted buckets' members and parents are read, so
    ``buckets`` need not partition the columns.

    :func:`_tested` decides which matrices every fitted bucket accepts
    (``strict`` as there), and each bucket's solve then runs once on the
    accepted part of the stack.  Returns ``(lambdas, omegas, ok)``: the
    blocks, with the stack axis, keyed by fitted bucket index, and ``ok``
    from :func:`_tested`; the coefficient blocks of a refused matrix are
    zero.
    """
    ok = _tested(stack, buckets, fitted, local, strict)
    parents, members = buckets.external_parents, buckets.buckets
    lambdas, omegas = {}, {}
    for k in fitted:
        pa, bucket = parents[k], members[k]
        q = len(pa)
        idx = np.array([local[v] for v in pa + bucket], dtype=int)
        block = stack[:, idx[:, None], idx]
        omega = block[:, q:, q:]
        if not q:  # a parentless bucket keeps its marginal block as it is
            lambdas[k], omegas[k] = np.zeros((len(stack), 0, len(bucket))), omega
            continue
        # contiguous copies: solve and @ may round a strided operand otherwise
        spp = np.ascontiguousarray(block[:, :q, :q])
        spb = np.ascontiguousarray(block[:, :q, q:])
        if ok.all():
            lam = np.linalg.solve(spp, spb)
        else:  # a refused matrix may be singular: solve the others alone
            lam = np.zeros(spb.shape)
            lam[ok] = np.linalg.solve(spp[ok], spb[ok])
        omega = omega - spb.transpose(0, 2, 1) @ lam
        lambdas[k], omegas[k] = lam, (omega + omega.transpose(0, 2, 1)) / 2.0
    return lambdas, omegas, ok


def _block_regression(
    cov: SampleCovariance, buckets: BucketDecomposition, fitted
) -> BlockRecursiveModel:
    """:func:`_fit_stack` on ``cov`` alone."""
    _check_cover(cov._index, buckets.vertex_order, "covariance and bucket decomposition")
    lambdas, omegas, _ = _fit_stack(cov.matrix[None], buckets, fitted, cov._index, strict=True)
    return BlockRecursiveModel(
        buckets,
        tuple(lambdas[k][0] if k in lambdas else None for k in range(len(buckets))),
        tuple(omegas[k][0] if k in omegas else None for k in range(len(buckets))),
    )


def _fitted(target: BucketDecomposition | IdentificationPlan):
    """The decomposition and the indices of the buckets to fit."""
    if isinstance(target, IdentificationPlan):
        return target.buckets, target.bucket_order
    return target, range(len(target))


def g_regression(
    cov: SampleCovariance, buckets: BucketDecomposition | IdentificationPlan
) -> BlockRecursiveModel:
    """Least-squares coefficient and residual blocks, one bucket at a time,
    each bucket regressed on its external parents in the graph.

    Given a :class:`BucketDecomposition` every bucket is fitted; given an
    :class:`IdentificationPlan` only the plan's buckets are, so a bucket
    the effect does not read can neither cost time nor refuse the fit."""
    return _block_regression(cov, *_fitted(buckets))


def gbar_regression(
    cov: SampleCovariance, buckets: BucketDecomposition | IdentificationPlan
) -> BlockRecursiveModel:
    """:func:`g_regression` on the saturated buckets: every bucket regressed
    on the union of the earlier buckets.  The model's ``buckets`` carry
    those prefixes as external parents."""
    dec, fitted = _fitted(buckets)
    return _block_regression(cov, dec._saturated(), fitted)


def covariance_map(model: BlockRecursiveModel) -> np.ndarray:
    """Rebuild the covariance matrix implied by the blocks.

    Inverse of the regression map: for blocks computed from a positive
    definite covariance the round trip reproduces it.  Rows/columns follow
    ``model.buckets.vertex_order``.  Needs every bucket's blocks, so a
    model fitted for a plan raises :class:`GraphValidationError`.
    """
    missing = [k for k, lam in enumerate(model.lambda_blocks) if lam is None]
    if missing:
        raise GraphValidationError(
            f"covariance_map needs every bucket's blocks; buckets {missing} "
            "were not fitted"
        )
    buckets = model.buckets
    pos = _label_map(buckets.vertex_order)
    s = np.zeros((len(pos), len(pos)))
    prefix: list[int] = []
    for k, bucket in enumerate(buckets.buckets):
        bi = [pos[v] for v in bucket]
        pa = [pos[v] for v in model.parents(k)]  # all in the prefix
        lam = model.lambda_blocks[k]
        # S[prefix, B] = S[prefix, Pa] Lambda, S[B, B] = Lambda' S[Pa, Pa] Lambda + Omega
        cross = s[np.ix_(prefix, pa)] @ lam
        s[np.ix_(prefix, bi)] = cross
        s[np.ix_(bi, prefix)] = cross.T
        s[np.ix_(bi, bi)] = lam.T @ s[np.ix_(pa, bi)] + model.omega_blocks[k]
        prefix.extend(bi)
    return s


def _block_entries(plan: IdentificationPlan):
    """Where the coefficient blocks of the plan's buckets enter
    Lambda_{(A,D),D}: one ``(b, i, j, r, d)`` per parent i and D member j of
    the b-th plan bucket, with r the parent's row in (A, D) and d the
    member's column in D."""
    n_a = len(plan.treatment)
    row = _label_map(plan.treatment + plan.d_set)
    for b, (k, dk, pa) in enumerate(zip(plan.bucket_order, plan.d_buckets,
                                        plan.parents_per_bucket)):
        bucket = plan.buckets.buckets[k]
        for v in dk:
            j, d = bucket.index(v), row[v] - n_a
            for i, u in enumerate(pa):  # build_plan puts every parent in A or D
                yield b, i, j, row[u], d


def _effect(plan: IdentificationPlan, blocks):
    """The one assembly of the effect from the coefficient blocks of the
    plan's buckets (aligned with ``plan.bucket_order``): returns ``(tau,
    lam_ad, m)`` with Lambda_{A,D}, m = (I - Lambda_{D,D})^{-1} and tau =
    Lambda_{A,D} m[:, Y].  Blocks may carry leading stack axes; the results
    then carry the same ones."""
    n_a = len(plan.treatment)
    lam = np.zeros(blocks[0].shape[:-2] + (n_a + len(plan.d_set), len(plan.d_set)))
    for b, i, j, r, d in _block_entries(plan):
        lam[..., r, d] = blocks[b][..., i, j]
    lam_ad, lam_dd = lam[..., :n_a, :], lam[..., n_a:, :]
    eye = np.eye(len(plan.d_set))
    # the right-hand side carries the stack axes too: numpy < 2 would read a
    # 2-d one beside a 3-d left-hand side as a stack of vectors
    m = np.linalg.solve(eye - lam_dd, np.broadcast_to(eye, lam_dd.shape))
    y = plan.d_set.index(plan.outcome)
    return (lam_ad @ m[..., y, None])[..., 0], lam_ad, m


def _assemble_effect(model: BlockRecursiveModel, plan: IdentificationPlan):
    """:func:`_effect` of a model, which must hold the plan's blocks."""
    if model.buckets != plan.buckets:
        raise GraphValidationError(
            "model and plan were built from different bucket decompositions"
        )
    blocks = [model.lambda_blocks[k] for k in plan.bucket_order]
    if any(lam is None for lam in blocks):
        raise GraphValidationError("model does not hold every bucket of the plan")
    return _effect(plan, blocks)


def effect_from_lambda(model: BlockRecursiveModel, plan: IdentificationPlan) -> np.ndarray:
    """tau = Lambda_{A,D} [(I - Lambda_{D,D})^{-1}]_{D,Y}, one entry per
    treatment coordinate.  Coefficients without a corresponding directed
    edge are zero by construction, so an outcome outside the possible
    descendants of the treatment yields exactly zero."""
    return _assemble_effect(model, plan)[0]


def effect_gradients(
    model: BlockRecursiveModel, plan: IdentificationPlan
) -> dict[int, np.ndarray]:
    """Jacobian of tau with respect to each bucket's coefficient block.

    For bucket k the returned array has shape (|A|, |parents_k|, |B_k|):
    entry (t, i, j) is the derivative of tau_t with respect to
    Lambda_k[i, j].  With R = Lambda_{A,D} M and m = M[:, Y] the derivative
    is c_i * m_j, where c_i indicates the treatment coordinate when parent
    i is a treatment and equals R[t, i] when it lies in D; columns outside
    D are zero.  Buckets that do not meet D are omitted (all-zero
    gradient).
    """
    return _gradients(plan, *_assemble_effect(model, plan)[1:])


def _gradients(plan: IdentificationPlan, lam_ad: np.ndarray, m: np.ndarray) -> dict:
    """:func:`effect_gradients` from the matrices of :func:`_effect`."""
    n_a = len(plan.treatment)
    # c_i by row of (A, D): the treatment indicators, then R
    c_row = np.hstack([np.eye(n_a), lam_ad @ m])
    mcol = m[:, plan.d_set.index(plan.outcome)]
    cs = [np.zeros((n_a, len(pa))) for pa in plan.parents_per_bucket]
    mbs = [np.zeros(len(plan.buckets.buckets[k])) for k in plan.bucket_order]
    for b, i, j, r, d in _block_entries(plan):
        cs[b][:, i] = c_row[:, r]
        mbs[b][j] = mcol[d]
    return {k: np.einsum("ti,b->tib", c, mb)
            for k, c, mb in zip(plan.bucket_order, cs, mbs)}


def _sandwich(grads: dict, omegas, plan: IdentificationPlan, cov: SampleCovariance,
             size: int) -> np.ndarray:
    """The Kronecker quadratic form of :func:`delta_method_acov`, symmetrized,
    for gradient blocks ``grads[k]`` of shape (size, |Pa(B_k)|, |B_k|) and
    residual blocks ``omegas[k]``.  The caller has tested the plan's parent
    covariances in this ``cov`` (:func:`_tested`, by a fit or alone), so
    they are solved untested."""
    parents = plan.buckets.external_parents
    out = np.zeros((size, size))
    for k, h in grads.items():
        pa = parents[k]
        if not pa or not h.any():
            continue
        pi = cov.positions(pa)
        flat = h.transpose(1, 0, 2).reshape(len(pa), -1)
        sol = np.linalg.solve(cov.matrix[np.ix_(pi, pi)], flat)
        sol = sol.reshape(len(pa), size, h.shape[2]).transpose(1, 0, 2)
        out += np.einsum("tib,uic,bc->tu", h, sol, omegas[k])
    return (out + out.T) / 2.0


def delta_method_acov(
    model: BlockRecursiveModel, plan: IdentificationPlan, cov: SampleCovariance
) -> np.ndarray:
    """Asymptotic covariance of sqrt(n) (tau_hat - tau) by the delta method.

    The coefficient blocks of distinct buckets are asymptotically
    independent, and within bucket k the block has covariance
    Omega_k (x) (Sigma_{Pa(B_k)})^{-1}; the result contracts the gradient
    blocks H of :func:`effect_gradients` against that Kronecker form:

        acov[t, u] = sum_k  sum_{b, c}  Omega_k[b, c] *
                     (H_t' Sigma_{Pa}^{-1} H_u)[b, c].

    ``cov`` is tested for ``plan`` as :func:`g_regression` tests it, without
    its solves: it must cover the vertices of the plan's bucket
    decomposition (:class:`GraphValidationError`), and a parent covariance
    that fit refuses raises :class:`IllConditionedError` naming its bucket.
    """
    _check_cover(cov._index, plan.buckets.vertex_order, "covariance and bucket decomposition")
    _tested(cov.matrix[None], plan.buckets, plan.bucket_order, cov._index, strict=True)
    grads = effect_gradients(model, plan)
    return _sandwich(grads, model.omega_blocks, plan, cov, len(plan.treatment))


def efficiency_bound(plan: IdentificationPlan, cov: SampleCovariance, w: np.ndarray) -> float:
    """Lower bound on the asymptotic variance of any regular estimator of
    w' tau that uses the graph and the covariance alone:

        sum_k  h_k' [ Omega_k (x) (Sigma_{Pa(B_k)})^{-1} ] h_k ,

    with gradients h_k from the :func:`g_regression` of ``cov`` for ``plan``
    and Omega_k from its :func:`gbar_regression` (the residual blocks of the
    saturated parameterization).  Evaluated at the truth this equals
    ``w' delta_method_acov(...) w``, which is how the bound is attained.

    ``w`` must hold one finite number per treatment vertex, else
    :class:`GraphValidationError` before any fit.
    """
    n_a = len(plan.treatment)
    try:
        weights = [_finite(v, "weight") for v in w]
    except TypeError:  # w is not iterable
        weights = []
    if len(weights) != n_a:
        raise GraphValidationError(f"w must hold one weight per treatment vertex ({n_a}), got {w!r}")
    w = np.array(weights)
    model_g, model_gbar = g_regression(cov, plan), gbar_regression(cov, plan)
    grads = {k: np.einsum("t,tib->ib", w, h)[None]
             for k, h in effect_gradients(model_g, plan).items()}
    return float(_sandwich(grads, model_gbar.omega_blocks, plan, cov, 1)[0, 0])


@dataclass
class EffectEstimate:
    """A point estimate with its asymptotic covariance and provenance."""

    treatment: tuple[str, ...]
    outcome: str
    tau: np.ndarray
    acov: np.ndarray
    method: str
    n: int | None = None
    ci_level: float | None = None
    ci_lower: np.ndarray | None = None
    ci_upper: np.ndarray | None = None
    boot_acov: np.ndarray | None = None
    boot_rejected: int = 0
    seed: int | None = None

    @property
    def se(self) -> np.ndarray | None:
        """Finite-sample standard errors sqrt(diag(acov) / n)."""
        if self.n is None:
            return None
        return np.sqrt(np.diag(self.acov) / self.n)

    def to_dict(self) -> dict:
        out = {
            "tau": {a: float(t) for a, t in zip(self.treatment, self.tau)},
            "acov": [[float(v) for v in row] for row in np.atleast_2d(self.acov)],
            "se": None
            if self.se is None
            else {a: float(s) for a, s in zip(self.treatment, self.se)},
            "method": self.method,
            "n": self.n,
            "outcome": self.outcome,
            "seed": self.seed,
        }
        if self.ci_level is not None:
            out["ci"] = {
                "level": self.ci_level,
                "lower": {a: float(v) for a, v in zip(self.treatment, self.ci_lower)},
                "upper": {a: float(v) for a, v in zip(self.treatment, self.ci_upper)},
                "rejected_replicates": self.boot_rejected,
            }
        return out


def adjustment_estimate(
    data: np.ndarray,
    columns: Sequence[str],
    treatment: Sequence[str],
    outcome: str,
    adjust: Sequence[str],
    center: bool = False,
) -> EffectEstimate:
    """Covariate-adjustment baseline: OLS of the outcome on (treatment,
    adjustment set) about zero, reporting the treatment coefficients.

    The acov is the textbook OLS form sigma^2 * (Sigma_{(A,Z)})^{-1}
    restricted to the treatment block.  Only valid adjustment sets make
    this consistent; the function does not check validity.

    ``columns`` names the data columns; a repeated column label, a
    treatment, outcome or adjustment label outside ``columns`` (checked
    before the sets' distinctness), or a ``center`` that is not a bool,
    raises :class:`GraphValidationError` before any moment is formed.
    """
    center = _flag(center, "center")
    columns = _sequence(columns, "columns")
    treatment, adjust = _check_treatment(treatment, outcome), _sequence(adjust, "adjust")
    _positions(_label_map(columns), treatment + adjust + (outcome,))  # each label a column
    if len(set(adjust)) != len(adjust):
        raise GraphValidationError("adjustment set labels must be distinct")
    overlap = (set(treatment) | {outcome}) & set(adjust)
    if overlap:
        raise GraphValidationError(
            f"adjustment set overlaps treatment/outcome: {sorted(overlap)}"
        )
    cov = sample_covariance(data, columns, center=center)
    return _adjustment_from_cov(cov, treatment, outcome, adjust)


def _adjustment_from_cov(
    cov: SampleCovariance, treatment: tuple[str, ...], outcome: str, adjust: tuple[str, ...]
) -> EffectEstimate:
    """The regression behind :func:`adjustment_estimate`, on any covariance
    (a population one gives the exact asymptotic variance): the one-bucket
    case of :func:`_fit_stack`, the bucket ``(outcome,)`` with the treatment
    and adjustment labels as its external parents."""
    xs = treatment + adjust
    xi = cov.positions(xs)
    spec = BucketDecomposition(cov.vertex_order, ((outcome,),), (xs,))
    lambdas, omegas, _ = _fit_stack(cov.matrix[None], spec, (0,), cov._index, strict=True)
    sxx_inv = np.linalg.solve(cov.matrix[np.ix_(xi, xi)], np.eye(len(xs)))  # the fit accepted it
    n_a = len(treatment)
    acov = float(omegas[0][0, 0, 0]) * sxx_inv[:n_a, :n_a]
    return EffectEstimate(
        treatment=treatment,
        outcome=outcome,
        tau=lambdas[0][0, :n_a, 0].copy(),
        acov=(acov + acov.T) / 2.0,  # symmetrized, as _sandwich's
        method="adjustment",
        n=cov.n,
    )


def _check_level(level) -> float:
    """``level`` as a float when it is a finite number in (0, 1); raises
    :class:`GraphValidationError` otherwise."""
    value = _finite(level, "level")
    if not 0.0 < value < 1.0:
        raise GraphValidationError(f"confidence level must be in (0, 1), got {level}")
    return value


def _check_bootstrap(n_boot, level, seed) -> tuple[int, float, int]:
    """``(n_boot, level, seed)`` as plain numbers when :func:`bootstrap_ci`
    can use them; raises :class:`GraphValidationError` otherwise."""
    seed = _check_seed(seed)
    n_boot = _integer(n_boot, "n_boot")
    if n_boot < 2:
        raise GraphValidationError(f"need at least 2 bootstrap replicates, got {n_boot}")
    return n_boot, _check_level(level), seed


def bootstrap_ci(
    data: np.ndarray,
    columns: Sequence[str],
    plan: IdentificationPlan,
    n_boot: int = 500,
    level: float = 0.95,
    seed: int = 0,
    center: bool = False,
):
    """Pairs-bootstrap percentile intervals for the effect that ``plan``
    (from :func:`build_plan`) identifies.

    Every replicate re-runs the regressions of the plan's buckets
    (``plan.bucket_order``) on resampled rows; the plan depends only on the
    graph and is not rebuilt.  Replicate r draws its indices from a
    counter-derived stream of the master seed (the Philox generator keyed
    by the seed, with r in its counter's third word), so results are
    reproducible for any worker count.  A replicate is rejected when its
    full resampled covariance is not finite and positive definite (the test
    :class:`SampleCovariance` makes), or when a plan bucket's parent covariance
    is not positive definite or has a condition number above
    :data:`COND_LIMIT`; buckets outside the plan are not fitted and reject
    nothing.  Rejected replicates are redrawn
    from the next streams; more than 10% rejections raises
    :class:`IllConditionedError`.

    The replicates are fitted together: each one's covariance over the
    plan's columns goes into a stack, and every plan bucket's test and
    solve runs once per stack (:func:`_fit_stack`, as in the one-matrix
    fit).  Results equal those of fitting one replicate at a time.

    Returns ``(lower, upper, boot_acov, n_rejected)`` where ``boot_acov``
    is n times the covariance of the replicate estimates (the bootstrap
    counterpart of the delta-method acov).  ``n_boot`` below 2 or not an
    integer raises :class:`GraphValidationError` (one replicate has no
    spread), and so do a ``level`` that is not a finite number in (0, 1),
    a seed that is not an integer in [0, 2**64), a ``center`` that is not
    a bool, a repeated column label and ``columns`` naming other vertices
    than the plan's graph.  Data that :func:`sample_covariance` refuses are
    refused before any draw.
    """
    n_boot, level, seed = _check_bootstrap(n_boot, level, seed)
    center = _flag(center, "center")
    columns = _sequence(columns, "columns")
    _check_cover(_label_map(columns), plan.buckets.vertex_order, "data columns and plan")
    return _resample(*_moments(data, columns, center), plan, n_boot, level, seed, center)


def _resample(x, cov, plan, n_boot: int, level: float, seed: int, center: bool):
    """The replicate loop of :func:`bootstrap_ci` for ``plan`` on the rows
    ``x`` that :func:`_moments` checked and their :class:`SampleCovariance`
    ``cov``, whose label map and ``n`` it reads; the arguments are checked
    already."""
    labels = list(dict.fromkeys(
        v for k, pa in zip(plan.bucket_order, plan.parents_per_bucket)
        for v in pa + plan.buckets.buckets[k]
    ))
    sub = np.array([cov._index[v] for v in labels], dtype=int)
    grid = np.ix_(sub, sub)
    local = _label_map(labels)
    taus = np.empty((n_boot, len(plan.treatment)))
    got = 0
    rejected = 0
    stream = 0
    cap = max(10, n_boot)
    # one generator per call: setting the whole state (counter, and the empty
    # buffer) before each replicate draws what Philox(key=seed, counter=...) draws
    bitgen = np.random.Philox(key=seed)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    while got < n_boot and rejected <= cap:
        # the streams still needed: a resample whose full covariance is not
        # positive definite is rejected here, the others enter the stack
        need = n_boot - got
        stack = np.empty((need, len(sub), len(sub)))
        kept = np.zeros(need, dtype=bool)
        for r in range(need):
            state["state"]["counter"][2] = stream + r
            bitgen.state = state
            idx = rng.integers(0, cov.n, size=cov.n)
            # the rows are checked data and s is symmetric by construction;
            # reject where SampleCovariance would
            s = _second_moment(x[idx], center)
            if not np.all(np.isfinite(s)):
                continue
            try:
                np.linalg.cholesky(s)
            except np.linalg.LinAlgError:
                continue
            stack[r] = s[grid]
            kept[r] = True
        stream += need
        lambdas, _, ok = _fit_stack(stack[kept], plan.buckets, plan.bucket_order, local, False)
        boot = _effect(plan, [lambdas[k][ok] for k in plan.bucket_order])[0]
        taus[got:got + len(boot)] = boot
        got += len(boot)
        # a batch with a rejection leaves replicates to draw, so only the
        # count matters; one replicate at a time stops drawing at cap + 1
        rejected = min(rejected + need - len(boot), cap + 1)
    if rejected > 0.10 * (n_boot + rejected):
        raise IllConditionedError(
            f"bootstrap rejected {rejected} of {n_boot + rejected} replicates "
            "(resampled covariances singular)",
        )
    alpha = 1.0 - level
    lower = np.quantile(taus, alpha / 2.0, axis=0)
    upper = np.quantile(taus, 1.0 - alpha / 2.0, axis=0)
    boot_acov = cov.n * np.cov(taus, rowvar=False).reshape(
        len(plan.treatment), len(plan.treatment)
    )
    return lower, upper, boot_acov, rejected


def estimate_total_effect(
    graph: Pdag,
    treatment: Sequence[str],
    outcome: str,
    data: np.ndarray | None = None,
    columns: Sequence[str] | None = None,
    cov: SampleCovariance | None = None,
    center: bool = False,
    n_boot: int = 0,
    level: float = 0.95,
    seed: int = 0,
) -> EffectEstimate:
    """End-to-end pipeline: plan, regress, assemble, quantify.

    Exactly one of ``data`` (rows, with ``columns`` naming them; defaults
    to the graph's vertex order) or ``cov`` must be given, and ``columns``
    and ``center=True`` only with ``data``; ``center`` must be a bool.
    Bootstrap intervals require raw data; ``n_boot=0`` asks for none.  Raises
    :class:`NotIdentifiedError` when the effect is not identified from
    ``graph``.  Arguments are checked before any work: the bootstrap's
    first, as :func:`bootstrap_ci` checks them (``n_boot`` must be an
    integer, and ``level`` and ``seed`` are checked even when it is 0),
    then the query and its identification, all before the data are read.
    The data are read, checked and factored once, with the messages of
    :func:`sample_covariance`, and a bootstrap resamples those same rows.
    """
    if (data is None) == (cov is None):
        raise GraphValidationError("pass exactly one of data= or cov=")
    if columns is not None and data is None:
        raise GraphValidationError("columns= names data columns; it needs data=, not cov=")
    center = _flag(center, "center")
    if center and data is None:
        raise GraphValidationError("center= centres data columns; it needs data=, not cov=")
    n_boot = _integer(n_boot, "n_boot")
    if n_boot:
        if data is None:
            raise GraphValidationError("bootstrap intervals need raw data, not cov=")
        n_boot, level, seed = _check_bootstrap(n_boot, level, seed)
    else:
        seed, level = _check_seed(seed), _check_level(level)
    plan = build_plan(graph, treatment, outcome)
    if data is not None:
        columns = _sequence(columns, "columns") if columns is not None else graph.vertices
        x, cov = _moments(data, columns, center)
    model = g_regression(cov, plan)
    # one assembly serves tau and the gradients
    tau, lam_ad, m = _assemble_effect(model, plan)
    acov = _sandwich(_gradients(plan, lam_ad, m), model.omega_blocks, plan, cov,
                     len(plan.treatment))
    est = EffectEstimate(
        treatment=plan.treatment,
        outcome=outcome,
        tau=tau,
        acov=acov,
        method="g_regression",
        n=cov.n,
        seed=seed if n_boot else None,
    )
    if n_boot:
        est.ci_level = level
        # the rows and covariance the estimate read: the data are not checked again
        est.ci_lower, est.ci_upper, est.boot_acov, est.boot_rejected = _resample(
            x, cov, plan, n_boot, level, seed, center)
    return est
