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
                     _check_seed, _finite, _flag, _float_array, _integer)
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


class _LabelIndex(dict):
    """Label -> position; looking up a label it lacks raises
    :class:`GraphValidationError`."""

    def __missing__(self, label):
        raise GraphValidationError(f"unknown vertex label {label!r}")


def _label_index(
    labels: Sequence[str], vertices: Sequence[str] | None = None, what: str = ""
) -> _LabelIndex:
    """Map each of ``labels`` (names of matrix rows or data columns) to its
    position.

    A repeated label raises :class:`GraphValidationError`, and so do, given
    ``vertices``, another label set ("{what} cover different vertex sets")
    and looking up a label the map lacks.
    """
    index = _LabelIndex(zip(labels, range(len(labels))))
    if len(index) != len(labels):
        repeated = next(v for i, v in enumerate(labels) if index[v] != i)
        raise GraphValidationError(f"duplicate vertex label {repeated!r}")
    if vertices is not None and index.keys() != set(vertices):
        raise GraphValidationError(f"{what} cover different vertex sets")
    return index


@dataclass(frozen=True)
class SampleCovariance:
    """A covariance matrix tied to a vertex order.

    ``n`` is the number of rows behind the estimate, an integer of at least
    1 (stored as a Python int); population covariances use ``n=None``.  The
    matrix must hold numbers, be symmetric (to 1e-12) and positive definite
    (:class:`DegenerateSampleError`), and
    ``vertex_order`` must not repeat a label (:class:`GraphValidationError`
    for the label and for ``n``); :meth:`positions` refuses a label outside
    it.
    """

    matrix: np.ndarray
    vertex_order: tuple[str, ...]
    n: int | None = None
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.n is not None:
            n = _integer(self.n, "n")
            if n < 1:
                raise GraphValidationError(f"n must be at least 1, got {n}")
            object.__setattr__(self, "n", n)
        m = _float_array(self.matrix, "covariance matrix", DegenerateSampleError)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "vertex_order", tuple(self.vertex_order))
        object.__setattr__(self, "_index", _label_index(self.vertex_order))
        p = len(self.vertex_order)
        if m.shape != (p, p):
            raise DegenerateSampleError(
                f"covariance shape {m.shape} does not match {p} vertices"
            )
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
        return np.array([self._index[v] for v in labels], dtype=int)


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


def sample_covariance(
    data: np.ndarray, vertex_order: Sequence[str], center: bool = False
) -> SampleCovariance:
    """Second-moment matrix ``X'X / n`` of the data columns.

    Data are taken as already mean-zero, matching the population
    convention; ``center=True`` subtracts column means first.  Requires
    ``n > p``, numeric and finite values and one column per label
    (:class:`DegenerateSampleError`), refuses a ``center`` that is not a
    bool (:class:`GraphValidationError`), and refuses a repeated label as
    :class:`SampleCovariance` does.
    """
    center = _flag(center, "center")
    x = _data_matrix(data, vertex_order)
    return SampleCovariance(_second_moment(x, center), tuple(vertex_order), n=len(x))


def _condition(a: np.ndarray) -> np.ndarray:
    """The condition number of each symmetric matrix in the stack ``a``
    (B, p, p) by ``eigvalsh``; inf where one is not positive definite."""
    w = np.linalg.eigvalsh(a)
    pd = w[:, 0] > 0
    return np.where(pd, w[:, -1] / np.where(pd, w[:, 0], 1.0), np.inf)


def _solve_spd_stack(a: np.ndarray, b: np.ndarray, what: str | None = None):
    """Solve the stacked systems ``a[i] x = b[i]`` for symmetric ``a`` of
    shape (B, p, p), p >= 1, and ``b`` of shape (B, p, m).

    A system is solved only when ``eigvalsh`` finds ``a[i]`` positive
    definite with condition number at most :data:`COND_LIMIT`.  Returns
    ``(x, ok, cond)``: ``x`` is zero where ``ok`` is false, and ``cond`` is
    each condition number (inf when not positive definite).  Given ``what``,
    a refused system raises :class:`IllConditionedError` naming it instead.
    """
    cond = _condition(a)
    ok = cond <= COND_LIMIT
    if ok.all():
        return np.linalg.solve(a, b), ok, cond
    if what is not None:
        bad = float(cond[~ok][0])
        reason = ("matrix is not positive definite" if bad == float("inf") else
                  f"condition number {bad:.3e} exceeds {COND_LIMIT:.0e}")
        raise IllConditionedError(f"{what}: {reason}", cond=bad)
    x = np.zeros(b.shape)
    x[ok] = np.linalg.solve(a[ok], b[ok])
    return x, ok, cond


def _solve_spd(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """Solve ``a x = b`` for one symmetric positive definite ``a`` by
    :func:`_solve_spd_stack`, raising :class:`IllConditionedError` for a
    system it refuses."""
    x, _, _ = _solve_spd_stack(a[None], (b[:, None] if b.ndim == 1 else b)[None], what)
    return x[0].reshape(b.shape)


@dataclass(frozen=True)
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


def _fit_stack(
    stack: np.ndarray, buckets: BucketDecomposition, fitted, local: dict, strict: bool
):
    """Regress each fitted bucket on its external parents in every
    second-moment matrix of ``stack`` (B, c, c); ``local`` maps a label to
    its column.

    Each bucket's test and solve run once on the whole stack through
    :func:`_solve_spd_stack`.  By Cauchy interlacing a principal submatrix
    is no worse conditioned than the whole matrix, so one test of the
    widest fitted parent set comes first: when every matrix of the stack
    passes it with condition number at most ``COND_LIMIT / 2`` (a margin
    far above the rounding of ``eigvalsh``), the buckets whose parents lie
    inside it are solved untested, as their own tests would pass.
    Otherwise every bucket is tested in turn.  Returns ``(lambdas, omegas,
    ok)``: the blocks, with the stack axis, keyed by fitted bucket index,
    and whether every fitted bucket accepted each matrix.  ``strict``
    raises :class:`IllConditionedError` for the first bucket refusing any
    matrix.
    """
    parents, members = buckets.external_parents, buckets.buckets
    vouched = set()
    widest = max(fitted, key=lambda k: len(parents[k]), default=None)
    if widest is not None and parents[widest]:
        wi = np.array([local[u] for u in parents[widest]], dtype=int)
        if np.all(_condition(stack[:, wi[:, None], wi]) <= COND_LIMIT / 2):
            inside = set(parents[widest])
            vouched = {k for k in fitted if inside.issuperset(parents[k])}
    lambdas, omegas = {}, {}
    ok = np.ones(len(stack), dtype=bool)
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
        if k in vouched:
            lam = np.linalg.solve(spp, spb)
        else:
            what = f"regression of bucket {bucket} on {pa}" if strict else None
            lam, bucket_ok, _ = _solve_spd_stack(spp, spb, what)
            ok &= bucket_ok
        omega = omega - spb.transpose(0, 2, 1) @ lam
        lambdas[k], omegas[k] = lam, (omega + omega.transpose(0, 2, 1)) / 2.0
    return lambdas, omegas, ok


def _block_regression(
    cov: SampleCovariance, buckets: BucketDecomposition, fitted
) -> BlockRecursiveModel:
    """:func:`_fit_stack` on ``cov`` alone."""
    _label_index(cov.vertex_order, buckets.vertex_order, "covariance and bucket decomposition")
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
    pos = _label_index(buckets.vertex_order)
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
    row = _label_index(plan.treatment + plan.d_set)
    for b, (k, dk, pa) in enumerate(zip(plan.bucket_order, plan.d_buckets,
                                        plan.parents_per_bucket)):
        bucket = plan.buckets.buckets[k]
        for v in dk:
            j, d = bucket.index(v), row[v] - n_a
            for i, u in enumerate(pa):  # build_plan puts every parent in A or D
                yield b, i, j, row[u], d


def _effect_matrices(plan: IdentificationPlan, blocks):
    """Lambda_{A,D} and (I - Lambda_{D,D})^{-1} from the coefficient blocks
    of the plan's buckets (aligned with ``plan.bucket_order``).  Blocks may
    carry leading stack axes; the matrices then carry the same ones."""
    n_a = len(plan.treatment)
    lam = np.zeros(blocks[0].shape[:-2] + (n_a + len(plan.d_set), len(plan.d_set)))
    for b, i, j, r, d in _block_entries(plan):
        lam[..., r, d] = blocks[b][..., i, j]
    lam_dd = lam[..., n_a:, :]
    eye = np.eye(len(plan.d_set))
    # the right-hand side carries the stack axes too: numpy < 2 would read a
    # 2-d one beside a 3-d left-hand side as a stack of vectors
    m = np.linalg.solve(eye - lam_dd, np.broadcast_to(eye, lam_dd.shape))
    return lam[..., :n_a, :], m


def _assemble_effect(model: BlockRecursiveModel, plan: IdentificationPlan):
    """:func:`_effect_matrices` of a model, which must hold the plan's blocks."""
    if model.buckets != plan.buckets:
        raise GraphValidationError(
            "model and plan were built from different bucket decompositions"
        )
    blocks = [model.lambda_blocks[k] for k in plan.bucket_order]
    if any(lam is None for lam in blocks):
        raise GraphValidationError("model does not hold every bucket of the plan")
    return _effect_matrices(plan, blocks)


def effect_from_lambda(model: BlockRecursiveModel, plan: IdentificationPlan) -> np.ndarray:
    """tau = Lambda_{A,D} [(I - Lambda_{D,D})^{-1}]_{D,Y}, one entry per
    treatment coordinate.  Coefficients without a corresponding directed
    edge are zero by construction, so an outcome outside the possible
    descendants of the treatment yields exactly zero."""
    lam_ad, m = _assemble_effect(model, plan)
    return lam_ad @ m[:, plan.d_set.index(plan.outcome)]


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
    lam_ad, m = _assemble_effect(model, plan)
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
             size: int, tested: bool = False) -> np.ndarray:
    """The Kronecker quadratic form of :func:`delta_method_acov`, symmetrized,
    for gradient blocks ``grads[k]`` of shape (size, |Pa(B_k)|, |B_k|) and
    residual blocks ``omegas[k]``.  ``tested`` says that the g-regression
    of ``cov`` for ``plan`` has accepted every parent covariance, so they
    are solved without a second test."""
    out = np.zeros((size, size))
    for k, h in grads.items():
        pa = plan.buckets.external_parents[k]
        if not pa or not h.any():
            continue
        pi = cov.positions(pa)
        spp = cov.matrix[np.ix_(pi, pi)]
        flat = h.transpose(1, 0, 2).reshape(len(pa), -1)
        sol = (np.linalg.solve(spp, flat) if tested else
               _solve_spd(spp, flat, f"parent covariance of bucket {k}"))
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

    ``cov`` must cover the vertices of the plan's bucket decomposition,
    as in :func:`g_regression` (:class:`GraphValidationError`).
    """
    _label_index(cov.vertex_order, plan.buckets.vertex_order,
                 "covariance and bucket decomposition")
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
    return float(_sandwich(grads, model_gbar.omega_blocks, plan, cov, 1, tested=True)[0, 0])


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
    treatment, outcome or adjustment label outside ``columns``, or a
    ``center`` that is not a bool, raises :class:`GraphValidationError`
    before any moment is formed.
    """
    center = _flag(center, "center")
    treatment, adjust = _check_treatment(treatment, outcome), tuple(adjust)
    if len(set(adjust)) != len(adjust):
        raise GraphValidationError("adjustment set labels must be distinct")
    overlap = (set(treatment) | {outcome}) & set(adjust)
    if overlap:
        raise GraphValidationError(
            f"adjustment set overlaps treatment/outcome: {sorted(overlap)}"
        )
    index = _label_index(columns)
    for v in treatment + adjust + (outcome,):
        index[v]  # refuses a label outside the columns
    cov = sample_covariance(data, columns, center=center)
    return _adjustment_from_cov(cov, treatment, outcome, adjust)


def _adjustment_from_cov(
    cov: SampleCovariance, treatment: tuple[str, ...], outcome: str, adjust: tuple[str, ...]
) -> EffectEstimate:
    """The regression behind :func:`adjustment_estimate`, on any covariance
    (a population one gives the exact asymptotic variance)."""
    xs = treatment + adjust
    xi = cov.positions(xs)
    yi = cov.positions([outcome])[0]
    sxx = cov.matrix[np.ix_(xi, xi)]
    sxy = cov.matrix[xi, yi]
    beta = _solve_spd(sxx, sxy, "adjustment regression")
    resid_var = float(cov.matrix[yi, yi] - sxy @ beta)
    sxx_inv = np.linalg.solve(sxx, np.eye(len(xs)))  # sxx passed the test above
    n_a = len(treatment)
    acov = resid_var * sxx_inv[:n_a, :n_a]
    return EffectEstimate(
        treatment=treatment,
        outcome=outcome,
        tau=beta[:n_a].copy(),
        acov=acov,
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
    col = _label_index(columns, plan.buckets.vertex_order, "data columns and plan")
    x = _data_matrix(data, columns)
    SampleCovariance(_second_moment(x, center), tuple(columns))  # refused as sample_covariance
    n = x.shape[0]
    labels = list(dict.fromkeys(
        v for k, pa in zip(plan.bucket_order, plan.parents_per_bucket)
        for v in pa + plan.buckets.buckets[k]
    ))
    sub = np.array([col[v] for v in labels], dtype=int)
    grid = np.ix_(sub, sub)
    local = _label_index(labels)
    y = plan.d_set.index(plan.outcome)
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
            idx = rng.integers(0, n, size=n)
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
        lam_ad, m = _effect_matrices(plan, [lambdas[k][ok] for k in plan.bucket_order])
        boot = (lam_ad @ m[:, :, y, None])[:, :, 0]
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
    boot_acov = n * np.cov(taus, rowvar=False).reshape(
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
        columns = tuple(columns) if columns is not None else graph.vertices
        cov = sample_covariance(data, columns, center=center)
    model = g_regression(cov, plan)
    tau = effect_from_lambda(model, plan)
    # the fit accepted every plan bucket's parent covariance: no second test
    acov = _sandwich(effect_gradients(model, plan), model.omega_blocks, plan, cov,
                     len(plan.treatment), tested=True)
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
        est.ci_lower, est.ci_upper, est.boot_acov, est.boot_rejected = bootstrap_ci(
            data, columns, plan, n_boot=n_boot, level=level, seed=seed, center=center,
        )
    return est
