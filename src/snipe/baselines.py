"""Comparison estimators: Horvitz-Thompson, difference-in-means (plain and
neighborhood-thresholded), and polynomial least-squares regression with
anonymous-interference covariates."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import Design
from .estimators import _check_lengths, _check_order, _treated_counts
from .graph import CausalGraph

__all__ = [
    "UndefinedEstimateError",
    "RegressionFit",
    "ht_tte",
    "dm_tte",
    "dm_thresh_tte",
    "ls_fit",
    "ls_tte",
]


class UndefinedEstimateError(ValueError):
    """An estimator's defining ratio has an empty group for this draw."""


def ht_tte(g: CausalGraph, Y, z, design: Design):
    """Horvitz-Thompson contrast of fully-treated vs fully-control
    neighborhoods, inverse-weighted by their design probabilities. Exactly
    unbiased under arbitrary neighborhood interference, but the indicators
    are almost always both zero once degrees are moderate."""
    Y, z = _check_lengths(g, Y, z, design)
    # products over N_i as sums of logs, finite because Design keeps 0 < p < 1
    A, p = g.in_csr(), design.probs
    prob_all = np.exp(A @ np.log(p))
    prob_none = np.exp(A @ np.log1p(-p))
    counts = _treated_counts(g, z)
    # an exposure that did not occur contributes 0, even where its
    # probability underflows to 0 on a hub; empty neighborhoods give 1/1 - 1/1
    all_t = counts == g.in_degrees
    none_t = counts == 0
    w = np.divide(all_t, prob_all, out=np.zeros(all_t.shape), where=all_t)
    w -= np.divide(none_t, prob_none, out=np.zeros(none_t.shape), where=none_t)
    return (Y * w).mean(axis=-1)


def dm_tte(Y, z) -> float:
    """Treated-group mean minus control-group mean."""
    Y, z = _check_lengths(None, Y, z)
    n_t = int(z.sum())
    if n_t == 0 or n_t == z.size:
        raise UndefinedEstimateError("difference-in-means needs both groups non-empty")
    return float(Y[z == 1].mean() - Y[z == 0].mean())


def dm_thresh_tte(g: CausalGraph, Y, z, thresh: float) -> float:
    """Difference-in-means restricted to units whose non-self neighborhood
    is at least a `thresh` fraction same-assignment as the unit itself.

    Units with no non-self neighbors satisfy the condition vacuously.
    """
    if not 0.0 <= thresh <= 1.0:
        raise ValueError("thresh must lie in [0, 1]")
    Y, z = _check_lengths(g, Y, z)
    counts = _treated_counts(g, z)
    treated_nb = counts - z * g.has_self_loop  # treated units in N_i \ {i}
    size = g.in_degrees - g.has_self_loop
    control_nb = size - treated_nb
    keep_t = (z == 1) & (treated_nb >= thresh * size)
    keep_c = (z == 0) & (control_nb >= thresh * size)
    if not keep_t.any() or not keep_c.any():
        raise UndefinedEstimateError("thresholded difference-in-means has an empty group")
    return float(Y[keep_t].mean() - Y[keep_c].mean())


@dataclass
class RegressionFit:
    """Least-squares fit of outcome on own treatment and a neighborhood
    covariate, polynomial of degree beta.

    The model is
        g(z_i, X_i) = rho + sum_{k=1..beta} gamma_k X_i^k
                      + z_i * (rho~ + sum_{k=1..beta-1} gamma~_k X_i^k),
    with 2 beta + 1 coefficients stored as
    [rho, gamma_1..gamma_beta, rho~, gamma~_1..gamma~_{beta-1}].
    """

    coefficients: np.ndarray
    beta: int
    covariate: str  # "count" | "proportion"
    cond: float
    ridge: float

    def predict(self, zi, x):
        """The fitted outcome at treatment zi and covariate x; x may be an
        array, and each element then matches a scalar call bit for bit."""
        c = self.coefficients
        beta = self.beta
        base = c[0] + sum(c[k] * x**k for k in range(1, beta + 1))
        inter = c[beta + 1] + sum(c[beta + 1 + k] * x**k for k in range(1, beta))
        return base + zi * inter


def _ls_covariate(g: CausalGraph, z, covariate: str) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    treated_nb = _treated_counts(g, z) - z * g.has_self_loop
    if covariate == "count":
        return treated_nb
    if covariate == "proportion":
        size = (g.in_degrees - g.has_self_loop).astype(np.float64)
        return np.divide(treated_nb, size, out=np.zeros(g.n), where=size > 0)
    raise ValueError("covariate must be 'count' or 'proportion'")


def ls_fit(g: CausalGraph, Y, z, beta: int, covariate: str = "count") -> RegressionFit:
    """Fit the degree-beta regression by normal equations; a tiny ridge
    (1e-10 * mean Gram diagonal) is added only when the Gram matrix is
    numerically singular, e.g. when z is constant."""
    beta = _check_order(beta, "beta")
    Y, z = _check_lengths(g, Y, z)
    z = z.astype(np.float64)
    m = 2 * beta + 1
    if g.n < m:
        raise ValueError(f"underdetermined: n = {g.n} < {m} coefficients")
    x = _ls_covariate(g, z, covariate)
    cols = [np.ones(g.n)]
    cols += [x**k for k in range(1, beta + 1)]
    cols += [z]
    cols += [z * x**k for k in range(1, beta)]
    X = np.stack(cols, axis=1)
    gram = X.T @ X
    rhs = X.T @ Y
    cond = float(np.linalg.cond(gram))
    ridge = 0.0
    if not np.isfinite(cond) or cond > 1e12:
        ridge = 1e-10 * float(np.trace(gram)) / m
        gram = gram + ridge * np.eye(m)
    coeffs = np.linalg.solve(gram, rhs)
    return RegressionFit(coefficients=coeffs, beta=beta, covariate=covariate, cond=cond, ridge=ridge)


def ls_tte(fit: RegressionFit, g: CausalGraph) -> float:
    """Plug-in contrast of everyone-treated vs no-one-treated under the
    fitted anonymous model: the count covariate extrapolates each unit to
    all non-self neighbors treated, the proportion covariate to 1."""
    if fit.covariate == "count":
        x = (g.in_degrees - g.has_self_loop).astype(np.float64)
        return math.fsum(fit.predict(1.0, x) - fit.predict(0.0, 0.0)) / g.n
    return float(fit.predict(1.0, 1.0) - fit.predict(0.0, 0.0))
