"""Worst-case variance bound, conservative variance estimation, and
normal-approximation confidence intervals for the SNIPE estimator."""
from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .design import Design
from .estimators import _check_lengths, snipe_weights
from .graph import CausalGraph
from .outcomes import OutcomesModel

__all__ = [
    "VarianceReport",
    "worst_case_variance_bound",
    "conservative_variance",
    "confidence_interval",
    "make_report",
]


def worst_case_variance_bound(g: CausalGraph, model: OutcomesModel, design: Design) -> float:
    """Deterministic worst-case variance bound

        (d_in d_out Ymax^2 / n) * (e d_in / beta * max(4 beta^2, 1/(p(1-p))))^beta

    with p the design's probability floor and Ymax the largest per-unit
    l1 coefficient norm (so |Y_i(z)| <= Ymax for every assignment). A
    bound past float64 range is a ValueError, not an inf."""
    p = design.p_floor
    beta = model.beta
    inner = math.e * g.d_in / beta * max(4.0 * beta * beta, 1.0 / (p * (1.0 - p)))
    try:
        bound = g.d_in * g.d_out * model.y_max() ** 2 / g.n * inner**beta
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(f"worst_case_variance_bound: the bound overflows float64 at p={p!r}, beta={beta}")
    return bound


_shared_cache: "weakref.WeakKeyDictionary[CausalGraph, tuple]" = weakref.WeakKeyDictionary()


def _shared_index(g: CausalGraph) -> tuple:
    """Per-graph terms of conservative_variance, built once from
    C = A A^T with A = g.in_csr() (the graph's adjacency store), so that
    C_ij = |N_i & N_j|:

    - the inflation weights K_i = sum_{j : C_ij > 0} (2^{|N_j|} - 2^{|N_j| - C_ij});
    - the pairs i < j sharing two or more in-neighbors, with their shared
      in-neighbors as a CSR matrix (pairs x n, one sorted row per pair).
    """
    cached = _shared_cache.get(g)
    if cached is None:
        a = g.in_csr()
        c = (a @ a.T).tocsr()
        row = np.repeat(np.arange(g.n), np.diff(c.indptr))
        nj = g.in_degrees[c.indices]
        with np.errstate(over="ignore", invalid="ignore"):
            pow2 = 2.0 ** np.arange(g.d_in + 1)
            k_node = np.bincount(row, weights=pow2[nj] - pow2[nj - c.data.astype(np.int64)], minlength=g.n)
        if not np.isfinite(k_node).all():
            raise ValueError(
                f"conservative_variance: in-degree {g.d_in} is too large, the 2^|N_j| "
                "inflation term overflows float64 from in-degree 1024 on"
            )
        multi = (c.data > 1) & (c.indices > row)
        pair_i, pair_j = row[multi], c.indices[multi]
        shared = a[pair_i].multiply(a[pair_j]).tocsr()
        shared.sort_indices()
        cached = (k_node, pair_i, pair_j, shared)
        _shared_cache[g] = cached
    return cached


def conservative_variance(g: CausalGraph, Y, z, design: Design, beta: int):
    """Single-draw conservative variance estimate for snipe_tte.

    Pairs of units that share in-neighbors contribute their realized
    weighted-outcome product scaled by an exact covariance factor of the
    observed joint exposure; exposures that can never co-occur are covered
    by an inflated squared term. Both sums collapse onto the realized
    assignment, and only the mean over draws (not any single draw) is
    guaranteed to upper-bound the true variance. Accepts z of shape (n,)
    or (m, n).

    The pair sum is grouped by shared in-neighbor, so that only the pairs
    sharing two or more in-neighbors are visited one by one: a draw costs
    O(nnz(A) + the shared members of those pairs) work, A = g.in_csr().
    """
    Y, z = _check_lengths(g, Y, z, design)
    A, (k_node, pair_i, pair_j, shared) = g.in_csr(), _shared_index(g)
    w = snipe_weights(g, z, design, beta)
    yw = Y * w
    u = np.where(z == 1, design.probs, 1.0 - design.probs)
    # products over CSR rows as sums of logs (Design keeps u > 0); empty ones give 1
    log_u = np.log(u)
    p_node = np.exp(log_u @ A.T, order="C")
    # term 1 by shared in-neighbor k, S = A^T yw: S_k^2 minus its diagonal
    # weighs each pair i != j by sum_{k shared} (1 - u_k), which is its
    # factor 1 - prod_{k shared} u_k whenever the pair shares one k. Every
    # summed array is C-ordered (np.take, not yw[..., idx]; order="C"), so a
    # batch sums each draw exactly as a single draw does
    yw2 = yw * yw
    s, s2 = (np.ascontiguousarray(v @ A) for v in (yw, yw2))
    term1 = ((1.0 - u) * (s * s - s2)).sum(axis=-1) + (yw2 * (1.0 - p_node)).sum(axis=-1)
    # the pairs sharing two or more, reduced over their rows of `shared`
    excess = (1.0 - u) @ shared.T
    q = np.exp(log_u @ shared.T, order="C")
    yw_ij = np.take(yw, pair_i, axis=-1) * np.take(yw, pair_j, axis=-1)
    term1 = term1 - 2.0 * (yw_ij * (excess + q - 1.0)).sum(axis=-1)
    term2 = (p_node * yw * yw * k_node).sum(axis=-1)
    out = (term1 + term2) / (g.n * g.n)
    return float(out) if np.ndim(out) == 0 else out


def confidence_interval(estimate: float, variance: float, alpha: float) -> tuple[float, float]:
    """Two-sided normal interval estimate +- sqrt(variance) * Phi^-1(1 - alpha/2)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if variance < 0.0:
        raise ValueError("variance must be non-negative")
    half = math.sqrt(variance) * NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return (estimate - half, estimate + half)


@dataclass
class VarianceReport:
    """Point estimate with its variance diagnostics and interval."""

    point_estimate: float
    empirical_variance: float | None
    conservative_estimate: float
    worst_case_variance_bound: float | None
    ci_low: float
    ci_high: float
    alpha: float
    floored: bool = False  # a negative conservative draw was clipped for the CI

    def csv_row(self) -> str:
        def fmt(v):
            return "NA" if v is None else format(v, ".17g")

        return ",".join(
            [
                fmt(self.point_estimate),
                fmt(self.empirical_variance),
                fmt(self.conservative_estimate),
                fmt(self.worst_case_variance_bound),
                fmt(self.ci_low),
                fmt(self.ci_high),
            ]
        )


def make_report(
    estimate: float,
    conservative: float,
    alpha: float = 0.05,
    bound: float | None = None,
    empirical: float | None = None,
    design: Design | None = None,
) -> VarianceReport:
    """Assemble a VarianceReport; the conservative value is reported raw but
    floored at zero for interval construction, with a flag."""
    if design is not None and np.any(design.probs > 0.5):
        warnings.warn(
            "confidence intervals with treatment probabilities above 1/2 are "
            "outside the regime of the normal-approximation guarantee",
            stacklevel=2,
        )
    floored = conservative < 0.0
    lo, hi = confidence_interval(estimate, max(conservative, 0.0), alpha)
    return VarianceReport(
        point_estimate=float(estimate),
        empirical_variance=empirical,
        conservative_estimate=float(conservative),
        worst_case_variance_bound=bound,
        ci_low=lo,
        ci_high=hi,
        alpha=alpha,
        floored=floored,
    )
