"""Worst-case variance bound, conservative variance estimation, and
normal-approximation confidence intervals for the SNIPE estimator."""
from __future__ import annotations

import math
import warnings
import weakref
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ._segments import segment_prod
from .design import Design
from .estimators import _check_lengths, snipe_weights
from .graph import CausalGraph, DependencyIndex, dependency_index
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
    l1 coefficient norm (so |Y_i(z)| <= Ymax for every assignment)."""
    p = design.p_floor
    beta = model.beta
    inner = math.e * g.d_in / beta * max(4.0 * beta * beta, 1.0 / (p * (1.0 - p)))
    return g.d_in * g.d_out * model.y_max() ** 2 / g.n * inner**beta


_pair_cache: "weakref.WeakKeyDictionary[CausalGraph, tuple]" = weakref.WeakKeyDictionary()


def _pair_index(g: CausalGraph) -> tuple[DependencyIndex, np.ndarray]:
    """The graph's dependency pairs with the per-node inflation weights
    K_i = sum_{j in M_i} (2^{|N_j|} - 2^{|N_j \\ N_i|}), cached per graph."""
    cached = _pair_cache.get(g)
    if cached is None:
        idx = dependency_index(g)
        # |N_j \ N_i| = |N_j| - |intersection|
        nj = g.in_degrees[idx.pair_j].astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            k_pair = 2.0**nj - 2.0 ** (nj - np.diff(idx.inter_off))
        k_node = np.bincount(idx.pair_i, weights=k_pair, minlength=g.n)
        if not np.isfinite(k_node).all():
            raise ValueError(
                f"conservative_variance: in-degree {g.d_in} is too large, the 2^|N_j| "
                "inflation term overflows float64 from in-degree 1024 on"
            )
        cached = (idx, k_node)
        _pair_cache[g] = cached
    return cached


def conservative_variance(g: CausalGraph, Y, z, design: Design, beta: int):
    """Single-draw conservative variance estimate for snipe_tte.

    Pairs of units that share in-neighbors contribute their realized
    weighted-outcome product scaled by an exact covariance factor of the
    observed joint exposure; exposures that can never co-occur are covered
    by an inflated squared term. Both sums collapse onto the realized
    assignment, so one draw costs O(sum_i |M_i|) work, and only the mean
    over draws (not any single draw) is guaranteed to upper-bound the true
    variance. Accepts z of shape (n,) or (m, n).
    """
    Y, z = _check_lengths(g, Y, z)
    idx, k_node = _pair_index(g)
    w = snipe_weights(g, z, design, beta)
    yw = Y * w
    u = np.where(np.asarray(z) == 1, design.probs, 1.0 - design.probs)
    # q = realized-exposure probability over the pair's shared in-neighbors
    q = segment_prod(u[..., idx.inter_flat], idx.inter_off)
    term1 = (yw[..., idx.pair_i] * yw[..., idx.pair_j] * (1.0 - q)).sum(axis=-1)
    p_node = segment_prod(u[..., g.nb_flat], g.nb_off)
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
