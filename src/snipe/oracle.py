"""Exhaustive-enumeration ground truth for small designs.

Every statistic here is computed by visiting all 2^n treatment vectors
with their exact Bernoulli probabilities, so it is independent of any
estimator's own algebra and serves as the verification backbone for
unbiasedness and variance claims.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import Design

__all__ = ["ExactMoments", "MAX_ORACLE_N", "enumerate_assignments", "exact_moments", "exact_product_expectation"]

MAX_ORACLE_N = 20  # 2^20 evaluations; anything larger is out of oracle scope
_CHUNK = 1 << 13


def enumerate_assignments(n: int) -> np.ndarray:
    """All 2^n binary vectors as a (2^n, n) array, row r = bits of r."""
    if n > MAX_ORACLE_N:
        raise ValueError(f"n = {n} exceeds the exhaustive-enumeration cap {MAX_ORACLE_N}")
    codes = np.arange(1 << n, dtype=np.int64)
    return ((codes[:, None] >> np.arange(n)) & 1).astype(np.int64)


def _assignment_probs(Z: np.ndarray, design: Design) -> np.ndarray:
    P = np.ones(Z.shape[0])
    for j in range(Z.shape[1]):
        P *= np.where(Z[:, j] == 1, design.probs[j], 1.0 - design.probs[j])
    return P


@dataclass
class ExactMoments:
    """Exact mean and variance of an estimator over the full design support."""

    mean: float
    variance: float
    support: int
    estimator: str = ""


def exact_moments(estimator, design: Design, batch: bool = False, label: str = "") -> ExactMoments:
    """Exact E[est] and Var[est] over all 2^n assignments.

    Args:
        estimator: callable z -> float (or, with batch=True, a callable
            mapping a (m, n) block of assignments to m estimates at once).
        design: the Bernoulli design supplying assignment probabilities.
        batch: feed assignment blocks instead of single vectors.
    """
    n = design.n
    if n > MAX_ORACLE_N:
        raise ValueError(f"n = {n} exceeds the exhaustive-enumeration cap {MAX_ORACLE_N}")
    total_p = 0.0
    mean = 0.0
    second = 0.0
    size = 1 << n
    for start in range(0, size, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, size), dtype=np.int64)
        Z = ((codes[:, None] >> np.arange(n)) & 1).astype(np.int64)
        P = _assignment_probs(Z, design)
        if batch:
            vals = np.asarray(estimator(Z), dtype=np.float64)
        else:
            vals = np.array([estimator(Z[r]) for r in range(Z.shape[0])])
        total_p += float(P.sum())
        mean += float(P @ vals)
        second += float(P @ (vals * vals))
    if abs(total_p - 1.0) > 1e-12:
        raise AssertionError(f"probability mass {total_p} differs from 1 by more than 1e-12")
    variance = second - mean * mean
    return ExactMoments(mean=mean, variance=variance, support=size, estimator=label)


def exact_product_expectation(S, S_prime, design: Design) -> float:
    """Exhaustive E[prod_{j in S} (z_j - p_j)/(p_j(1-p_j)) * prod_{j' in S'} z_j'].

    Used to validate the closed form 1(S subset of S') * prod_{S'\\S} p.
    """
    S = [int(v) for v in S]
    Sp = [int(v) for v in S_prime]
    p = design.probs

    def product(Z):
        vals = np.ones(Z.shape[0])
        for j in S:
            vals *= (Z[:, j] - p[j]) / (p[j] * (1.0 - p[j]))
        for j in Sp:
            vals *= Z[:, j]
        return vals

    return exact_moments(product, design, batch=True).mean
