"""Shared helpers for the test suite: random instance factories and slow
reference implementations used as cross-checks."""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from snipe import CausalGraph, Design, gen_erdos_renyi, gen_experiment_model, uniform_design


def random_graph(rng, n, p_edge=0.4, self_loops=True):
    return gen_erdos_renyi(n, p_edge, self_loops=self_loops, seed=int(rng.integers(2**31)))


def random_design(rng, n, uniform=None, lo=0.1, hi=0.9):
    if uniform is not None:
        return uniform_design(n, uniform)
    return Design(rng.uniform(lo, hi, n))


def random_model(rng, g, beta, r=1.5, scale=1.0):
    return gen_experiment_model(g, beta, r, int(rng.integers(2**31)), scale=scale)


def graph_from_neighbors(neighbors):
    return CausalGraph([np.asarray(sorted(nb), dtype=np.int64) for nb in neighbors])


def subset_weight_reference(g, i, z, design, beta):
    """Literal subset-enumeration weight, fully independent of the package's
    own combinatorics (recomputes the factor products from scratch)."""
    p = design.probs
    z = np.asarray(z)
    total = 0.0
    nb = g.in_neighborhood(i).tolist()
    for k in range(1, min(beta, len(nb)) + 1):
        for S in combinations(nb, k):
            gs = np.prod([1.0 - p[j] for j in S]) - np.prod([-p[j] for j in S])
            fac = np.prod([(z[j] - p[j]) / (p[j] * (1.0 - p[j])) for j in S])
            total += gs * fac
    return total


def ate_weight_reference(g, i, z, design, beta):
    """Literal subset-enumeration direct-effect weight: (-1/p_i) times the
    sum over U in N_i with i in U, |U| <= beta, of prod_{j in U} h_j,
    h_j = (p_j - z_j)/(1 - p_j); the terms are summed exactly."""
    p = design.probs
    z = np.asarray(z)
    h = {j: (p[j] - z[j]) / (1.0 - p[j]) for j in g.in_neighborhood(i).tolist()}
    others = [j for j in h if j != i]
    terms = [
        h[i] * float(np.prod([h[j] for j in V]))
        for k in range(beta)
        for V in combinations(others, k)
    ]
    return -math.fsum(terms) / p[i]


def conservative_variance_reference(g, Y, z, design, beta):
    """Direct per-pair implementation of the conservative variance estimate,
    used to validate the vectorized production path on small graphs."""
    from snipe.estimators import snipe_weights

    n = g.n
    p = design.probs
    z = np.asarray(z)
    w = snipe_weights(g, z, design, beta)
    yw = np.asarray(Y) * w
    u = np.where(z == 1, p, 1.0 - p)
    nbrs = [set(g.in_neighborhood(i).tolist()) for i in range(n)]
    term1 = 0.0
    term2 = 0.0
    for i in range(n):
        k_i = 0.0
        for j in range(n):
            inter = nbrs[i] & nbrs[j]
            if not inter:
                continue
            q = np.prod([u[k] for k in sorted(inter)])
            term1 += yw[i] * yw[j] * (1.0 - q)
            k_i += 2.0 ** len(nbrs[j]) - 2.0 ** len(nbrs[j] - nbrs[i])
        p_i = np.prod([u[k] for k in sorted(nbrs[i])]) if nbrs[i] else 1.0
        term2 += p_i * yw[i] ** 2 * k_i
    return (term1 + term2) / n**2
