"""Shared helpers for the test suite: random instance factories and slow
reference implementations used as cross-checks."""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from hypothesis import strategies as st

from snipe import (
    CausalGraph,
    DegenerateModelError,
    Design,
    gen_erdos_renyi,
    gen_experiment_model,
    uniform_design,
)


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


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 10))
    rows = [draw(st.sets(st.integers(0, n - 1))) for _ in range(n)]
    kind = draw(st.sampled_from(["random", "no self-loops", "tied", "hub", "edgeless"]))
    if kind == "no self-loops":
        rows = [r - {i} for i, r in enumerate(rows)]
    elif kind == "tied":  # every node has in-degree d
        d = draw(st.integers(0, n))
        rows = [{(i + k) % n for k in range(d)} for i in range(n)]
    elif kind == "hub":
        rows[draw(st.integers(0, n - 1))] = set(range(n))
    elif kind == "edgeless":
        rows = [set() for _ in range(n)]
    return graph_from_neighbors(rows)


def expand_power(weights: dict[int, float], ell: int) -> dict[tuple[int, ...], float]:
    """Exact subset coefficients of (sum_j w_j z_j)**ell over binary z.

    Repeated factors collapse along the way (z_j**2 = z_j), so the result
    never contains subsets larger than ell.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    items = sorted((int(j), float(w)) for j, w in weights.items())
    cur: dict[tuple[int, ...], float] = {(j,): w for j, w in items}
    for _ in range(ell - 1):
        nxt: dict[tuple[int, ...], float] = {}
        for subset, coeff in cur.items():
            for j, w in items:
                key = subset if j in subset else tuple(sorted(subset + (j,)))
                nxt[key] = nxt.get(key, 0.0) + coeff * w
        cur = nxt
    return cur


def experiment_model_reference(g, beta, r, seed, scale=1.0):
    """The per-node dict build of `gen_experiment_model`, kept verbatim from
    before its terms were built as arrays: the same draws, then one dict per
    node expanded with `expand_power`. Returns the per-node term maps."""
    rng = np.random.default_rng(seed)
    n = g.n
    c_base = rng.random(n) * scale
    c_self = rng.random(n) * scale
    v = rng.random(n) * (scale * r)

    # share v_j among out-neighbors of j (selves excluded on both sides),
    # proportional to the receiving node's in-degree
    denom = g.in_csr().T @ g.in_degrees
    denom -= g.in_degrees * g.has_self_loop  # self-loop edges do not receive influence
    denom[denom == 0.0] = 1.0

    terms = []
    for i in range(n):
        nb = g.in_neighborhood(i)
        w = np.where(nb == i, c_self[i], v[nb] * g.in_degrees[i] / denom[nb])
        tmap = {(): float(c_base[i])}
        for j, wj in zip(nb.tolist(), w.tolist()):
            tmap[(j,)] = tmap.get((j,), 0.0) + wj
        if beta >= 2:
            total = float(w.sum())
            if total == 0.0:
                raise DegenerateModelError(
                    f"node {i}: zero total linear weight, cannot normalize interaction terms"
                )
            norm = {int(j): float(wj) / total for j, wj in zip(nb, w)}
            for ell in range(2, beta + 1):
                for subset, coeff in expand_power(norm, ell).items():
                    tmap[subset] = tmap.get(subset, 0.0) + coeff
        terms.append(tmap)
    return terms


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


def overflow_instance():
    """G(200, 0.05) with seed 1, a beta=2 benchmark model (r=2, seed 2) and
    the first 3 units treated: at uniform p of 1e-160 or less, the uniform
    weight table and the worst-case bound leave float64 range."""
    g = gen_erdos_renyi(200, 0.05, self_loops=True, seed=1)
    model = gen_experiment_model(g, 2, 2.0, 2)
    z = np.zeros(200, dtype=np.int64)
    z[:3] = 1
    return g, model, z
