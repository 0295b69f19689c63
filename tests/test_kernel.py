"""Property tests of the neighborhood-polynomial kernel on small random
graphs: empty rows, missing self-loops, tied in-degrees, a hub and the
edgeless graph, against literal subset enumeration."""
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from snipe import Design, snipe_weights
from snipe.estimators import _ate_weights

from _util import ate_weight_reference, small_graphs, subset_weight_reference


def _weight_scale(g, i, z, p, beta):
    # sum of |terms| the kernel adds: each subset S contributes
    # prod_S (1-p) f and prod_S (-p) f, f = (z - p)/(p (1 - p))
    f = (z - p) / (p * (1.0 - p))
    nb = g.in_neighborhood(i).tolist()
    total = 0.0
    for k in range(1, min(beta, len(nb)) + 1):
        for S in combinations(nb, k):
            total += abs(np.prod((1.0 - p[list(S)]) * f[list(S)])) + abs(np.prod(p[list(S)] * f[list(S)]))
    return total


def _ate_scale(g, i, z, p, beta):
    # sum of |terms| of the direct-effect weight: |h_i prod_V h| / p_i
    h = (p - z) / (1.0 - p)
    others = [j for j in g.in_neighborhood(i).tolist() if j != i]
    terms = [abs(h[i] * np.prod(h[list(V)])) for k in range(beta) for V in combinations(others, k)]
    return sum(terms) / p[i]


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_subset_enumeration(g, seed):
    rng = np.random.default_rng(seed)
    d = Design(rng.uniform(0.05, 0.95, g.n))
    Z = (rng.random((3, g.n)) < d.probs).astype(np.int64)
    for beta in (1, 2, 3):
        W = snipe_weights(g, Z, d, beta)
        A = _ate_weights(g, Z, d, beta)
        for r, z in enumerate(Z):
            assert np.array_equal(snipe_weights(g, z, d, beta), W[r])
            assert np.array_equal(_ate_weights(g, z, d, beta), A[r])
            for i in range(g.n):
                want = subset_weight_reference(g, i, z, d, beta)
                tol = 1e-12 * _weight_scale(g, i, z, d.probs, beta)
                assert abs(W[r, i] - want) <= tol, (beta, i)
                if g.has_self_loop[i]:
                    want = ate_weight_reference(g, i, z, d, beta)
                    tol = 1e-12 * _ate_scale(g, i, z, d.probs, beta)
                    assert abs(A[r, i] - want) <= tol, (beta, i)
